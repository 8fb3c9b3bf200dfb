"""Tests for the dashboard's graph rendering and sparklines."""

import pytest

from repro.core import EmulationEngine, EngineConfig, collapse
from repro.dashboard import (
    Dashboard,
    render_adjacency,
    render_collapsed_matrix,
    render_flow_history,
    sparkline,
)
from repro.scenario import topologies


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_zero(self):
        assert sparkline([0.0, 0.0, 0.0]) == "▁▁▁"

    def test_monotone_ramp(self):
        strip = sparkline([1.0, 2.0, 3.0, 4.0])
        assert len(strip) == 4
        assert strip[-1] == "█"
        # Non-decreasing bar heights for a ramp.
        assert list(strip) == sorted(strip)

    def test_compresses_to_width(self):
        strip = sparkline(list(range(1000)), width=50)
        assert len(strip) == 50
        assert strip[-1] == "█"

    def test_peak_position(self):
        strip = sparkline([0.0, 10.0, 0.0])
        assert strip[1] == "█"
        assert strip[0] == "▁"


class TestAdjacency:
    def test_lists_nodes_and_links(self):
        text = render_adjacency(
            topologies.star(["a", "b"], bandwidth=1e9).compile().topology)
        assert "[svc] a" in text
        assert "[brg] hub" in text
        assert "-> hub" in text
        assert "1Gbps" in text

    def test_isolated_node_marked(self):
        from repro.topology import Service, Topology
        topology = Topology("iso")
        topology.add_service(Service("lonely"))
        assert "(isolated)" in render_adjacency(topology)


class TestCollapsedMatrix:
    def test_symmetric_pair(self):
        collapsed = collapse(
            topologies.point_to_point(10e6, latency=0.020).compile().topology)
        text = render_collapsed_matrix(collapsed)
        assert "client" in text and "server" in text
        assert "20ms/10Mbps" in text
        assert text.count("-") >= 2  # the diagonal

    def test_clipping(self):
        topology = topologies.star(
            [f"n{i}" for i in range(20)]).compile().topology
        text = render_collapsed_matrix(collapse(topology), limit=5)
        assert "clipped to the first 5" in text

    def test_source_filter(self):
        collapsed = collapse(
            topologies.point_to_point(10e6).compile().topology)
        text = render_collapsed_matrix(collapsed, sources=["client"])
        assert text.count("client") >= 1
        # Only one row (client); server appears as a column… not a row.
        rows = [line for line in text.splitlines()
                if line.startswith("server")]
        assert not rows


class TestDashboardIntegration:
    def make_engine(self):
        engine = EmulationEngine(
            topologies.point_to_point(50e6).compile().topology,
                                 config=EngineConfig(machines=2, seed=5))
        engine.start_flow("f", "client", "server")
        engine.run(until=2.0)
        return engine

    def test_render_graph(self):
        dashboard = Dashboard(self.make_engine())
        text = dashboard.render_graph()
        assert "adjacency" in text
        assert "collapsed end-to-end" in text

    def test_render_managers(self):
        dashboard = Dashboard(self.make_engine())
        text = dashboard.render_managers()
        assert "host-0" in text and "host-1" in text
        assert "loops=" in text

    def test_flow_history_sparkline(self):
        engine = self.make_engine()
        text = render_flow_history(engine.fluid, "f")
        assert text.startswith("f:")
        assert "peak=" in text

    def test_flow_histories_section(self):
        dashboard = Dashboard(self.make_engine())
        assert "f:" in dashboard.render_flow_histories()

    def test_flow_histories_empty(self):
        engine = EmulationEngine(
            topologies.point_to_point(50e6).compile().topology,
                                 config=EngineConfig(seed=5))
        assert "(none)" in Dashboard(engine).render_flow_histories()

    def test_full_render_includes_managers(self):
        dashboard = Dashboard(self.make_engine())
        assert "emulation managers:" in dashboard.render()
