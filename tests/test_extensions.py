"""The §6/§7 extensions: multipath, interactivity, time dilation,
event-driven metadata."""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.core.multipath import (
    MultipathProperties,
    k_shortest_paths,
    multipath_collapse,
)
from repro.core.properties import PathProperties
from repro.topology import (
    Bridge,
    DynamicEvent,
    EventAction,
    LinkProperties,
    Service,
    Topology,
)
from repro.scenario import topologies

MBPS = 1e6


def diamond_topology():
    """a -> {upper, lower} -> b: two disjoint paths of different latency."""
    topology = Topology("diamond")
    topology.add_service(Service("a"))
    topology.add_service(Service("b"))
    topology.add_bridge(Bridge("upper"))
    topology.add_bridge(Bridge("lower"))
    topology.add_link("a", "upper", LinkProperties(latency=0.005,
                                                   bandwidth=100 * MBPS))
    topology.add_link("upper", "b", LinkProperties(latency=0.005,
                                                   bandwidth=100 * MBPS))
    topology.add_link("a", "lower", LinkProperties(latency=0.020,
                                                   bandwidth=50 * MBPS))
    topology.add_link("lower", "b", LinkProperties(latency=0.020,
                                                   bandwidth=50 * MBPS))
    return topology


class TestKShortestPaths:
    def test_first_path_is_shortest(self):
        paths = k_shortest_paths(diamond_topology(), "a", "b", k=1)
        assert len(paths) == 1
        assert paths[0][0].destination == "upper"

    def test_second_path_is_alternative(self):
        paths = k_shortest_paths(diamond_topology(), "a", "b", k=2)
        assert len(paths) == 2
        assert paths[1][0].destination == "lower"

    def test_k_larger_than_path_count(self):
        paths = k_shortest_paths(diamond_topology(), "a", "b", k=10)
        assert len(paths) == 2  # only two exist

    def test_paths_are_loop_free(self):
        for path in k_shortest_paths(diamond_topology(), "a", "b", k=5):
            nodes = ["a"] + [link.destination for link in path]
            assert len(nodes) == len(set(nodes))

    def test_unreachable_returns_empty(self):
        topology = diamond_topology()
        topology.add_service(Service("isolated"))
        assert k_shortest_paths(topology, "a", "isolated", k=2) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            k_shortest_paths(diamond_topology(), "a", "b", k=0)


class TestMultipathCollapse:
    def test_aggregate_bandwidth_sums_paths(self):
        properties = multipath_collapse(diamond_topology(), "a", "b", k=2)
        assert properties.bandwidth == 150 * MBPS

    def test_latency_is_mixture_mean(self):
        properties = multipath_collapse(diamond_topology(), "a", "b", k=2)
        assert properties.latency == pytest.approx((0.010 + 0.040) / 2)

    def test_path_spread_appears_as_jitter(self):
        properties = multipath_collapse(diamond_topology(), "a", "b", k=2)
        assert properties.jitter == pytest.approx(0.015)  # half the spread

    def test_single_path_reduces_to_plain_collapse(self):
        properties = multipath_collapse(diamond_topology(), "a", "b", k=1)
        assert properties.bandwidth == 100 * MBPS
        assert properties.jitter == 0.0


class TestInteractivity:
    def test_online_event_applies_immediately(self):
        engine = EmulationEngine(
            topologies.point_to_point(50 * MBPS).compile().topology,
                                 config=EngineConfig(machines=1, seed=3))
        engine.start_flow("f", "client", "server")
        engine.run(until=5.0)
        engine.apply_event_online(DynamicEvent(
            time=engine.sim.now, action=EventAction.SET_LINK,
            origin="client", destination="s0",
            changes={"bandwidth": 5 * MBPS}))
        engine.run(until=10.0)
        assert engine.fluid.mean_throughput("f", 7.0, 10.0) == \
            pytest.approx(5 * MBPS, rel=0.15)

    def test_online_event_updates_latency_plane(self):
        from repro.netstack.packet import Packet
        engine = EmulationEngine(
            topologies.point_to_point(1e9, latency=0.010).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        engine.run(until=1.0)
        engine.apply_event_online(DynamicEvent(
            time=engine.sim.now, action=EventAction.SET_LINK,
            origin="client", destination="s0", changes={"latency": 0.050}))
        arrivals = []
        engine.dataplane.send(Packet("client", "server", 800),
                              lambda p: arrivals.append(engine.sim.now - 1.0))
        engine.run(until=2.0)
        assert arrivals[0] == pytest.approx(0.055, rel=0.02)


class TestTimeDilation:
    def test_overprovisioned_link_rejected(self):
        topology = topologies.point_to_point(
            100e9).compile().topology  # 100G on a 40G cluster
        with pytest.raises(ValueError):
            EmulationEngine(topology, config=EngineConfig())

    def test_time_dilation_admits_it(self):
        topology = topologies.point_to_point(100e9).compile().topology
        engine = EmulationEngine(topology,
                                 config=EngineConfig(time_dilation=4.0))
        engine.start_flow("f", "client", "server")
        engine.run(until=5.0)
        assert engine.fluid.mean_throughput("f", 2.0, 5.0) == \
            pytest.approx(100e9, rel=0.10)

    def test_disabled_check_admits_anything(self):
        topology = topologies.point_to_point(100e9).compile().topology
        EmulationEngine(topology, config=EngineConfig(
            enforce_physical_limits=False))

    def test_dilation_below_one_rejected(self):
        with pytest.raises(ValueError):
            EmulationEngine(topologies.point_to_point(1e6).compile().topology,
                            config=EngineConfig(time_dilation=0.5))

    def test_dynamic_states_also_checked(self):
        from repro.topology import EventSchedule
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"bandwidth": 100e9})])
        with pytest.raises(ValueError):
            EmulationEngine(
                topologies.point_to_point(1e6).compile().topology, schedule,
                            config=EngineConfig())


class TestEventDrivenMetadata:
    def run_engine(self, on_change_only: bool) -> int:
        engine = EmulationEngine(
            topologies.dumbbell(
                2, shared_bandwidth=50 * MBPS).compile().topology,
            config=EngineConfig(machines=2, seed=4,
                                metadata_on_change_only=on_change_only))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=10.0)
        return (engine.total_metadata_wire_bytes(),
                engine.fluid.mean_throughput("f0", 6.0, 10.0)
                + engine.fluid.mean_throughput("f1", 6.0, 10.0))

    def test_change_only_reduces_traffic(self):
        periodic_bytes, periodic_rate = self.run_engine(False)
        change_bytes, change_rate = self.run_engine(True)
        # Steady long-lived flows: most periodic reports are redundant.
        assert change_bytes < periodic_bytes * 0.8
        # Emulation fidelity preserved.
        assert change_rate == pytest.approx(periodic_rate, rel=0.10)
        assert change_rate == pytest.approx(50 * MBPS, rel=0.10)
