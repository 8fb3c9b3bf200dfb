"""The textual dashboard renders engine state without crashing or lying."""

from repro.core import EmulationEngine, EngineConfig
from repro.dashboard import Dashboard
from repro.scenario import topologies


def build():
    engine = EmulationEngine(topologies.dumbbell(2).compile().topology,
                             config=EngineConfig(machines=2, seed=1))
    return engine, Dashboard(engine)


class TestDashboard:
    def test_render_topology_mentions_counts(self):
        engine, dashboard = build()
        text = dashboard.render_topology()
        assert "4 services" in text
        assert "2 bridges" in text

    def test_render_services_shows_placement(self):
        engine, dashboard = build()
        text = dashboard.render_services()
        assert "client0" in text
        assert "host-0" in text or "host-1" in text

    def test_render_flows_empty_then_active(self):
        engine, dashboard = build()
        assert "(none)" in dashboard.render_flows()
        engine.start_flow("f", "client0", "server0")
        engine.run(until=1.0)
        assert "client0->server0" in dashboard.render_flows()

    def test_render_metadata_lists_machines(self):
        engine, dashboard = build()
        text = dashboard.render_metadata()
        assert "host-0" in text and "host-1" in text

    def test_event_log_bounded(self):
        engine, dashboard = build()
        dashboard.log_limit = 10
        for index in range(50):
            dashboard.log(f"event {index}")
        assert len(dashboard.events) == 10
        assert "event 49" in dashboard.events[-1]

    def test_full_render_includes_events(self):
        engine, dashboard = build()
        dashboard.log("experiment started")
        text = dashboard.render()
        assert "experiment started" in text
        assert "metadata traffic" in text
