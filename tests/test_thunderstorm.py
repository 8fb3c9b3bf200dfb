"""Tests for the THUNDERSTORM-style dynamic-scenario DSL."""

import pytest

from repro.scenario import topologies
from repro.topology import (
    Bridge,
    EventAction,
    LinkProperties,
    Service,
    ThunderstormError,
    Topology,
    compile_scenario,
    parse_scenario,
)


def two_bridge_topology() -> Topology:
    topology = Topology("dsl")
    topology.add_service(Service("c1", image="iperf"))
    topology.add_service(Service("sv", image="nginx"))
    topology.add_bridge(Bridge("s1"))
    topology.add_bridge(Bridge("s2"))
    topology.add_link("c1", "s1", LinkProperties(latency=0.010, bandwidth=10e6))
    topology.add_link("s1", "s2", LinkProperties(latency=0.020, bandwidth=100e6))
    topology.add_link("s2", "sv", LinkProperties(latency=0.005, bandwidth=50e6))
    return topology


class TestParsing:
    def test_empty_and_comments(self):
        assert parse_scenario("") == []
        assert parse_scenario("# only a comment\n\n   \n") == []

    def test_at_set_link(self):
        directives = parse_scenario("at 120 set link c1--s1 jitter=0.5ms")
        assert len(directives) == 1
        directive = directives[0]
        assert directive.time == 120.0
        assert directive.verb == "set"
        assert directive.origin == "c1"
        assert directive.destination == "s1"
        assert directive.bidirectional is True
        assert directive.changes == {"jitter": pytest.approx(0.0005)}

    def test_time_units(self):
        directives = parse_scenario(
            "at 200ms leave link a->b\nat 2min leave link a->b")
        assert directives[0].time == pytest.approx(0.2)
        assert directives[1].time == pytest.approx(120.0)

    def test_unidirectional_arrow(self):
        (directive,) = parse_scenario("at 1 leave link c1->s1")
        assert directive.bidirectional is False

    def test_percent_loss(self):
        (directive,) = parse_scenario("at 1 set link a--b loss=2%")
        assert directive.changes["loss"] == pytest.approx(0.02)

    def test_bandwidth_units(self):
        (directive,) = parse_scenario(
            "at 1 join link a--b up=100Mbps down=10Mbps latency=10ms")
        assert directive.changes["up"] == pytest.approx(100e6)
        assert directive.changes["down"] == pytest.approx(10e6)
        assert directive.changes["latency"] == pytest.approx(0.010)

    def test_periodic_expansion(self):
        directives = parse_scenario(
            "from 0 to 30 every 10 set link a--b loss=1%")
        assert [d.time for d in directives] == [0.0, 10.0, 20.0, 30.0]

    def test_periodic_inclusive_end_with_float_step(self):
        directives = parse_scenario(
            "from 0 to 1 every 0.1 set link a--b loss=1%")
        assert len(directives) == 11

    def test_directives_sorted_by_time(self):
        directives = parse_scenario(
            "at 50 leave link a--b\nat 10 set link a--b loss=1%")
        assert [d.time for d in directives] == [10.0, 50.0]

    def test_flap_form(self):
        (directive,) = parse_scenario("at 60 flap link c1--s1 for 2")
        assert directive.verb == "flap"
        assert directive.duration == 2.0

    def test_partition_groups(self):
        (directive,) = parse_scenario("at 10 partition a,b | c,d")
        assert directive.groups == [["a", "b"], ["c", "d"]]

    def test_partition_spaced_groups(self):
        (directive,) = parse_scenario("at 10 partition a, b | c")
        assert directive.groups == [["a", "b"], ["c"]]

    def test_node_directives(self):
        directives = parse_scenario(
            "at 1 leave service sv\nat 2 join bridge s1\nat 3 leave node x")
        assert [d.subject for d in directives] == ["service", "bridge", "node"]

    @pytest.mark.parametrize("bad", [
        "nonsense",
        "at",
        "at 10",
        "at 10 wiggle link a--b",
        "at 10 set link a--b",                    # no properties
        "at 10 set link a--b color=red",          # unknown property
        "at 10 set link a--b loss=200%",          # out of range
        "at 10 set link ab loss=1%",              # bad endpoints
        "at 10 leave link a--b loss=1%",          # leave takes no props
        "at 10 flap link a--b",                   # missing 'for'
        "at 10 flap link a--b for 0",             # non-positive duration
        "at 10 set service sv",                   # set on a node
        "at 10 leave service",                    # missing name
        "at -5 leave link a--b",                  # negative time
        "at 10 partition a,b",                    # single group
        "at 10 partition a | a",                  # duplicate node
        "at 10 heal now",                         # heal takes nothing
        "from 10 to 5 every 1 leave link a--b",   # backwards range
        "from 0 to 10 every 0 leave link a--b",   # zero step
        "from 0 to 10 leave link a--b",           # missing 'every'
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ThunderstormError):
            parse_scenario(bad)

    def test_error_carries_line_number(self):
        with pytest.raises(ThunderstormError, match="line 3"):
            parse_scenario("# fine\nat 1 leave link a--b\nbogus directive")


class TestCompilation:
    def test_set_link_compiles(self):
        schedule = compile_scenario(
            "at 120 set link c1--s1 jitter=0.5ms", two_bridge_topology())
        assert len(schedule) == 1
        event = schedule.events[0]
        assert event.action is EventAction.SET_LINK
        assert event.changes == {"jitter": pytest.approx(0.0005)}

    def test_leave_then_join_roundtrip(self):
        topology = two_bridge_topology()
        schedule = compile_scenario(
            "at 10 leave link c1--s1\n"
            "at 20 join link c1--s1 latency=15ms up=20Mbps down=20Mbps",
            topology)
        snapshots = schedule.snapshots(topology)
        # t=10: link gone; t=20: link back with the new properties.
        assert len(snapshots) == 3
        _, at10 = snapshots[1]
        assert not any(link.key == ("c1", "s1") for link in at10.links())
        _, at20 = snapshots[2]
        assert at20.get_link("c1", "s1").properties.latency == pytest.approx(0.015)
        assert at20.get_link("c1", "s1").properties.bandwidth == pytest.approx(20e6)

    def test_flap_restores_original_properties(self):
        topology = two_bridge_topology()
        schedule = compile_scenario("at 60 flap link c1--s1 for 2", topology)
        snapshots = schedule.snapshots(topology)
        assert [time for time, _ in snapshots] == [0.0, 60.0, 62.0]
        _, during = snapshots[1]
        assert not any(link.key == ("c1", "s1") for link in during.links())
        _, after = snapshots[2]
        restored = after.get_link("c1", "s1").properties
        assert restored.latency == pytest.approx(0.010)
        assert restored.bandwidth == pytest.approx(10e6)

    def test_flap_restores_modified_properties(self):
        # A 'set' before the flap must survive the flap: the compiler
        # captures properties at tear-down time, not at t=0.
        topology = two_bridge_topology()
        schedule = compile_scenario(
            "at 10 set link c1--s1 latency=99ms\n"
            "at 60 flap link c1--s1 for 2", topology)
        snapshots = schedule.snapshots(topology)
        _, after = snapshots[-1]
        assert after.get_link("c1", "s1").properties.latency == pytest.approx(0.099)

    def test_repeated_flaps_via_periodic(self):
        topology = two_bridge_topology()
        schedule = compile_scenario(
            "from 10 to 50 every 20 flap link c1--s1 for 5", topology)
        # Three flaps; each is one bidirectional leave plus two one-way
        # joins restoring each direction's properties.
        times = sorted(event.time for event in schedule.events)
        assert times == [10.0, 15.0, 15.0, 30.0, 35.0, 35.0, 50.0, 55.0, 55.0]
        snapshots = schedule.snapshots(topology)
        _, final = snapshots[-1]
        assert final.get_link("c1", "s1").properties.bandwidth == pytest.approx(10e6)

    def test_partition_and_heal(self):
        topology = topologies.star(
            ["a", "b", "c"], bandwidth=1e9).compile().topology
        schedule = compile_scenario(
            "at 10 partition a | hub,b,c\nat 20 heal", topology)
        snapshots = schedule.snapshots(topology)
        _, cut = snapshots[1]
        assert not any(link.key in (("a", "hub"), ("hub", "a"))
                       for link in cut.links())
        # b and c keep their links.
        assert cut.get_link("b", "hub") is not None
        _, healed = snapshots[2]
        assert healed.get_link("a", "hub").properties.bandwidth == pytest.approx(1e9)
        assert healed.get_link("hub", "a").properties.bandwidth == pytest.approx(1e9)

    def test_partition_unknown_node(self):
        with pytest.raises(ThunderstormError, match="unknown node"):
            compile_scenario("at 10 partition nope | c1",
                             two_bridge_topology())

    def test_partition_cutting_nothing_fails(self):
        with pytest.raises(ThunderstormError, match="cuts no links"):
            compile_scenario("at 10 partition c1 | sv",
                             two_bridge_topology())

    def test_heal_without_partition_fails(self):
        with pytest.raises(ThunderstormError, match="no active partition"):
            compile_scenario("at 10 heal", two_bridge_topology())

    def test_unknown_link_fails_with_line(self):
        with pytest.raises(ThunderstormError, match="line 2"):
            compile_scenario("at 1 set link c1--s1 loss=1%\n"
                             "at 2 leave link c1--s9", two_bridge_topology())

    def test_leave_twice_fails(self):
        with pytest.raises(ThunderstormError):
            compile_scenario("at 1 leave link c1--s1\nat 2 leave link c1--s1",
                             two_bridge_topology())

    def test_service_leave_join(self):
        topology = two_bridge_topology()
        schedule = compile_scenario(
            "at 10 leave service sv\nat 20 join service sv", topology)
        snapshots = schedule.snapshots(topology)
        _, gone = snapshots[1]
        assert "sv" not in gone.services
        _, back = snapshots[2]
        assert back.services["sv"].image == "nginx"

    def test_compiles_against_generated_topology(self):
        topology = topologies.point_to_point(
            100e6, latency=0.010).compile().topology
        schedule = compile_scenario(
            "from 1 to 5 every 1 set link client--s0 loss=1%", topology)
        assert len(schedule) == 5


class TestEngineIntegration:
    def test_scenario_drives_engine(self):
        from repro.core import EmulationEngine, EngineConfig

        topology = two_bridge_topology()
        schedule = compile_scenario(
            "at 1 set link s1--s2 latency=200ms", topology)
        engine = EmulationEngine(topology, schedule,
                                 config=EngineConfig(machines=1, seed=3))
        before = engine.current_state.collapsed.path("c1", "sv").latency
        engine.run(until=2.0)
        after = engine.current_state.collapsed.path("c1", "sv").latency
        assert after == pytest.approx(before + 0.180, rel=0.01)
