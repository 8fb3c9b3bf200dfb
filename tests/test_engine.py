"""The emulation engine end-to-end: enforcement, dynamics, metadata."""

import pytest

from repro.core import EmulationEngine, EngineConfig
from repro.topology import (
    DynamicEvent,
    EventAction,
    EventSchedule,
    LinkProperties,
)
from repro.scenario import topologies

MBPS = 1e6


class TestBasicEmulation:
    def test_single_flow_reaches_path_bandwidth(self):
        engine = EmulationEngine(
            topologies.point_to_point(50 * MBPS).compile().topology,
                                 config=EngineConfig(machines=1, seed=2))
        engine.start_flow("f", "client", "server")
        engine.run(until=10.0)
        assert engine.fluid.mean_throughput("f", 4.0, 10.0) == \
            pytest.approx(50 * MBPS, rel=0.08)

    def test_two_flows_share_bottleneck(self):
        topology = topologies.dumbbell(
            2, shared_bandwidth=50 * MBPS).compile().topology
        engine = EmulationEngine(topology,
                                 config=EngineConfig(machines=2, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=15.0)
        total = (engine.fluid.mean_throughput("f0", 8.0, 15.0) +
                 engine.fluid.mean_throughput("f1", 8.0, 15.0))
        assert total == pytest.approx(50 * MBPS, rel=0.10)

    def test_latency_applied_to_packets(self):
        from repro.netstack.packet import Packet
        engine = EmulationEngine(
            topologies.point_to_point(1e9, latency=0.030).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.dataplane.send(Packet("client", "server", 800),
                              lambda p: arrivals.append(engine.sim.now))
        engine.run(until=1.0)
        assert arrivals[0] == pytest.approx(0.030, rel=0.01)

    def test_placement_spreads_containers(self):
        engine = EmulationEngine(topologies.dumbbell(4).compile().topology,
                                 config=EngineConfig(machines=4))
        machines_used = set(engine.placement.values())
        assert len(machines_used) == 4

    def test_explicit_placement_honoured(self):
        topology = topologies.point_to_point(1e6).compile().topology
        engine = EmulationEngine(
            topology, config=EngineConfig(machines=2),
            placement={"client": "host-0", "server": "host-1"})
        assert engine.placement["client"] == "host-0"
        assert engine.placement["server"] == "host-1"


class TestFigure8OnEngine:
    def test_staggered_shares_track_model(self):
        """First three arrivals of §5.4 on the full decentralized stack."""
        engine = EmulationEngine(topologies.throttling().compile().topology,
                                 config=EngineConfig(machines=2, seed=1))
        engine.start_flow("c1", "c1", "s1", start_time=0.0)
        engine.start_flow("c2", "c2", "s2", start_time=6.0)
        engine.start_flow("c3", "c3", "s3", start_time=12.0)
        engine.run(until=24.0)
        # Solo phase: c1 takes the whole 50 Mb/s bottleneck.
        assert engine.fluid.mean_throughput("c1", 3.0, 5.5) == \
            pytest.approx(50 * MBPS, rel=0.10)
        # Two flows: RTT-proportional 23.08 / 26.92 split.
        assert engine.fluid.mean_throughput("c1", 9.0, 11.5) == \
            pytest.approx(23.08 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c2", 9.0, 11.5) == \
            pytest.approx(26.92 * MBPS, rel=0.15)
        # Three flows: 18.45 / 21.55 / 10 (c3 pinned by its access link).
        assert engine.fluid.mean_throughput("c1", 18.0, 24.0) == \
            pytest.approx(18.45 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c2", 18.0, 24.0) == \
            pytest.approx(21.55 * MBPS, rel=0.15)
        assert engine.fluid.mean_throughput("c3", 18.0, 24.0) == \
            pytest.approx(10 * MBPS, rel=0.15)


class TestDynamicTopology:
    def test_bandwidth_change_takes_effect(self):
        schedule = EventSchedule([DynamicEvent(
            time=10.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"bandwidth": 5 * MBPS})])
        engine = EmulationEngine(
            topologies.point_to_point(50 * MBPS).compile().topology,
                                 schedule, config=EngineConfig(seed=2))
        engine.start_flow("f", "client", "server")
        engine.run(until=20.0)
        before = engine.fluid.mean_throughput("f", 5.0, 10.0)
        after = engine.fluid.mean_throughput("f", 14.0, 20.0)
        assert before == pytest.approx(50 * MBPS, rel=0.10)
        assert after == pytest.approx(5 * MBPS, rel=0.15)

    def test_latency_change_affects_packets(self):
        from repro.netstack.packet import Packet
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.SET_LINK, origin="client",
            destination="s0", changes={"latency": 0.100})])
        engine = EmulationEngine(
            topologies.point_to_point(1e9, latency=0.010).compile().topology,
            schedule,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800),
            lambda p: arrivals.append(engine.sim.now - 6.0)))
        engine.run(until=7.0)
        # New one-way: 100 ms (changed half) + 5 ms (other half).
        assert arrivals[0] == pytest.approx(0.105, rel=0.01)

    def test_link_removal_partitions(self):
        from repro.netstack.packet import Packet
        schedule = EventSchedule([DynamicEvent(
            time=5.0, action=EventAction.LEAVE_LINK, origin="client",
            destination="s0")])
        engine = EmulationEngine(
            topologies.point_to_point(1e9).compile().topology, schedule,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        drops = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800), lambda p: None,
            on_drop=lambda p: drops.append(p)))
        engine.run(until=7.0)
        assert len(drops) == 1

    def test_flapping_link_restores_connectivity(self):
        from repro.netstack.packet import Packet
        base = topologies.point_to_point(1e9, latency=0.010).compile().topology
        properties = base.get_link("client", "s0").properties
        schedule = EventSchedule([
            DynamicEvent(time=5.0, action=EventAction.LEAVE_LINK,
                         origin="client", destination="s0"),
            DynamicEvent(time=5.5, action=EventAction.JOIN_LINK,
                         origin="client", destination="s0",
                         properties=properties),
        ])
        engine = EmulationEngine(
            base, schedule, config=EngineConfig(enforce_bandwidth_sharing=False))
        arrivals = []
        engine.sim.at(6.0, lambda: engine.dataplane.send(
            Packet("client", "server", 800),
            lambda p: arrivals.append(engine.sim.now)))
        engine.run(until=7.0)
        assert len(arrivals) == 1


class TestMetadataBehaviour:
    def test_single_machine_no_network_metadata(self):
        engine = EmulationEngine(topologies.dumbbell(2).compile().topology,
                                 config=EngineConfig(machines=1, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.run(until=5.0)
        assert engine.total_metadata_wire_bytes() == 0

    def test_metadata_grows_with_machines(self):
        def run(machines):
            engine = EmulationEngine(
                topologies.dumbbell(
                    4, shared_bandwidth=50 * MBPS).compile().topology,
                config=EngineConfig(machines=machines, seed=2))
            for index in range(4):
                engine.start_flow(f"f{index}", f"client{index}",
                                  f"server{index}")
            engine.run(until=5.0)
            return engine.total_metadata_wire_bytes()

        two = run(2)
        four = run(4)
        assert two > 0
        assert four > two

    def test_loop_disabled_means_no_loops(self):
        engine = EmulationEngine(
            topologies.point_to_point(1e6).compile().topology,
            config=EngineConfig(enforce_bandwidth_sharing=False))
        engine.run(until=2.0)
        assert all(manager.loops == 0
                   for manager in engine.managers.values())

    def test_managers_converge_to_same_allocation(self):
        """Decentralization: all managers enforce consistent shares."""
        topology = topologies.dumbbell(
            2, shared_bandwidth=50 * MBPS).compile().topology
        engine = EmulationEngine(topology,
                                 config=EngineConfig(machines=2, seed=2))
        engine.start_flow("f0", "client0", "server0")
        engine.start_flow("f1", "client1", "server1")
        engine.run(until=10.0)
        rates = []
        for source, destination in (("client0", "server0"),
                                    ("client1", "server1")):
            tcal = engine.tcals[source]
            rates.append(tcal.shaping_for(destination).htb.rate)
        assert sum(rates) == pytest.approx(50 * MBPS, rel=0.15)
        assert rates[0] == pytest.approx(rates[1], rel=0.15)
