"""Packet links, full-state network, Kollaps plane and the short-flow model."""

import pytest

from repro.netstack import (
    FullStateNetwork,
    KollapsDataPlane,
    Packet,
    PacketLink,
    short_flow_transfer_time,
)
from repro.netstack.fullnet import SwitchModel
from repro.netstack.shortflow import slow_start_rounds
from repro.sim import RngRegistry, Simulator
from repro.tc.ip import IpAllocator
from repro.tc.tcal import Tcal
from repro.topology import Bridge, LinkProperties, Service, Topology
from repro.scenario import topologies


class TestPacketLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.010, bandwidth=1e6))
        arrivals = []
        link.transmit(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.010 + 8000 / 1e6)]

    def test_fifo_serialization_queues_consecutive_packets(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.0, bandwidth=1e6))
        arrivals = []
        for _ in range(3):
            link.transmit(Packet("a", "b", 10e3),
                          lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.01), pytest.approx(0.02),
                            pytest.approx(0.03)]

    def test_buffer_overflow_tail_drops(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(bandwidth=1e6),
                          buffer_bits=15e3)
        outcomes = [link.transmit(Packet("a", "b", 10e3), lambda p: None)
                    for _ in range(3)]
        assert outcomes == [True, False, False]
        assert link.packets_dropped == 2

    def test_random_loss(self):
        sim = Simulator()
        rng = RngRegistry(5).stream("loss")
        link = PacketLink(sim, LinkProperties(bandwidth=1e9, loss=0.5),
                          rng=rng)
        sent = sum(link.transmit(Packet("a", "b", 800), lambda p: None)
                   for _ in range(2000))
        assert 850 < sent < 1150

    def test_infinite_bandwidth_is_pure_delay(self):
        sim = Simulator()
        link = PacketLink(sim, LinkProperties(latency=0.005))
        arrivals = []
        link.transmit(Packet("a", "b", 1e9), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.005)]


class TestFullStateNetwork:
    def test_end_to_end_delivery_latency(self):
        sim = Simulator()
        topology = topologies.point_to_point(
            1e9, latency=0.020).compile().topology
        network = FullStateNetwork(sim, topology)
        arrivals = []
        network.send(Packet("client", "server", 8000, created=sim.now),
                     lambda p: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 1
        # Two hops of 10 ms plus two serializations of 8 us.
        assert arrivals[0] == pytest.approx(0.020 + 2 * 8000 / 1e9)

    def test_unreachable_destination_dropped(self):
        sim = Simulator()
        topology = Topology()
        topology.add_service(Service("a"))
        topology.add_service(Service("b"))
        topology.add_bridge(Bridge("s"))
        topology.add_link("a", "s", LinkProperties())
        network = FullStateNetwork(sim, topology)
        drops = []
        network.send(Packet("a", "b", 800), lambda p: None,
                     on_drop=lambda p: drops.append(p))
        sim.run()
        assert len(drops) == 1
        assert not network.reachable("a", "b")

    def test_switch_overhead_adds_delay(self):
        def run(with_switch_model):
            sim = Simulator()
            topology = topologies.point_to_point(
                1e9, latency=0.010).compile().topology
            factory = (lambda name: SwitchModel(forward_delay=0.002)) \
                if with_switch_model else None
            network = FullStateNetwork(sim, topology,
                                       switch_model_factory=factory)
            arrivals = []
            network.send(Packet("client", "server", 800),
                         lambda p: arrivals.append(sim.now))
            sim.run()
            return arrivals[0]

        assert run(True) - run(False) == pytest.approx(0.002)

    def test_connection_setup_cost_paid_once_per_connection(self):
        switch = SwitchModel(connection_setup_cost=0.001)
        first = switch.processing_delay(0.0, ("a", "b", "conn1"))
        repeat = switch.processing_delay(0.0, ("a", "b", "conn1"))
        assert first >= 0.001
        assert repeat < first
        assert switch.setups == 1

    def test_setups_queue_on_the_shared_cpu(self):
        switch = SwitchModel(connection_setup_cost=0.001)
        first = switch.processing_delay(0.0, ("a", "b", "conn1"))
        second = switch.processing_delay(0.0, ("a", "b", "conn2"))
        # The second setup waits behind the first on the switch CPU.
        assert second == pytest.approx(first + 0.001)

    def test_install_topology_reroutes(self):
        sim = Simulator()
        topology = topologies.point_to_point(
            1e9, latency=0.010).compile().topology
        network = FullStateNetwork(sim, topology)
        changed = topology.copy()
        changed.update_link("client", "s0", latency=0.050)
        changed.update_link("s0", "client", latency=0.050)
        network.install_topology(changed)
        arrivals = []
        network.send(Packet("client", "server", 800),
                     lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.055, rel=1e-3)


class TestKollapsDataPlane:
    def build(self, machines=("m0", "m0")):
        sim = Simulator()
        allocator = IpAllocator()
        allocator.assign("a")
        allocator.assign("b")
        plane = KollapsDataPlane(
            sim, placement={"a": machines[0], "b": machines[1]},
            container_network_delay=10e-6, physical_network_delay=90e-6)
        for name, peer in (("a", "b"), ("b", "a")):
            tcal = Tcal(name, allocator)
            tcal.install_destination(peer, latency=0.010, jitter=0.0,
                                     loss=0.0, bandwidth=1e9)
            plane.attach_tcal(name, tcal)
        return sim, plane

    def test_same_machine_delivery(self):
        sim, plane = self.build()
        arrivals = []
        plane.send(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.010 + 8000 / 1e9 + 10e-6)

    def test_cross_machine_adds_physical_delay(self):
        sim, plane = self.build(machines=("m0", "m1"))
        arrivals = []
        plane.send(Packet("a", "b", 8000), lambda p: arrivals.append(sim.now))
        sim.run()
        assert arrivals[0] == pytest.approx(0.010 + 8000 / 1e9 + 100e-6)

    def test_netem_loss_invokes_on_drop(self):
        sim, plane = self.build()
        plane.tcal_for("a").set_netem("b", loss=1.0)
        drops = []
        plane.send(Packet("a", "b", 800), lambda p: None,
                   on_drop=lambda p: drops.append(p))
        sim.run()
        assert len(drops) == 1
        assert plane.packets_dropped == 1

    def test_backpressure_retries_by_default(self):
        sim, plane = self.build()
        tcal = plane.tcal_for("a")
        tcal.set_bandwidth("b", 1e4)  # tiny rate so the queue fills
        shaping = tcal.shaping_for("b")
        shaping.htb.queue_bits = 1000.0
        arrivals = []
        for _ in range(3):
            plane.send(Packet("a", "b", 800),
                       lambda p: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 3  # all delivered eventually
        assert plane.backpressure_events >= 1

    def test_unknown_destination_dropped(self):
        sim, plane = self.build()
        drops = []
        plane.send(Packet("a", "ghost", 800), lambda p: None,
                   on_drop=lambda p: drops.append(p))
        assert len(drops) == 1

    def test_reachable(self):
        _, plane = self.build()
        assert plane.reachable("a", "b")
        assert not plane.reachable("a", "ghost")


class TestShortFlowModel:
    def test_zero_size_costs_handshake_only(self):
        assert short_flow_transfer_time(0, rtt=0.010, bandwidth=1e9) == \
            pytest.approx(0.015)

    def test_small_transfer_dominated_by_rtt(self):
        # 64 KB at 100 Mb/s: serialization is ~5 ms but slow start adds RTTs.
        time_fast_link = short_flow_transfer_time(64e3 * 8, rtt=0.010,
                                                  bandwidth=100e6)
        time_slow_rtt = short_flow_transfer_time(64e3 * 8, rtt=0.050,
                                                 bandwidth=100e6)
        assert time_slow_rtt > time_fast_link * 3

    def test_large_transfer_approaches_line_rate(self):
        size = 1e9  # 125 MB
        elapsed = short_flow_transfer_time(size, rtt=0.010, bandwidth=100e6)
        assert elapsed == pytest.approx(size / 100e6, rel=0.1)

    def test_slow_start_rounds_double(self):
        # 10 * 1448B ~ 115 kbit initial window; 1 Mbit payload on a fat pipe.
        rounds = slow_start_rounds(1e6, rtt=0.010, bandwidth=10e9)
        assert rounds == 4  # 115k + 230k + 460k + 920k > 1M

    def test_monotone_in_size(self):
        times = [short_flow_transfer_time(size, rtt=0.02, bandwidth=50e6)
                 for size in (1e4, 1e5, 1e6, 1e7)]
        assert times == sorted(times)
