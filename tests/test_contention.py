"""Tests for congestion-gated enforcement and cross-plane contention.

Covers the behaviours behind Figures 6 and 7:

* the Emulation Manager only divides bandwidth between flows competing
  for a saturated link (uncontended paths keep the collapsed maximum);
* link contention has hysteresis, so enforcement does not flap on
  sampling wobble;
* idle chains are restored to their path properties;
* in the ground-truth systems the packet and fluid planes share the
  physical wires.
"""

import pytest

from repro.apps import CurlSwarm, HttpServer, Pinger
from repro.baselines import BareMetalTestbed
from repro.core import EmulationEngine, EngineConfig
from repro.netstack.packet import Packet
from repro.scenario import topologies

MBPS = 1e6


def engine_for(topology, *, machines=2, seed=7):
    return EmulationEngine(topology, config=EngineConfig(
        machines=machines, seed=seed))


class TestCongestionGating:
    def test_single_flow_keeps_path_maximum(self):
        engine = engine_for(
            topologies.point_to_point(100 * MBPS).compile().topology)
        engine.start_flow("only", "client", "server")
        engine.run(until=5.0)
        htb = engine.tcals["client"].shaping_for("server").htb.rate
        assert htb == pytest.approx(100 * MBPS, rel=0.01)
        assert engine.fluid.mean_throughput("only", 2.0, 5.0) == \
            pytest.approx(100 * MBPS, rel=0.05)

    def test_competing_flows_get_shares(self):
        engine = engine_for(topologies.dumbbell(
            2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=6.0)
        rates = [engine.tcals["client0"].shaping_for("server0").htb.rate,
                 engine.tcals["client1"].shaping_for("server1").htb.rate]
        assert sum(rates) == pytest.approx(50 * MBPS, rel=0.10)

    def test_enforcement_stable_at_capacity(self):
        # Flows sitting exactly at their shares must not see the gate
        # flap open (which would burst and then crash them with loss).
        engine = engine_for(topologies.dumbbell(
            2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=4.0)
        samples = []
        for step in range(40):
            engine.run(until=4.0 + step * 0.1)
            samples.append(engine.fluid.throughput("a"))
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(25 * MBPS, rel=0.10)
        assert max(samples) - min(samples) < 8 * MBPS

    def test_release_after_departure(self):
        engine = engine_for(topologies.dumbbell(
            2, shared_bandwidth=50 * MBPS).compile().topology)
        engine.start_flow("a", "client0", "server0")
        engine.start_flow("b", "client1", "server1")
        engine.run(until=5.0)
        engine.stop_flow("b")
        engine.run(until=10.0)
        # The survivor is unthrottled back to the bottleneck capacity.
        assert engine.fluid.mean_throughput("a", 8.0, 10.0) == \
            pytest.approx(50 * MBPS, rel=0.10)

    def test_idle_chain_restored_to_path_properties(self):
        engine = engine_for(
            topologies.point_to_point(100 * MBPS).compile().topology)
        engine.start_flow("burst", "client", "server",
                          size_bits=20e6)  # finishes quickly
        engine.run(until=10.0)
        shaping = engine.tcals["client"].shaping_for("server")
        assert shaping.htb.rate == pytest.approx(100 * MBPS, rel=0.01)
        assert shaping.netem.loss == 0.0

    def test_bursty_http_not_strangled(self):
        # The Figure 6 regression: connection-per-request HTTP through a
        # sharing-enabled engine must match the unthrottled engine.
        def throughput(sharing):
            topology = topologies.star(["server", "c0"], bandwidth=100 * MBPS,
                                     latency=0.005).compile().topology
            engine = EmulationEngine(topology, config=EngineConfig(
                machines=2, seed=71, enforce_bandwidth_sharing=sharing))
            server = HttpServer(engine.sim, engine.dataplane, "server")
            swarm = CurlSwarm(engine.sim, engine.dataplane, ["c0"], server)
            engine.run(until=10.0)
            return swarm.stats.throughput(10.0)

        assert throughput(True) == pytest.approx(throughput(False),
                                                 rel=0.05)


class TestContentionHysteresis:
    def make_manager(self):
        engine = engine_for(
            topologies.point_to_point(100 * MBPS).compile().topology,
                            machines=1)
        return next(iter(engine.managers.values()))

    def test_enters_above_threshold(self):
        manager = self.make_manager()
        capacity = next(iter(manager.capacities.values()))
        link_id = next(iter(manager.capacities))
        assert link_id in manager._update_contention({link_id: capacity})
        assert link_id in manager._update_contention({link_id: 0.95 * capacity})

    def test_stays_until_quiet_long_enough(self):
        manager = self.make_manager()
        link_id = next(iter(manager.capacities))
        capacity = manager.capacities[link_id]
        manager._update_contention({link_id: capacity})
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            assert link_id in manager._update_contention(
                {link_id: 0.5 * capacity})
        assert link_id not in manager._update_contention(
            {link_id: 0.5 * capacity})

    def test_mid_band_usage_keeps_contention(self):
        manager = self.make_manager()
        link_id = next(iter(manager.capacities))
        capacity = manager.capacities[link_id]
        manager._update_contention({link_id: capacity})
        # Usage between EXIT and ENTER: stays contended indefinitely.
        for _ in range(20):
            assert link_id in manager._update_contention(
                {link_id: 0.85 * capacity})

    def test_quiet_streak_resets_on_activity(self):
        manager = self.make_manager()
        link_id = next(iter(manager.capacities))
        capacity = manager.capacities[link_id]
        manager._update_contention({link_id: capacity})
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            manager._update_contention({link_id: 0.5 * capacity})
        manager._update_contention({link_id: 0.85 * capacity})  # reset
        for _ in range(manager._CONTENTION_QUIET_LOOPS - 1):
            assert link_id in manager._update_contention(
                {link_id: 0.5 * capacity})


class TestCrossPlaneContention:
    def test_bulk_flow_yields_to_packet_traffic(self):
        testbed = BareMetalTestbed(
            topologies.star(["a", "b", "c"], bandwidth=100 * MBPS,
                          latency=0.001).compile().topology, seed=3)
        testbed.start_flow("bulk", "a", "c")
        server = HttpServer(testbed.sim, testbed.dataplane, "a",
                            response_bits=512e3)
        client = CurlSwarm(testbed.sim, testbed.dataplane, ["b"], server)
        testbed.run(until=10.0)
        bulk = testbed.fluid.mean_throughput("bulk", 5.0, 10.0)
        http = client.stats.throughput(10.0)
        # Both aggregates share a's 100 Mb/s uplink.
        assert bulk < 95 * MBPS
        assert bulk + http < 110 * MBPS
        assert http > 5 * MBPS

    def test_fluid_load_slows_packets(self):
        def rtt(with_bulk):
            testbed = BareMetalTestbed(
                topologies.point_to_point(
                    10 * MBPS, latency=0.010).compile().topology, seed=3)
            if with_bulk:
                testbed.start_flow("bulk", "client", "server")
            pinger = Pinger(testbed.sim, testbed.dataplane, "client",
                            "server", count=50, interval=0.05,
                            size_bits=1500 * 8).start(at=2.0)
            testbed.run(until=6.0)
            return pinger.stats.median_rtt

        # With a bulk flow occupying the wire, the effective packet rate
        # halves, so serialization takes visibly longer.
        assert rtt(True) > rtt(False)

    def test_packet_rate_monitor_reports_traffic(self):
        testbed = BareMetalTestbed(
            topologies.point_to_point(
                100 * MBPS, latency=0.001).compile().topology, seed=3)
        server = HttpServer(testbed.sim, testbed.dataplane, "server")
        CurlSwarm(testbed.sim, testbed.dataplane, ["client"], server)
        testbed.run(until=5.0)
        rates = [testbed.network.packet_rate(link.link_id)
                 for link in testbed.topology.links()]
        assert max(rates) > 1 * MBPS


class TestPingStatistics:
    def test_first_sample_excluded(self):
        from repro.apps.ping import PingStats
        stats = PingStats(rtts=[1.0, 0.1, 0.1, 0.1])
        assert stats.mean_rtt == pytest.approx(0.1)
        assert stats.median_rtt == pytest.approx(0.1)
        assert stats.jitter == 0.0

    def test_single_sample_used_as_is(self):
        from repro.apps.ping import PingStats
        stats = PingStats(rtts=[0.5])
        assert stats.mean_rtt == 0.5
        assert stats.median_rtt == 0.5
