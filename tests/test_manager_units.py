"""Unit-level tests of the Emulation Manager and Core internals."""

import pytest

from repro.core.collapse import collapse
from repro.core.emucore import EmulationCore, UsageSample
from repro.core.manager import EmulationManager
from repro.metadata.channels import MediaDriver
from repro.metadata.encoding import FlowRecord, MetadataMessage
from repro.sim import Simulator
from repro.tc.ip import IpAllocator
from repro.tc.tcal import Tcal
from repro.scenario import topologies

MBPS = 1e6


def build_manager(sim=None, *, machine="m0", index=0, period=0.05,
                  containers=("client0", "server0", "client1", "server1"),
                  **kwargs):
    sim = sim or Simulator()
    driver = MediaDriver(sim, machine)
    indices = {name: i for i, name in enumerate(containers)}
    manager = EmulationManager(sim, machine, driver, index, indices,
                               period=period, **kwargs)
    topology = topologies.dumbbell(
        2, shared_bandwidth=50 * MBPS).compile().topology
    manager.install_state(collapse(topology),
                          {link.link_id: link.properties.bandwidth
                           for link in topology.links()})
    return sim, manager, topology


def attach_core(sim, manager, container, destination, *, bandwidth=50 * MBPS):
    allocator = IpAllocator()
    for name in (container, destination):
        allocator.assign(name)
    tcal = Tcal(container, allocator)
    tcal.install_destination(destination, latency=0.01, jitter=0.0,
                             loss=0.0, bandwidth=bandwidth)
    core = EmulationCore(container, tcal)
    manager.add_core(core)
    return core


class TestUsageSampling:
    def test_idle_destination_not_reported(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        assert core.sample_usage(0.05, now=0.05) == {}

    def test_rate_computed_from_elapsed_time(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.tcal.shaping_for("server0").record(1e6)
        samples = core.sample_usage(0.05, now=0.1)  # first poll: 0.1 s
        assert samples["server0"].rate == pytest.approx(1e7)

    def test_rate_clamped_to_shaper(self):
        """Aliasing above the htb rate must not read as oversubscription."""
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0",
                           bandwidth=10 * MBPS)
        core.tcal.shaping_for("server0").record(5e6)  # 100 Mb/s apparent
        samples = core.sample_usage(0.05, now=0.05)
        assert samples["server0"].rate <= 10 * MBPS * 1.05

    def test_saturating_flag(self):
        sample = UsageSample("d", rate=9.5 * MBPS, htb_rate=10 * MBPS)
        assert sample.saturating
        assert not UsageSample("d", rate=5 * MBPS,
                               htb_rate=10 * MBPS).saturating

    def test_enforce_ignores_unknown_destination(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.enforce("ghost", bandwidth=1e6)  # must not raise


class TestManagerLoop:
    def test_loop_without_state_is_noop(self):
        sim = Simulator()
        driver = MediaDriver(sim, "m0")
        manager = EmulationManager(sim, "m0", driver, 0, {})
        manager.run_loop_iteration()
        assert manager.loops == 0

    def test_local_flow_enforced_to_path_share(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        core.tcal.shaping_for("server0").record(50 * MBPS * 0.05)
        manager.run_loop_iteration()
        assert manager.enforcements == 1
        # Lone flow: full bottleneck share.
        assert core.tcal.shaping_for("server0").htb.rate == \
            pytest.approx(50 * MBPS, rel=0.01)

    def test_remote_report_shrinks_local_share(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        # A remote manager reports an equal-RTT flow on the shared link.
        shared_links = None
        path = manager.collapsed.path("client1", "server1")
        remote = MetadataMessage(sender=1, flows=(FlowRecord(
            source_index=manager.container_indices["client1"],
            destination_index=manager.container_indices["server1"],
            used_bandwidth=25 * MBPS, link_ids=path.link_ids),))
        manager._on_message(remote)
        core.tcal.shaping_for("server0").record(50 * MBPS * 0.05)
        sim.at(0.0, manager.run_loop_iteration)
        sim.run()
        rate = core.tcal.shaping_for("server0").htb.rate
        assert rate < 40 * MBPS  # no longer the whole link

    def test_stale_remote_reports_expire(self):
        sim, manager, _ = build_manager()
        core = attach_core(sim, manager, "client0", "server0")
        path = manager.collapsed.path("client1", "server1")
        remote = MetadataMessage(sender=1, flows=(FlowRecord(
            source_index=manager.container_indices["client1"],
            destination_index=manager.container_indices["server1"],
            used_bandwidth=25 * MBPS, link_ids=path.link_ids),))
        manager._on_message(remote)
        # Local traffic keeps flowing; the remote peer goes silent.
        def tick():
            core.tcal.shaping_for("server0").record(
                core.tcal.shaping_for("server0").htb.rate * 0.05)
            manager.run_loop_iteration()
        for step in range(10):
            sim.at(step * 0.05 + 0.01, tick)
        sim.run()
        rate = core.tcal.shaping_for("server0").htb.rate
        assert rate == pytest.approx(50 * MBPS, rel=0.05)

    def test_own_messages_ignored(self):
        sim, manager, _ = build_manager()
        manager._on_message(MetadataMessage(sender=0, flows=()))
        assert manager._remote == {}


class TestChangeOnlyPublication:
    def test_first_report_always_published(self):
        sim, manager, _ = build_manager(update_on_change_only=True)
        flows = (FlowRecord(0, 1, 10 * MBPS, (0,)),)
        assert manager._publication_due(flows)

    def test_unchanged_report_suppressed(self):
        sim, manager, _ = build_manager(update_on_change_only=True)
        flows = (FlowRecord(0, 1, 10 * MBPS, (0,)),)
        manager._last_published = flows
        manager._loops_since_publish = 0
        assert not manager._publication_due(flows)

    def test_rate_change_triggers_publication(self):
        sim, manager, _ = build_manager(update_on_change_only=True)
        manager._last_published = (FlowRecord(0, 1, 10 * MBPS, (0,)),)
        manager._loops_since_publish = 0
        changed = (FlowRecord(0, 1, 20 * MBPS, (0,)),)
        assert manager._publication_due(changed)

    def test_flow_set_change_triggers_publication(self):
        sim, manager, _ = build_manager(update_on_change_only=True)
        manager._last_published = (FlowRecord(0, 1, 10 * MBPS, (0,)),)
        manager._loops_since_publish = 0
        different_flow = (FlowRecord(2, 3, 10 * MBPS, (0,)),)
        assert manager._publication_due(different_flow)

    def test_keepalive_forces_publication(self):
        sim, manager, _ = build_manager(update_on_change_only=True,
                                        keepalive_periods=2)
        flows = (FlowRecord(0, 1, 10 * MBPS, (0,)),)
        manager._last_published = flows
        manager._loops_since_publish = 2
        assert manager._publication_due(flows)
