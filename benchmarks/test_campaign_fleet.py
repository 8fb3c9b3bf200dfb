"""Distributed mini-sweep: a 2-worker fleet survives a worker kill.

The acceptance scenario for `repro.campaign.distributed`: a coordinator
and two real worker *processes* (the CLI, not threads) run a small
campaign over the shared-file control plane; one worker is SIGKILLed
after it lands its first shard record; the coordinator must reassign the
dead worker's lease and finish the sweep with an aggregate byte-identical
to a serial `Campaign.run(jobs=1)` of the same grid.  This is the CI
fleet job — everything here happens on one machine but through exactly
the multi-host code path (subprocesses, fsynced shards, heartbeats).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

CAMPAIGN_MODULE = '''
from repro.campaign import Campaign
from repro.scenario import Scenario, flow


def pair(*, rate, seed=0):
    return (Scenario.build("pair")
            .service("a").service("b")
            .link("a", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="bulk"))
            .deploy(seed=seed, duration=2.0))


CAMPAIGN = (Campaign("fleet-mini")
            .scenario(pair)
            .grid(rate=[1e6, 2e6, 4e6])
            .seeds(2)
            .backends("kollaps"))
'''


def _spawn(args, cwd):
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (SRC if not existing
                                 else SRC + os.pathsep + existing)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", *args],
        cwd=cwd, env=environment,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _wait_for_shard_record(path, coordinator, timeout=120.0):
    """Block until ``path`` holds a record; fail at once if the
    coordinator exits first (the record can then never appear)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return
        if coordinator.poll() is not None:
            out, _ = coordinator.communicate()
            raise AssertionError(
                f"coordinator exited ({coordinator.returncode}) before a "
                f"shard record appeared at {path}:\n{out}")
        time.sleep(0.05)
    raise AssertionError(f"no shard record appeared at {path}")


def test_two_worker_fleet_survives_a_kill(tmp_path):
    source = tmp_path / "mini_campaign.py"
    source.write_text(CAMPAIGN_MODULE)
    store = tmp_path / "campaigns"

    # The reference: the same grid, serially, in this process.
    sys.path.insert(0, SRC)
    try:
        from repro.campaign import load_campaign
        serial = load_campaign(str(source)).run(jobs=1)
        reference = serial.aggregate().to_markdown()
    finally:
        sys.path.remove(SRC)

    def worker(name):
        return _spawn(["work", str(source), "--store", str(store),
                       "--worker", name, "--poll", "0.1",
                       "--timeout", "240", "--quiet"], cwd=str(tmp_path))

    serve = _spawn(["serve", str(source), "--store", str(store),
                    "--lease-size", "2", "--lease-timeout", "3",
                    "--poll", "0.1", "--timeout", "240", "--quiet"],
                   cwd=str(tmp_path))
    victim = worker("victim")
    processes = [serve, victim]
    try:
        # Kill the victim the moment it has demonstrably done work (its
        # first durable shard record), i.e. mid-lease.  The survivor
        # starts only then: 6 points make only 3 leases, and a survivor
        # running from the start can take all 3 on a loaded machine
        # before the victim gets one.
        shard = store / "fleet-mini" / "shards" / "victim.jsonl"
        _wait_for_shard_record(str(shard), serve)
        os.kill(victim.pid, signal.SIGKILL)
        survivor = worker("survivor")
        processes.append(survivor)

        out, _ = serve.communicate(timeout=300)
        assert serve.returncode == 0, f"coordinator failed:\n{out}"
        assert "6 points" in out and "6 ok" in out, out
        # The aggregate table is the tail of the coordinator's stdout.
        assert reference in out, (
            f"fleet aggregate differs from serial:\n--- serial ---\n"
            f"{reference}\n--- fleet stdout ---\n{out}")
        survivor_out, _ = survivor.communicate(timeout=60)
        assert survivor.returncode == 0, survivor_out
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
    victim.wait(timeout=30)

    # Resume over the finished store must execute nothing new.
    resume = _spawn(["run", str(source), "--store", str(store), "--quiet"],
                    cwd=str(tmp_path))
    out, _ = resume.communicate(timeout=240)
    assert resume.returncode == 0, out
    assert "6 resumed from store" in out, out
