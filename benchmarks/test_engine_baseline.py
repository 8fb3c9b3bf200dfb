"""Engine performance baselines, measured through the telemetry layer.

Four headline rates anchor the reproduction's performance story:
fair-share solves/sec on the small and large solver problems (the
progressive-filling allocator of §3, vectorized in numpy when
available), cold collapses/sec (all-pairs shortest paths on a mid-size
scale-free topology, memo bypassed), memoized collapses/sec (the
repeat-point path campaign sweeps hit), and campaign points/sec for a
single worker.  Every rate is derived from the telemetry counters the
instrumented code itself maintains — the benchmark doubles as an
end-to-end check that the counters measure what they claim.

Alongside the rates, the baseline records two *checksums* over the
solver allocation and the collapsed path table, always computed with
the pure-Python backend (bit-deterministic across machines).  Rates
drift per machine; checksums must not — a mismatch in review or CI
means correctness drift, not a slow runner.  See docs/performance.md.

``REPRO_BENCH_WRITE=1`` refreshes ``BENCH_engine.json`` at the repo
root (checked in, like ``BENCH_dsl.json``) so drift shows up in review
diffs rather than only in CI timings; any other value is taken as a
destination path (CI writes a scratch file and diffs it against the
checked-in baseline with ``benchmarks/compare_bench.py``).

The companion budget test holds the telemetry layer to its contract:
with tracing disabled, an instrumentation guard is a single boolean
branch whose cost stays under 2 % of even the smallest instrumented
unit of real work.
"""

import hashlib
import json
import os
from unittest import mock

from conftest import print_table, run_once

from repro import telemetry
from repro.campaign import Campaign
from repro.core import (FlowDemand, clear_collapse_cache, collapse,
                        rtt_aware_max_min, sharing, solver_backend)
from repro.scenario import Scenario, flow
from repro.scenario.topologies import scale_free
from repro.telemetry import Stopwatch

MBPS = 1e6
SOLVER_ROUNDS = 200
LARGE_ROUNDS = 100
COLLAPSE_ROUNDS = 10
MEMO_ROUNDS = 50
COLLAPSE_SIZE = 120
SMALL_CLIENTS = 12            # 24 flows — the historical baseline problem
LARGE_CLIENTS = 64            # 128 flows — where vectorization must win
BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_engine.json")


def solver_problem(clients=SMALL_CLIENTS):
    """``2 x clients`` flows over a two-level tree.

    Each client contributes an up and a down flow through one private
    access link, one of a few shared trunks and one of a few server
    uplinks — enough sharing to make the progressive filler iterate.
    ``clients=12`` is the historical 24-flow baseline; ``clients=64``
    (128 flows) is the large problem the vectorized backend must win.
    """
    trunks = max(3, clients // 4)
    servers = max(4, clients // 3)
    capacities = {}
    flows = []
    for client in range(clients):
        access = client                      # one access link per client
        trunk = 2 * clients + client % trunks
        server = 2 * clients + trunks + client % servers
        capacities[access] = 50 * MBPS
        capacities[trunk] = 100 * MBPS
        capacities[server] = 50 * MBPS
        rtt = 0.020 + 0.005 * (client % 5)
        flows.append(FlowDemand(f"up{client}", rtt,
                                (access, trunk, server),
                                path_bandwidth=50 * MBPS))
        flows.append(FlowDemand(f"down{client}", rtt,
                                (server, trunk, access),
                                path_bandwidth=50 * MBPS))
    return flows, capacities


def bench_pair(*, rate, seed=0):
    return (Scenario.build("bench_pair")
            .service("a").service("b").bridge("s")
            .link("a", "s", latency="1ms", up=rate)
            .link("s", "b", latency="1ms", up=rate)
            .workload(flow("a", "b", key="bulk"))
            .deploy(machines=2, seed=seed, duration=2.0))


# ---------------------------------------------------------------------------
# Checksums: machine-independent correctness fingerprints.
# ---------------------------------------------------------------------------

def python_backend():
    """Solve on the pure-Python path by hiding numpy from the solver's
    probe — exactly what the no-numpy CI leg sees."""
    return mock.patch.object(sharing, "_numpy", lambda: None)


def solver_checksum(clients=SMALL_CLIENTS):
    """Digest of the pure-Python allocation on :func:`solver_problem`.

    Run on the python backend: pure-Python float arithmetic is
    IEEE-754 deterministic, so this digest is identical on every
    machine.  (numpy agreement is asserted separately, at 1e-9
    relative — reduction order may differ in the last ulp or two.)
    """
    flows, capacities = solver_problem(clients)
    with python_backend():
        allocation = rtt_aware_max_min(flows, capacities)
    digest = hashlib.blake2b(digest_size=8)
    for key in sorted(allocation):
        digest.update(f"{key}={allocation[key]!r};".encode())
    return digest.hexdigest()


def collapse_checksum(size=COLLAPSE_SIZE, seed=11):
    """Digest of the collapsed path table on the benchmark topology.

    Covers every pair's composed properties and constituent link ids,
    so it pins both Dijkstra's tie-breaking and property composition.
    """
    topology = scale_free(size, seed=seed).compile().topology
    collapsed = collapse(topology, memo=False)
    digest = hashlib.blake2b(digest_size=8)
    paths = sorted(collapsed.paths(),
                   key=lambda path: (path.source, path.destination))
    for path in paths:
        properties = path.properties
        digest.update(
            f"{path.source}>{path.destination}"
            f":{properties.latency!r},{properties.bandwidth!r},"
            f"{properties.loss!r}:{path.link_ids};".encode())
    return digest.hexdigest()


def _solver_rate(flows, capacities, rounds):
    """(solves/sec, flows/solve) for the *active* backend, via counters."""
    before = telemetry.metrics.snapshot()
    for _ in range(rounds):
        rtt_aware_max_min(flows, capacities)
    delta = telemetry.metrics.delta_since(before)
    return (delta["sharing.solver_calls"] / delta["sharing.solver_seconds"],
            int(delta["sharing.solver_flows"]
                / delta["sharing.solver_calls"]))


def measure_baselines():
    """All rates in one pass, counters as the ground truth."""
    telemetry.disable()
    telemetry.metrics.clear()
    telemetry.enable()                      # in-memory tracing
    clear_collapse_cache()
    try:
        # The campaign below runs its own (tiny) solves and collapses, so
        # each stage's rate comes from a counter delta taken right after
        # that stage — not from the final totals.
        backend = solver_backend()
        small = solver_problem(SMALL_CLIENTS)
        large = solver_problem(LARGE_CLIENTS)
        solves_per_sec, solver_flows = _solver_rate(*small,
                                                    rounds=SOLVER_ROUNDS)
        large_per_sec, large_flows = _solver_rate(*large,
                                                  rounds=LARGE_ROUNDS)
        with python_backend():
            large_python_per_sec, _ = _solver_rate(*large,
                                                   rounds=LARGE_ROUNDS // 4)

        # Cold collapses bypass the memo; the memoized rate then measures
        # the repeat-point path campaigns hit (one miss populates it).
        topology = scale_free(COLLAPSE_SIZE, seed=11).compile().topology
        before = telemetry.metrics.snapshot()
        for _ in range(COLLAPSE_ROUNDS):
            collapse(topology, memo=False)
        collapsed = telemetry.metrics.delta_since(before)
        collapse(topology)                  # populate the memo
        before = telemetry.metrics.snapshot()
        for _ in range(MEMO_ROUNDS):
            collapse(topology)
        memoized = telemetry.metrics.delta_since(before)
        assert memoized["collapse.memo_hits"] == MEMO_ROUNDS

        (Campaign("bench")
         .scenario(bench_pair)
         .grid(rate=[1e6, 4e6])
         .seeds(2)
         .backends("kollaps")
         .run(jobs=1))

        snapshot = telemetry.metrics.snapshot()
    finally:
        telemetry.disable()
        telemetry.metrics.clear()
        clear_collapse_cache()

    point_hist = snapshot["campaign.point_seconds"]
    collapses_per_sec = (collapsed["collapse.recomputes"]
                         / collapsed["collapse.seconds"])
    memo_per_sec = (memoized["collapse.memo_hits"]
                    / memoized["collapse.memo_seconds"])
    return {
        "bench": "engine",
        "solver_backend": backend,
        "solver_flows": solver_flows,
        "fair_share_solves_per_sec": round(solves_per_sec, 1),
        "solver_large_flows": large_flows,
        "fair_share_solves_per_sec_large": round(large_per_sec, 1),
        "fair_share_solves_per_sec_large_python": round(
            large_python_per_sec, 1),
        "solver_speedup_large": round(
            large_per_sec / large_python_per_sec, 2),
        "solver_checksum": solver_checksum(SMALL_CLIENTS),
        "solver_checksum_large": solver_checksum(LARGE_CLIENTS),
        "collapse_containers": COLLAPSE_SIZE,
        "collapse_pairs": int(collapsed["collapse.pairs"]
                              / collapsed["collapse.recomputes"]),
        "collapses_per_sec": round(collapses_per_sec, 1),
        "memoized_collapses_per_sec": round(memo_per_sec, 1),
        "collapse_memo_speedup": round(memo_per_sec / collapses_per_sec, 1),
        "collapse_checksum": collapse_checksum(),
        "campaign_points": int(
            snapshot["campaign.points"]["value"]),
        "campaign_points_per_sec_per_worker": round(
            point_hist["count"] / point_hist["sum"], 2),
    }


def test_engine_baselines(benchmark):
    results = run_once(benchmark, measure_baselines)
    print_table("engine baselines (telemetry-derived)",
                ["metric", "value"],
                sorted(results.items()))

    # Loose sanity floors: an order of magnitude below any machine this
    # runs on, so only a real regression (or broken counters) trips them.
    assert results["fair_share_solves_per_sec"] > 20.0
    assert results["collapses_per_sec"] > 1.0
    assert results["campaign_points_per_sec_per_worker"] > 0.05
    assert results["campaign_points"] == 4          # 2 rates x 2 seeds
    assert results["solver_flows"] == 24
    assert results["solver_large_flows"] == 2 * LARGE_CLIENTS
    assert results["collapse_pairs"] > 0

    # The issue's acceptance floors: vectorized solver at least 5x the
    # pure-Python rate at >= 64 flows, memoized collapse at least 3x the
    # cold rate.  The solver floor only binds when numpy is present — the
    # no-numpy CI leg measures python against itself (speedup ~1).
    if results["solver_backend"] == "numpy":
        assert results["solver_speedup_large"] >= 5.0
    assert results["collapse_memo_speedup"] >= 3.0

    if os.environ.get("REPRO_BENCH_WRITE"):
        destination = os.environ["REPRO_BENCH_WRITE"]
        if destination == "1":
            destination = BENCH_PATH
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
            handle.write("\n")


def test_backends_agree_on_benchmark_problems():
    """numpy and python allocations match to 1e-9 relative.

    The checksums pin the python backend bit-for-bit; this pins the
    numpy backend to it within float-reduction tolerance.  Skipped
    (vacuously true) when numpy is absent — there is only one backend.
    """
    if solver_backend() != "numpy":
        return
    for clients in (SMALL_CLIENTS, LARGE_CLIENTS):
        flows, capacities = solver_problem(clients)
        vectorized = rtt_aware_max_min(flows, capacities)
        with python_backend():
            scalar = rtt_aware_max_min(flows, capacities)
        assert set(vectorized) == set(scalar)
        for key, value in scalar.items():
            scale = max(abs(value), 1.0)
            assert abs(vectorized[key] - value) <= 1e-9 * scale, (
                clients, key, value, vectorized[key])


def test_checked_in_baseline_is_current():
    """BENCH_engine.json must exist, describe this benchmark's shape and
    carry checksums that match a fresh computation.  Rates drift per
    machine; structure, workload and checksums must not."""
    with open(BENCH_PATH, encoding="utf-8") as handle:
        checked_in = json.load(handle)
    assert checked_in["bench"] == "engine"
    assert checked_in["campaign_points"] == 4
    assert checked_in["collapse_containers"] == COLLAPSE_SIZE
    assert checked_in["solver_large_flows"] == 2 * LARGE_CLIENTS
    for key in ("fair_share_solves_per_sec",
                "fair_share_solves_per_sec_large",
                "fair_share_solves_per_sec_large_python",
                "collapses_per_sec", "memoized_collapses_per_sec",
                "campaign_points_per_sec_per_worker"):
        assert checked_in[key] > 0
    # Correctness drift check: a stale checksum means the solver or the
    # collapse changed behaviour without the baseline being refreshed.
    assert checked_in["solver_checksum"] == solver_checksum(SMALL_CLIENTS)
    assert checked_in["solver_checksum_large"] == solver_checksum(
        LARGE_CLIENTS)
    assert checked_in["collapse_checksum"] == collapse_checksum()


def test_disabled_overhead_budget(benchmark):
    """A disabled telemetry guard costs <2 % of the smallest real unit.

    The guard is ``telemetry.enabled()`` plus a no-op ``span()`` (one
    branch, shared NullSpan).  The hottest instrumented sites run one
    guard per fair-share solve / collapse / fluid step, so per-guard
    cost against one *small* solve bounds every site's overhead.
    """
    telemetry.disable()
    assert not telemetry.enabled()

    probes = 100_000

    def guard_loop():
        for _ in range(probes):
            if telemetry.enabled():
                raise AssertionError("tracing must stay off")
            telemetry.span("overhead.probe")

    with Stopwatch() as guard_watch:
        run_once(benchmark, guard_loop)
    per_guard = guard_watch.elapsed / probes

    flows, capacities = solver_problem()
    rounds = 50
    with Stopwatch() as solver_watch:
        for _ in range(rounds):
            rtt_aware_max_min(flows, capacities)
    per_solve = solver_watch.elapsed / rounds

    # Four guards per solve is 4x more than any instrumented site runs.
    share = (4 * per_guard) / per_solve
    print_table("disabled-telemetry overhead",
                ["metric", "value"],
                [("per-guard cost", f"{per_guard * 1e9:.0f} ns"),
                 ("per-solve cost", f"{per_solve * 1e6:.1f} us"),
                 ("share at 4 guards/solve", f"{share * 100:.3f} %")])
    assert share < 0.02
