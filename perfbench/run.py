#!/usr/bin/env python3
"""Kollaps reproduction benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs iterations of one workload serially, each in a fresh interpreter,
for about ``--seconds`` (and at least three), then prints
the end-to-end metrics (``--trace 0``) or the per-layer table
(``--trace 1``) with the output-check verdict.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads, layers and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from kbench.tracing import LAYERS  # noqa: E402
from kbench.workloads import NAMES  # noqa: E402

# Knobs that change what the program does; every number must measure the
# defaults, so the benchmark refuses to run while any is set.
KNOBS = ("REPRO_ENGINE", "REPRO_COLLAPSE_CACHE", "REPRO_TRACE")
MIN_ITERATIONS = 3
# Hard cap on one invocation, child processes included.
BUDGET_S = 170.0

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "sim_speed": "s/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "scenario.compile_s": "s", "collapse.s": "s", "collapse.calls": "count",
    "collapse.pairs": "count", "collapse.memo_hit_share": "ratio",
    "engine.install_s": "s", "engine.chains_installed": "count",
    "engine.state_swaps": "count", "sim.events": "count",
    "sim.events_per_s": "1/s", "manager.loops": "count",
    "manager.loop_s": "s", "emucore.restores": "count",
    "emucore.restore_noop_share": "ratio", "emucore.enforces": "count",
    "emucore.samples": "count", "tc.netlink_calls": "count",
    "sharing.solver_calls": "count", "sharing.solver_s": "s",
    "sharing.matrix_reuse_share": "ratio", "fluid.steps": "count",
    "fluid.step_s": "s", "metadata.messages": "count",
    "metadata.wire_bytes": "B", "metadata.wire_Bps": "B/s",
    "dataplane.packets": "count", "dataplane.send_s": "s",
    "dataplane.egress_s": "s",
    "dataplane.backpressure_share": "ratio",
    "dataplane.drop_share": "ratio", "apps.requests": "count",
    "campaign.points": "count", "campaign.overhead_s": "s",
    "trace.unattributed_s": "s", "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# The traced run's predictions: which layers dominate each workload.
PREDICTIONS = {
    "dumbbell-loop": ("manager has the largest self time",
                      lambda m, top: top[0] == "manager"),
    "memtier-packet": ("sim + dataplane + apps hold over half the time",
                       lambda m, top: m["sim.self_s"] + m["dataplane.self_s"]
                       + m["apps.self_s"] > 0.5 * m["trace.wall_s"]),
    "scalefree-setup": ("collapse + engine hold over half the time and "
                        "collapse.memo_hit_share is 0",
                        lambda m, top: m["collapse.self_s"]
                        + m["engine.self_s"] > 0.5 * m["trace.wall_s"]
                        and m["collapse.memo_hit_share"] == 0),
    "campaign-sweep": ("collapse.memo_hit_share is above 0",
                       lambda m, top: m["collapse.memo_hit_share"] > 0),
}


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spawn(workload: str, seed: int, *, traced: bool, profile: str,
          timeout: float) -> Optional[dict]:
    """One iteration in a fresh interpreter; None if it did not finish."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    command = [sys.executable, "-m", "kbench.child", "--workload", workload,
               "--seed", str(seed), "--profile", profile]
    if traced:
        command.append("--trace")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: iteration exceeded {timeout:.0f} s",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: iteration exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def end_to_end(records: List[dict]) -> Dict[str, List[float]]:
    """Per-iteration values of every end-to-end metric."""
    return {
        "wall_s": [r["wall_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "sim_speed": [r["emulated_s"] / r["run_s"] for r in records],
        "points_per_s": [r["points"] / r["wall_s"] for r in records],
        "peak_rss_mb": [r["rss_mb"] for r in records],
    }


def recorded_digest(workload: str, seed: int):
    try:
        baseline = json.loads((BENCH / "baseline.json").read_text())
    except (OSError, ValueError):
        return None
    return baseline.get("workloads", {}).get(workload, {}).get(
        "digests", {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, traced: bool,
            profile: str = "full") -> dict:
    """Run iterations for about ``seconds``; return every record.

    A new iteration starts only if one of its kind is expected to finish
    within ``seconds`` (or too few have run), so a run does not overshoot
    its length by a whole iteration.
    """
    started = time.monotonic()
    records: Dict[bool, List[dict]] = {False: [], True: []}
    durations: Dict[bool, List[float]] = {False: [], True: []}
    lost = 0
    while lost < 2:
        elapsed = time.monotonic() - started
        # A traced run alternates untraced and traced iterations so the
        # tracing overhead is measured under the same conditions.
        as_traced = traced and len(records[True]) < len(records[False])
        enough = len(records[False]) >= MIN_ITERATIONS and (
            not traced or len(records[True]) >= MIN_ITERATIONS)
        expected = (median(durations[as_traced])
                    if durations[as_traced] else 0.0)
        if (enough and elapsed + expected > seconds) or \
                elapsed >= BUDGET_S * 0.6:
            break
        record = spawn(workload, seed, traced=as_traced, profile=profile,
                       timeout=max(5.0, BUDGET_S - elapsed))
        if record is None:
            lost += 1
            continue
        records[as_traced].append(record)
        durations[as_traced].append(time.monotonic() - started - elapsed)
    return {"untraced": records[False], "traced": records[True],
            "lost": lost, "elapsed": time.monotonic() - started}


def report(workload: str, seed: int, runs: dict, traced: bool) -> dict:
    """Print the human-readable report; return the result object."""
    records = runs["untraced"] + runs["traced"]
    attempted = sum(r["attempted"] for r in records) + runs["lost"]
    failed = sum(r["failed"] for r in records) + runs["lost"]
    print(f"perfbench {workload} seed={seed}: {len(runs['untraced'])} "
          f"untraced + {len(runs['traced'])} traced iterations in "
          f"{runs['elapsed']:.1f} s, each in a fresh interpreter")
    for record in records:
        for name, detail in record["failing"]:
            print(f"  FAILED CHECK: {name}: {detail}")
    checks = sum(r["checks"] for r in records)
    failing = sum(len(r["failing"]) for r in records)
    print(f"  output checks: {checks - failing}/{checks} passed; "
          f"failed_share {failed}/{attempted} = "
          f"{failed / max(1, attempted):.4f} "
          f"({'iterations' if workload != 'campaign-sweep' else 'points'}"
          f", lost iterations count as failed)")
    digests = sorted({r["digest"] for r in records})
    expected = recorded_digest(workload, seed)
    verdict = ("no digest recorded for this seed" if expected is None
               else "matches the recorded digest" if digests == [expected]
               else f"DIFFERS from the recorded {expected}")
    print(f"  result digest {', '.join(digests)}: {verdict}")
    if len(digests) > 1:
        print("  NON-DETERMINISTIC: iterations of one seed disagree")

    metrics: Dict[str, Dict[str, float]] = {}
    base = runs["untraced"]
    if base:
        values = end_to_end(base)
        print("  end-to-end (untraced; median [q1, q3] over "
              f"{len(base)} iterations; times in reference seconds, "
              "see kbench/speed.py):")
        for name, unit in END_TO_END.items():
            q1, q3 = quartiles(values[name])
            print(f"    {name:<14} {median(values[name]):>12.5f} {unit:<5} "
                  f"[{q1:.5f}, {q3:.5f}]")
        extras = [("elapsed_s", "s", [r["elapsed_s"] for r in base]),
                  ("host_slowdown", "x", [r["slowdown"] for r in base]),
                  ("metadata_Bps", "B/s", [r["metadata_Bps"] for r in base]),
                  ("rtt_err_ms2", "ms2", [r["rtt_err_ms2"] for r in base
                                          if r["rtt_err_ms2"] is not None]),
                  ("events", "count", [r["events"] for r in base])]
        for name, unit, series in extras:
            if series:
                print(f"    {name:<14} {median(series):>12.5f} {unit}")
        if not traced:
            metrics = {name: {"value": median(values[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
    if traced and runs["traced"]:
        metrics = layer_report(workload, runs)
    return {"correct": failed == 0 and bool(metrics),
            "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}


def layer_report(workload: str, runs: dict) -> Dict[str, dict]:
    layers = [r["layers"] for r in runs["traced"]]
    table = {name: median([entry[name] for entry in layers])
             for name in layers[0]}
    # Traced iterations time plain wall-clock seconds (no speed probe), so
    # the overhead compares them with the untraced iterations' elapsed_s.
    table["trace.overhead_s"] = (
        median([r["wall_s"] for r in runs["traced"]])
        - median([r["elapsed_s"] for r in runs["untraced"]]))
    wall = table["trace.wall_s"]
    print(f"  per layer (traced; median over {len(layers)} iterations; "
          f"traced wall {wall:.4f} s):")
    ranked = sorted(LAYERS, key=lambda layer: -table[f"{layer}.self_s"])
    for layer in ranked:
        self_s = table[f"{layer}.self_s"]
        print(f"    {layer:<10} self {self_s:>9.4f} s  "
              f"{self_s / wall:>7.2%}")
    attributed = sum(table[f"{layer}.self_s"] for layer in LAYERS)
    print(f"    unattributed    {table['trace.unattributed_s']:.4f} s; "
          f"layer self times sum to {attributed / wall:.2%} of traced wall")
    for name in sorted(table):
        if not name.endswith(".self_s"):
            print(f"    {name:<30} {table[name]:>14.5f} "
                  f"{PER_LAYER_UNITS[name]}")
    claim, holds = PREDICTIONS[workload]
    verdict = "holds" if holds(table, ranked) else "DOES NOT HOLD"
    print(f"  prediction for {workload}: {claim}: {verdict}")
    return {name: {"value": table[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    knobs = [name for name in KNOBS if os.environ.get(name)]
    if knobs:
        return refuse(f"unset {', '.join(knobs)}: the benchmark measures "
                      "the program's defaults only")
    if not (ROOT / "src" / "repro" / "scenario" / "__init__.py").is_file():
        return refuse(f"no program source under {ROOT / 'src' / 'repro'}")
    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not runs["untraced"]:
        return refuse("no iteration finished")
    result = report(args.workload, args.seed, runs, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
