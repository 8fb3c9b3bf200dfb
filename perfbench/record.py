#!/usr/bin/env python3
"""Run the benchmark over many seeds and record medians, spreads, digests.

    python3 perfbench/record.py --seeds 1-10 [--workload NAME ...]
        [--out perfbench/baseline.json]

Each (workload, seed) runs what the benchmark command runs
(``run.measure`` and ``run.report`` for BENCHMARK.json's ``run_seconds``),
one after another.  For every end-to-end metric the report gives the
median over seeds, the quartiles, and the spread (q3 - q1) / median that
BENCHMARK.json's bound must contain with a margin; ``--out`` also stores
each seed's result digest, which ``run.py`` compares against on later
runs.  It exits 1 if any spread is not below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import run

BENCH = run.BENCH
ROOT = run.ROOT


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def environment() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.collapse import collapse_cache_stats
    from repro.core.sharing import solver_backend
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from kbench import speed
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "solver_backend": solver_backend(),
            "collapse_cache_capacity": collapse_cache_stats()["capacity"],
            "speed_probe_period_s": speed.PERIOD_S,
            "reference_probe_s": speed.REFERENCE_PROBE_S}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result object plus what the records carry
    beyond the declared metrics."""
    runs = run.measure(workload, seed, seconds, False)
    result = run.report(workload, seed, runs, False)
    records = runs["untraced"]
    result["digest"] = records[0]["digest"] if records else None
    result["host_slowdown"] = statistics.median(
        record["slowdown"] for record in records)
    result["metadata_Bps"] = statistics.median(
        record["metadata_Bps"] for record in records)
    errors = [record["rtt_err_ms2"] for record in records
              if record["rtt_err_ms2"] is not None]
    if errors:
        result["rtt_err_ms2"] = statistics.median(errors)
    return result


def summarize(values):
    q1, q3 = run.quartiles(values)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    knobs = [name for name in run.KNOBS if os.environ.get(name)]
    if knobs:
        return run.refuse(f"unset {', '.join(knobs)}: the baseline records "
                          "the program's defaults only")
    record = {"run_seconds": spec["run_seconds"],
              "environment": environment(), "workloads": {}}
    steady = True
    for workload in names:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            results.append((seed, result))
            values = {name: round(entry["value"], 5)
                      for name, entry in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{values}", flush=True)
        entry = {"runs": len(results), "seeds": args.seeds, "metrics": {},
                 "digests": {str(seed): result.get("digest")
                             for seed, result in results},
                 "attempted": sum(result["attempted"]
                                  for _seed, result in results),
                 "failed": sum(result["failed"] for _seed, result in results)}
        for name in bounds:
            summary = summarize([result["metrics"][name]["value"]
                                 for _seed, result in results])
            summary["bound"] = bounds[name]
            entry["metrics"][name] = summary
            ok = summary["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {workload} {name}: median {summary['median']:.5f} "
                  f"spread {summary['spread']:.4f} bound {bounds[name]} "
                  f"{'ok' if ok else 'TOO WIDE'}", flush=True)
        for extra in ("host_slowdown", "metadata_Bps", "rtt_err_ms2"):
            series = [result[extra] for _seed, result in results
                      if extra in result]
            if series:
                entry[extra] = summarize(series)
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT STEADY: a spread exceeds a third of "
          "its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
