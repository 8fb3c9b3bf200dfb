"""One benchmark iteration in a fresh interpreter.

    python -m kbench.child --workload NAME --seed N [--trace] [--profile P]

Imports the program, runs one workload iteration (traced or not) and
prints one JSON object on its last stdout line.  ``run.py`` starts one of
these per iteration, serially, so no iteration inherits another's caches.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import sys

# Modules the workloads touch, imported before any timed window opens so
# that neither mode times a first import.
PRELOAD = ("repro.apps", "repro.apps.kvstore", "repro.apps.ping",
           "repro.campaign", "repro.scenario", "repro.scenario.topologies",
           "repro.core.engine", "repro.telemetry")


def preload() -> None:
    for name in PRELOAD:
        importlib.import_module(name)


def run_iteration(workload: str, seed: int, *, traced: bool = False,
                  profile: str = "full") -> dict:
    """Run one iteration in this process and summarize it as a dict."""
    from kbench import workloads
    preload()
    attribution = None
    counters = {}
    slowdown = 1.0
    elapsed_s = 0.0
    if traced:
        from repro import telemetry
        from kbench.tracing import Attribution
        attribution = Attribution()
        attribution.install()
        telemetry.enable(None)
        try:
            outcome = workloads.run_workload(workload, seed, profile,
                                             attribution.window())
        finally:
            counters = telemetry.metrics.snapshot()
            telemetry.disable()
            attribution.restore()
    else:
        # Untraced numbers are reference seconds (see kbench.speed); the
        # probe is off in traced iterations, whose wrappers time raw.
        from kbench.speed import SpeedProbe
        with SpeedProbe() as speed:
            outcome = workloads.run_workload(
                workload, seed, profile, workloads.Window(speed.seconds))
        window = outcome.window
        slowdown = speed.slowdown(window.started, window.stopped)
        elapsed_s = window.stopped - window.started
    failing = [check for check in outcome.checks if not check.passed]
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": outcome.wall_s,
        # Plain wall-clock seconds of the window and the host's median
        # slowdown over it (untraced only).
        "elapsed_s": elapsed_s or outcome.wall_s,
        "slowdown": slowdown,
        "setup_s": outcome.setup_s,
        "emulated_s": outcome.emulated_s,
        "run_s": outcome.run_s,
        "points": outcome.campaign.get("points", 1.0),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": len(outcome.checks),
        "failing": [[check.name, check.detail] for check in failing],
        "digest": outcome.digest,
        "events": sum(engine.sim.events_dispatched
                      for engine in outcome.engines),
        "metadata_Bps": outcome.metadata_bytes / outcome.emulated_s,
        "rtt_err_ms2": (None if math.isnan(outcome.rtt_err_ms2)
                        else outcome.rtt_err_ms2),
    }
    if attribution is not None:
        from kbench.tracing import layer_metrics, leaked_wrappers
        record["layers"] = layer_metrics(attribution, outcome, counters)
        record["leaks"] = leaked_wrappers()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = run_iteration(args.workload, args.seed, traced=args.trace,
                           profile=args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
