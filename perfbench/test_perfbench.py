"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q

Every iteration runs in a child interpreter, as in the benchmark, so no
test leaves wrappers, telemetry or collapse-memo state behind in the
test process.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
from kbench import speed, tracing, workloads  # noqa: E402

ALL = workloads.NAMES


def child(workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    done = subprocess.run(
        [sys.executable, "-m", "kbench.child", "--workload", workload,
         "--seed", str(seed), "--profile", "tiny", *extra],
        cwd=ROOT, env=env, text=True, capture_output=True, check=True,
        timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_bench(*args: str, cwd: Path = ROOT, **env_extra: str):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, env=env, text=True, capture_output=True, timeout=170)


@pytest.mark.parametrize("workload", ALL)
def test_same_seed_gives_identical_counts_and_digest(workload):
    first, second = child(workload, 3), child(workload, 3)
    assert first["failed"] == 0, first["failing"]
    for key in ("digest", "events", "attempted", "checks", "metadata_Bps",
                "rtt_err_ms2"):
        assert first[key] == second[key], key


@pytest.mark.parametrize("workload", ALL)
def test_seed_changes_the_generated_inputs(workload):
    one = workloads.generate_inputs(workload, 1, "tiny")
    assert one == workloads.generate_inputs(workload, 1, "tiny")
    assert one != workloads.generate_inputs(workload, 2, "tiny")


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_restores_every_wrapper(workload):
    record = child(workload, 2, "--trace")
    assert record["leaks"] == []
    layers = record["layers"]
    attributed = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert attributed + layers["trace.unattributed_s"] == pytest.approx(
        record["wall_s"], rel=1e-6)
    assert set(run.PER_LAYER_UNITS) - set(layers) == {"trace.overhead_s"}


def test_injected_failing_check_counts_in_failed_share():
    checks = [workloads.Check("passes", True),
              workloads.Check("injected failure", False)]
    outcome = workloads.Outcome(window=workloads.Window(), emulated_s=1.0,
                                attempted=1, checks=checks, payload=None,
                                engines=[])
    assert outcome.failed == 1
    clean = child("scalefree-setup", 1)
    assert clean["failed"] == 0
    injected = dict(clean, failed=outcome.failed,
                    failing=[["injected failure", ""]])
    runs = {"untraced": [injected, clean], "traced": [], "lost": 0,
            "elapsed": 0.0}
    result = run.report("scalefree-setup", 1, runs, False)
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["correct"] is False


def test_measure_reports_every_end_to_end_metric():
    runs = run.measure("memtier-packet", 1, 0, False, profile="tiny")
    assert len(runs["untraced"]) == run.MIN_ITERATIONS
    result = run.report("memtier-packet", 1, runs, False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_setup_s_is_the_median_of_repeated_set_ups():
    window = workloads.Window()
    window.extra_setups = [(1.0, 1.3), (2.0, 2.1)]
    window.started, window.setup_done = 10.0, 10.2
    assert window.setup_s == pytest.approx(0.2)
    assert not tracing.TracedWindow(tracing.Attribution()).repeat_setup


def test_reference_seconds_drop_the_probes_and_undo_the_slowdown():
    probe = speed.SpeedProbe()
    reference = speed.REFERENCE_PROBE_S
    # Probes every 10 ms that ran twice as slow as the reference.
    probe.starts = [index * 0.01 for index in range(100)]
    probe.durations = [2 * reference] * 100
    assert probe.slowdown(0.295, 0.505) == pytest.approx(2.0)
    inside = 21 * 2 * reference  # the probes started at 0.30 ... 0.50
    assert probe.seconds(0.295, 0.505) == pytest.approx((0.21 - inside) / 2)
    # An interval shorter than the period takes the speed around it.
    assert probe.slowdown(0.301, 0.302) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        probe.slowdown(5.0, 6.0)


def test_speed_probe_samples_while_entered_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.1:
            pass
        ended = time.perf_counter()
    assert len(probe.starts) >= 3
    assert 0 < probe.seconds(started, ended) < 1.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(ALL)


def test_refuses_while_a_program_knob_is_set():
    done = run_bench("--workload", "memtier-packet", "--seed", "1",
                     "--seconds", "0", REPRO_COLLAPSE_CACHE="0")
    assert done.returncode != 0
    assert "REPRO_COLLAPSE_CACHE" in done.stderr
    assert "{" not in done.stdout


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "memtier-packet", "--seed", "1",
                     "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
