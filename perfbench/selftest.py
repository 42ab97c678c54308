"""Self-tests of the benchmark.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q

The file name matches neither ``test_*.py`` nor ``*_test.py``, so the
repository's own test command does not collect it; pytest collects a file
named on its command line regardless of the pattern.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    result, lines = run.measure(workload, seed=5, seconds=0, trace=trace, size="smoke")
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] > 0 and result["failed"] == 0
    if "variants" in workloads.SIZES["smoke"][workload]:
        # Both input variants ran; repeated inputs matched their digests
        # (failed == 0 above).
        inputs = workloads.input_seed(5, 1)
        assert f"{inputs}: " in "\n".join(lines)
    expected = {m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(math.isfinite(value) for value in result["metrics"].values())


def test_metric_names_and_units_match_benchmark_json():
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[key]}
        assert declared == run._units(trace)


def test_workloads_match_benchmark_json():
    declared = {workload["name"] for workload in BENCHMARK["workloads"]}
    assert declared == set(workloads.WORKLOADS) == set(run.OPERATION)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(v) for v in range(1, 25)]) == (14.0, 58, 10)
    assert run.tail([float(v) for v in range(1, 10001)]) == (9900.0, 99, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    for n in range(11, 400):
        samples = [float(v) for v in range(n)]
        value, percentile, beyond = run.tail(samples)
        assert beyond >= 10 and beyond == sum(s > value for s in samples)
        if percentile < 99:
            # One percentile higher would leave fewer than ten beyond.
            rank = math.ceil((percentile + 1) * n / 100)
            assert n - rank < 10


def test_tracer_patches_where_callers_look_up_and_restores():
    import repro.inference.icrf
    import repro.inference.mstep
    import repro.streaming.process

    original = repro.inference.mstep.run_m_step
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for module in (repro.inference.mstep, repro.inference.icrf, repro.streaming.process):
            assert module.run_m_step is not original
    finally:
        tracer.remove()
    for module in (repro.inference.mstep, repro.inference.icrf, repro.streaming.process):
        assert module.run_m_step is original


def test_self_time_excludes_children_on_other_threads():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "parent", 0.0, 10.0, None, 0),
        (2, "child", 1.0, 4.0, 1, 0),
        (3, "child", 3.0, 6.0, 1, 0),
        (4, "child", 9.0, 12.0, 1, 0),
    ]
    totals = tracer.layer_totals()
    assert totals["parent"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert totals["child"]["calls"] == 3 and totals["child"]["busy_s"] == 9.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch_em",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
