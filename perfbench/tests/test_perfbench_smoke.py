"""Smoke test of the benchmark at tiny input sizes, and of the span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, run, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every end-to-end metric the benchmark defines, and the workloads it applies to.
REPORTED = {
    "setup_s": {"sweep", "bounds-corpus", "oracle-check"},
    "wall_s": {"sweep", "bounds-corpus", "oracle-check"},
    "peak_rss_mb": {"sweep", "bounds-corpus", "oracle-check"},
    "fail_frac": {"sweep", "bounds-corpus", "oracle-check"},
    "trial_steps_per_s": {"sweep", "oracle-check"},
    "trials_per_s": {"sweep", "oracle-check"},
    "exact_s": {"oracle-check"},
    "bounds_per_s": {"bounds-corpus"},
    "bounds_p50_ms": {"bounds-corpus"},
    "bounds_p75_ms": {"bounds-corpus"},
}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _parse(stdout):
    lines = stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit, n = line.split()
            metrics[name] = (float(value), unit, n)
    digest = next(line.split()[2] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), metrics, digest


@pytest.fixture(scope="module")
def smoke_runs():
    out = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace,
                          "--size", "smoke")
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = _parse(proc.stdout)
    return out


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert WORKLOADS == ["sweep", "bounds-corpus", "oracle-check"]


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    for workload in WORKLOADS:
        result, metrics, _ = smoke_runs[workload, "0"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(run.END_TO_END)
        for name, unit in run.END_TO_END.items():
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0
        expected = {name for name, where in REPORTED.items() if workload in where}
        assert expected <= set(metrics), expected - set(metrics)
        assert all(unit and n.startswith("n=") for _, unit, n in metrics.values())
        assert metrics["fail_frac"][0] == 0.0


def test_every_layer_metric_is_printed_with_its_unit(smoke_runs):
    for workload in WORKLOADS:
        result, metrics, _ = smoke_runs[workload, "1"]
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER
        assert {k: metrics[k][1] for k in tracing.PER_LAYER} == tracing.PER_LAYER
    layer = {w: smoke_runs[w, "1"][1] for w in WORKLOADS}
    assert layer["sweep"]["simulator.trial_steps"][0] > 0
    assert layer["sweep"]["simulator.scaling_eff"][0] > 0
    assert layer["bounds-corpus"]["bounds.d_hat_s"][0] > 0
    assert layer["bounds-corpus"]["simulator.trials"][0] == 0
    assert layer["oracle-check"]["oracle.exact_eval_nodes"][0] > 0
    assert layer["oracle-check"]["divergences.alpha_max_calls"][0] > 0


def test_digest_repeats_across_runs_traces_and_worker_counts(smoke_runs):
    # The traced sweep run also makes one pass at workers=1; "correct" there
    # means every pass, at either worker count, gave the same digest.
    for workload in WORKLOADS:
        assert smoke_runs[workload, "0"][2] == smoke_runs[workload, "1"][2]
    again = _parse(_bench("--workload", "sweep", "--seed", "3", "--seconds", "0.1", "--size", "smoke").stdout)
    assert again[2] == smoke_runs["sweep", "0"][2]


def test_benchmark_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),        # overlaps a: together they cover [1, 5]
        Span("grandchild", 2.5, 3.5, 2, 1),
        Span("c", 9.0, 12.0, 0, 1),       # clipped to the parent: covers [9, 10]
        Span("other_root", 20.0, 21.0, None, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 3.0, 1.0])


def test_uncovered_share_ignores_benchmark_spans():
    spans = [
        Span("bench.op", 0.0, 10.0, None, 1),
        Span("simulator.run_trials", 1.0, 4.0, 0, 1),
        Span("bounds.linprog", 3.0, 6.0, 0, 1),
    ]
    assert tracing.uncovered_share(spans, 0.0, 10.0) == pytest.approx(0.5)


def test_tracer_records_nesting_and_restores_the_package():
    from active_ht import bounds

    original = bounds.compute_bounds
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bounds.compute_bounds is not original
        with tracer.op_span("op"):
            bounds.compute_bounds(inputs.two_probe())
    assert bounds.compute_bounds is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["bench.op", "bounds.compute_bounds"]
    top = tracer.spans[1]
    assert all(s.parent == 1 for s in tracer.spans[2:] if s.name == "bounds.d_hat")
    assert all(s.op == 1 for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["bounds.self_s"] <= top.end - top.start
    assert metrics["bounds.grid_points"] > 0 and metrics["bounds.lp_calls"] > 0
