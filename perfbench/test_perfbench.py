"""Tests of the benchmark itself: its input generators, its span arithmetic,
and the agreement between the metrics it prints and BENCHMARK.json."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from vcbent import bentlab, permexpr  # noqa: E402
from vcbent.mvfunction import MvFunction  # noqa: E402

from perfbench import inputs, run  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("p, m", [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2)])
def test_maiorana_inputs_are_strict_bent_with_the_constructed_dual(p, m):
    for seed in range(3):
        bent = inputs.MaioranaBent(random.Random(seed), p, m)
        f = MvFunction(p, 2 * m, bent.values())
        verdict = bentlab.is_bent(f)
        assert verdict.is_bent and verdict.is_strict_bent
        assert bentlab.strict_exponents(bentlab.circular_spectrum(f)) == bent.dual_exponents()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ternary_bent_inputs_are_bent(n):
    for seed in range(3):
        f = MvFunction(3, n, inputs.ternary_bent(random.Random(seed), n))
        assert bentlab.is_bent(f).is_bent


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_expressions_survive_parse_render(n):
    rng = random.Random(n)
    for _ in range(60):
        text = inputs.random_expr(rng, n)
        node = permexpr.parse(text)
        assert permexpr.render(node) == text
        assert permexpr.evaluate(node).size == 3**n


def test_inputs_repeat_for_a_seed():
    assert inputs.random_expr(random.Random(7), 3) == inputs.random_expr(random.Random(7), 3)
    assert inputs.MaioranaBent(random.Random(7), 5, 2).values() == inputs.MaioranaBent(random.Random(7), 5, 2).values()


def test_self_time_subtracts_child_spans():
    tracer = Tracer(enabled=True)
    # parent 0..10 with children 1..3 and 2..5 (overlapping) and 8..9
    tracer.spans = [
        ["outer.op", 0.0, 10.0, None, 0],
        ["a.x", 1.0, 3.0, 0, 0],
        ["a.x", 2.0, 5.0, 0, 0],
        ["b.y", 8.0, 9.0, 0, 0],
    ]
    times = tracer.self_times()
    assert times == {"outer.op": 5.0, "a.x": 5.0, "b.y": 1.0}


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_workload_names_match_benchmark_json():
    from perfbench.workloads import WORKLOADS

    declared = [w["name"] for w in BENCH["workloads"]]
    assert declared == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_printed_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["end_to_end"]}
    assert declared == run.END_TO_END
    wl = SimpleNamespace(LATENCY_PASSES=1, ops=[SimpleNamespace(decides=1)] * 12)
    times = [0.01 * (i + 1) for i in range(12)]
    passes = [run.Pass(times, sum(times), 1.0, (0, 0)), run.Pass([2 * t for t in times], 0.0, 1.0, (0, 0))]
    metrics, _ = run.end_to_end(wl, passes, [1.0, 2.0, 3.0], 10.0)
    assert list(metrics) == list(declared)
    assert metrics["wall_s"] == pytest.approx(1.5 * sum(times))
    assert metrics["op_tail_ms"] == pytest.approx(20.0)
    assert all(value > 0 for value in metrics.values())


def test_printed_layer_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert declared == run.PER_LAYER
    tracer = Tracer(enabled=True)
    tracer.spans = [["op", 0.0, 2.0, None, 0], ["oracle.scan.p3n2", 0.5, 1.5, 0, 0]]
    wl = SimpleNamespace(tr=tracer, derived=lambda metrics: None)
    traced = [run.Pass([2.0], 2.0, 0.5, (0, 2))]
    untraced = [run.Pass([1.0], 1.0, 1.0, (2, 2))]
    metrics, _ = run.per_layer(wl, traced, untraced, {}, {"oracle.hits": 618}, {})
    assert list(metrics) == list(declared)
    assert metrics["oracle.scan_s.p3n2"] == 0.5  # one measured second at half the reference speed
    assert metrics["oracle.hits"] == 618
    assert metrics["trace.overhead_ratio"] == 2.0


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
