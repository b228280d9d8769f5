"""Tests of the benchmark itself: its checks, tracer, counting view and
metric tables.  Run with ``python -m pytest perfbench`` from the root
of a checkout; they take a few seconds."""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bsca.phase_retrieval as pr    # noqa: E402
import checks                        # noqa: E402
import measure                       # noqa: E402
import tracing                       # noqa: E402
from workloads import WORKLOADS      # noqa: E402


def test_soft_is_the_two_sided_shrinkage():
    b = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.array_equal(checks.soft(b, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])


def test_trace_failures_flag_each_defect():
    good = np.array([3.0, 2.0, 2.0, 1.0])
    assert checks.trace_failures(good, 1.0, "tolerance") == []
    assert "rises" in checks.trace_failures(np.array([3.0, 2.0, 2.5]), 2.5, "tolerance")[0]
    assert "recomputed" in checks.trace_failures(good, 1.0 + 1e-9, "tolerance")[0]
    assert "stop rule" in checks.trace_failures(good, 1.0, "max_iterations")[0]


def test_pr_residual_vanishes_at_a_prox_fixed_point():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 8))
    x = np.zeros(3)
    x[0] = 1.0
    y = (A.T @ x) ** 2           # f(x) = 0 and grad f(x) = 0
    assert checks.pr_residual(A, y, 0.0, x) == 0.0
    assert checks.pr_residual(A, y, 0.1, x) > 0.0


def test_anomaly_residuals_vanish_at_block_minimizers():
    rng = np.random.default_rng(1)
    Y, D = rng.standard_normal((4, 5)), rng.standard_normal((4, 6))
    L, R, S = rng.standard_normal((4, 2)), rng.standard_normal((2, 5)), np.zeros((6, 5))
    ridge, gain = 0.5, 1e6       # a huge gain keeps S = 0 optimal
    for _ in range(200):         # alternate the two ridge solves to a fixed point
        L = np.linalg.solve(R @ R.T + ridge * np.eye(2), R @ Y.T).T
        R = np.linalg.solve(L.T @ L + ridge * np.eye(2), L.T @ Y)
    res = checks.anomaly_residuals(Y, D, ridge, gain, L, R, S)
    assert res["S"] == 0.0 and res["R"] < 1e-12 and res["L"] < 1e-9


def test_counting_view_gives_the_same_bits_and_counts_products():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 9))
    x, v = rng.standard_normal(6), rng.standard_normal(9)
    counts = Counter()
    view = tracing.counting_view(A, counts)
    full = view.T @ x
    block = view[2:4, :] @ v
    model = (view[2:4] * v) @ view[2:4].T
    assert type(full) is np.ndarray and type(model) is np.ndarray
    assert np.array_equal(full, A.T @ x)
    assert np.array_equal(block, A[2:4, :] @ v)
    assert np.array_equal(model, (A[2:4] * v) @ A[2:4].T)
    assert counts["full_products"] == 1 and counts["block_products"] == 2
    assert counts["flops"] == 2 * 9 * 6 + 2 * 2 * 9 + 2 * 2 * 9 * 2


def test_self_time_excludes_child_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 0.5
        traced_inner()
        now[0] += 1.0

    tracer.group = "solve-1"
    tracer.wrap("outer", outer)()
    totals = tracer.totals(["solve-1"])
    assert totals == {"inner": (1, 2.0), "outer": (1, 1.5)}


def test_patched_restores_every_binding_and_skips_missing_ones(monkeypatch):
    original = pr.pr_outer_model
    monkeypatch.setitem(tracing.SPANS, "gone.layer", [("bsca.phase_retrieval", "no_such")])
    tracer = tracing.Tracer()
    with tracer.patched():
        assert pr.pr_outer_model is not original
    assert pr.pr_outer_model is original
    assert "gone.layer" not in tracer.totals(["setup"])


def test_benchmark_json_lists_what_the_runs_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == measure.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


@pytest.fixture
def small_pr():
    """pr_scaleup's recipe on a 400 x 1000 instance in 4 blocks."""
    return dataclasses.replace(
        WORKLOADS["pr_scaleup"], blocks=4, setup_repeats=2,
        generate=lambda: pr.generate_pr_instance(400, 1000, density=0.01,
                                                 num_blocks=4, seed=0))


def test_timed_run_reports_every_end_to_end_metric(small_pr, tmp_path):
    result = measure.timed_run(small_pr, seed=1, seconds=0.0, out=tmp_path)
    assert result["correct"] and result["failed"] == 0, result["messages"]
    assert result["attempted"] == 1 + measure.MIN_TIMED_SOLVES
    assert result["notes"][0].startswith("gauge ")
    assert list(result["metrics"]) == list(measure.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["solve_rss_mb"] <= metrics["peak_rss_mb"]
    assert list(tmp_path.iterdir()) == []      # the bundle is removed


def test_traced_solve_matches_the_untraced_one(small_pr, tmp_path):
    result = measure.traced_run(small_pr, seed=1, seconds=0.0, out=tmp_path)
    # Tally counts a traced trace that differs from the untraced one as failed
    assert result["correct"] and result["failed"] == 0, result["messages"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(measure.per_layer_units())
    assert metrics["phase_retrieval.pr_outer_model.calls"] > 0
    assert metrics["kernel.full_products"] > 0 and metrics["kernel.block_products"] > 0
    assert metrics["anomaly.sparse_inner_descent.calls"] == 0
    assert metrics["storage.write_instance.calls"] == metrics["storage.read_instance.calls"] == 1


def test_a_failed_solve_is_counted_and_left_out_of_the_metrics():
    def trace(last, seconds):
        elapsed = [SimpleNamespace(elapsed_s=seconds * i / 4) for i in range(5)]
        return SimpleNamespace(objectives=np.array([2.0, last]), iterations=4,
                               final_point=SimpleNamespace(values=np.array([last])),
                               entries=elapsed)

    # warm-up and two timed solves agree; the third timed solve leaves
    # the first trajectory, as a cache leaking state between solves would
    solves = iter([trace(1.0, 1.0), trace(1.0, 1.0), trace(1.0, 3.0), trace(0.5, 99.0)])
    workload = SimpleNamespace(start=lambda instance, seed: None, blocks=2, counted="A",
                               run=lambda instance, config, start: next(solves),
                               check=lambda instance, trace: [])
    instance = SimpleNamespace(A=np.ones((4, 4)))
    tally, values, gauges = measure.timed_solves(workload, instance, None, seed=1, seconds=0.0)
    assert len(gauges) == 2 + measure.MIN_TIMED_SOLVES
    assert (tally.attempted, tally.failed) == (1 + measure.MIN_TIMED_SOLVES, 1)
    assert values["solve_s"] == 2.0         # the median of 1.0 and 3.0 alone
    result = tally.result(dict(values, setup_s=1.0, peak_rss_mb=1.0), measure.END_TO_END)
    assert not result["correct"]
    assert "differs" in result["messages"][0]
