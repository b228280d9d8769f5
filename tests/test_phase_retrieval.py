import dataclasses
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from bsca import core, engine, phase_retrieval
from bsca.cli import BLAS_THREAD_VARS
from bsca.core import (
    PRODUCT_DRIFT_RTOL,
    L1Norm,
    SolverConfig,
    Unconstrained,
    _support_count,
    make_partition,
)
from bsca.engine import (
    _audit_profile,
    inexact_solver,
    run_bgd,
    run_bsca,
    run_parallel_sca,
)
from bsca.errors import InvalidArgumentError, ProductDriftError, ProfileMismatchError
from bsca.storage import map_pr_sampling
from bsca.surrogates import QuadOperator
from bsca.phase_retrieval import (
    PhaseProducts,
    PhaseRetrievalInstance,
    _quartic_coeffs,
    generate_pr_instance,
    pr_outer_model,
    pr_problem,
    pr_solver,
    run_phase_retrieval,
    with_blocks,
)

from conftest import (
    carried_gradient_drift,
    fresh_inner_step,
    fresh_inner_stepsize,
    linear_term,
    model_gradient,
    model_value,
    diagonal_operator,
    product_log,
    random_quadratic_problem,
    whole_diagonal,
)
from oracles import finite_diff_block_gradient, golden_section


def one_d_instance(x_value=1.0, intensity=0.0, gain=1e-3):
    return PhaseRetrievalInstance(
        sampling=np.array([[1.0]]), intensities=np.array([intensity]),
        sparse_gain=gain, partition=make_partition([1]))


def tiny_instance(seed=0, unknowns=24, measurements=60, blocks=2, gain=None):
    return generate_pr_instance(unknowns, measurements, density=0.1,
                                num_blocks=blocks, seed=seed,
                                sparse_gain=gain)


def inner_solve(model, x_tau, gain):
    return fresh_inner_step(model, x_tau, L1Norm(gain), Unconstrained())


def inner_stepsize(model, x_tau, minimizer, gain):
    return fresh_inner_stepsize(model, x_tau, minimizer, L1Norm(gain))


def outer_stepsize(inst, x, x_tilde_k, k, gain):
    """Exact outer stepsize along block k through the problem's
    block-local quartic profile."""
    sl = inst.partition.slice_of(k)
    delta = x_tilde_k - x[sl]
    delta_g = gain * (np.abs(x_tilde_k).sum() - np.abs(x[sl]).sum())
    profile = pr_problem(inst).line_profile(x, delta, k)
    return profile.with_slope_offset(delta_g).minimize()


def operator_matrix(model):
    """The model's D, applied to the identity's columns."""
    return np.column_stack([model.quad.apply(e) for e in np.eye(model.anchor.size)])


def assert_dense_outer_form(model, inst, x, k, curvature):
    """The matrix-free model's D and diagonal equal the dense
    2 A_k diag(u^2) A_k' + cI, u = A'x, to 1e-12 relative."""
    u = inst.sampling.T @ x
    rows = inst.block_rows(k)
    dense = 2.0 * (rows * (u * u)) @ rows.T + curvature * np.eye(rows.shape[0])
    scale = np.linalg.norm(dense)
    assert np.linalg.norm(operator_matrix(model) - dense) <= 1e-12 * scale
    assert (np.linalg.norm(whole_diagonal(model) - np.diag(dense))
            <= 1e-12 * np.linalg.norm(np.diag(dense)))


def pr_inexact_run(inst, cfg, x0):
    """The two-layer phase-retrieval update run through the generic
    sequential loop, at the config's own audit setting."""
    solver = inexact_solver(
        lambda problem, x, k: pr_outer_model(problem, x, k, cfg.curvature), cfg)
    return run_bsca(pr_problem(inst), solver, cfg, x0)


class TestOuterModel:
    def test_one_dimensional_toy(self):
        inst = one_d_instance(intensity=0.0, gain=0.5)
        model = pr_outer_model(pr_problem(inst), np.array([1.0]), 0, 0.1)
        assert_dense_outer_form(model, inst, np.array([1.0]), 0, 0.1)
        assert operator_matrix(model) == pytest.approx(np.array([[2.1]]))
        assert whole_diagonal(model) == pytest.approx(np.array([2.1]))
        assert linear_term(model) == pytest.approx(np.array([1.1]))

    def test_zero_anchor_degenerates_to_prox_model(self):
        inst = tiny_instance()
        model = pr_outer_model(pr_problem(inst), np.zeros(24), 0, 0.3)
        size = inst.partition.block_sizes[0]
        assert_dense_outer_form(model, inst, np.zeros(24), 0, 0.3)
        assert operator_matrix(model) == pytest.approx(0.3 * np.eye(size))
        assert whole_diagonal(model) == pytest.approx(np.full(size, 0.3))
        assert linear_term(model) == pytest.approx(np.zeros(size))

    def test_gradient_consistency_against_finite_differences(self, rng):
        inst = tiny_instance(seed=3)
        problem = pr_problem(inst)
        x = rng.standard_normal(24)
        for k in range(2):
            model = pr_outer_model(problem, x, k, 1e-3)
            sl = inst.partition.slice_of(k)
            fd = finite_diff_block_gradient(problem.smooth_value, x, sl, eps=1e-6)
            assert np.allclose(model_gradient(model, x[sl]), fd, atol=1e-5)
            assert np.allclose(model_gradient(model, x[sl]),
                               problem.block_gradient(x, k), rtol=1e-10)

    def test_positive_definite_with_floor_at_curvature(self, rng):
        inst = tiny_instance(seed=1)
        x = rng.standard_normal(24)
        model = pr_outer_model(pr_problem(inst), x, 1, 0.05)
        assert_dense_outer_form(model, inst, x, 1, 0.05)
        eigs = np.linalg.eigvalsh(operator_matrix(model))
        assert eigs.min() >= 0.05 - 1e-12

    def test_builds_no_block_by_measurement_array(self, rng):
        # a 200 x 4000 block: forming D (200 x 200) fits the budget, but
        # any block-by-measurement temporary such as A_k diag(u^2) does not
        inst = generate_pr_instance(200, 4000, density=0.05, seed=21)
        problem = pr_problem(inst)
        x = rng.standard_normal(200)
        rows = inst.block_rows(0)
        tracemalloc.start()
        try:
            model = pr_outer_model(problem, x, 0, 1e-3)
            model.quad.apply(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4

    def test_carried_inner_gradient_does_not_drift(self, rng, monkeypatch):
        # one block and a tiny curvature keep the loop moving for all
        # rounds; the gradient entering round 201 has been carried
        # through 200 updates
        inst = tiny_instance(seed=0, blocks=1)
        problem = pr_problem(inst)
        model = pr_outer_model(problem, rng.standard_normal(24), 0, 1e-6)
        rounds, drift = carried_gradient_drift(monkeypatch, model, problem, 201)
        assert rounds == 201
        assert drift <= 1e-12

    def test_inner_loop_is_seeded_with_the_model_gradient(self, rng, monkeypatch):
        # the first inner round reads grad_anchor itself, and the loop
        # applies D only to its steps, never to the anchor (as a fresh
        # D x_k - b would)
        inst = tiny_instance(seed=5, blocks=1)
        problem = pr_problem(inst)
        model = pr_outer_model(problem, rng.standard_normal(24), 0, 1e-2)
        applied, seen = [], []
        operator = model.quad

        def apply(v):
            applied.append(v.copy())
            return operator.apply(v)

        honest = engine.inner_best_response_step

        def step(model, x_tau, grad_tau, reg, constraint):
            seen.append(grad_tau.copy())
            return honest(model, x_tau, grad_tau, reg, constraint)

        monkeypatch.setattr(engine, "inner_best_response_step", step)
        monkeypatch.setattr(core, "STATIONARITY_RTOL", 0.0)    # every round runs
        spied = dataclasses.replace(
            model, quad=QuadOperator(apply, operator.diagonal))
        engine.inexact_inner_loop(spied, problem, 0, SolverConfig(
            max_outer_iterations=1, inner_iterations=5))
        assert np.array_equal(seen[0], model.grad_anchor)
        assert len(seen) == len(applied) == 5    # one D per round
        assert not any(np.array_equal(v, model.anchor) for v in applied)

    def test_gradient_and_diagonal_pass_matches_whole_block_products(self, rng):
        # blocks of 1, 37 and 202 rows; the last two end on a partial chunk
        sizes = [1, 37, 202]
        assert all(size % phase_retrieval._LAYOUT_ROWS for size in sizes[1:])
        A = rng.standard_normal((sum(sizes), 300))
        inst = PhaseRetrievalInstance(
            sampling=A, intensities=rng.random(300), sparse_gain=0.1,
            partition=make_partition(sizes))
        x = rng.standard_normal(sum(sizes))
        u = A.T @ x
        for k in range(len(sizes)):
            model = pr_outer_model(pr_problem(inst), x, k, 1e-3)
            rows = inst.block_rows(k)
            grad = rows @ (u * (u * u - inst.intensities))
            diagonal = 2.0 * np.einsum("ij,ij,j->i", rows, rows, u * u) + 1e-3
            assert (np.linalg.norm(model.grad_anchor - grad)
                    <= 1e-13 * np.linalg.norm(grad))
            assert np.allclose(whole_diagonal(model), diagonal, rtol=1e-13, atol=0.0)

    def test_diagonal_keeps_the_chunked_pass_bits(self):
        # at one BLAS thread, as the benchmark and the manifest gate run:
        # the diagonal has the bits of the squares pass, read in any
        # order and pieces.  A gradient comes from a gemm, with the
        # support columns of a sparse anchor or with D a of a dense one,
        # and agrees to rounding.  The lengths 17 and 33 (1 mod 16) end
        # on a lone row, a chunk of its own
        script = """
import numpy as np
from bsca.core import make_partition
from bsca.phase_retrieval import PhaseRetrievalInstance, pr_outer_model, pr_problem
from oracles import outer_model_chunked_pass

gen = np.random.default_rng(7)
sizes = [1, 5, 9, 13, 17, 21, 33, 37, 100, 101, 1000]
A = gen.standard_normal((sum(sizes), 2000))
inst = PhaseRetrievalInstance(sampling=A, intensities=gen.random(2000),
                              sparse_gain=0.1, partition=make_partition(sizes))
sparse = np.zeros(sum(sizes))
sparse[gen.choice(sum(sizes), 40, replace=False)] = gen.standard_normal(40)
for x in (gen.standard_normal(sum(sizes)), sparse):
    problem = pr_problem(inst)
    u = problem.products.product(x)
    for k, size in enumerate(sizes):
        model = pr_outer_model(problem, x, k, 1e-3)
        grad, diag = outer_model_chunked_pass(inst.block_rows(k), u,
                                              inst.intensities, 1e-3)
        gap = np.linalg.norm(model.grad_anchor - grad)
        assert gap <= 1e-13 * np.linalg.norm(grad), k
        order = gen.permutation(size)
        got = np.concatenate([model.quad.diagonal(part)
                              for part in np.array_split(order, 3)])
        assert got.tobytes() == diag[order].tobytes(), k
        assert model.quad.diagonal(order).tobytes() == diag[order].tobytes(), k
"""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_rejects_bad_curvature(self):
        inst = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            pr_outer_model(pr_problem(inst), np.zeros(24), 0, 0.0)

    @pytest.mark.parametrize("size", [1, 16, 17, 33, 100])
    def test_a_request_forms_each_chunk_it_lacks_once(self, size):
        # a request forms the 16-row chunks that hold its indices and
        # that no earlier request formed, one squares product each; once
        # the last chunk is formed, over one call or several, the row
        # norms go to the sink with the bits of _norms_of
        gen = np.random.default_rng(size)
        A = gen.standard_normal((size, 50))
        rows = A.view(SquaresLog)
        rows.log, rows.origin = [], rows.ctypes.data
        handed = []
        operator = phase_retrieval._BlockOperator(rows, gen.random(50), 1e-3,
                                                  handed.append)
        chunks = -(-size // 16)
        order = gen.permutation(size)
        requests = [order[:1], order[:1]] + np.array_split(order, 4) + [order]
        formed = set()
        for request in requests:
            before = len(rows.log)
            operator.diagonal(request)
            lacked = sorted({int(i) // 16 for i in request} - formed)
            assert rows.log[before:] == [(16 * c, min(16, size - 16 * c)) for c in lacked]
            formed.update(lacked)
            assert len(handed) == (len(formed) == chunks)
        assert handed[0].tobytes() == phase_retrieval._norms_of(A).tobytes()


class SquaresLog(np.ndarray):
    """Rows of A_k that log each squares product of a run of them,
    ``np.multiply(run, run)``, as ``(first row, rows)``; results are
    plain arrays.  Set ``log`` and ``origin`` (the data address of the
    whole) on the whole; views take them over."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)
        self.origin = getattr(obj, "origin", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        run = inputs[0]
        if ufunc is np.multiply and run is inputs[1]:
            self.log.append(((run.ctypes.data - self.origin) // run.strides[0], len(run)))
        plain = lambda v: v.view(np.ndarray) if isinstance(v, SquaresLog) else v
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(v) for v in kwargs["out"])
        return getattr(ufunc, method)(*(plain(v) for v in inputs), **kwargs)


def logged_instance(log, unknowns=400, measurements=1000, density=0.05,
                    seed=21):
    """A generated instance in two blocks whose sampling matrix logs
    its products to ``log``, and the same instance with the plain
    matrix."""
    plain = generate_pr_instance(unknowns, measurements, density=density,
                                 num_blocks=2, seed=seed)
    return dataclasses.replace(plain, sampling=product_log(plain.sampling, log)), plain


def sparse_vector(rng, size, support):
    v = np.zeros(size)
    v[support] = rng.standard_normal(len(support))
    return v


def block_sum_product(inst, x):
    """``A'x`` as a fresh product forms it at a dense point: the
    block-order sum of the block products ``A_k'x_k``."""
    parts = [inst.block_rows(k).T @ x[inst.partition.slice_of(k)]
             for k in range(inst.partition.num_blocks)]
    u = parts[0].copy()
    for part in parts[1:]:
        u += part
    return u


def relative_gap(got, expected):
    return np.linalg.norm(got - expected) / np.linalg.norm(expected)


class TestSparseOperator:
    """``pr_outer_model``'s operator on arguments with few nonzeros,
    on 200-row blocks of a 400 x 1000 instance."""

    CAP = phase_retrieval._SPARSE_CAP
    COLUMNS = (1000, 200)      # the second operand of a column-forming product

    def model_and_formula(self, rng, log, scale=1.0):
        inst, plain = logged_instance(log)
        x = scale * rng.standard_normal(400)
        model = pr_outer_model(pr_problem(inst), x, 0, 1e-3)
        u = block_sum_product(plain, x)
        rows = plain.block_rows(0)
        log.clear()
        return model, lambda v: 2.0 * (rows @ (u * u * (rows.T @ v))) + 1e-3 * v

    def test_supports_of_one_entry_and_of_the_cap(self, rng):
        assert self.CAP < 100    # fewer than half the block's rows
        log = []
        for size in (1, self.CAP):
            model, formula = self.model_and_formula(rng, log)
            v = sparse_vector(rng, 200, rng.choice(200, size, replace=False))
            assert relative_gap(model.quad.apply(v), formula(v)) <= 1e-13
            # one batched product forms the columns; no A_k'v is formed
            assert log == [((size, 1000), self.COLUMNS)]
            log.clear()

    def test_a_growing_support_forms_only_its_new_columns(self, rng):
        log = []
        model, formula = self.model_and_formula(rng, log)
        order = rng.permutation(200)
        for size, formed in ((3, 3), (8, 5), (20, 12), (8, None), (20, None)):
            v = sparse_vector(rng, 200, order[:size])
            assert relative_gap(model.quad.apply(v), formula(v)) <= 1e-13
            assert log == ([] if formed is None else [((formed, 1000), self.COLUMNS)])
            log.clear()

    def test_a_cap_overflow_starts_the_cache_over(self, rng):
        log = []
        model, formula = self.model_and_formula(rng, log)
        order = rng.permutation(200)
        first, second = order[:20], order[20:40]
        for support, formed in ((first, 20), (second, 20), (first, 20),
                                (first[:10], None)):
            v = sparse_vector(rng, 200, support)
            assert relative_gap(model.quad.apply(v), formula(v)) <= 1e-13
            # 20 held and 20 new pass the cap: the whole support is formed anew
            assert log == ([] if formed is None else [((formed, 1000), self.COLUMNS)])
            log.clear()

    def test_dense_arguments_keep_the_two_pass_formula_bit_for_bit(self, rng):
        log = []
        model, formula = self.model_and_formula(rng, log)
        for size in (self.CAP + 1, 100, 200):
            v = sparse_vector(rng, 200, rng.choice(200, size, replace=False))
            assert np.array_equal(model.quad.apply(v), formula(v))
        zero = model.quad.apply(np.zeros(200))
        assert np.array_equal(zero, np.zeros(200))

    def test_models_at_different_points_keep_their_own_columns(self, rng):
        log = []
        first, first_formula = self.model_and_formula(rng, log)
        second, second_formula = self.model_and_formula(rng, log, scale=2.0)
        support = rng.choice(200, 10, replace=False)
        for _ in range(2):
            for model, formula in ((first, first_formula),
                                   (second, second_formula)):
                v = sparse_vector(rng, 200, support)
                assert relative_gap(model.quad.apply(v), formula(v)) <= 1e-13
        assert log == [((10, 1000), self.COLUMNS)] * 2

    def test_sparse_path_builds_no_block_by_measurement_array(self, rng):
        # the budget of test_builds_no_block_by_measurement_array, with an
        # argument of as many nonzeros as the cap allows
        inst = generate_pr_instance(200, 4000, density=0.05, seed=21)
        problem = pr_problem(inst)
        x = rng.standard_normal(200)
        v = sparse_vector(rng, 200, rng.choice(200, self.CAP, replace=False))
        rows = inst.block_rows(0)
        tracemalloc.start()
        try:
            model = pr_outer_model(problem, x, 0, 1e-3)
            model.quad.apply(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes / 4

    def test_inner_rounds_after_the_first_sweep_form_no_block_transpose(
            self, rng, monkeypatch):
        # a warm start near the sparse signal: after the first sweep each
        # visit's anchor and inner steps are sparse, so the visit runs on a
        # working set.  One that its block's last whole-block gradient
        # certifies forms no product over the block; any other forms one,
        # the gradient gemv A_k grad_u; no round forms the whole-block
        # A_k'v.  A first-sweep visit's anchor is dense: its gradient is
        # stacked with 2 u^2 * A_k'a from the held partial, and its first
        # round, to a sparse target, forms that target's columns alone
        log = []
        inst, plain = logged_instance(log, measurements=1200, density=0.02, seed=0)
        noise = rng.standard_normal(400)
        x0 = plain.signal + 0.2 * noise / np.linalg.norm(noise)
        honest = phase_retrieval.pr_solver

        def marked_solver(config):
            solve = honest(config)

            def solver(*args):
                log.append("visit")
                out = solve(*args)
                log.append("end")
                return out

            return solver

        monkeypatch.setattr(phase_retrieval, "pr_solver", marked_solver)
        cfg = SolverConfig(max_outer_iterations=40, inner_iterations=10,
                           stop_tol=1e-8)
        trace = run_phase_retrieval(inst, cfg, x0)
        visits, inside = [], False
        for entry in log:
            if entry == "visit":
                visits.append([])
                inside = True
            elif entry == "end":
                inside = False
            elif inside:
                visits[-1].append(entry)
        transposed = ((1200, 200), (200,))
        gemv = ((200, 1200), (1200,))
        assert trace.iterations > 4 and len(visits) == trace.iterations
        for visit in visits[:2]:
            assert visit[0] == ((2, 1200), (1200, 200))
            assert transposed not in visit
            assert len(visit) <= 2
            for stack, second in visit[1:]:
                assert second == (1200, 200) and stack[0] <= self.CAP
        later = visits[2:]
        assert all(visit in ([], [gemv]) for visit in later)
        # fewer than one whole-block product per visit, where the full
        # model forms one, of 1 + |S| rows, in every sparse-anchor visit
        assert 0 < sum(len(visit) for visit in later) < len(later)
        # the logging view changes no bit of the run
        plain_trace = run_phase_retrieval(plain, cfg, x0)
        assert np.array_equal(trace.objectives, plain_trace.objectives)


class TestInnerSolve:
    def test_matches_scalar_golden_section(self, rng):
        inst = tiny_instance(seed=2)
        x = rng.standard_normal(24)
        model = pr_outer_model(pr_problem(inst), x, 0, 1e-2)
        assert_dense_outer_form(model, inst, x, 0, 1e-2)
        sl = inst.partition.slice_of(0)
        x_tau = rng.standard_normal(sl.stop - sl.start)
        got = inner_solve(model, x_tau, inst.sparse_gain)
        dense = operator_matrix(model)
        d = np.diag(dense)
        grad = dense @ x_tau - linear_term(model)
        for i in (0, 3, 7):
            grid = np.linspace(got[i] - 1.5, got[i] + 1.5, 600001)
            shift = grid - x_tau[i]
            vals = (0.5 * d[i] * shift ** 2 + grad[i] * shift
                    + inst.sparse_gain * np.abs(grid))
            assert got[i] == pytest.approx(grid[np.argmin(vals)], abs=1e-5)

    def test_zero_gain_is_jacobi_update(self, rng):
        inst = tiny_instance(seed=2, gain=1e-300)
        x = rng.standard_normal(24)
        model = pr_outer_model(pr_problem(inst), x, 0, 1e-2)
        assert_dense_outer_form(model, inst, x, 0, 1e-2)
        x_tau = rng.standard_normal(12)
        got = inner_solve(model, x_tau, 0.0)
        dense = operator_matrix(model)
        d = np.diag(dense)
        expected = x_tau - (dense @ x_tau - linear_term(model)) / d
        assert np.allclose(got, expected, rtol=1e-14)

    def test_diagonal_model_solves_in_one_shot(self):
        inst = tiny_instance()
        model = pr_outer_model(pr_problem(inst), np.zeros(24), 0, 0.3)  # D = 0.3 I
        assert_dense_outer_form(model, inst, np.zeros(24), 0, 0.3)
        got = inner_solve(model, np.ones(12) * 2.0, inst.sparse_gain)
        from bsca.surrogates import soft_threshold
        expected = soft_threshold(linear_term(model) / 0.3,
                                  inst.sparse_gain / 0.3)
        assert np.allclose(got, expected, rtol=1e-12)


class TestInnerStepsize:
    def test_toy_full_step(self):
        # model 0.5 * 2 v^2 with zero linear part: from 1 toward 0 the
        # exact step is the unclipped minimizer 1
        from bsca.surrogates import SurrogateModel
        diag = np.array([2.0])
        model = SurrogateModel(np.array([1.0]), np.array([2.0]),
                               diagonal_operator(diag))
        gamma = inner_stepsize(model, np.array([1.0]), np.array([0.0]), 0.0)
        assert gamma == 1.0

    def test_no_op_direction(self, rng):
        inst = tiny_instance(seed=4)
        x = rng.standard_normal(24)
        model = pr_outer_model(pr_problem(inst), x, 0, 1e-2)
        x_tau = rng.standard_normal(12)
        gamma = inner_stepsize(model, x_tau, x_tau, inst.sparse_gain)
        assert gamma == 0.0

    def test_matches_golden_section(self, rng):
        inst = tiny_instance(seed=4)
        x = rng.standard_normal(24)
        model = pr_outer_model(pr_problem(inst), x, 1, 1e-2)
        assert_dense_outer_form(model, inst, x, 1, 1e-2)
        x_tau = rng.standard_normal(12)
        target = inner_solve(model, x_tau, inst.sparse_gain)
        gamma = inner_stepsize(model, x_tau, target, inst.sparse_gain)
        delta = target - x_tau
        reg_delta = inst.sparse_gain * (np.abs(target).sum() - np.abs(x_tau).sum())
        phi = lambda g: model_value(model, x_tau + g * delta) + g * reg_delta
        assert gamma == pytest.approx(golden_section(phi, tol=1e-12), abs=1e-6)


class TestOuterStepsize:
    def test_one_dimensional_toy(self):
        inst = one_d_instance(intensity=1.0, gain=1e-300)
        step = outer_stepsize(inst, np.array([0.0]), np.array([1.0]), 0,
                              gain=0.0)
        assert step.gamma == 1.0

    def test_interior_root_when_target_is_stationary(self, rng):
        # displacement past the quartic's valley: interior stepsize
        inst = one_d_instance(intensity=1.0)
        step = outer_stepsize(inst, np.array([0.1]), np.array([2.0]), 0,
                              gain=0.0)
        assert 0.0 < step.gamma < 1.0
        u, w = 0.1, 1.9
        phi = lambda g: 0.25 * ((u + g * w) ** 2 - 1.0) ** 2
        assert step.gamma == pytest.approx(golden_section(phi, tol=1e-12, grid=1000),
                                           abs=1e-6)

    def test_huge_gain_blocks_the_step(self, rng):
        inst = tiny_instance(seed=5)
        x = rng.standard_normal(24)
        x_tilde = x[:12] + np.ones(12)   # strictly larger l1 norm
        x = np.abs(x)
        step = outer_stepsize(inst, x, np.abs(x_tilde) + x[:12], 0,
                              gain=1e9)
        assert step.gamma == 0.0

    def test_profile_audit_catches_wrong_coefficients(self, rng):
        inst = tiny_instance(seed=6)
        x = rng.standard_normal(24)
        # the profile of one instance audited against the objective of
        # another (shifted intensities) must be rejected
        bad = PhaseRetrievalInstance(
            sampling=inst.sampling, intensities=inst.intensities + 0.5,
            sparse_gain=inst.sparse_gain, partition=inst.partition)
        profile = pr_problem(inst).line_profile(x, np.ones(12), 0)
        with pytest.raises(ProfileMismatchError):
            _audit_profile(pr_problem(bad).products.line(x, np.ones(12), 0), profile,
                           profile.minimize().gamma)

    def test_block_profile_is_built_from_the_block_product(self, rng):
        # 24 unknowns in 5 blocks: block starts 5, 10, 15, 20 are not
        # multiples of 4, where full and block products can differ in
        # the last bits
        inst = tiny_instance(seed=11, blocks=5)
        problem = pr_problem(inst)
        x = rng.standard_normal(24)
        for k in range(5):
            delta = rng.standard_normal(inst.partition.block_sizes[k])
            expected = _quartic_coeffs(block_sum_product(inst, x),
                                       inst.block_rows(k).T @ delta,
                                       inst.intensities)
            assert problem.line_profile(x, delta, k) == expected

    def test_matches_golden_section_on_random_instances(self, rng):
        for _ in range(20):
            inst = tiny_instance(seed=int(rng.integers(10 ** 6)))
            x = rng.standard_normal(24) * 0.5
            k = int(rng.integers(2))
            sl = inst.partition.slice_of(k)
            x_tilde = x[sl] + rng.standard_normal(12) * 0.3
            step = outer_stepsize(inst, x, x_tilde, k, inst.sparse_gain)
            problem = pr_problem(inst)
            direction = np.zeros(24)
            direction[sl] = x_tilde - x[sl]
            reg_delta = inst.sparse_gain * (np.abs(x_tilde).sum()
                                            - np.abs(x[sl]).sum())
            f0 = problem.smooth_value(x)
            phi = lambda g: (problem.smooth_value(x + g * direction) - f0
                             + g * reg_delta)
            oracle = golden_section(phi, tol=1e-12, grid=1000)
            assert (abs(step.gamma - oracle) <= 1e-6
                    or abs(phi(step.gamma) - phi(oracle))
                    <= 1e-10 * max(1.0, abs(phi(oracle))))


class TestRunPhaseRetrieval:
    def test_zero_start_rejected(self):
        inst = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            run_phase_retrieval(inst, SolverConfig(max_outer_iterations=1),
                                np.zeros(24))

    def test_monotone_descent(self, rng):
        inst = tiny_instance(seed=7)
        cfg = SolverConfig(max_outer_iterations=200, inner_iterations=3,
                           stop_tol=0.0, seed=7)
        trace = run_phase_retrieval(inst, cfg)
        assert np.all(np.diff(trace.objectives) <= 0.0)

    def test_noiseless_tiny_instance_reaches_floor(self):
        # exact intensities and a nearly-zero gain: from a warm start in
        # the recovery basin the objective is driven to the floor (the
        # quartic landscape keeps cold starts at spurious stationary
        # points, so this probes exactness of the machinery, not global
        # search)
        inst = generate_pr_instance(20, 40, density=0.1, num_blocks=2,
                                    seed=3, sparse_gain=1e-9)
        x0 = inst.signal + 0.05 * np.random.default_rng(103).standard_normal(20)
        cfg = SolverConfig(max_outer_iterations=6000, inner_iterations=10,
                           stop_tol=0.0, seed=3)
        trace = run_phase_retrieval(inst, cfg, x0)
        assert trace.final_objective < 1e-6
        assert trace.termination_reason == "tolerance"

    @staticmethod
    def assert_generic_engine_steps(inst, cfg, x0, monkeypatch):
        """With its working sets off, ``run_phase_retrieval`` runs every
        visit on ``pr_outer_model``, as the generic engine does, and takes
        its steps bit for bit.  With them on (``TestWorkingSet`` checks
        each visit) the run ends at the generic one's objective to
        rounding."""
        generic = pr_inexact_run(inst, cfg, x0)
        working = run_phase_retrieval(inst, cfg, x0)
        assert working.final_objective == pytest.approx(generic.final_objective,
                                                        rel=1e-12)
        monkeypatch.setattr(phase_retrieval, "_working_set_visit", lambda *args: None)
        direct = run_phase_retrieval(inst, cfg, x0)
        assert np.array_equal(direct.objectives, generic.objectives)
        assert np.array_equal(direct.final_point.values,
                              generic.final_point.values)

    def test_single_block_bitwise_matches_generic_engine(self, rng, monkeypatch):
        inst = tiny_instance(seed=8, blocks=1)
        x0 = rng.standard_normal(24)
        cfg = SolverConfig(max_outer_iterations=40, inner_iterations=4,
                           stop_tol=0.0, curvature=1e-3)
        self.assert_generic_engine_steps(inst, cfg, x0, monkeypatch)

    def test_multi_block_close_to_generic_engine(self, rng, monkeypatch):
        # unaligned partition: 24 unknowns in 5 blocks
        inst = tiny_instance(seed=9, blocks=5)
        x0 = rng.standard_normal(24)
        cfg = SolverConfig(max_outer_iterations=60, inner_iterations=4,
                           stop_tol=0.0, curvature=1e-3)
        self.assert_generic_engine_steps(inst, cfg, x0, monkeypatch)

    @pytest.mark.parametrize("algorithm", ["bsca", "bgd", "parallel-sca"])
    def test_each_exact_step_audits_the_quartic_profile(self, rng, monkeypatch,
                                                         algorithm):
        # PhaseProducts gives a line, so every exact step on a pr_problem
        # checks its profile, whichever loop takes it
        inst = tiny_instance(seed=12, blocks=3)
        # at the default curvature bgd's steps are about 1e-4 long; the
        # audit at the chosen stepsize sees the shifted linear coefficient
        # there, which the fixed points in [0.15, 0.95] do not
        cfg = SolverConfig(max_outer_iterations=6, inner_iterations=2)
        x0 = rng.standard_normal(24)
        solver = inexact_solver(
            lambda problem, x, k: pr_outer_model(problem, x, k, cfg.curvature), cfg)
        runs = {
            "bsca": lambda: run_phase_retrieval(inst, cfg, x0),
            "bgd": lambda: run_bgd(pr_problem(inst), cfg, x0),
            "parallel-sca": lambda: run_parallel_sca(pr_problem(inst), solver, cfg, x0),
        }
        honest = phase_retrieval._quartic_coeffs

        def corrupted(u, w, y):
            p = honest(u, w, y)
            return phase_retrieval.ScalarProfile(p.v4, p.v3, p.v2, 1.5 * p.v1 - 1.0)

        monkeypatch.setattr(phase_retrieval, "_quartic_coeffs", corrupted)
        with pytest.raises(ProfileMismatchError):
            runs[algorithm]()

    @pytest.mark.parametrize("algorithm", ["bsca", "bgd"])
    def test_each_armijo_step_audits_the_quartic_profile(self, rng, algorithm):
        # Armijo backtracks on the profile, so its steps are audited too
        inst = tiny_instance(seed=12, blocks=3)
        cfg = SolverConfig(max_outer_iterations=6, inner_iterations=2,
                           line_search="successive")
        x0 = rng.standard_normal(24)
        problem = pr_problem(inst)

        def lying(x, direction, block=None):
            p = problem.line_profile(x, direction, block)
            return phase_retrieval.ScalarProfile(p.v4, p.v3, p.v2, 1.5 * p.v1 - 1.0)

        def run(problem):
            if algorithm == "bgd":
                return run_bgd(problem, cfg, x0)
            return run_bsca(problem, pr_solver(cfg), cfg, x0)

        trace = run(problem)
        assert any(e.armijo_exponent >= 0 for e in trace.entries)
        with pytest.raises(ProfileMismatchError):
            run(dataclasses.replace(problem, line_profile=lying))

    def test_matches_parallel_sca_with_well_solved_subproblems(self, rng):
        inst = tiny_instance(seed=10, blocks=1)
        x0 = rng.standard_normal(24)
        x0 /= np.linalg.norm(x0)
        cfg = SolverConfig(max_outer_iterations=2000, inner_iterations=50,
                           stop_tol=0.0, curvature=1e-4)
        inexact = run_phase_retrieval(inst, cfg, x0)
        solver = inexact_solver(
            lambda problem, x, k: pr_outer_model(problem, x, k, 1e-4),
            SolverConfig(max_outer_iterations=0, inner_iterations=800))
        parallel = run_parallel_sca(pr_problem(inst), solver, cfg, x0)
        assert inexact.final_objective == pytest.approx(
            parallel.final_objective, rel=1e-6)


def assert_fresh_formulas(problem, z, rng):
    """The closures of a ``pr_problem`` and ``pr_outer_model`` at ``z``
    equal the formulas built from a fresh ``A'z``, bit for bit (the
    model's gradient to rounding: at a dense anchor it comes from one
    product with ``D a``)."""
    inst = problem.products.instance
    y = inst.intensities
    u = block_sum_product(inst, z)
    fit = u ** 2 - y
    assert problem.smooth_value(z) == float(0.25 * fit @ fit)
    for k in range(inst.partition.num_blocks):
        rows = inst.block_rows(k)
        assert np.array_equal(problem.block_gradient(z, k),
                              rows @ (u * (u * u - y)))
        d = rng.standard_normal(rows.shape[0])
        assert problem.line_profile(z, d, k) == _quartic_coeffs(u, rows.T @ d, y)
        model = pr_outer_model(problem, z, k, 1e-3)
        assert_dense_outer_form(model, inst, z, k, 1e-3)
        assert np.array_equal(model.quad.apply(d),
                              2.0 * (rows @ (u * u * (rows.T @ d))) + 1e-3 * d)
        grad = rows @ (u * (u * u - y))
        assert relative_gap(model.grad_anchor, grad) <= 1e-13


class TestProducts:
    def test_run_drift_stays_below_the_bar(self, rng):
        inst = tiny_instance(seed=13, blocks=5)
        cfg = SolverConfig(max_outer_iterations=100, inner_iterations=3,
                           stop_tol=0.0)
        trace = run_phase_retrieval(inst, cfg, rng.standard_normal(24))
        assert trace.product_drift is not None
        assert 0.0 <= trace.product_drift <= PRODUCT_DRIFT_RTOL

    def test_sparse_vectors_are_multiplied_through_their_support_rows(self, rng):
        log = []
        inst, plain = logged_instance(log)
        products = pr_problem(inst).products
        x = sparse_vector(rng, 400, rng.choice(400, 5, replace=False))
        d = sparse_vector(rng, 200, rng.choice(200, 3, replace=False))
        untracked = sparse_vector(rng, 400, rng.choice(400, 7, replace=False))
        assert products.track(x) is None
        w = products.direction_product(1, d)
        u = products.product(untracked)
        assert log == [((1000, 5), (5,)), ((1000, 3), (3,)), ((1000, 7), (7,))]
        assert relative_gap(products.product(x), plain.sampling.T @ x) <= 1e-13
        assert relative_gap(w, plain.block_rows(1).T @ d) <= 1e-13
        assert relative_gap(u, plain.sampling.T @ untracked) <= 1e-13
        # a sparse point tracked again reports its drift from the same path
        assert products.track(x) == 0.0

    def test_the_hook_holds_both_ends_of_a_step_until_keep(self, rng):
        log = []
        inst, plain = logged_instance(log)
        products = pr_problem(inst).products
        fresh = pr_problem(plain).products
        x0 = rng.standard_normal(400)
        x1, x2 = x0.copy(), x0.copy()
        d1, d2 = rng.standard_normal(200), rng.standard_normal(200)
        x1[inst.partition.slice_of(0)] += 0.5 * d1
        x2[inst.partition.slice_of(0)] += 0.5 * d1
        x2[inst.partition.slice_of(1)] += 0.25 * d2
        products.track(x0)
        products.update(x0, x1, 0, 0.5, d1)
        products.keep(x1)
        carried = products.product(x1)    # A'x0 + 0.5 A_0'd1
        products.update(x1, x2, 1, 0.25, d2)
        log.clear()
        assert products.product(x1) is carried
        products.product(x2)
        assert log == []
        # the guard demoted the step: x1 is kept with its carried u
        products.keep(x1)
        assert products.product(x1) is carried
        assert log == []
        # the other end of the step and an equal copy of x1 read fresh
        assert products.product(x2).tobytes() == fresh.product(x2).tobytes()
        assert len(log) == 1
        assert products.product(x1.copy()).tobytes() == fresh.product(x1).tobytes()
        assert len(log) == 2
        assert relative_gap(carried, plain.sampling.T @ x1) <= 1e-13

    def test_problems_without_the_hook_report_no_drift(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 2])
        trace = run_bgd(problem, SolverConfig(max_outer_iterations=4),
                        rng.standard_normal(5))
        assert trace.product_drift is None

    def test_wrong_update_raises_at_the_sweep_end(self, rng, monkeypatch):
        inst = tiny_instance(seed=14, blocks=3)
        honest = PhaseProducts.update

        def skewed(self, x, x_new, block, gamma, direction):
            honest(self, x, x_new, block, gamma, (1.0 + 1e-6) * direction)

        monkeypatch.setattr(PhaseProducts, "update", skewed)
        cfg = SolverConfig(max_outer_iterations=30, inner_iterations=2,
                           stop_tol=0.0)
        with pytest.raises(ProductDriftError, match="t=2,"):
            run_phase_retrieval(inst, cfg, rng.standard_normal(24))

    def test_closures_at_an_untracked_point_are_the_fresh_formulas(self, rng):
        inst = tiny_instance(seed=15, blocks=5)
        A, y = inst.sampling, inst.intensities
        problem = pr_problem(inst)
        x = rng.standard_normal(24)
        delta = rng.standard_normal(inst.partition.block_sizes[2])
        x_new = x.copy()
        x_new[inst.partition.slice_of(2)] += 0.5 * delta
        problem.products.track(x)
        problem.products.update(x, x_new, 2, 0.5, delta)
        assert_fresh_formulas(problem, rng.standard_normal(24), rng)
        # the tracked points read the maintained product
        assert problem.smooth_value(x_new) == pytest.approx(
            float(0.25 * ((A.T @ x_new) ** 2 - y) @ ((A.T @ x_new) ** 2 - y)),
            rel=1e-12)

    def test_problems_built_from_one_instance_keep_their_own_products(self, rng):
        inst = tiny_instance(seed=20, blocks=5)
        first, second = pr_problem(inst), pr_problem(inst)
        assert first.products is not second.products
        x = rng.standard_normal(24)
        delta = rng.standard_normal(inst.partition.block_sizes[2])
        x_new = x.copy()
        x_new[inst.partition.slice_of(2)] += 0.5 * delta
        first.products.track(x)
        first.products.update(x, x_new, 2, 0.5, delta)
        # the maintained u at x_new is off a fresh A'x_new in the last
        # bits, so a hook shared with the first problem would show
        assert not np.array_equal(first.products.product(x_new),
                                  block_sum_product(inst, x_new))
        assert_fresh_formulas(second, x_new, rng)

    def test_bgd_and_parallel_runs_stay_monotone(self, rng):
        inst = tiny_instance(seed=16, blocks=4)
        x0 = rng.standard_normal(24)
        cfg = SolverConfig(max_outer_iterations=80, stop_tol=0.0, curvature=1e-3)
        bgd = run_bgd(pr_problem(inst), cfg, x0)
        solver = inexact_solver(
            lambda problem, x, k: pr_outer_model(problem, x, k, 1e-3),
            SolverConfig(max_outer_iterations=0, inner_iterations=50))
        parallel = run_parallel_sca(pr_problem(inst), solver,
                                    SolverConfig(max_outer_iterations=40,
                                                 stop_tol=0.0), x0)
        for trace in (bgd, parallel):
            assert np.all(np.diff(trace.objectives) <= 0.0)
            assert trace.objectives[-1] < trace.objectives[0]
            assert trace.product_drift <= PRODUCT_DRIFT_RTOL

    def test_concurrent_runs_on_one_instance_match_serial_ones(self, rng):
        # each run builds its own problem: a run that read another run's
        # products, or lost its own, would leave the serial trajectory
        inst = tiny_instance(seed=17, blocks=3)
        starts = [rng.standard_normal(24) for _ in range(8)]
        cfg = SolverConfig(max_outer_iterations=60, inner_iterations=3,
                           stop_tol=0.0)
        serial = [run_phase_retrieval(inst, cfg, x0) for x0 in starts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(
                    lambda x0: run_phase_retrieval(inst, cfg, x0), starts,
                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.objectives, b.objectives)
            assert np.array_equal(a.final_point.values, b.final_point.values)

    def test_instances_pickle_without_tracked_points(self, rng):
        # the instance is plain data: a point tracked by a problem built
        # from it is not part of it
        inst = tiny_instance(seed=19)
        x = rng.standard_normal(24)
        pr_problem(inst).products.track(x)
        copy = pickle.loads(pickle.dumps(inst))
        assert not hasattr(copy, "products")
        assert np.array_equal(copy.sampling, inst.sampling)
        assert copy.partition == inst.partition
        products = pr_problem(copy).products
        assert products.track(x) is None    # x was not tracked in the copy
        assert np.array_equal(products.product(x), block_sum_product(inst, x))

    def test_partials_go_with_their_point_and_their_block(self, rng):
        inst = tiny_instance(seed=22, blocks=3)
        products = pr_problem(inst).products
        x = rng.standard_normal(24)
        products.track(x)
        for k in range(3):
            sl = inst.partition.slice_of(k)
            assert np.array_equal(products.partial(x, k), inst.block_rows(k).T @ x[sl])
        sl = inst.partition.slice_of(1)
        d = rng.standard_normal(sl.stop - sl.start)
        x_new = x.copy()
        x_new[sl] += 0.5 * d
        products.update(x, x_new, 1, 0.5, d)
        assert products.partial(x_new, 1) is None      # the moved block
        assert products.partial(x_new, 0) is products.partial(x, 0)
        products.keep(x_new)
        assert products.partial(x, 0) is None          # x is not tracked
        products.note_model(0, np.ones(8), np.ones(inst.intensities.size))
        products.release()
        assert products.partial(x_new, 0) is None
        assert products.reference(0) is None    # nor the last run's gradients
        # a sparse point's fresh product holds no partials
        sparse = sparse_vector(rng, 24, [3, 17])
        products.track(sparse)
        assert products.partial(sparse, 0) is None

    def test_building_the_problem_reads_no_matrix_entry(self):
        # partials, row norms and working-set rows are read inside a run,
        # never when the problem or its product hook is built
        plain = generate_pr_instance(64, 160, density=0.05, num_blocks=4, seed=23)
        log = []
        view = plain.sampling.view(ReadLog)
        view.log = log
        inst = dataclasses.replace(plain, sampling=view)
        pr_problem(inst)
        PhaseProducts(inst)
        assert log == []
        # the log sees a run's reads: the start's product and the block
        # models' products, the squares of the diagonal passes, which also
        # give the row norms, and the working sets' row gathers
        run_phase_retrieval(inst, SolverConfig(max_outer_iterations=40,
                                               inner_iterations=10),
                            plain.signal + 0.01)
        assert {"matmul", "multiply", "take"} <= set(log)

    def test_a_dropped_instance_is_freed_without_the_cycle_collector(self):
        inst = tiny_instance(seed=18)
        run_phase_retrieval(inst, SolverConfig(max_outer_iterations=4))
        ref = weakref.ref(inst)
        del inst
        assert ref() is None


class ReadLog(np.ndarray):
    """ndarray view that appends the name of every ufunc and numpy
    function it takes part in to ``log``; results are plain arrays."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.log.append(ufunc.__name__)
        plain = lambda v: v.view(np.ndarray) if isinstance(v, ReadLog) else v
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(v) for v in kwargs["out"])
        return getattr(ufunc, method)(*(plain(v) for v in inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self.log.append(func.__name__)
        return super().__array_function__(func, types, args, kwargs)


def _dots_reference(left, right):
    return np.array([[np.dot(a, b) for b in right] for a in left])


def test_row_dots_keep_the_bits_of_one_dot_per_pair():
    # the entries of a working set's model are these dots, so they must
    # not depend on which other rows share the product
    gen = np.random.default_rng(31)
    for length in (1, 37, 100, 801, 5000):
        rows = gen.standard_normal((9, length))
        other = gen.standard_normal((6, length))
        dots = phase_retrieval._row_dots(rows, other)
        assert dots.tobytes() == _dots_reference(rows, other).tobytes()
        for part in (rows[:1], rows[3:8], rows[::-2]):
            got = phase_retrieval._row_dots(part, other[2:5])
            assert got.tobytes() == _dots_reference(part, other[2:5]).tobytes()


class TestWorkingSet:
    """``pr_solver``'s sparse-anchor visits on a working set
    (``phase_retrieval._working_set_visit``), zero blocks among them, on
    blocks of 1, 5, 37, 100 and 1000 rows of a 1143 x 600 instance, at
    the recipe gain and at half of it, from two kinds of start: the
    benchmark's warm start (the signal plus 0.2 times a unit Gaussian
    vector), and a damped one (0.2 times the signal plus 0.05 times a
    unit Gaussian vector) with block 2, which holds part of the signal,
    zeroed.  From the damped start block 2's gradient grows past the
    gain after it has been visited at zero, so a certificate that
    leaned on the old gradient alone would keep it zero."""

    SIZES = (1, 5, 37, 100, 1000)
    CONFIG = SolverConfig(max_outer_iterations=100, inner_iterations=10, stop_tol=1e-8)

    @classmethod
    def instance(cls, gain_scale=1.0):
        inst = generate_pr_instance(sum(cls.SIZES), 600, density=0.02, seed=5)
        return dataclasses.replace(inst, partition=make_partition(cls.SIZES),
                                   sparse_gain=gain_scale * inst.sparse_gain)

    @staticmethod
    def start(inst, seed):
        noise = np.random.default_rng(seed).standard_normal(inst.num_unknowns)
        noise /= np.linalg.norm(noise)
        if seed % 2 == 0:
            return inst.signal + 0.2 * noise
        damped = 0.2 * inst.signal + 0.05 * noise
        damped[inst.partition.slice_of(2)] = 0.0
        return damped

    @staticmethod
    def spied_visits(monkeypatch, log):
        """Record ``(x, k, solution, certified)`` for every visit that
        runs on a working set; a certified one forms no whole-block
        gradient, so notes no reference."""
        honest = phase_retrieval._working_set_visit
        noted = []
        note = PhaseProducts.note_model

        def counted_note(products, *args):
            noted.append(args[0])
            return note(products, *args)

        def spy(problem, x, k, config):
            before = len(noted)
            solution = honest(problem, x, k, config)
            if solution is not None:
                log.append((x.copy(), k, solution, len(noted) == before))
            return solution

        monkeypatch.setattr(PhaseProducts, "note_model", counted_note)
        monkeypatch.setattr(phase_retrieval, "_working_set_visit", spy)

    @pytest.mark.parametrize("gain_scale", [1.0, 0.5])
    def test_every_visit_matches_the_full_model_visit(self, monkeypatch, gain_scale):
        inst = self.instance(gain_scale)
        seen = []
        self.spied_visits(monkeypatch, seen)
        for seed in range(4):
            trace = run_phase_retrieval(inst, self.CONFIG, self.start(inst, seed))
            if seed % 2:
                assert trace.final_point.values[inst.partition.slice_of(2)].any()
        monkeypatch.undo()
        full = inexact_solver(
            lambda problem, x, k: pr_outer_model(problem, x, k, self.CONFIG.curvature),
            self.CONFIG)
        for x, k, solution, _ in seen:
            problem = pr_problem(inst)
            problem.products.track(x)
            expected = full(problem, x, k)
            xk = x[inst.partition.slice_of(k)]
            got, want = solution.minimizer, expected.minimizer
            assert np.array_equal(np.flatnonzero(got), np.flatnonzero(want))
            assert core.is_stationary(got - xk, xk) == core.is_stationary(want - xk, xk)
            assert np.linalg.norm(got - want) <= 1e-13 * max(np.linalg.norm(want), 1e-300)
            working = np.flatnonzero(solution.gradient)
            assert (np.linalg.norm(solution.gradient[working] - expected.gradient[working])
                    <= 1e-12 * np.linalg.norm(expected.gradient[working]))
        certified = {k for _, k, _, certified in seen if certified}
        assert {2, 3, 4} <= certified
        assert sum(certified for *_, certified in seen) >= 20
        assert not all(certified for *_, certified in seen)
        # zero blocks skipped on their reference alone, at no pass over
        # A_k: 44 visits at the recipe gain and 32 at half of it
        zero_skips = [certified for x, k, solution, certified in seen
                      if not x[inst.partition.slice_of(k)].any()
                      and not solution.minimizer.any()]
        assert zero_skips.count(True) >= 20

    @pytest.mark.parametrize("rule", ["cyclic", "random"])
    def test_runs_without_references_take_the_same_steps(self, monkeypatch, rule):
        # with no reference kept, every visit forms its exact gradient and
        # chooses its working set from it, as a restart's first sweep does
        cfg = dataclasses.replace(self.CONFIG, block_rule=rule)
        for gain_scale in (1.0, 0.5):
            inst = self.instance(gain_scale)
            starts = [self.start(inst, seed) for seed in range(4)]
            seen = []
            with monkeypatch.context() as patch:
                self.spied_visits(patch, seen)
                certified = [run_phase_retrieval(inst, cfg, x0) for x0 in starts]
            assert sum(certified for *_, certified in seen) >= 10
            with monkeypatch.context() as patch:
                patch.setattr(PhaseProducts, "note_model", lambda *args: None)
                for got, x0 in zip(certified, starts):
                    fresh = run_phase_retrieval(inst, cfg, x0)
                    assert got.objectives.tobytes() == fresh.objectives.tobytes()
                    assert got.stepsizes.tobytes() == fresh.stepsizes.tobytes()
                    assert ([e.block for e in got.entries]
                            == [e.block for e in fresh.entries])
                    assert (got.final_point.values.tobytes()
                            == fresh.final_point.values.tobytes())

    def test_a_certified_visit_reads_only_its_working_set_rows(self, monkeypatch):
        # replay each block's first certified visit, at a fresh A'x, with
        # and without every row of the block outside its working set turned
        # to NaN: the visit reads none of them, so both give the same bits
        # and keep the block's reference
        inst = self.instance()
        state = {}
        honest = phase_retrieval._working_set_visit
        cover = phase_retrieval._WorkingSet.cover
        covered = []

        def spy(problem, x, k, config):
            products = problem.products
            kept = (products.reference(k), products.row_norms(k))
            covered.clear()
            solution = honest(problem, x, k, config)
            if (solution is not None and k not in state and k > 1
                    and products.reference(k) is kept[0]):
                state[k] = (x.copy(), kept, set(covered), solution)
            return solution

        def spied_cover(visit, working):
            covered.extend(working.tolist())
            return cover(visit, working)

        monkeypatch.setattr(phase_retrieval, "_working_set_visit", spy)
        monkeypatch.setattr(phase_retrieval._WorkingSet, "cover", spied_cover)
        run_phase_retrieval(inst, self.CONFIG, self.start(inst, 0))
        monkeypatch.undo()
        assert set(state) == {2, 3, 4}
        for k, (x, (reference, norms), working, solution) in state.items():
            sl = inst.partition.slice_of(k)
            outside = np.setdiff1d(np.arange(sl.stop - sl.start), sorted(working))
            assert outside.size > (sl.stop - sl.start) // 2
            poisoned = inst.sampling.copy()
            poisoned[sl.start + outside] = np.nan
            replays = []
            for sampling in (inst.sampling, poisoned):
                problem = pr_problem(inst)
                problem.products.track(x)
                problem.products.instance = dataclasses.replace(inst, sampling=sampling)
                problem.products.note_model(k, *reference)
                problem.products._row_norms[k] = norms
                replays.append(
                    phase_retrieval._working_set_visit(problem, x, k, self.CONFIG))
                assert problem.products.reference(k)[0] is reference[0]
            clean, replay = replays
            assert np.array_equal(np.flatnonzero(clean.minimizer),
                                  np.flatnonzero(solution.minimizer))
            assert replay.minimizer.tobytes() == clean.minimizer.tobytes()
            assert replay.gradient.tobytes() == clean.gradient.tobytes()

    @classmethod
    def zero_block_visit(cls, k=3):
        """A problem tracking a point whose block ``k`` is zero, with
        -0.0 in its odd entries, and whose other blocks hold the warm
        start; the gain is twice the largest entry of the block's exact
        gradient there, which is kept as the block's reference, with the
        block's row norms."""
        plain = cls.instance()
        x = cls.start(plain, 0)
        sl = plain.partition.slice_of(k)
        x[sl] = 0.0
        x[sl][1::2] = -0.0
        u = plain.sampling.T @ x
        grad_u = u * (u * u - plain.intensities)
        grad = plain.block_rows(k) @ grad_u
        inst = dataclasses.replace(plain, sparse_gain=2.0 * float(np.abs(grad).max()))
        problem = pr_problem(inst)
        problem.products.track(x)
        problem.products.note_model(k, grad, grad_u)
        problem.products.row_norms(k)
        return problem, x, k

    @staticmethod
    def spied_work(monkeypatch):
        """Count the working sets built and the inner loops run."""
        counts = {"sets": 0, "loops": 0}
        build, loop = phase_retrieval._WorkingSet.__init__, engine.inexact_inner_loop

        def counted_build(*args):
            counts["sets"] += 1
            return build(*args)

        def counted_loop(*args):
            counts["loops"] += 1
            return loop(*args)

        monkeypatch.setattr(phase_retrieval._WorkingSet, "__init__", counted_build)
        monkeypatch.setattr(engine, "inexact_inner_loop", counted_loop)
        return counts

    def test_a_certified_zero_block_builds_no_working_set(self, monkeypatch):
        problem, x, k = self.zero_block_visit()
        log = []
        view = problem.products.instance.sampling.view(ReadLog)
        view.log = log
        problem.products.instance = dataclasses.replace(problem.products.instance,
                                                        sampling=view)
        counts = self.spied_work(monkeypatch)
        solution = phase_retrieval._working_set_visit(problem, x, k, self.CONFIG)
        # one empty working set, whose one inner loop is stationary at once
        assert counts == {"sets": 1, "loops": 1}
        assert log == []
        anchor = x[problem.partition.slice_of(k)]
        assert np.signbit(anchor).any()
        assert solution.minimizer.tobytes() == anchor.tobytes()
        assert solution.gradient.shape == anchor.shape and not solution.gradient.any()

    def test_a_zero_block_short_of_the_rounds_slack_takes_the_full_visit(
            self, monkeypatch):
        # a spread between the two bounds: every entry passes the bound
        # without the rounds' slack, and one fails it with that slack
        problem, x, k = self.zero_block_visit()
        products = problem.products
        grad = products.reference(k)[0]
        bar = phase_retrieval.zero_bar(products.instance.sparse_gain)
        norms = products.row_norms(k)

        def largest_spread(rounds):
            slack = 4.0 * (products.instance.intensities.size + rounds) * np.finfo(float).eps
            return float(np.min((bar / (1.0 + slack) - np.abs(grad)) / norms))

        rounds = self.CONFIG.inner_iterations
        spread = 0.5 * (largest_spread(0) + largest_spread(rounds))
        assert products.certified_dead(k, grad, spread, rounds=0).all()
        assert not products.certified_dead(k, grad, spread, rounds).all()
        monkeypatch.setattr(phase_retrieval, "_spread", lambda *args: spread)
        counts = self.spied_work(monkeypatch)
        solution = phase_retrieval._working_set_visit(problem, x, k, self.CONFIG)
        assert counts["sets"] >= 1 and counts["loops"] >= 1
        anchor = x[problem.partition.slice_of(k)]
        assert solution.minimizer.tobytes() == anchor.tobytes()

    def test_an_uncertified_sparse_visit_makes_one_matrix_vector_pass(self, monkeypatch):
        log = []
        inst, plain = logged_instance(log, measurements=1200, density=0.02, seed=0)
        noise = np.random.default_rng(4).standard_normal(400)
        x0 = plain.signal + 0.2 * noise / np.linalg.norm(noise)
        seen = []
        self.spied_visits(monkeypatch, seen)
        honest = phase_retrieval._working_set_visit
        passes = []

        def counted(problem, x, k, config):
            log.clear()
            solution = honest(problem, x, k, config)
            if solution is not None:
                passes.append(list(log))
            return solution

        monkeypatch.setattr(phase_retrieval, "_working_set_visit", counted)
        run_phase_retrieval(inst, SolverConfig(max_outer_iterations=40, inner_iterations=10,
                                               stop_tol=1e-8), x0)
        kinds = [certified for *_, certified in seen]
        assert len(kinds) == len(passes) and True in kinds and False in kinds
        gemv = [((200, 1200), (1200,))]
        for certified, products in zip(kinds, passes):
            assert products == ([] if certified else gemv)


class TestConcurrentDiagonal:
    """A dense visit's diagonal (``pr_outer_model``), formed on the
    calling thread, and the threads of a solve: it starts none.  The
    diagonal runs on 2 blocks of 100 rows of a 200 x 300 instance, from
    a dense start and from one with 40 of block 0's entries zero (rows
    32-47 among them, a whole 16-row chunk, so that the anchor's
    support does not hold every chunk of the first visit's diagonal)."""

    CONFIG = SolverConfig(max_outer_iterations=30, inner_iterations=10, stop_tol=0.0)
    RUNS = {
        "bsca": run_phase_retrieval,
        # a joint step drops the partials, so its models form them
        "parallel": lambda inst, cfg, x0: run_parallel_sca(
            pr_problem(inst), pr_solver(cfg), cfg, x0),
    }

    @staticmethod
    def instance():
        return generate_pr_instance(200, 300, density=0.05, num_blocks=2, seed=41)

    @classmethod
    def start(cls, zeros, inst=None):
        # the benchmark's warm start, so that later visits are sparse
        # and read the row norms
        inst = cls.instance() if inst is None else inst
        noise = np.random.default_rng(43).standard_normal(inst.num_unknowns)
        x0 = inst.signal + 0.2 * noise / np.linalg.norm(noise)
        if zeros:
            x0[20:60] = 0.0
        return x0

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("runner", ["bsca", "parallel"])
    def test_traces_keep_their_bits(self, monkeypatch, runner, zeros):
        # a diagonal formed on the anchor's support at the model's build
        # gives the bits of one formed on demand, and the row norms cost
        # no pass either way: a diagonal that completes over several
        # calls hands them over as one pass does
        inst, x0 = self.instance(), self.start(zeros)
        norms_passes = []
        honest_norms = phase_retrieval._norms_of
        monkeypatch.setattr(phase_retrieval, "_norms_of",
                            lambda rows: norms_passes.append(len(rows)) or honest_norms(rows))
        on_demand = phase_retrieval.pr_outer_model
        ahead = []

        def formed_ahead(problem, x, k, curvature):
            model = on_demand(problem, x, k, curvature)
            if phase_retrieval._sparse_support(model.anchor) is None:
                ahead.append(k)
                model.quad.diagonal(np.flatnonzero(model.anchor))
            return model

        traces, passes = [], []
        for build in (formed_ahead, on_demand):
            monkeypatch.setattr(phase_retrieval, "pr_outer_model", build)
            before = len(norms_passes)
            traces.append(self.RUNS[runner](inst, self.CONFIG, x0))
            passes.append(len(norms_passes) - before)
        assert ahead
        assert passes[0] == passes[1]
        if not zeros:    # every first visit forms the whole diagonal
            assert passes == [0, 0]
        early, late = traces
        assert early.objectives.tobytes() == late.objectives.tobytes()
        assert early.stepsizes.tobytes() == late.stepsizes.tobytes()
        assert early.final_point.values.tobytes() == late.final_point.values.tobytes()

    @pytest.mark.parametrize("runner", ["bsca", "parallel"])
    def test_no_thread_outlives_a_solve(self, monkeypatch, runner):
        # a block of 1000 x 1500 floats (11.4 MiB) with every BLAS thread
        # variable at 1: a dense visit and its products start no thread
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        inst = generate_pr_instance(1000, 1500, density=0.05, seed=41)
        assert inst.block_rows(0).nbytes > 11 << 20
        started = []
        honest = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or honest(thread))
        before = threading.active_count()
        config = SolverConfig(max_outer_iterations=2, inner_iterations=3, stop_tol=0.0)
        self.RUNS[runner](inst, config, self.start(False, inst))
        assert started == []
        assert threading.active_count() == before

    def test_row_norms_are_handed_over_once_the_diagonal_is_complete(self, monkeypatch):
        # the support's chunks in one call and the rest in another, so no
        # one call forms every chunk: the norms come once, from the
        # diagonal's own passes, with no separate ``_norms_of`` pass
        inst = self.instance()
        x = self.start(True)
        problem = pr_problem(inst)
        problem.products.track(x)
        rows = inst.block_rows(0)
        expected = phase_retrieval._norms_of(rows)
        passes, handed = [], []
        monkeypatch.setattr(phase_retrieval, "_norms_of", passes.append)
        honest_sink = problem.products.row_norms_sink

        def counted_sink(block):
            sink = honest_sink(block)
            return sink and (lambda norms: handed.append(block) or sink(norms))

        monkeypatch.setattr(problem.products, "row_norms_sink", counted_sink)
        model = pr_outer_model(problem, x, 0, 1e-3)
        model.quad.diagonal(np.flatnonzero(x[:100]))
        assert handed == [] and honest_sink(0) is not None
        model.quad.diagonal(np.arange(20, 60))
        assert handed == [0] and honest_sink(0) is None
        assert passes == []
        assert problem.products.row_norms(0).tobytes() == expected.tobytes()


class TestGenerator:
    # the criterion, test and manifest-gate shapes, and row counts that
    # are not a multiple of the 8-row draw
    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (24, 60), (20, 40),
                                       (30, 20), (400, 100), (400, 1000),
                                       (13, 5), (9, 2), (1001, 30)])
    def test_column_norms_match_numpy_bit_for_bit(self, tmp_path, shape):
        # the instance, drawn into memory or into a mapped file, is the
        # one of a single standard_normal draw scaled by np.linalg.norm
        rng = np.random.default_rng(7)
        sampling = rng.standard_normal(shape)
        sampling = sampling / np.linalg.norm(sampling, axis=0)
        signal = np.zeros(shape[0])
        support = rng.choice(shape[0], size=_support_count(0.2, shape[0]), replace=False)
        signal[support] = rng.standard_normal(support.size)
        intensities = (sampling.T @ signal) ** 2
        mapped = map_pr_sampling(tmp_path, *shape)
        for out in (None, mapped):
            inst = generate_pr_instance(*shape, density=0.2, seed=7, out=out)
            assert np.array_equal(inst.sampling, sampling)
            assert np.array_equal(inst.signal, signal)
            assert np.array_equal(inst.intensities, intensities)
            assert inst.sparse_gain == 0.05 * float(np.abs(sampling @ intensities).max())
        assert inst.sampling is mapped

    def test_a_mismatched_target_is_rejected(self):
        # a column-major target would take the draws in another order
        for out in (np.empty((5, 4)), np.empty((4, 5), dtype=np.float32),
                    np.empty((5, 4)).T):
            with pytest.raises(InvalidArgumentError, match="C-contiguous"):
                generate_pr_instance(4, 5, out=out)

    def test_seed_reproducibility(self):
        a = generate_pr_instance(30, 12, density=0.1, num_blocks=3, seed=21)
        b = generate_pr_instance(30, 12, density=0.1, num_blocks=3, seed=21)
        assert np.array_equal(a.sampling, b.sampling)
        assert np.array_equal(a.intensities, b.intensities)
        assert a.sparse_gain == b.sparse_gain

    def test_unit_norm_columns_and_nonnegative_intensities(self):
        inst = generate_pr_instance(25, 40, density=0.08, seed=2)
        assert np.allclose(np.linalg.norm(inst.sampling, axis=0), 1.0)
        assert np.all(inst.intensities >= 0.0)

    def test_support_at_least_one(self):
        inst = generate_pr_instance(50, 10, density=1e-6, seed=0)
        assert np.count_nonzero(inst.signal) == 1

    def test_gain_recipe(self):
        inst = generate_pr_instance(30, 20, density=0.1, seed=5)
        expected = 0.05 * np.abs(inst.sampling @ inst.intensities).max()
        assert inst.sparse_gain == pytest.approx(expected)

    def test_partition_override(self):
        inst = generate_pr_instance(10, 8, density=0.2, num_blocks=3, seed=1)
        assert inst.partition.block_sizes == (4, 3, 3)
        re = with_blocks(inst, 5)
        assert re.partition.block_sizes == (2, 2, 2, 2, 2)
        assert re.sampling is inst.sampling

    def test_invalid_dims(self):
        with pytest.raises(InvalidArgumentError):
            generate_pr_instance(0, 5)
        with pytest.raises(InvalidArgumentError):
            generate_pr_instance(5, 5, density=2.0)

    @pytest.mark.parametrize("field, value, message", [
        ("intensities", np.zeros(7), "one entry per measurement"),
        ("intensities", np.full(8, -1.0), "nonnegative"),
        ("sparse_gain", 0.0, "positive"),
        ("partition", make_partition([3, 3]), "cover all unknowns"),
    ])
    def test_an_inconsistent_instance_is_rejected(self, field, value, message):
        inst = generate_pr_instance(5, 8, density=0.2, seed=1)
        with pytest.raises(InvalidArgumentError, match=message):
            dataclasses.replace(inst, **{field: value})
