import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from bsca import anomaly, engine
from bsca.anomaly import (
    AnomalyInstance,
    AnomalyProducts,
    AnomalyState,
    FistaCarry,
    anomaly_problem,
    anomaly_solver,
    best_left_factor,
    best_right_factor,
    best_sparse_candidate,
    final_state,
    generate_anomaly_instance,
    initial_state,
    run_anomaly_bsca,
    sparse_exact_stepsize,
    sparse_inner_descent,
    state_partition,
    state_to_vector,
    step_sparse,
    vector_to_state,
)
from bsca.core import SolverConfig, objective
from bsca.engine import (
    BlockSolution,
    block_residuals,
    run_bgd,
    run_bsca,
    run_parallel_sca,
)
from bsca.errors import (
    DegenerateDirectionError,
    InvalidArgumentError,
    ProductDriftError,
)
from bsca.linesearch import exact_quadratic_step
from bsca.surrogates import soft_threshold

from conftest import block_products, tracing
from oracles import (
    golden_section,
    objective_value,
    sparse_inner_descent_reference,
    sparse_model_value,
)


def scalar_instance(y=2.0, ridge=1.0, gain=0.5):
    return AnomalyInstance(
        measurements=np.array([[y]]), dictionary=np.array([[1.0]]),
        ridge=ridge, sparse_gain=gain, rank=1)


def small_instance(seed=5):
    return generate_anomaly_instance(5, 8, 6, rank=2, density=0.3,
                                     noise_var=1e-3, seed=seed)


def tall_instance(seed=5, gain=None):
    # more rows than atoms: the sparse subproblem is strongly convex, so
    # fixed points are reached instead of the flat underdetermined tail
    return generate_anomaly_instance(12, 8, 6, rank=2, density=0.3,
                                     noise_var=1e-3, seed=seed,
                                     sparse_gain=gain)


class TestFactorSolves:
    def test_scalar_left_solve(self):
        inst = scalar_instance(y=2.0, ridge=1.0)
        state = AnomalyState(np.array([[0.0]]), np.array([[1.0]]),
                             np.zeros((1, 1)))
        image = block_products(inst, state).sparse_image
        assert best_left_factor(state, inst, image) == pytest.approx(np.array([[1.0]]))

    def test_scalar_right_solve(self):
        inst = scalar_instance(y=2.0, ridge=1.0)
        state = AnomalyState(np.array([[1.0]]), np.array([[0.0]]),
                             np.zeros((1, 1)))
        image = block_products(inst, state).sparse_image
        assert best_right_factor(state, inst, image) == pytest.approx(np.array([[1.0]]))

    def test_zero_factor_pulls_to_zero(self):
        inst = scalar_instance()
        state = AnomalyState(np.array([[3.0]]), np.zeros((1, 1)),
                             np.zeros((1, 1)))
        image = block_products(inst, state).sparse_image
        assert best_left_factor(state, inst, image) == pytest.approx(np.array([[0.0]]))
        state = AnomalyState(np.zeros((1, 1)), np.array([[3.0]]),
                             np.zeros((1, 1)))
        image = block_products(inst, state).sparse_image
        assert best_right_factor(state, inst, image) == pytest.approx(np.array([[0.0]]))

    def test_gradient_vanishes_at_solutions(self, rng):
        inst = small_instance()
        state = AnomalyState(rng.standard_normal((5, 2)),
                             rng.standard_normal((2, 8)),
                             rng.standard_normal((6, 8)))
        problem = anomaly_problem(inst)
        image = block_products(inst, state).sparse_image
        left = best_left_factor(state, inst, image)
        x = state_to_vector(AnomalyState(left, state.right, state.sparse))
        grad = problem.block_gradient(x, 0)
        assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(left))
        right = best_right_factor(state, inst, image)
        x = state_to_vector(AnomalyState(state.left, right, state.sparse))
        grad = problem.block_gradient(x, 1)
        assert np.linalg.norm(grad) <= 1e-8 * (1 + np.linalg.norm(right))


def fresh_candidate(state, inst):
    """``best_sparse_candidate`` at fresh products."""
    held = block_products(inst, state)
    return best_sparse_candidate(state, inst, correlation=held.correlation,
                                 diag=held.diag)


class TestSparseSolve:
    def test_identity_dictionary_reduces_to_prox(self):
        y = np.array([[2.0, -0.3], [0.8, -4.0]])
        inst = AnomalyInstance(measurements=y, dictionary=np.eye(2),
                               ridge=1.0, sparse_gain=1.0, rank=1)
        state = AnomalyState(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))
        got = fresh_candidate(state, inst)
        assert got == pytest.approx(np.array([[1.0, 0.0], [0.0, -3.0]]))

    def test_zero_gain_is_least_squares_residual(self):
        y = np.array([[2.0], [1.0]])
        inst = AnomalyInstance(measurements=y, dictionary=np.eye(2),
                               ridge=1.0, sparse_gain=1e-300, rank=1)
        left = np.array([[1.0], [0.0]])
        right = np.array([[0.5]])
        state = AnomalyState(left, right, np.zeros((2, 1)))
        got = fresh_candidate(state, inst)
        assert got == pytest.approx(y - left @ right, abs=1e-12)

    def test_entries_match_scalar_golden_section(self, rng):
        inst = small_instance()
        state = AnomalyState(rng.standard_normal((5, 2)),
                             rng.standard_normal((2, 8)),
                             rng.standard_normal((6, 8)))
        got = fresh_candidate(state, inst)
        D = inst.dictionary
        base = state.left @ state.right + D @ state.sparse - inst.measurements
        for (i, k) in [(0, 0), (3, 4), (5, 7), (2, 2)]:
            lo = got[i, k] - 2.0
            grid = np.linspace(lo, got[i, k] + 2.0, 400001)
            shift = grid - state.sparse[i, k]
            fit = base[:, k][:, None] + D[:, i][:, None] * shift[None, :]
            vals = 0.5 * np.sum(fit * fit, axis=0) + inst.sparse_gain * np.abs(grid)
            brute = grid[np.argmin(vals)]
            assert got[i, k] == pytest.approx(brute, abs=1e-4)

    def test_zero_column_rejected(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        inst = AnomalyInstance(measurements=np.ones((2, 2)), dictionary=d,
                               ridge=1.0, sparse_gain=0.5, rank=1)
        from bsca.errors import DegenerateDiagonalError
        with pytest.raises(DegenerateDiagonalError):
            anomaly_solver(inst)


class TestSparseStepsize:
    def test_scalar_toy_clips_to_one(self):
        # candidate 0.8 against measurement 1 with gain 0.1: unclipped 1.125
        inst = AnomalyInstance(measurements=np.array([[1.0]]),
                               dictionary=np.array([[1.0]]),
                               ridge=1.0, sparse_gain=0.1, rank=1)
        state = AnomalyState(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        candidate = np.array([[0.8]])
        gamma = sparse_exact_stepsize(state, candidate, inst,
                                      fit=block_products(inst, state).fit,
                                      delta=candidate - state.sparse)
        assert gamma == 1.0
        phi = lambda g: 0.5 * (0.8 * g - 1.0) ** 2 + 0.1 * 0.8 * g
        assert golden_section(phi) == pytest.approx(1.0, abs=1e-8)

    def test_zero_direction_skips(self):
        # starting from the candidate itself, the step is a no-op
        inst = scalar_instance()
        state = AnomalyState(np.zeros((1, 1)), np.zeros((1, 1)),
                             np.array([[0.7]]))
        settled = AnomalyState(state.left, state.right, fresh_candidate(state, inst))
        new_sparse, gamma = step_sparse(settled, inst,
                                        **block_products(inst, settled).sparse)
        assert gamma == 0.0
        assert np.array_equal(new_sparse, settled.sparse)

    def test_null_space_direction_rejected(self):
        inst = AnomalyInstance(measurements=np.ones((1, 1)),
                               dictionary=np.array([[1.0, 1.0]]) / np.sqrt(2),
                               ridge=1.0, sparse_gain=0.1, rank=1)
        state = AnomalyState(np.zeros((1, 1)), np.zeros((1, 1)),
                             np.zeros((2, 1)))
        null_dir = np.array([[1.0], [-1.0]])
        with pytest.raises(DegenerateDirectionError):
            sparse_exact_stepsize(state, state.sparse + null_dir, inst,
                                  fit=block_products(inst, state).fit, delta=null_dir)

    def test_matches_quadratic_step_coefficients(self, rng):
        inst = dataclasses.replace(small_instance(), sparse_gain=1e-300)
        state = AnomalyState(rng.standard_normal((5, 2)),
                             rng.standard_normal((2, 8)),
                             rng.standard_normal((6, 8)))
        candidate = fresh_candidate(state, inst)
        delta = candidate - state.sparse
        gamma = sparse_exact_stepsize(state, candidate, inst,
                                      fit=block_products(inst, state).fit, delta=delta)
        moved = inst.dictionary @ delta
        base = (state.left @ state.right + inst.dictionary @ state.sparse
                - inst.measurements)
        expected = exact_quadratic_step(float(np.vdot(moved, moved)),
                                        float(np.vdot(base, moved))).gamma
        assert gamma == pytest.approx(expected, rel=1e-12)

    def test_the_slope_rounds_with_the_move_not_with_the_norm_of_s(self, rng):
        # ||S||_1 about 5e7 against a move of order 1: the l1 part of the
        # slope is summed as differences, as if exactly rounded
        inst = small_instance()
        state = AnomalyState(rng.standard_normal((5, 2)), rng.standard_normal((2, 8)),
                             1e6 * rng.choice([-1.0, 1.0], (6, 8))
                             + rng.standard_normal((6, 8)))
        inst = dataclasses.replace(
            inst, measurements=state.left @ state.right + inst.dictionary @ state.sparse
            + rng.standard_normal((5, 8)))
        held = block_products(inst, state)
        candidate = fresh_candidate(state, inst)
        delta = candidate - state.sparse
        gamma = sparse_exact_stepsize(state, candidate, inst, fit=held.fit, delta=delta)
        moved = inst.dictionary @ delta
        change = inst.sparse_gain * math.fsum(
            (np.abs(candidate) - np.abs(state.sparse)).ravel())
        expected = exact_quadratic_step(float(np.vdot(moved, moved)),
                                        float(np.vdot(held.fit, moved)) + change).gamma
        assert 0.0 < expected < 1.0
        assert abs(gamma - expected) <= 2 * math.ulp(expected)


def one_round_solver(inst):
    """The single best-response sparse update, spelled out independently
    of ``sparse_inner_descent``."""

    def solver(problem, x, k):
        state = vector_to_state(inst, x)
        image = block_products(inst, state).sparse_image
        if k == 0:
            return BlockSolution(best_left_factor(state, inst, image).ravel(), True)
        if k == 1:
            return BlockSolution(best_right_factor(state, inst, image).ravel(), True)
        return BlockSolution(fresh_candidate(state, inst).ravel(), False)

    return solver


class TestSparseInnerDescent:
    def test_one_round_reproduces_single_best_response_trajectory(self):
        inst = small_instance()
        problem = anomaly_problem(inst)
        x0 = state_to_vector(initial_state(inst, seed=3))
        cfg = SolverConfig(max_outer_iterations=60, stop_tol=0.0,
                           inner_iterations=1)
        pairs = [
            (run_anomaly_bsca(inst, cfg, state0=vector_to_state(inst, x0)),
             run_bsca(problem, one_round_solver(inst), cfg, x0)),
            (run_parallel_sca(problem, anomaly_solver(inst, cfg), cfg, x0),
             run_parallel_sca(problem, one_round_solver(inst), cfg, x0)),
        ]
        for got, reference in pairs:
            assert np.array_equal(got.objectives, reference.objectives)
            assert np.array_equal(got.stepsizes, reference.stepsizes)
            assert np.array_equal(got.final_point.values,
                                  reference.final_point.values)

    def test_output_never_exceeds_anchor_model_value(self, rng):
        inst = small_instance()
        for _ in range(10):
            state = AnomalyState(rng.standard_normal((5, 2)),
                                 rng.standard_normal((2, 8)),
                                 rng.standard_normal((6, 8)))
            for proximal in (1e-4, 1.0):
                anchor_value = sparse_model_value(state, state.sparse, inst,
                                                  proximal)
                held = block_products(inst, state, proximal)
                values = [sparse_model_value(
                    state, sparse_inner_descent(state, inst, rounds, proximal,
                                                held.lipschitz, carry=FistaCarry(),
                                                **held.sparse),
                    inst, proximal) for rounds in (2, 3, 5, 10, 50)]
                assert values[0] < anchor_value
                # the rounds extend one deterministic monotone sequence
                assert all(b <= a for a, b in zip(values, values[1:]))

    def test_many_rounds_reach_the_model_minimizer(self, rng):
        inst = small_instance()
        state = AnomalyState(rng.standard_normal((5, 2)),
                             rng.standard_normal((2, 8)),
                             rng.standard_normal((6, 8)))
        proximal = 0.1
        held = block_products(inst, state, proximal)
        got = sparse_inner_descent(state, inst, 300, proximal, held.lipschitz,
                                   carry=FistaCarry(), **held.sparse)
        # fixed point of the proximal-gradient map of the model, down to
        # the resolution of the acceptance test: rounds are compared by
        # model value, which pins the iterate to about sqrt(eps) relative
        D = inst.dictionary
        lipschitz = np.linalg.norm(D, 2) ** 2 + proximal
        at_got = block_products(inst, AnomalyState(state.left, state.right, got))
        grad = at_got.correlation + proximal * (got - state.sparse)
        mapped = soft_threshold(got - grad / lipschitz,
                                inst.sparse_gain / lipschitz)
        assert np.linalg.norm(mapped - got) <= 1e-8 * (1.0 + np.linalg.norm(got))

    def test_run_with_inner_rounds_is_monotone(self):
        inst = small_instance()
        trace = run_anomaly_bsca(inst, SolverConfig(max_outer_iterations=60,
                                                    stop_tol=0.0,
                                                    inner_iterations=8))
        assert np.all(np.diff(trace.objectives) <= 0.0)


class TestInPlaceRounds:
    def test_rounds_keep_the_bits_of_the_allocating_loop(self, rng):
        inst = small_instance()
        restarts = 0
        for _ in range(4):
            state = AnomalyState(rng.standard_normal((5, 2)),
                                 rng.standard_normal((2, 8)),
                                 rng.standard_normal((6, 8)))
            for rounds in (1, 2, 3, 10, 50):
                for proximal in (1e-4, 1.0):
                    expected, restarted, _ = sparse_inner_descent_reference(
                        state, inst, rounds, proximal)
                    restarts += restarted
                    held = block_products(inst, state, proximal)
                    # an empty carry, as at a run's first sparse visit
                    got = sparse_inner_descent(state, inst, rounds, proximal,
                                               held.lipschitz, carry=FistaCarry(),
                                               **held.sparse)
                    assert got.tobytes() == expected.tobytes()
        # rejected rounds that restart the momentum, where the buffers of
        # the search point and the best point trade places, were covered
        assert restarts > 0

    def test_rounds_follow_the_textbook_gradient_step(self, rng):
        # the loop steps as contraction y + pull - D'r_y / L on residual
        # images r; the textbook step shrink(y - (D'(D y - T) + c (y - a)) / L)
        # on images D y lands on the same rounds up to rounding.  Near the
        # model minimizer a verdict can flip with the last bits of a model
        # value, which pins the iterate only to about sqrt(eps), so the
        # textbook rounds replay the loop's verdicts; run free, they end
        # at the same model value
        inst = small_instance()
        for _ in range(4):
            state = AnomalyState(rng.standard_normal((5, 2)),
                                 rng.standard_normal((2, 8)),
                                 rng.standard_normal((6, 8)))
            for rounds in (1, 2, 3, 10, 50):
                for proximal in (1e-4, 1.0):
                    held = block_products(inst, state, proximal)
                    got = sparse_inner_descent(state, inst, rounds, proximal,
                                               held.lipschitz, carry=FistaCarry(),
                                               **held.sparse)
                    _, _, verdicts = sparse_inner_descent_reference(
                        state, inst, rounds, proximal)
                    textbook, _, _ = sparse_inner_descent_reference(
                        state, inst, rounds, proximal, textbook=True, replay=verdicts)
                    assert np.linalg.norm(got - textbook) <= 1e-10 * np.linalg.norm(textbook)
                    free, _, _ = sparse_inner_descent_reference(
                        state, inst, rounds, proximal, textbook=True)
                    assert sparse_model_value(state, got, inst, proximal) == pytest.approx(
                        sparse_model_value(state, free, inst, proximal), rel=1e-13)


def desk_instance():
    return generate_anomaly_instance(100, 200, 200, rank=3, density=0.05,
                                     noise_var=1e-4, seed=0)


def counted_instance(inst):
    counts = Counter()
    view = tracing.counting_view(inst.dictionary, counts)
    return dataclasses.replace(inst, dictionary=view), counts


def products(counts):
    return counts["full_products"] + counts["block_products"]


class FreshReads(AnomalyProducts):
    """The product hook with nothing held: every read forms D S and E
    afresh."""

    def held(self, x):
        return None


class TestProductHook:
    def test_a_run_audits_no_profile(self, monkeypatch):
        # AnomalyProducts gives no line, so no exact step is audited
        audits = []
        monkeypatch.setattr(engine, "_audit_profile", lambda *args: audits.append(args))
        inst = small_instance()
        cfg = SolverConfig(max_outer_iterations=30, stop_tol=0.0, inner_iterations=3)
        x0 = state_to_vector(initial_state(inst, seed=1))
        for trace in (run_anomaly_bsca(inst, cfg),
                      run_bgd(anomaly_problem(inst), cfg, x0)):
            assert np.count_nonzero(trace.stepsizes) > 0
        assert audits == []

    def test_one_round_sweep_forms_at_most_four_products(self):
        inst, counts = counted_instance(desk_instance())
        sweeps = 10
        trace = run_anomaly_bsca(inst, SolverConfig(
            max_outer_iterations=3 * sweeps, stop_tol=0.0, seed=1))
        assert trace.iterations == 3 * sweeps
        assert np.count_nonzero(trace.stepsizes[3::3]) == sweeps    # S moved
        # one more forms D S at the start
        assert products(counts) <= 4 * sweeps + 1

    def test_bgd_sweep_forms_three_products(self):
        # a factor block's line profile leaves out D times its direction's
        # sparse part, which is zero; the sparse block's forms it.  The
        # sparse step then forms D S at its end point, and the sweep-end
        # check reads it there instead of forming it again
        plain = desk_instance()
        inst, counts = counted_instance(plain)
        sweeps = 10
        x0 = state_to_vector(initial_state(plain, seed=1))
        trace = run_bgd(anomaly_problem(inst), SolverConfig(
            max_outer_iterations=3 * sweeps, stop_tol=0.0, seed=1), x0)
        assert trace.iterations == 3 * sweeps
        assert np.count_nonzero(trace.stepsizes) == 3 * sweeps    # every block moved
        # one more forms D S at the start
        assert products(counts) == 3 * sweeps + 1
        assert trace.product_drift == 0.0

    def test_each_inner_round_forms_two_products(self):
        inst = desk_instance()
        state = initial_state(inst, seed=1)
        held = block_products(inst, state, 1e-4)
        counted, counts = counted_instance(inst)
        for rounds in (1, 2, 5, 10):
            counts.clear()
            sparse_inner_descent(state, counted, rounds, 1e-4, held.lipschitz,
                                 carry=FistaCarry(), **held.sparse)
            # the first round's D delta and D best, then two per round
            assert products(counts) == 2 * rounds

    def test_the_carried_start_forms_no_product(self):
        inst = desk_instance()
        state = initial_state(inst, seed=1)
        start = block_products(inst, state, 1e-4)
        counted, counts = counted_instance(inst)
        for rounds in (2, 5, 10):
            carry = FistaCarry()
            first = sparse_inner_descent(state, counted, rounds, 1e-4, start.lipschitz,
                                         carry=carry, **start.sparse)
            assert carry.point is not None
            moved = AnomalyState(state.left, state.right, first)
            held = block_products(inst, moved, 1e-4)
            counts.clear()
            sparse_inner_descent(moved, counted, rounds, 1e-4, held.lipschitz,
                                 carry=carry, **held.sparse)
            # as with an empty carry: the extrapolated start reuses the carried image
            assert products(counts) == 2 * rounds

    def test_the_hook_holds_both_ends_of_a_step_until_keep(self):
        plain = small_instance()
        inst, counts = counted_instance(plain)
        hook = AnomalyProducts(inst)
        fresh = anomaly_problem(plain).products
        x = state_to_vector(initial_state(plain, seed=0))
        hook.track(x)
        before = hook.residual(x)
        direction = np.ones(state_partition(plain).block_sizes[2])
        x_new = x.copy()
        x_new[state_partition(plain).slice_of(2)] += direction
        hook.update(x, x_new, 2, 1.0, direction)
        counts.clear()
        assert hook.residual(x) is before
        hook.residual(x_new)
        hook.sparse_image(x)
        hook.sparse_image(x_new)
        assert products(counts) == 0
        # the guard demoted the step: x is kept, with the products it had,
        # which carry the bits of fresh ones
        hook.keep(x)
        assert hook.residual(x) is before
        assert before.tobytes() == fresh.residual(x).tobytes()
        assert hook.sparse_image(x).tobytes() == fresh.sparse_image(x).tobytes()
        assert products(counts) == 0
        # the other end of the step and an equal copy of x read fresh
        assert hook.residual(x_new).tobytes() == fresh.residual(x_new).tobytes()
        assert products(counts) == 1
        assert hook.residual(x.copy()).tobytes() == before.tobytes()
        assert products(counts) == 2
        # a kept step end: the start reads fresh
        hook.update(x, x_new, 2, 1.0, direction)
        hook.keep(x_new)
        counts.clear()
        hook.residual(x_new)
        assert products(counts) == 0
        hook.residual(x)
        assert products(counts) == 1

    def test_a_demoted_step_forms_no_product_on_the_way_back(self, monkeypatch):
        # the hook holds the start of each step until the engine keeps a
        # point, so the visit after a guard demotion reads D S and E at
        # the point it went back to instead of re-forming them there, and
        # a sweep end re-forms none, as each step's carried products have
        # the bits of fresh ones: E is formed at the start and by each
        # effective step's carry alone, and D S by the sparse ones', with
        # however many steps the guard demotes (which rounding moves
        # with the BLAS thread count)
        plain = desk_instance()
        steps = []    # (block, effective) of each step
        honest_step = engine.bsca_step

        def spied(problem, solver, x, k, config):
            out = honest_step(problem, solver, x, k, config)
            steps.append((k, out[1].gamma != 0.0))
            return out

        formed = []    # whether each formation of E formed D S too
        honest_fresh = AnomalyProducts.fresh

        def fresh(hook, x, sparse_image=None):
            formed.append(sparse_image is None)
            return honest_fresh(hook, x, sparse_image)

        monkeypatch.setattr(engine, "bsca_step", spied)
        monkeypatch.setattr(AnomalyProducts, "fresh", fresh)
        trace = run_anomaly_bsca(plain, SolverConfig(
            max_outer_iterations=90, seed=1, inner_iterations=8),
            state0=initial_state(plain, seed=1))
        demoted = sum(effective and gamma == 0.0
                      for (_, effective), gamma in zip(steps, trace.stepsizes[1:]))
        assert trace.iterations == 90
        assert demoted > 20
        assert len(formed) == 1 + sum(effective for _, effective in steps)
        assert sum(formed) == 1 + sum(effective for k, effective in steps if k == 2)

    @pytest.mark.parametrize("run", ["bsca", "bgd"])
    def test_an_armijo_run_forms_d_s_at_sparse_step_ends_alone(self, monkeypatch, run):
        # backtracking reads the line profile, not f at its trial points,
        # so D S is formed at the start and at each effective sparse
        # step's end point, as in an exact run; bgd backtracks on every
        # block, about 14-21 halvings a step here
        inst = tall_instance(seed=7, gain=0.3)
        cfg = SolverConfig(max_outer_iterations=30, stop_tol=0.0, seed=2,
                           inner_iterations=3, line_search="successive")
        steps = []    # (block, effective) of each step
        honest_step = engine.bsca_step

        def spied(problem, solver, x, k, config):
            out = honest_step(problem, solver, x, k, config)
            steps.append((k, out[1].gamma != 0.0))
            return out

        formed = []
        honest_fresh = AnomalyProducts.fresh

        def fresh(hook, x, sparse_image=None):
            formed.append(sparse_image is None)
            return honest_fresh(hook, x, sparse_image)

        monkeypatch.setattr(engine, "bsca_step", spied)
        monkeypatch.setattr(AnomalyProducts, "fresh", fresh)
        trace = (run_anomaly_bsca(inst, cfg) if run == "bsca" else run_bgd(
            anomaly_problem(inst), cfg, state_to_vector(initial_state(inst, seed=2))))
        assert any(e.block == 2 and e.armijo_exponent >= 0 for e in trace.entries)
        assert sum(formed) == 1 + sum(effective for k, effective in steps if k == 2)

    @pytest.mark.parametrize("rounds", [1, 8])
    @pytest.mark.parametrize("run", ["bsca", "armijo", "parallel", "bgd"])
    def test_runs_match_the_problem_without_the_hook(self, run, rounds):
        inst = tall_instance(seed=7, gain=0.3)
        x0 = state_to_vector(initial_state(inst, seed=2))
        cfg = SolverConfig(max_outer_iterations=90, stop_tol=0.0,
                           inner_iterations=rounds,
                           line_search="successive" if run == "armijo" else "exact")

        def solve(problem):
            if run == "parallel":
                return run_parallel_sca(problem, anomaly_solver(inst, cfg), cfg, x0)
            if run == "bgd":
                return run_bgd(problem, cfg, x0)
            return run_bsca(problem, anomaly_solver(inst, cfg), cfg, x0)

        hooked = anomaly_problem(inst)
        assert isinstance(hooked.products, AnomalyProducts)
        got = (run_anomaly_bsca(inst, cfg, state0=vector_to_state(inst, x0))
               if run in ("bsca", "armijo") else solve(hooked))
        reference = solve(dataclasses.replace(hooked, products=FreshReads(inst)))
        assert np.array_equal(got.objectives, reference.objectives)
        assert np.array_equal(got.stepsizes, reference.stepsizes)
        assert np.array_equal(got.final_point.values, reference.final_point.values)
        assert got.product_drift == 0.0
        assert reference.product_drift == 0.0

    def test_the_solver_rejects_a_problem_without_the_hook(self):
        inst = small_instance()
        x0 = state_to_vector(initial_state(inst, seed=0))
        cfg = SolverConfig(max_outer_iterations=3, inner_iterations=8)
        bare = dataclasses.replace(anomaly_problem(inst), products=None)
        for solver in (anomaly_solver(inst), anomaly_solver(inst, cfg)):
            for k in range(3):
                with pytest.raises(InvalidArgumentError, match="AnomalyProducts"):
                    solver(bare, x0, k)
            with pytest.raises(InvalidArgumentError, match="AnomalyProducts"):
                run_bsca(bare, solver, cfg, x0)

    def test_closures_read_fresh_products_off_the_tracked_points(self, rng):
        inst = small_instance()
        problem = anomaly_problem(inst)
        x = state_to_vector(initial_state(inst, seed=0))
        problem.products.track(x)
        other = rng.standard_normal(x.size)
        fresh = anomaly_problem(inst)
        assert problem.smooth_value(other) == fresh.smooth_value(other)
        assert problem.smooth_value(x) == fresh.smooth_value(x)
        for k in range(3):
            assert np.array_equal(problem.block_gradient(other, k),
                                  fresh.block_gradient(other, k))


def model_in_loop_form(state, sparse, inst, proximal):
    """The sparse-block model as ``sparse_inner_descent`` evaluates it,
    expression for expression, so its values compare exactly."""
    residue = inst.dictionary @ sparse - (inst.measurements - state.left @ state.right)
    shift = sparse - state.sparse
    smooth = 0.5 * np.vdot(residue, residue) + 0.5 * proximal * np.vdot(shift, shift)
    return float(smooth + inst.sparse_gain * np.abs(sparse).sum())


class TestCarriedMomentum:
    def test_a_stationary_block_empties_the_carry(self):
        inst = dataclasses.replace(small_instance(), sparse_gain=1e6)
        state = initial_state(inst, seed=2)    # S = 0, which the huge gain keeps
        carry = FistaCarry(2.0, np.ones_like(state.sparse),
                           np.ones_like(inst.measurements), np.ones_like(inst.measurements))
        held = block_products(inst, state, 1e-4)
        assert sparse_inner_descent(state, inst, 8, 1e-4, held.lipschitz, carry=carry,
                                    **held.sparse) is state.sparse
        assert carry.point is None and carry.residual is None and carry.target is None
        assert carry.momentum == 1.0

    def test_the_carried_residual_image_follows_the_factors(self, monkeypatch):
        # at a ridge of 0.01 ||Y||_2 the factors survive and move between
        # sparse visits, so each visit's target Y - L R differs from the
        # one the carried residual image was formed under
        plain = desk_instance()
        inst = dataclasses.replace(
            plain, ridge=0.01 * float(np.linalg.norm(plain.measurements, 2)))
        cfg = SolverConfig(max_outer_iterations=30, stop_tol=0.0, seed=1,
                           inner_iterations=30)
        rebase = FistaCarry.rebase
        visits = []

        def checked(carry, target):
            moved = np.linalg.norm(carry.target - target) / np.linalg.norm(target)
            residual = rebase(carry, target)
            fresh = inst.dictionary @ carry.point - target
            visits.append((np.linalg.norm(residual - fresh) / np.linalg.norm(fresh), moved))
            return residual

        monkeypatch.setattr(FistaCarry, "rebase", checked)
        problem = anomaly_problem(inst)
        run_bsca(problem, anomaly_solver(inst, cfg), cfg,
                 state_to_vector(initial_state(inst, seed=1)))
        assert len(visits) >= 8
        assert all(drift <= 1e-12 for drift, _ in visits)
        assert min(moved for _, moved in visits) > 1e-2
        carry = problem.products.carry    # emptied at the run's end
        assert carry.point is None and carry.residual is None and carry.target is None

    def test_each_visit_ends_no_worse_than_its_round_one_point(self, monkeypatch):
        inst = desk_instance()
        cfg = SolverConfig(max_outer_iterations=60, stop_tol=0.0, seed=1,
                           inner_iterations=30)
        inner = anomaly.sparse_inner_descent
        visits = []

        def recorded(state, instance, rounds, proximal, *args, carry, **held):
            carried = carry.point is not None
            output = inner(state, instance, rounds, proximal, *args, carry=carry, **held)
            first, _ = step_sparse(state, instance, proximal, **held)
            visits.append((carried, model_in_loop_form(state, output, instance, proximal),
                           model_in_loop_form(state, first, instance, proximal)))
            return output

        monkeypatch.setattr(anomaly, "sparse_inner_descent", recorded)
        run_anomaly_bsca(inst, cfg, state0=initial_state(inst, seed=1))
        assert len(visits) == 20
        assert sum(carried for carried, _, _ in visits) >= 15
        assert all(out <= first for _, out, first in visits)

    @pytest.mark.parametrize("run", ["bsca", "parallel"])
    def test_one_solver_gives_the_same_trace_twice(self, run, monkeypatch):
        inst = desk_instance()
        cfg = SolverConfig(max_outer_iterations=30 if run == "bsca" else 10,
                           stop_tol=0.0, seed=1, inner_iterations=30)
        x0 = state_to_vector(initial_state(inst, seed=1))
        loop = run_bsca if run == "bsca" else run_parallel_sca

        def solve(problem, solver):
            trace = loop(problem, solver, cfg, x0)
            return trace.objectives, trace.stepsizes, trace.final_point.values

        problem, solver = anomaly_problem(inst), anomaly_solver(inst, cfg)
        first = solve(problem, solver)
        assert problem.products.carry.point is None    # emptied at the run's end
        # a sparse solve outside any run leaves a carry; the next run drops it
        block_residuals(problem, solver, first[2])
        assert problem.products.carry.point is not None
        for again in (solve(problem, solver), solve(anomaly_problem(inst), solver),
                      solve(anomaly_problem(inst), anomaly_solver(inst, cfg))):
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
        # and the carry is at work: with a fresh one each visit the runs go
        # elsewhere
        inner = anomaly.sparse_inner_descent
        monkeypatch.setattr(anomaly, "sparse_inner_descent",
                            lambda *args, carry, **kwargs: inner(*args, carry=FistaCarry(),
                                                                 **kwargs))
        uncarried = solve(anomaly_problem(inst), anomaly_solver(inst, cfg))
        assert not np.array_equal(first[2], uncarried[2])

    def test_a_run_that_raises_leaves_the_next_run_a_fresh_start(self, monkeypatch):
        inst = desk_instance()
        cfg = SolverConfig(max_outer_iterations=30, stop_tol=0.0, seed=1,
                           inner_iterations=30)
        x0 = state_to_vector(initial_state(inst, seed=1))
        problem, solver = anomaly_problem(inst), anomaly_solver(inst, cfg)
        honest = AnomalyProducts.carried

        def skewed(self, held, x_new, block, gamma, direction):
            fit, image = honest(self, held, x_new, block, gamma, direction)
            return (1.0 + 1e-6) * fit, image

        with monkeypatch.context() as patch:
            patch.setattr(AnomalyProducts, "carried", skewed)
            with pytest.raises(ProductDriftError, match="t=2,"):
                run_bsca(problem, solver, cfg, x0)
        assert problem.products.carry.point is not None    # left by the raised run
        again = run_bsca(problem, solver, cfg, x0)
        fresh = run_bsca(anomaly_problem(inst), anomaly_solver(inst, cfg), cfg, x0)
        assert again.objectives.tobytes() == fresh.objectives.tobytes()
        assert again.stepsizes.tobytes() == fresh.stepsizes.tobytes()
        assert again.final_point.values.tobytes() == fresh.final_point.values.tobytes()


class TestRunAnomaly:
    def test_zero_data_is_fixed_point_from_zero(self):
        rng = np.random.default_rng(1)
        dictionary = rng.standard_normal((3, 5))
        dictionary /= np.linalg.norm(dictionary, axis=1, keepdims=True)
        inst = AnomalyInstance(measurements=np.zeros((3, 4)),
                               dictionary=dictionary,
                               ridge=1.0, sparse_gain=0.5, rank=2)
        state0 = AnomalyState(np.zeros((3, 2)), np.zeros((2, 4)),
                              np.zeros((5, 4)))
        trace = run_anomaly_bsca(inst, SolverConfig(max_outer_iterations=9),
                                 state0=state0)
        assert trace.final_objective == 0.0
        assert np.all(trace.stepsizes == 0.0)
        assert trace.termination_reason == "tolerance"

    def test_huge_gain_keeps_sparse_zero_and_matches_ridge_oracle(self, rng):
        base = generate_anomaly_instance(6, 7, 5, rank=2, density=0.3,
                                         noise_var=0.0, seed=9)
        inst = dataclasses.replace(base, sparse_gain=1e6)
        state0 = initial_state(inst, seed=3)
        trace = run_anomaly_bsca(
            inst, SolverConfig(max_outer_iterations=900, stop_tol=0.0),
            state0=state0)
        got = final_state(inst, trace)
        assert np.all(got.sparse == 0.0)
        # alternating ridge oracle on the same initialization
        left, right = state0.left.copy(), state0.right.copy()
        y = inst.measurements
        for _ in range(300):
            gram = right @ right.T + inst.ridge * np.eye(2)
            left = np.linalg.solve(gram, (y @ right.T).T).T
            gram = left.T @ left + inst.ridge * np.eye(2)
            right = np.linalg.solve(gram, left.T @ y)
        oracle = objective_value(AnomalyState(left, right, np.zeros((5, 7))), inst)
        assert trace.final_objective == pytest.approx(oracle, rel=1e-10)

    def test_desk_scale_residuals_converge(self, rng):
        inst = tall_instance(seed=11, gain=0.3)
        cfg = SolverConfig(max_outer_iterations=3000, stop_tol=0.0)
        trace = run_anomaly_bsca(inst, cfg, state0=initial_state(inst, seed=2))
        assert trace.termination_reason == "tolerance"
        problem = anomaly_problem(inst)
        res = block_residuals(problem, anomaly_solver(inst),
                              trace.final_point.values)
        x = trace.final_point.values
        for k in range(3):
            xk = problem.block_of(x, k)
            assert res[k] <= 1e-5 * (1.0 + np.linalg.norm(xk))

    def test_factor_updates_use_unit_steps(self):
        inst = small_instance()
        trace = run_anomaly_bsca(inst, SolverConfig(max_outer_iterations=6,
                                                    stop_tol=0.0))
        factor_entries = [e for e in trace.entries[1:] if e.block in (0, 1)]
        assert factor_entries
        assert all(e.stepsize in (0.0, 1.0) for e in factor_entries)

    def test_parallel_and_sequential_share_fixed_points(self, rng):
        inst = tall_instance(seed=13, gain=0.4)
        problem = anomaly_problem(inst)
        solver = anomaly_solver(inst)
        state0 = initial_state(inst, seed=4)
        cfg = SolverConfig(max_outer_iterations=4000, stop_tol=0.0)
        seq = run_anomaly_bsca(inst, cfg, state0=state0)
        par = run_parallel_sca(problem, solver, cfg, state_to_vector(state0))
        assert seq.termination_reason == "tolerance"
        agree = abs(seq.final_objective - par.final_objective)
        assert agree <= 1e-6 * abs(seq.final_objective)


class TestAdapter:
    def test_objective_matches_matrix_form(self, rng):
        inst = small_instance()
        state = AnomalyState(rng.standard_normal((5, 2)),
                             rng.standard_normal((2, 8)),
                             rng.standard_normal((6, 8)))
        problem = anomaly_problem(inst)
        assert objective(problem, state_to_vector(state)) == pytest.approx(
            objective_value(state, inst), rel=1e-14)

    def test_vector_state_roundtrip(self, rng):
        inst = small_instance()
        x = rng.standard_normal(state_partition(inst).total)
        assert np.array_equal(state_to_vector(vector_to_state(inst, x)), x)

    def test_block_profile_is_quadratic_and_joint_is_quartic(self, rng):
        inst = small_instance()
        problem = anomaly_problem(inst)
        x = rng.standard_normal(problem.partition.total)
        block_dir = np.zeros_like(x)
        block_dir[problem.partition.slice_of(2)] = 1.0
        block_profile = problem.line_profile(x, block_dir)
        assert block_profile.v4 == 0.0 and block_profile.v3 == 0.0
        joint = rng.standard_normal(x.size)
        assert problem.line_profile(x, joint).v4 > 0.0

    def test_profile_matches_direct_objective(self, rng):
        inst = small_instance()
        problem = anomaly_problem(inst)
        x = rng.standard_normal(problem.partition.total)
        direction = rng.standard_normal(x.size)
        profile = problem.line_profile(x, direction)
        f0 = problem.smooth_value(x)
        for gamma in (0.12, 0.5, 0.93):
            direct = problem.smooth_value(x + gamma * direction) - f0
            assert profile.value(gamma) == pytest.approx(direct, rel=1e-10, abs=1e-10)


class TestGenerator:
    def test_seed_reproducibility(self):
        a = generate_anomaly_instance(8, 9, 7, rank=2, seed=42)
        b = generate_anomaly_instance(8, 9, 7, rank=2, seed=42)
        assert np.array_equal(a.measurements, b.measurements)
        assert np.array_equal(a.dictionary, b.dictionary)
        assert a.ridge == b.ridge and a.sparse_gain == b.sparse_gain

    def test_full_density_boundary(self):
        inst = generate_anomaly_instance(4, 5, 3, rank=1, density=1.0, seed=0)
        assert np.count_nonzero(inst.true_sparse) == 15

    def test_unit_norm_rows(self):
        inst = generate_anomaly_instance(6, 4, 9, rank=2, seed=3)
        assert np.allclose(np.linalg.norm(inst.dictionary, axis=1), 1.0)

    def test_recipe_gains(self):
        inst = generate_anomaly_instance(10, 12, 8, rank=2, seed=1)
        y = inst.measurements
        assert inst.ridge == pytest.approx(0.25 * np.linalg.norm(y, 2))
        assert inst.sparse_gain == pytest.approx(
            2e-4 * np.linalg.norm(inst.dictionary.T @ y, np.inf))

    def test_invalid_dims_rejected(self):
        with pytest.raises(InvalidArgumentError):
            generate_anomaly_instance(0, 5, 5, rank=1)
        with pytest.raises(InvalidArgumentError):
            generate_anomaly_instance(5, 5, 5, rank=1, density=0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("dictionary", np.ones((2, 1)), "disagree on rows"),
        ("ridge", 0.0, "positive"),
        ("sparse_gain", -1.0, "positive"),
    ])
    def test_an_inconsistent_instance_is_rejected(self, field, value, message):
        with pytest.raises(InvalidArgumentError, match=message):
            dataclasses.replace(scalar_instance(), **{field: value})

    def test_support_size_is_exact_count(self):
        inst = generate_anomaly_instance(5, 10, 6, rank=1, density=0.05, seed=2)
        assert np.count_nonzero(inst.true_sparse) == int(np.ceil(0.05 * 60))
