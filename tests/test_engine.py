import numpy as np
import pytest

from bsca.core import (
    CompositeProblem,
    L1Norm,
    SolverConfig,
    Zero,
    make_partition,
)
from bsca.engine import (
    BlockRule,
    BlockSolution,
    BregmanBaselineSpec,
    block_residuals,
    bregman_constant,
    bregman_step,
    bsca_step,
    inexact_inner_loop,
    inexact_solver,
    make_block_rule,
    make_surrogate_solver,
    quadratic_outer_factory,
    quadratic_solver,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
    select_block,
)
from bsca.errors import ConfigError, FeasibilityError
from bsca.linesearch import cubic_real_roots, quadratic_profile
from bsca.oracles import dense_spd_solve
from bsca.phase_retrieval import generate_pr_instance
from bsca.surrogates import SurrogateModel, make_best_response_surrogate

from conftest import random_quadratic_problem


def scalar_problem():
    part = make_partition([1])
    return CompositeProblem(
        part,
        lambda x: float(0.5 * (x[0] - 1.0) ** 2),
        lambda x, k: np.array([x[0] - 1.0]),
        (Zero(),),
        line_profile=lambda x, d, block=None: quadratic_profile(
            float(d[0] * d[0]), float((x[0] - 1.0) * d[0])))


class TestSelectBlock:
    def test_cyclic_order(self):
        rule = BlockRule()
        assert [select_block(rule, t, 3) for t in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_cyclic_matches_modular_rule(self):
        rule = BlockRule()
        for t in (0, 5, 17):
            assert select_block(rule, t, 3) == t % 3

    def test_degenerate_point_mass(self):
        # allowed only when the rule is built by hand; config validation
        # rejects zero probabilities
        rule = BlockRule("random", np.array([1.0, 0.0]),
                         np.random.default_rng(0))
        assert all(select_block(rule, t, 2) == 0 for t in range(20))

    def test_seeded_rule_is_deterministic(self):
        cfg = SolverConfig(max_outer_iterations=1, block_rule="random", seed=7)
        a = make_block_rule(cfg, 4)
        b = make_block_rule(cfg, 4)
        seq_a = [select_block(a, t, 4) for t in range(50)]
        seq_b = [select_block(b, t, 4) for t in range(50)]
        assert seq_a == seq_b


class TestBscaStep:
    def test_hand_example(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=1, curvature=1.0)
        x1, step, d = bsca_step(problem, quadratic_solver(1.0),
                                np.array([0.0]), 0, cfg)
        assert d == pytest.approx(-1.0)
        assert step.gamma == pytest.approx(1.0)
        assert x1 == pytest.approx([1.0])

    def test_fixed_point_skipped(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=1, curvature=1.0)
        x1, step, d = bsca_step(problem, quadratic_solver(1.0),
                                np.array([1.0]), 0, cfg)
        assert step.gamma == 0.0 and d == 0.0
        assert x1 == pytest.approx([1.0])

    def test_one_sweep_of_best_responses_solves_separable(self, rng):
        # separable f: each exact block minimization lands on the optimum
        part = make_partition([2, 3, 1])
        weights = np.exp(rng.uniform(-1, 1, 6))
        center = rng.standard_normal(6)
        problem = CompositeProblem(
            part,
            lambda x: float(0.5 * (weights * (x - center)) @ (x - center)),
            lambda x, k: (weights * (x - center))[part.slice_of(k)],
            (Zero(), Zero(), Zero()))
        solver = make_surrogate_solver(
            lambda p, x, k: make_best_response_surrogate(p, x, k, "block"))

        def exact_solver(p, x, k):
            sl = part.slice_of(k)
            return BlockSolution(center[sl], is_global_upper_bound=True)

        cfg = SolverConfig(max_outer_iterations=3)
        x = rng.standard_normal(6)
        for t in range(3):
            x, _, _ = bsca_step(problem, exact_solver, x, t, cfg)
        assert np.allclose(x, center, atol=1e-12)


class TestRunBsca:
    def test_toy_converges_in_one_iteration(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=10, curvature=1.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg, np.array([0.0]))
        assert trace.objectives[1] == pytest.approx(0.0, abs=1e-16)
        assert trace.termination_reason == "tolerance"

    def test_zero_iterations_gives_initial_row_only(self):
        problem = scalar_problem()
        cfg = SolverConfig(max_outer_iterations=0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg, np.array([0.0]))
        assert len(trace.entries) == 1
        assert trace.entries[0].objective == pytest.approx(0.5)

    def test_invalid_config_rejected_before_iterating(self):
        problem = scalar_problem()
        with pytest.raises(ConfigError):
            run_bsca(problem, quadratic_solver(1.0),
                     SolverConfig(max_outer_iterations=5, curvature=-1.0),
                     np.array([0.0]))

    def test_monotone_and_strictly_decreasing_on_effective_steps(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 2, 4], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=60, curvature=0.5, stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(0.5), cfg,
                         rng.standard_normal(9))
        objs = trace.objectives
        steps = trace.stepsizes
        assert np.all(np.diff(objs) <= 0.0)
        for i in range(1, len(objs)):
            if steps[i] > 0.0:
                assert objs[i] < objs[i - 1] + 1e-15

    def test_infeasible_start_rejected(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3], box_halfwidth=0.5)
        with pytest.raises(FeasibilityError):
            run_bsca(problem, quadratic_solver(1.0),
                     SolverConfig(max_outer_iterations=3), np.full(3, 2.0))

    def test_box_iterates_stay_feasible(self, rng):
        seen = []
        problem, hessian, target = random_quadratic_problem(
            rng, [3, 3], l1_gain=0.05, box_halfwidth=0.4)
        spying = CompositeProblem(
            problem.partition,
            lambda x: (seen.append(x.copy()), problem.smooth_value(x))[1],
            problem.block_gradient, problem.nonsmooth, problem.constraints,
            problem.line_profile)
        cfg = SolverConfig(max_outer_iterations=40, curvature=1.0)
        trace = run_bsca(spying, quadratic_solver(1.0), cfg, np.zeros(6))
        assert all(np.all(np.abs(x) <= 0.4 + 1e-12) for x in seen)
        assert np.all(np.abs(trace.final_point.values) <= 0.4 + 1e-12)

    def test_generic_profile_audit_accepts_honest_profiles(self, rng):
        from bsca.anomaly import generate_anomaly_instance, anomaly_problem, anomaly_solver
        inst = generate_anomaly_instance(8, 9, 6, rank=2, density=0.2, seed=6)
        problem = anomaly_problem(inst)
        cfg = SolverConfig(max_outer_iterations=9, audit_profiles=True)
        trace = run_bsca(problem, anomaly_solver(inst), cfg,
                         rng.standard_normal(problem.partition.total))
        assert np.all(np.diff(trace.objectives) <= 0.0)

    def test_generic_profile_audit_rejects_wrong_coefficients(self, rng):
        from bsca.errors import ProfileMismatchError
        from bsca.linesearch import quadratic_profile
        problem, hessian, target = random_quadratic_problem(rng, [4])
        lying = CompositeProblem(
            problem.partition, problem.smooth_value, problem.block_gradient,
            problem.nonsmooth, problem.constraints,
            lambda x, d, block=None: quadratic_profile(1.0, -1.0))
        cfg = SolverConfig(max_outer_iterations=3, curvature=0.5,
                           audit_profiles=True)
        with pytest.raises(ProfileMismatchError):
            run_bsca(lying, quadratic_solver(0.5), cfg, rng.standard_normal(4))

    def test_deterministic_random_rule(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2, 2, 2], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=50, block_rule="random",
                           seed=123, curvature=1.0, stop_tol=0.0)
        x0 = rng.standard_normal(6)
        a = run_bsca(problem, quadratic_solver(1.0), cfg, x0)
        b = run_bsca(problem, quadratic_solver(1.0), cfg, x0)
        assert np.array_equal(a.objectives, b.objectives)
        assert [e.block for e in a.entries] == [e.block for e in b.entries]

    def test_stationarity_at_tolerance_termination(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4, 4], l1_gain=0.2)
        cfg = SolverConfig(max_outer_iterations=5000, curvature=1.0,
                           stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg,
                         rng.standard_normal(8))
        assert trace.termination_reason == "tolerance"
        x = trace.final_point.values
        res = block_residuals(problem, quadratic_solver(1.0), x, cfg)
        for k in range(problem.num_blocks):
            xk = problem.block_of(x, k)
            assert res[k] <= 1e-5 * (1.0 + np.linalg.norm(xk))

    def test_cyclic_fixed_point_is_random_fixed_point(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.15)
        cfg = SolverConfig(max_outer_iterations=5000, curvature=1.0, stop_tol=0.0)
        trace = run_bsca(problem, quadratic_solver(1.0), cfg,
                         rng.standard_normal(6))
        x = trace.final_point.values
        cfg_rand = SolverConfig(max_outer_iterations=20, block_rule="random",
                                seed=5, curvature=1.0)
        restart = run_bsca(problem, quadratic_solver(1.0), cfg_rand, x)
        assert np.all(restart.stepsizes == 0.0)


class TestParallelSca:
    def test_single_block_bitwise_identical_to_bsca(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [5], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=30, curvature=0.7, stop_tol=0.0)
        x0 = rng.standard_normal(5)
        seq = run_bsca(problem, quadratic_solver(0.7), cfg, x0)
        par = run_parallel_sca(problem, quadratic_solver(0.7), cfg, x0)
        assert np.array_equal(seq.objectives, par.objectives)
        assert np.array_equal(seq.final_point.values, par.final_point.values)

    def test_separable_parallel_step_equals_bsca_sweep(self, rng):
        part = make_partition([2, 2])
        weights = np.exp(rng.uniform(-1, 1, 4))
        center = rng.standard_normal(4)
        def line_profile(x, d, block=None):
            if block is not None:
                d = part.embed(block, d)
            return quadratic_profile(float((weights * d) @ d),
                                     float((weights * (x - center)) @ d))

        problem = CompositeProblem(
            part,
            lambda x: float(0.5 * (weights * (x - center)) @ (x - center)),
            lambda x, k: (weights * (x - center))[part.slice_of(k)],
            (Zero(), Zero()),
            line_profile=line_profile)

        def solver(p, x, k):
            # exact separable block minimizer in closed form
            return BlockSolution(center[part.slice_of(k)].copy())

        x0 = rng.standard_normal(4)
        cfg = SolverConfig(max_outer_iterations=2, stop_tol=0.0)
        par = run_parallel_sca(problem, solver, cfg, x0)
        sweep = run_bsca(problem, solver,
                         SolverConfig(max_outer_iterations=2, stop_tol=0.0), x0)
        assert par.objectives[1] == pytest.approx(sweep.objectives[2], rel=1e-12)
        assert np.allclose(par.final_point.values, center, atol=1e-12)

    def test_joint_descent_quantity_negative_property(self, rng):
        for _ in range(20):
            problem, _, _ = random_quadratic_problem(rng, [2, 3], l1_gain=0.1)
            x = rng.standard_normal(5)
            solver = quadratic_solver(1.0)
            d_total = 0.0
            moved = False
            for k in range(2):
                sol = solver(problem, x, k)
                xk = problem.block_of(x, k)
                delta = sol.minimizer - xk
                if np.linalg.norm(delta) <= 1e-9:
                    continue
                moved = True
                reg = problem.nonsmooth[k]
                d_total += float(delta @ problem.block_gradient(x, k)) \
                    + reg.value(sol.minimizer) - reg.value(xk)
            if moved:
                assert d_total < 0.0


class TestInexact:
    def _quad_outer(self, rng, n=6):
        m = rng.standard_normal((n, n))
        spd = m @ m.T / n + np.diag(np.full(n, 2.0))
        b = rng.standard_normal(n)
        anchor = rng.standard_normal(n)
        return SurrogateModel(
            kind="quad_form", block=0, anchor=anchor,
            value_fn=lambda v: float(0.5 * v @ (spd @ v) - v @ b),
            grad_fn=lambda v: spd @ v - b, grad_anchor=spd @ anchor - b,
            quad_matrix=spd, quad_linear=b)

    def test_inner_loop_reaches_exact_minimizer(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [6])
        for _ in range(10):
            model = self._quad_outer(rng)
            cfg = SolverConfig(max_outer_iterations=1, inner_iterations=50)
            approx = inexact_inner_loop(model, problem, 0, cfg)
            exact = dense_spd_solve(model.quad_matrix, model.quad_linear)
            assert np.linalg.norm(approx - exact) <= 1e-8 * (1 + np.linalg.norm(exact))

    def test_inner_chain_monotone_in_surrogate_objective(self, rng):
        # strict decrease holds until progress reaches the rounding floor
        problem, _, _ = random_quadratic_problem(rng, [6], l1_gain=0.2)
        model = self._quad_outer(rng)
        reg = problem.nonsmooth[0]
        from bsca.surrogates import inner_best_response_step, inner_exact_stepsize
        x_tau = model.anchor.copy()
        values = [model.value(x_tau) + reg.value(x_tau)]
        for _ in range(10):
            target = inner_best_response_step(model, x_tau, reg,
                                              problem.constraints[0])
            if np.linalg.norm(target - x_tau) <= 1e-13 * (1 + np.linalg.norm(x_tau)):
                break
            gamma = inner_exact_stepsize(model, x_tau, target, reg)
            if gamma <= 0.0:
                break
            x_tau = x_tau + gamma * (target - x_tau)
            values.append(model.value(x_tau) + reg.value(x_tau))
        assert len(values) > 5
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_single_inner_iteration_still_decreases_outer(self, rng):
        for _ in range(10):
            problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.1)
            cfg = SolverConfig(max_outer_iterations=2, inner_iterations=1,
                               curvature=0.8, stop_tol=0.0)
            x0 = rng.standard_normal(6)
            trace = run_bsca(problem, inexact_solver(
                quadratic_outer_factory(0.8), cfg), cfg, x0)
            assert trace.objectives[1] < trace.objectives[0]

    def test_skip_when_block_already_optimal(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4], l1_gain=0.3)
        cfg = SolverConfig(max_outer_iterations=4000, inner_iterations=5,
                           curvature=1.0, stop_tol=0.0)
        trace = run_bsca(problem, inexact_solver(quadratic_outer_factory(1.0), cfg),
                         cfg, rng.standard_normal(4))
        assert trace.termination_reason == "tolerance"
        restart_cfg = SolverConfig(max_outer_iterations=1, inner_iterations=5,
                                   curvature=1.0)
        restart = run_bsca(problem, inexact_solver(quadratic_outer_factory(1.0),
                                                   restart_cfg),
                           restart_cfg, trace.final_point.values)
        assert np.all(restart.stepsizes == 0.0)

    def test_callable_outer_rejected(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3])

        def bad_factory(problem, x, k):
            return make_best_response_surrogate(problem, x, k, "block")

        cfg = SolverConfig(max_outer_iterations=1)
        with pytest.raises(ConfigError):
            run_bsca(problem, inexact_solver(bad_factory, cfg), cfg, np.zeros(3))

    def test_box_constraints_respected_throughout(self, rng):
        seen = []
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.05,
                                                 box_halfwidth=0.25)
        spying = CompositeProblem(
            problem.partition,
            lambda x: (seen.append(x.copy()), problem.smooth_value(x))[1],
            problem.block_gradient, problem.nonsmooth, problem.constraints,
            problem.line_profile)
        cfg = SolverConfig(max_outer_iterations=30, inner_iterations=4,
                           curvature=1.0)
        trace = run_bsca(spying, inexact_solver(quadratic_outer_factory(1.0), cfg),
                         cfg, np.zeros(6))
        assert all(np.all(np.abs(x) <= 0.25 + 1e-12) for x in seen)
        assert np.all(np.abs(trace.final_point.values) <= 0.25 + 1e-12)


class TestBgd:
    def test_alias_of_bsca_with_quadratic_surrogate(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3], l1_gain=0.1)
        cfg = SolverConfig(max_outer_iterations=40, curvature=0.3, stop_tol=0.0)
        x0 = rng.standard_normal(6)
        assert np.array_equal(
            run_bgd(problem, cfg, x0).objectives,
            run_bsca(problem, quadratic_solver(0.3), cfg, x0).objectives)

    def test_one_dimensional_single_step(self):
        part = make_partition([1])
        problem = CompositeProblem(
            part, lambda x: float(0.5 * x[0] ** 2),
            lambda x, k: np.array([x[0]]), (Zero(),),
            line_profile=lambda x, d, block=None: quadratic_profile(
                float(d[0] ** 2), float(x[0] * d[0])))
        cfg = SolverConfig(max_outer_iterations=3, curvature=1.0)
        trace = run_bgd(problem, cfg, np.array([1.0]))
        assert trace.objectives[1] == pytest.approx(0.0, abs=1e-30)

    def test_large_gain_one_step_to_zero(self):
        part = make_partition([1])
        problem = CompositeProblem(
            part, lambda x: float(0.5 * x[0] ** 2),
            lambda x, k: np.array([x[0]]), (L1Norm(10.0),),
            line_profile=lambda x, d, block=None: quadratic_profile(
                float(d[0] ** 2), float(x[0] * d[0])))
        cfg = SolverConfig(max_outer_iterations=3, curvature=0.5)
        trace = run_bgd(problem, cfg, np.array([1.0]))
        assert trace.final_point.values == pytest.approx([0.0], abs=1e-30)


class TestBpgd:
    def test_zero_prox_input_maps_to_zero(self):
        got = bregman_step(np.zeros(3), np.zeros(3), 1.0, 5.0)
        assert np.array_equal(got, np.zeros(3))

    def test_unit_norm_cubic_root(self):
        # theta (theta^2 + 1) = 1 at ||v|| = 1
        roots = cubic_real_roots(1.0, 0.0, 1.0, -1.0)
        assert roots[-1] == pytest.approx(0.682327803828019, abs=1e-12)
        x = np.array([3.0, 4.0]) / 5.0
        # choose gradient so p = v has unit norm: grad = L*(omega'(x) - x)
        grad = (float(x @ x) + 1.0) * x - x
        got = bregman_step(x, grad, 1.0, 0.0)
        assert np.allclose(got, roots[-1] * x, rtol=1e-12)

    def test_zero_gradient_zero_gain_fixed_point(self, rng):
        x = rng.standard_normal(4)
        got = bregman_step(x, np.zeros(4), 2.5, 0.0)
        assert np.allclose(got, x, rtol=1e-10)

    def test_paper_constant_monotone_descent(self, rng):
        inst = generate_pr_instance(30, 60, density=0.1, num_blocks=1, seed=4)
        x0 = rng.standard_normal(30)
        x0 /= np.linalg.norm(x0)
        cfg = SolverConfig(max_outer_iterations=300, stop_tol=0.0)
        trace = run_bpgd(inst, BregmanBaselineSpec(), cfg, x0)
        assert np.all(np.diff(trace.objectives) <= 1e-12)
        assert bregman_constant(inst) > 0

    def test_rejects_nonpositive_constant(self, rng):
        inst = generate_pr_instance(10, 20, density=0.2, num_blocks=1, seed=0)
        from bsca.errors import InvalidArgumentError
        with pytest.raises(InvalidArgumentError):
            run_bpgd(inst, BregmanBaselineSpec(constant=-1.0),
                     SolverConfig(max_outer_iterations=1), np.ones(10))
