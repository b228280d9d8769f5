import numpy as np
import pytest

from bsca import phase_retrieval
from bsca.core import L1Norm, SolverConfig, Unconstrained, make_partition
from bsca.engine import (
    _audit_profile,
    inexact_solver,
    make_surrogate_solver,
    run_bsca,
    run_parallel_sca,
)
from bsca.errors import InvalidArgumentError, ProfileMismatchError
from bsca.oracles import finite_diff_block_gradient, golden_section
from bsca.phase_retrieval import (
    PhaseRetrievalInstance,
    _quartic_coeffs,
    generate_pr_instance,
    pr_outer_model,
    pr_problem,
    run_phase_retrieval,
    with_blocks,
)
from bsca.surrogates import InnerSolve, inner_best_response_step, inner_exact_stepsize


def one_d_instance(x_value=1.0, intensity=0.0, gain=1e-3):
    return PhaseRetrievalInstance(
        sampling=np.array([[1.0]]), intensities=np.array([intensity]),
        sparse_gain=gain, partition=make_partition([1]))


def tiny_instance(seed=0, unknowns=24, measurements=60, blocks=2, gain=None):
    return generate_pr_instance(unknowns, measurements, density=0.1,
                                num_blocks=blocks, seed=seed,
                                sparse_gain=gain)


def inner_solve(model, x_tau, gain):
    return inner_best_response_step(model, x_tau, L1Norm(gain), Unconstrained())


def inner_stepsize(model, x_tau, minimizer, gain):
    return inner_exact_stepsize(model, x_tau, minimizer, L1Norm(gain))


def outer_stepsize(inst, x, x_tilde_k, k, gain):
    """Exact outer stepsize along block k through the problem's
    block-local quartic profile."""
    sl = inst.partition.slice_of(k)
    delta = x_tilde_k - x[sl]
    delta_g = gain * (np.abs(x_tilde_k).sum() - np.abs(x[sl]).sum())
    profile = pr_problem(inst).line_profile(x, delta, k)
    return profile.with_slope_offset(delta_g).minimize()


def pr_inexact_run(inst, cfg, x0):
    """The two-layer phase-retrieval update run through the generic
    sequential loop, at the config's own audit setting."""
    solver = inexact_solver(
        lambda problem, x, k: pr_outer_model(inst, x, k, cfg.curvature), cfg)
    return run_bsca(pr_problem(inst), solver, cfg, x0)


class TestOuterModel:
    def test_one_dimensional_toy(self):
        inst = one_d_instance(intensity=0.0, gain=0.5)
        model = pr_outer_model(inst, np.array([1.0]), 0, 0.1)
        assert model.quad_matrix == pytest.approx(np.array([[2.1]]))
        assert model.quad_linear == pytest.approx(np.array([1.1]))

    def test_zero_anchor_degenerates_to_prox_model(self):
        inst = tiny_instance()
        model = pr_outer_model(inst, np.zeros(24), 0, 0.3)
        size = inst.partition.block_sizes[0]
        assert model.quad_matrix == pytest.approx(0.3 * np.eye(size))
        assert model.quad_linear == pytest.approx(np.zeros(size))

    def test_gradient_consistency_against_finite_differences(self, rng):
        inst = tiny_instance(seed=3)
        problem = pr_problem(inst)
        x = rng.standard_normal(24)
        for k in range(2):
            model = pr_outer_model(inst, x, k, 1e-3)
            sl = inst.partition.slice_of(k)
            fd = finite_diff_block_gradient(problem.smooth_value, x, sl, eps=1e-6)
            assert np.allclose(model.gradient(x[sl]), fd, atol=1e-5)
            assert np.allclose(model.gradient(x[sl]),
                               problem.block_gradient(x, k), rtol=1e-10)

    def test_positive_definite_with_floor_at_curvature(self, rng):
        inst = tiny_instance(seed=1)
        model = pr_outer_model(inst, rng.standard_normal(24), 1, 0.05)
        eigs = np.linalg.eigvalsh(model.quad_matrix)
        assert eigs.min() >= 0.05 - 1e-12

    def test_rejects_bad_curvature(self):
        inst = tiny_instance()
        with pytest.raises(InvalidArgumentError):
            pr_outer_model(inst, np.zeros(24), 0, 0.0)


class TestInnerSolve:
    def test_matches_scalar_golden_section(self, rng):
        inst = tiny_instance(seed=2)
        x = rng.standard_normal(24)
        model = pr_outer_model(inst, x, 0, 1e-2)
        sl = inst.partition.slice_of(0)
        x_tau = rng.standard_normal(sl.stop - sl.start)
        got = inner_solve(model, x_tau, inst.sparse_gain)
        d = np.diag(model.quad_matrix)
        grad = model.quad_matrix @ x_tau - model.quad_linear
        for i in (0, 3, 7):
            grid = np.linspace(got[i] - 1.5, got[i] + 1.5, 600001)
            shift = grid - x_tau[i]
            vals = (0.5 * d[i] * shift ** 2 + grad[i] * shift
                    + inst.sparse_gain * np.abs(grid))
            assert got[i] == pytest.approx(grid[np.argmin(vals)], abs=1e-5)

    def test_zero_gain_is_jacobi_update(self, rng):
        inst = tiny_instance(seed=2, gain=1e-300)
        x = rng.standard_normal(24)
        model = pr_outer_model(inst, x, 0, 1e-2)
        x_tau = rng.standard_normal(12)
        got = inner_solve(model, x_tau, 0.0)
        d = np.diag(model.quad_matrix)
        expected = x_tau - (model.quad_matrix @ x_tau - model.quad_linear) / d
        assert np.allclose(got, expected, rtol=1e-14)

    def test_diagonal_model_solves_in_one_shot(self):
        inst = tiny_instance()
        model = pr_outer_model(inst, np.zeros(24), 0, 0.3)  # D = 0.3 I
        got = inner_solve(model, np.ones(12) * 2.0, inst.sparse_gain)
        from bsca.surrogates import soft_threshold
        expected = soft_threshold(model.quad_linear / 0.3,
                                  inst.sparse_gain / 0.3)
        assert np.allclose(got, expected, rtol=1e-12)


class TestInnerStepsize:
    def test_toy_full_step(self):
        # model 0.5 * 2 v^2 with zero linear part: from 1 toward 0 the
        # exact step is the unclipped minimizer 1
        from bsca.surrogates import SurrogateModel
        model = SurrogateModel(
            kind="quad_form", block=0, anchor=np.array([1.0]),
            value_fn=lambda v: float(v @ v), grad_fn=lambda v: 2.0 * v,
            grad_anchor=np.array([2.0]), quad_diag=np.array([2.0]),
            quad_linear=np.array([0.0]))
        gamma = inner_stepsize(model, np.array([1.0]), np.array([0.0]), 0.0)
        assert gamma == 1.0

    def test_no_op_direction(self, rng):
        inst = tiny_instance(seed=4)
        x = rng.standard_normal(24)
        model = pr_outer_model(inst, x, 0, 1e-2)
        x_tau = rng.standard_normal(12)
        gamma = inner_stepsize(model, x_tau, x_tau, inst.sparse_gain)
        assert gamma == 0.0

    def test_matches_golden_section(self, rng):
        inst = tiny_instance(seed=4)
        x = rng.standard_normal(24)
        model = pr_outer_model(inst, x, 1, 1e-2)
        x_tau = rng.standard_normal(12)
        target = inner_solve(model, x_tau, inst.sparse_gain)
        gamma = inner_stepsize(model, x_tau, target, inst.sparse_gain)
        delta = target - x_tau
        reg_delta = inst.sparse_gain * (np.abs(target).sum() - np.abs(x_tau).sum())
        phi = lambda g: model.value(x_tau + g * delta) + g * reg_delta
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
            _audit_profile(pr_problem(bad), x, inst.partition.embed(0, np.ones(12)),
                           profile)

    def test_block_profile_is_built_from_the_block_product(self, rng):
        # 24 unknowns in 5 blocks: block starts 5, 10, 15, 20 are not
        # multiples of 4, where full and block products can differ in
        # the last bits
        inst = tiny_instance(seed=11, blocks=5)
        problem = pr_problem(inst)
        x = rng.standard_normal(24)
        for k in range(5):
            delta = rng.standard_normal(inst.partition.block_sizes[k])
            expected = _quartic_coeffs(inst.sampling.T @ x,
                                       inst.block_rows(k).T @ delta,
                                       inst.intensities)
            assert problem.line_profile(x, delta, k).coeffs == expected.coeffs

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

    def test_single_block_bitwise_matches_generic_engine(self, rng):
        inst = tiny_instance(seed=8, blocks=1)
        x0 = rng.standard_normal(24)
        cfg = SolverConfig(max_outer_iterations=40, inner_iterations=4,
                           stop_tol=0.0, curvature=1e-3)
        direct = run_phase_retrieval(inst, cfg, x0)
        generic = pr_inexact_run(inst, cfg, x0)
        assert np.array_equal(direct.objectives, generic.objectives)
        assert np.array_equal(direct.final_point.values,
                              generic.final_point.values)

    def test_multi_block_close_to_generic_engine(self, rng):
        # unaligned partition: 24 unknowns in 5 blocks
        inst = tiny_instance(seed=9, blocks=5)
        x0 = rng.standard_normal(24)
        cfg = SolverConfig(max_outer_iterations=60, inner_iterations=4,
                           stop_tol=0.0, curvature=1e-3)
        direct = run_phase_retrieval(inst, cfg, x0)
        generic = pr_inexact_run(inst, cfg, x0)
        assert np.array_equal(direct.objectives, generic.objectives)
        assert np.array_equal(direct.final_point.values,
                              generic.final_point.values)

    def test_profile_audited_at_default_audit_setting(self, rng, monkeypatch):
        inst = tiny_instance(seed=12, blocks=3)
        cfg = SolverConfig(max_outer_iterations=6, inner_iterations=2)
        assert not cfg.audit_profiles
        honest = phase_retrieval._quartic_coeffs

        def corrupted(u, w, y):
            v4, v3, v2, v1 = honest(u, w, y).coeffs
            return phase_retrieval.quartic_profile(v4, v3, v2, 1.5 * v1 - 1.0)

        monkeypatch.setattr(phase_retrieval, "_quartic_coeffs", corrupted)
        with pytest.raises(ProfileMismatchError):
            run_phase_retrieval(inst, cfg, rng.standard_normal(24))

    def test_matches_parallel_sca_with_well_solved_subproblems(self, rng):
        inst = tiny_instance(seed=10, blocks=1)
        x0 = rng.standard_normal(24)
        x0 /= np.linalg.norm(x0)
        cfg = SolverConfig(max_outer_iterations=2000, inner_iterations=50,
                           stop_tol=0.0, curvature=1e-4)
        inexact = run_phase_retrieval(inst, cfg, x0)
        solver = make_surrogate_solver(
            lambda problem, x, k: pr_outer_model(inst, x, k, 1e-4),
            inner=InnerSolve(max_iterations=800, tol=1e-13))
        parallel = run_parallel_sca(pr_problem(inst), solver, cfg, x0)
        assert inexact.final_objective == pytest.approx(
            parallel.final_objective, rel=1e-6)


class TestGenerator:
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
