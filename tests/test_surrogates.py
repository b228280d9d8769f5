import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsca.core import (
    CompositeProblem,
    L1Norm,
    SolverConfig,
    Unconstrained,
    Zero,
    make_partition,
)
from bsca.engine import inexact_inner_loop
from bsca.errors import InvalidArgumentError, NoClosedFormError
from bsca.surrogates import (
    QuadOperator,
    SurrogateModel,
    inner_best_response_step,
    make_best_response_surrogate,
    make_partial_linearization_surrogate,
    make_quadratic_surrogate,
    soft_threshold,
    solve_surrogate,
)

from conftest import (
    fresh_inner_step,
    fresh_inner_stepsize,
    linear_term,
    random_composition_problem,
    random_quadratic_problem,
    spd_model,
)
from oracles import (
    finite_diff_block_gradient,
    golden_section,
    make_inner_surrogate,
)


class TestSoftThreshold:
    def test_shrinks(self):
        assert soft_threshold(np.array([2.5]), 1.0) == pytest.approx([1.5])

    def test_kills_small(self):
        assert soft_threshold(np.array([0.5]), 1.0) == pytest.approx([0.0])

    def test_sign_preserved(self):
        got = soft_threshold(np.array([-3.0, 0.2]), np.array([1.0, 1.0]))
        assert got == pytest.approx([-2.0, 0.0])

    def test_matrix_input(self):
        got = soft_threshold(np.array([[2.0, -0.5], [-4.0, 1.5]]), 1.0)
        assert got == pytest.approx(np.array([[1.0, 0.0], [-3.0, 0.5]]))

    def test_same_bits_as_two_sided_formula(self, rng):
        b = np.concatenate([rng.standard_normal(200) * 2.0,
                            [0.0, -0.0, 1.0, -1.0, 0.5, -0.5]])
        for a in (0.0, 0.5, 1.0, np.abs(rng.standard_normal(206))):
            got = soft_threshold(b, a)
            expected = np.maximum(b - a, 0.0) - np.maximum(-b - a, 0.0)
            assert got.tobytes() == expected.tobytes()

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidArgumentError):
            soft_threshold(np.array([1.0]), -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_is_l1_prox(self, seed):
        gen = np.random.default_rng(seed)
        b = float(gen.normal() * 3)
        a = float(abs(gen.normal()))
        got = float(soft_threshold(np.array([b]), a)[0])
        span = abs(b) + 1.0
        grid = np.linspace(-span, span, 400001)
        brute = grid[np.argmin(0.5 * (grid - b) ** 2 + a * np.abs(grid))]
        assert got == pytest.approx(brute, abs=span * 1e-4)


class TestQuadraticSurrogate:
    def test_anchor_values(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 2])
        x = rng.standard_normal(5)
        model = make_quadratic_surrogate(problem, x, 0, 2.0)
        anchor = problem.block_of(x, 0)
        assert model.value(anchor) == 0.0
        assert np.allclose(model.gradient(anchor), problem.block_gradient(x, 0),
                           rtol=1e-10)

    def test_one_dimensional_minimizer(self):
        # grad 2 at anchor 0 with unit curvature: gradient step to -2
        problem, _, _ = random_quadratic_problem(np.random.default_rng(0), [1])
        unit = np.array([1.0])
        model = SurrogateModel(
            kind="quadratic", anchor=np.array([0.0]),
            value_fn=lambda v: float(2.0 * v[0] + 0.5 * v[0] ** 2),
            grad_fn=lambda v: np.array([2.0 + v[0]]),
            grad_anchor=np.array([2.0]), quad=QuadOperator(unit.__mul__, unit))
        assert solve_surrogate(model, Zero()) == pytest.approx([-2.0])

    def test_rejects_bad_curvature(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2])
        with pytest.raises(InvalidArgumentError):
            make_quadratic_surrogate(problem, np.zeros(2), 0, 0.0)

    def test_gradient_step_identity_bitwise(self, rng):
        # with g = 0 the minimizer is exactly anchor - grad/c
        problem, _, _ = random_quadratic_problem(rng, [4])
        x = rng.standard_normal(4)
        model = make_quadratic_surrogate(problem, x, 0, 0.37)
        got = solve_surrogate(model, Zero())
        expected = model.anchor - model.grad_anchor / 0.37
        assert np.array_equal(got, expected)

    def test_l1_closed_form(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4], l1_gain=0.3)
        x = rng.standard_normal(4)
        model = make_quadratic_surrogate(problem, x, 0, 1.7)
        got = solve_surrogate(model, L1Norm(0.3))
        expected = soft_threshold(model.anchor - model.grad_anchor / 1.7, 0.3 / 1.7)
        assert np.array_equal(got, expected)


class TestBestResponseSurrogate:
    def test_block_mode_matches_restriction(self, rng):
        # f(x) = 0.5||x - 1||^2 restricted to a block: gradient vanishes
        # at the all-ones block, the restriction's minimizer
        from bsca.core import CompositeProblem, make_partition
        part = make_partition([2, 2])
        prob = CompositeProblem(
            part, lambda x: float(0.5 * (x - 1.0) @ (x - 1.0)),
            lambda x, k: (x - 1.0)[part.slice_of(k)],
            (Zero(), Zero()))
        x = rng.standard_normal(4)
        model = make_best_response_surrogate(prob, x, 1, mode="block")
        assert model.is_global_upper_bound
        ones = np.ones(2)
        assert np.allclose(model.gradient(ones), 0.0, atol=1e-14)
        probe = rng.standard_normal(2)
        restricted = x.copy()
        restricted[2:] = probe
        assert model.value(probe) == pytest.approx(prob.smooth_value(restricted))

    def test_elementwise_equals_block_on_separable(self, rng):
        from bsca.core import CompositeProblem, make_partition
        part = make_partition([3])
        weights = np.array([1.0, 2.0, 0.5])
        prob = CompositeProblem(
            part, lambda x: float(0.5 * (weights * x) @ x),
            lambda x, k: weights * x, (Zero(),))
        x = rng.standard_normal(3)
        block = make_best_response_surrogate(prob, x, 0, mode="block")
        element = make_best_response_surrogate(prob, x, 0, mode="elementwise")
        # identical up to an additive constant independent of the probe
        probes = rng.standard_normal((4, 3))
        diffs = [element.value(p) - block.value(p) for p in probes]
        assert np.ptp(diffs) < 1e-10 * max(1.0, abs(diffs[0]))

    def test_gradient_at_anchor_vs_finite_differences(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3, 3])
        x = rng.standard_normal(6)
        for mode in ("block", "elementwise"):
            model = make_best_response_surrogate(problem, x, 1, mode=mode)
            fd = finite_diff_block_gradient(problem.smooth_value, x, slice(3, 6))
            assert np.allclose(model.gradient(model.anchor), fd, atol=1e-5)
            assert np.allclose(model.gradient(model.anchor),
                               problem.block_gradient(x, 1), rtol=1e-10)

    def test_unknown_mode(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2])
        with pytest.raises(InvalidArgumentError):
            make_best_response_surrogate(problem, np.zeros(2), 0, mode="bogus")

    def test_no_closed_form(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2])
        model = make_best_response_surrogate(problem, np.zeros(2), 0)
        with pytest.raises(NoClosedFormError):
            solve_surrogate(model, Zero())


class TestPartialLinearization:
    def test_linear_inner_map_reduces_to_regularized_f(self, rng):
        # f1(u) = 0.5 u^2, f2(x) = x in 1-D: the model equals f plus the
        # proximal term
        from bsca.core import CompositeProblem, make_partition
        from bsca.surrogates import SmoothComposition
        comp = SmoothComposition(
            outer_value=lambda u: float(0.5 * u @ u),
            outer_gradient=lambda u: u,
            inner_value=lambda x: x.copy(),
            inner_block_jacobian=lambda x, k: np.eye(1),
        )
        prob = CompositeProblem(make_partition([1]),
                                lambda x: float(0.5 * x @ x),
                                lambda x, k: x, (Zero(),))
        anchor = np.array([0.7])
        model = make_partial_linearization_surrogate(comp, prob, anchor, 0, 0.9)
        v = np.array([-0.4])
        expected = 0.5 * v[0] ** 2 + 0.45 * (v[0] - 0.7) ** 2
        assert model.value(v) == pytest.approx(expected)
        assert model.value(anchor) == pytest.approx(prob.smooth_value(anchor))

    @pytest.mark.parametrize("mode", ["full", "hybrid"])
    def test_gradient_consistency_on_random_composition(self, rng, mode):
        problem, comp = random_composition_problem(rng, [3, 2])
        x = rng.standard_normal(5)
        model = make_partial_linearization_surrogate(comp, problem, x, 0, 1e-2,
                                                     mode=mode)
        fd = finite_diff_block_gradient(problem.smooth_value, x, slice(0, 3),
                                        eps=1e-6)
        assert np.allclose(model.gradient(model.anchor), fd, atol=1e-5)
        assert np.allclose(model.gradient(model.anchor),
                           problem.block_gradient(x, 0), rtol=1e-10, atol=1e-12)

    def test_hybrid_value_at_anchor_duplicates_constant(self, rng):
        problem, comp = random_composition_problem(rng, [3])
        x = rng.standard_normal(3)
        hybrid = make_partial_linearization_surrogate(comp, problem, x, 0, 1.0,
                                                      mode="hybrid")
        f_at_x = problem.smooth_value(x)
        assert hybrid.value(x) == pytest.approx(3 * f_at_x, rel=1e-12)

    def test_rejects_bad_curvature(self, rng):
        problem, comp = random_composition_problem(rng, [2])
        with pytest.raises(InvalidArgumentError):
            make_partial_linearization_surrogate(comp, problem, np.zeros(2), 0, -1.0)


class TestSolveSurrogate:
    def test_diag_l1_example(self):
        # a diagonal model is minimized by one elementwise best response
        # at its anchor
        diag = np.array([2.0, 2.0])
        model = SurrogateModel(
            kind="quad_form", anchor=np.zeros(2),
            value_fn=lambda v: float(v @ v - v @ np.array([3.0, -1.0])),
            grad_fn=lambda v: 2.0 * v - np.array([3.0, -1.0]),
            grad_anchor=np.array([-3.0, 1.0]),
            quad=QuadOperator(diag.__mul__, diag))
        got = inner_best_response_step(model, model.anchor, model.grad_anchor,
                                       L1Norm(1.0), Unconstrained())
        assert got == pytest.approx([1.0, 0.0])
        # per-coordinate golden-section oracle on 0.5*d v^2 - b v + |v|
        for i, (d, b) in enumerate([(2.0, 3.0), (2.0, -1.0)]):
            grid = np.linspace(-3, 3, 600001)
            brute = grid[np.argmin(0.5 * d * grid ** 2 - b * grid + np.abs(grid))]
            assert got[i] == pytest.approx(brute, abs=1e-5)

    def test_diag_zero_regularizer(self):
        diag = np.array([2.0])
        model = SurrogateModel(
            kind="quad_form", anchor=np.zeros(1),
            value_fn=lambda v: 0.0, grad_fn=lambda v: 2.0 * v - 4.0,
            grad_anchor=np.array([-4.0]), quad=QuadOperator(diag.__mul__, diag))
        got = inner_best_response_step(model, model.anchor, model.grad_anchor,
                                       Zero(), Unconstrained())
        assert got == pytest.approx([2.0])

    def test_dense_l1_requires_inner(self, rng):
        m = rng.standard_normal((4, 4))
        spd = m @ m.T + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        model = spd_model(spd, b, np.zeros(4))
        with pytest.raises(NoClosedFormError):
            solve_surrogate(model, L1Norm(0.5))
        problem = CompositeProblem(make_partition([4]), lambda x: 0.0,
                                   lambda x, k: np.zeros(4), (L1Norm(0.5),))
        got = inexact_inner_loop(model, problem, 0, SolverConfig(
            max_outer_iterations=0, inner_iterations=2000,
            stationarity_rtol=1e-13))
        # first-order optimality of the quad + l1 minimizer
        grad = spd @ got - b
        for i in range(4):
            if abs(got[i]) > 1e-10:
                assert grad[i] + 0.5 * np.sign(got[i]) == pytest.approx(0.0, abs=1e-8)
            else:
                assert abs(grad[i]) <= 0.5 + 1e-8
    def test_box_clipping(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3], box_halfwidth=0.1)
        x = np.zeros(3)
        model = make_quadratic_surrogate(problem, x, 0, 0.5)
        got = solve_surrogate(model, Zero(), problem.constraints[0])
        assert np.all(np.abs(got) <= 0.1 + 1e-15)

    def test_first_order_optimality_along_random_directions(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [5], l1_gain=0.2)
        x = rng.standard_normal(5)
        model = make_quadratic_surrogate(problem, x, 0, 1.3)
        reg = L1Norm(0.2)
        got = solve_surrogate(model, reg)
        base = model.value(got) + reg.value(got)
        for _ in range(100):
            direction = rng.standard_normal(5)
            eps = 1e-7
            probe = got + eps * direction
            slope = (model.value(probe) + reg.value(probe) - base) / eps
            assert slope >= -1e-8


class TestInnerSurrogate:
    def _quad_model(self, rng, n=5):
        m = rng.standard_normal((n, n))
        spd = m @ m.T + n * np.eye(n)
        b = rng.standard_normal(n)
        return spd_model(spd, b, rng.standard_normal(n))

    def test_gradient_matches_outer_at_inner_anchor(self, rng):
        model = self._quad_model(rng)
        x_tau = rng.standard_normal(5)
        inner = make_inner_surrogate(model, x_tau)
        assert np.allclose(inner.gradient(x_tau), model.gradient(x_tau),
                           rtol=1e-10)
        fd = finite_diff_block_gradient(
            lambda v: inner.value(v), x_tau, slice(0, 5), eps=1e-6)
        assert np.allclose(inner.gradient(x_tau), fd, atol=1e-5)

    def test_inner_step_is_coordinatewise_minimizer(self, rng):
        model = self._quad_model(rng)
        x_tau = rng.standard_normal(5)
        got = fresh_inner_step(model, x_tau, L1Norm(0.3), Unconstrained())
        d = model.quad.diagonal
        grad = model.quad.apply(x_tau) - linear_term(model)
        for i in range(5):
            # scalar surrogate in coordinate i, all others frozen at x_tau
            grid = np.linspace(x_tau[i] - 4, x_tau[i] + 4, 800001)
            vals = (0.5 * d[i] * (grid - x_tau[i]) ** 2 + grad[i] * (grid - x_tau[i])
                    + 0.3 * np.abs(grid))
            assert got[i] == pytest.approx(grid[np.argmin(vals)], abs=1e-5)

    def test_diagonal_model_one_shot(self, rng):
        diag = np.exp(rng.uniform(-1, 1, 4))
        b = rng.standard_normal(4)
        model = SurrogateModel(
            kind="quad_form", anchor=np.zeros(4),
            value_fn=lambda v: float(0.5 * (v * diag) @ v - v @ b),
            grad_fn=lambda v: diag * v - b, grad_anchor=-b,
            quad=QuadOperator(diag.__mul__, diag))
        got = fresh_inner_step(model, np.zeros(4), Zero(), Unconstrained())
        assert np.allclose(got, b / diag, rtol=1e-12)

    def test_inner_exact_stepsize_matches_golden(self, rng):
        model = self._quad_model(rng)
        x_tau = rng.standard_normal(5)
        reg = L1Norm(0.2)
        target = fresh_inner_step(model, x_tau, reg, Unconstrained())
        gamma = fresh_inner_stepsize(model, x_tau, target, reg)
        delta = target - x_tau
        phi = lambda g: (model.value(x_tau + g * delta)
                         + g * (reg.value(target) - reg.value(x_tau)))
        assert gamma == pytest.approx(golden_section(phi, tol=1e-12), abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_strict_convexity_probe_all_kinds(seed):
    gen = np.random.default_rng(seed)
    problem, hessian, target = random_quadratic_problem(gen, [3, 2])
    problem_c, comp = random_composition_problem(gen, [3, 2])
    x = gen.standard_normal(5)
    models = [
        make_quadratic_surrogate(problem, x, 0, 0.5),
        make_best_response_surrogate(problem, x, 0, "block"),
        make_best_response_surrogate(problem, x, 0, "elementwise"),
        make_partial_linearization_surrogate(comp, problem_c, x, 0, 0.5, "full"),
        make_partial_linearization_surrogate(comp, problem_c, x, 0, 0.5, "hybrid"),
    ]
    for model in models:
        u = gen.standard_normal(3)
        v = gen.standard_normal(3)
        if np.linalg.norm(u - v) < 1e-9:
            continue
        theta = float(gen.uniform(0.05, 0.95))
        mid = model.value(theta * u + (1 - theta) * v)
        chord = theta * model.value(u) + (1 - theta) * model.value(v)
        assert mid < chord + 1e-12 * max(1.0, abs(chord))
