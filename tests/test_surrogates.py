import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsca.core import (
    Box,
    CompositeProblem,
    L1Norm,
    SolverConfig,
    Unconstrained,
    Zero,
    make_partition,
)
from bsca.engine import inexact_inner_loop, quadratic_solver
from bsca.errors import InvalidArgumentError, NoClosedFormError
from bsca.linesearch import quadratic_profile
from bsca.phase_retrieval import pr_outer_model, pr_problem
from bsca.surrogates import (
    QuadOperator,
    SurrogateModel,
    inner_best_response_step,
    make_quadratic_surrogate,
    soft_threshold,
)

from conftest import (
    diagonal_operator,
    fresh_inner_step,
    fresh_inner_stepsize,
    linear_term,
    model_gradient,
    model_value,
    random_quadratic_problem,
    small_pr_instance,
    spd_model,
    whole_diagonal,
)
from oracles import (
    finite_diff_block_gradient,
    golden_section,
    inner_best_response_reference,
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

    _EDGES = st.sampled_from([0.0, -0.0, np.inf, -np.inf])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_EDGES, st.floats(allow_nan=False, width=64)),
                    min_size=1, max_size=16),
           st.data())
    def test_same_bits_as_the_formula_at_edge_values(self, values, data):
        b = np.array(values)
        # a scalar or an entrywise threshold, some entries at |b|
        threshold = st.one_of(st.sampled_from([0.0, np.inf]),
                              st.floats(min_value=0.0, allow_nan=False, width=64))
        if data.draw(st.booleans()):
            a = data.draw(threshold)
        else:
            a = np.array([abs(v) if data.draw(st.booleans()) else data.draw(threshold)
                          for v in values])
        with np.errstate(invalid="ignore", over="ignore"):    # inf - inf, -b - a
            expected = np.maximum(b - a, 0.0) - np.maximum(-b - a, 0.0)
            got = soft_threshold(b, a)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()
        assert not np.any(np.signbit(got[got == 0.0]))    # +0.0 where killed

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
        grad = problem.block_gradient(x, 0)
        assert np.allclose(model_gradient(model, anchor), grad, rtol=1e-10)
        # the model's rise from its anchor is grad'h + (c/2) ||h||^2
        h = rng.standard_normal(3)
        rise = model_value(model, anchor + h) - model_value(model, anchor)
        assert rise == pytest.approx(grad @ h + h @ h, rel=1e-10)

    def test_one_dimensional_minimizer(self):
        # grad 2 at anchor 0 with unit curvature: gradient step to -2
        problem, _, _ = random_quadratic_problem(np.random.default_rng(0), [1])
        unit = np.array([1.0])
        model = SurrogateModel(np.array([0.0]), np.array([2.0]),
                               diagonal_operator(unit))
        got = inner_best_response_step(model, model.anchor, model.grad_anchor,
                                       Zero(), Unconstrained())
        assert got == pytest.approx([-2.0])

    def test_rejects_bad_curvature(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [2])
        with pytest.raises(InvalidArgumentError):
            make_quadratic_surrogate(problem, np.zeros(2), 0, 0.0)

    def test_gradient_step_identity_bitwise(self, rng):
        # with g = 0 the minimizer is exactly anchor - grad/c
        problem, _, _ = random_quadratic_problem(rng, [4])
        x = rng.standard_normal(4)
        model = make_quadratic_surrogate(problem, x, 0, 0.37)
        got = quadratic_solver(0.37)(problem, x, 0).minimizer
        expected = model.anchor - model.grad_anchor / 0.37
        assert np.array_equal(got, expected)

    def test_l1_closed_form(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [4], l1_gain=0.3)
        x = rng.standard_normal(4)
        model = make_quadratic_surrogate(problem, x, 0, 1.7)
        got = quadratic_solver(1.7)(problem, x, 0).minimizer
        expected = soft_threshold(model.anchor - model.grad_anchor / 1.7, 0.3 / 1.7)
        assert np.array_equal(got, expected)


class TestSolveSurrogate:
    """The closed forms: ``quadratic_solver`` and, for a diagonal D, one
    elementwise best response at the anchor."""

    def test_diag_l1_example(self):
        # a diagonal model is minimized by one elementwise best response
        # at its anchor
        diag = np.array([2.0, 2.0])
        model = SurrogateModel(np.zeros(2), np.array([-3.0, 1.0]),
                               diagonal_operator(diag))
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
        model = SurrogateModel(np.zeros(1), np.array([-4.0]),
                               diagonal_operator(diag))
        got = inner_best_response_step(model, model.anchor, model.grad_anchor,
                                       Zero(), Unconstrained())
        assert got == pytest.approx([2.0])

    def test_a_regularizer_without_a_closed_form_is_rejected(self):
        class Squared:
            def value(self, v):
                return float(v @ v)

        model = SurrogateModel(np.zeros(2), np.ones(2),
                               diagonal_operator(np.full(2, 2.0)))
        with pytest.raises(NoClosedFormError, match="Squared"):
            inner_best_response_step(model, model.anchor, model.grad_anchor,
                                     Squared(), Unconstrained())

    def test_dense_l1_requires_inner(self, rng):
        m = rng.standard_normal((4, 4))
        spd = m @ m.T + 4.0 * np.eye(4)
        b = rng.standard_normal(4)
        model = spd_model(spd, b, np.zeros(4))
        problem = CompositeProblem(make_partition([4]), lambda x: 0.0,
                                   lambda x, k: np.zeros(4),
                                   lambda x, d, block=None: quadratic_profile(0.0, 0.0),
                                   (L1Norm(0.5),))
        got = inexact_inner_loop(model, problem, 0, SolverConfig(
            max_outer_iterations=0, inner_iterations=2000))
        # first-order optimality of the quad + l1 minimizer
        grad = spd @ got - b
        for i in range(4):
            if abs(got[i]) > 1e-10:
                assert grad[i] + 0.5 * np.sign(got[i]) == pytest.approx(0.0, abs=1e-8)
            else:
                assert abs(grad[i]) <= 0.5 + 1e-8

    def test_box_clipping(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [3], box_halfwidth=0.1)
        got = quadratic_solver(0.5)(problem, np.zeros(3), 0).minimizer
        assert np.all(np.abs(got) <= 0.1 + 1e-15)

    def test_first_order_optimality_along_random_directions(self, rng):
        problem, _, _ = random_quadratic_problem(rng, [5], l1_gain=0.2)
        x = rng.standard_normal(5)
        model = make_quadratic_surrogate(problem, x, 0, 1.3)
        reg = L1Norm(0.2)
        got = quadratic_solver(1.3)(problem, x, 0).minimizer
        base = model_value(model, got) + reg.value(got)
        for _ in range(100):
            direction = rng.standard_normal(5)
            eps = 1e-7
            probe = got + eps * direction
            slope = (model_value(model, probe) + reg.value(probe) - base) / eps
            assert slope >= -1e-8


class TestOnDemandBestResponse:
    """``inner_best_response_step`` reads D's diagonal only on the
    entries that can come out nonzero, and every entry keeps the bytes
    of the whole-diagonal formula (``inner_best_response_reference``)."""

    SIZE = 64

    def case(self, gen):
        """A random diagonal and gain, an inner iterate with about half its
        entries 0 (some -0.0), and a gradient whose entries on about half
        of those lie a few ulps from the gain or from the skip margin
        ``gain (1 - 1e-12)``, on both sides."""
        size = self.SIZE
        diag = np.exp(gen.uniform(-3.0, 3.0, size))
        gain = float(np.exp(gen.uniform(-2.0, 2.0)))
        x_tau = gen.standard_normal(size)
        x_tau[gen.random(size) < 0.5] = 0.0
        x_tau[(x_tau == 0.0) & (gen.random(size) < 0.2)] = -0.0
        grad = gain * gen.uniform(-2.0, 2.0, size)
        edge = np.where(gen.random(size) < 0.5, gain, gain * (1.0 - 1e-12))
        near = edge + gen.integers(-6, 7, size) * np.spacing(edge)
        sign = np.where(gen.random(size) < 0.5, -1.0, 1.0)
        grad = np.where(gen.random(size) < 0.5, sign * near, grad)
        return diag, gain, x_tau, grad

    def constraints(self, gen):
        size = self.SIZE
        lower = np.where(gen.random(size) < 0.5, 0.1, -2.0)    # 0 excluded where 0.1
        return (Unconstrained(), Box(-np.ones(size), np.ones(size)),
                Box(np.full(size, 0.25), np.full(size, 2.0)),
                Box(lower, np.full(size, 2.0)))

    def test_entries_keep_the_bytes_of_the_whole_diagonal_formula(self):
        gen = np.random.default_rng(808)
        zero_at_edge = nonzero_at_edge = 0
        for _ in range(40):
            diag, gain, x_tau, grad = self.case(gen)
            reads = []

            def diagonal(index):
                reads.append(index.copy())
                return diag[index]

            model = SurrogateModel(np.zeros(self.SIZE), np.zeros(self.SIZE),
                                   QuadOperator(diag.__mul__, diagonal))
            for reg in (L1Norm(gain), Zero()):
                for constraint in self.constraints(gen):
                    reads.clear()
                    got = inner_best_response_step(model, x_tau, grad, reg, constraint)
                    expected = inner_best_response_reference(diag, x_tau, grad,
                                                             reg, constraint)
                    assert got.tobytes() == expected.tobytes()
                    read = np.unique(np.concatenate(reads))
                    if isinstance(reg, Zero):
                        assert np.array_equal(read, np.arange(self.SIZE))
                        continue
                    skipped = (x_tau == 0.0) & (np.abs(grad) <= gain * (1.0 - 1e-12))
                    assert np.array_equal(read, np.flatnonzero(~skipped))
            edge = (x_tau == 0.0) & (np.abs(np.abs(grad) - gain) <= 8 * np.spacing(gain))
            shrunk = inner_best_response_reference(diag, x_tau, grad, L1Norm(gain),
                                                   Unconstrained())
            zero_at_edge += np.count_nonzero(edge & (shrunk == 0.0))
            nonzero_at_edge += np.count_nonzero(edge & (shrunk != 0.0))
        # entries a few ulps from the gain came out both zero and nonzero
        assert zero_at_edge > 0 and nonzero_at_edge > 0


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
        assert np.allclose(model_gradient(inner, x_tau), model_gradient(model, x_tau),
                           rtol=1e-10)
        fd = finite_diff_block_gradient(
            lambda v: model_value(inner, v), x_tau, slice(0, 5), eps=1e-6)
        assert np.allclose(model_gradient(inner, x_tau), fd, atol=1e-5)

    def test_inner_step_is_coordinatewise_minimizer(self, rng):
        model = self._quad_model(rng)
        x_tau = rng.standard_normal(5)
        got = fresh_inner_step(model, x_tau, L1Norm(0.3), Unconstrained())
        d = whole_diagonal(model)
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
        model = SurrogateModel(np.zeros(4), -b, diagonal_operator(diag))
        got = fresh_inner_step(model, np.zeros(4), Zero(), Unconstrained())
        assert np.allclose(got, b / diag, rtol=1e-12)

    def test_inner_exact_stepsize_matches_golden(self, rng):
        model = self._quad_model(rng)
        x_tau = rng.standard_normal(5)
        reg = L1Norm(0.2)
        target = fresh_inner_step(model, x_tau, reg, Unconstrained())
        gamma = fresh_inner_stepsize(model, x_tau, target, reg)
        delta = target - x_tau
        phi = lambda g: (model_value(model, x_tau + g * delta)
                         + g * (reg.value(target) - reg.value(x_tau)))
        assert gamma == pytest.approx(golden_section(phi, tol=1e-12), abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_strict_convexity_probe_all_kinds(seed):
    # the proximal-linear model and the phase-retrieval partial
    # linearization on a small random instance
    gen = np.random.default_rng(seed)
    problem, _, _ = random_quadratic_problem(gen, [3, 2])
    problem_pr = pr_problem(small_pr_instance(gen, [3, 2]))
    x = gen.standard_normal(5)
    models = [
        make_quadratic_surrogate(problem, x, 0, 0.5),
        pr_outer_model(problem_pr, x, 0, 0.5),
    ]
    for model in models:
        u = gen.standard_normal(3)
        v = gen.standard_normal(3)
        if np.linalg.norm(u - v) < 1e-9:
            continue
        theta = float(gen.uniform(0.05, 0.95))
        mid = model_value(model, theta * u + (1 - theta) * v)
        chord = theta * model_value(model, u) + (1 - theta) * model_value(model, v)
        assert mid < chord + 1e-12 * max(1.0, abs(chord))
