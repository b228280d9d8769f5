import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsca.core import L1Norm, Zero
from bsca.errors import InvalidArgumentError, LineSearchError
from bsca.linesearch import (
    ScalarProfile,
    cubic_real_roots,
    descent_quantity,
    exact_quadratic_step,
    exact_quartic_step,
    quadratic_profile,
    successive_step,
)

from oracles import golden_section, real_cubic_roots


class TestExactQuadraticStep:
    def test_clipped_to_one(self):
        # profile 0.5*(0.8 g - 1)^2 + 0.08 g up to a constant: minimizer past 1
        step = exact_quadratic_step(0.64, -0.72)
        assert step.gamma == 1.0
        oracle = golden_section(lambda g: 0.5 * (0.8 * g - 1.0) ** 2 + 0.08 * g)
        assert oracle == pytest.approx(1.0, abs=1e-8)

    def test_stationary(self):
        assert exact_quadratic_step(1.0, 0.0).gamma == 0.0

    def test_interior(self):
        assert exact_quadratic_step(2.0, -1.0).gamma == pytest.approx(0.5)

    def test_rejects_nonconvex(self):
        with pytest.raises(InvalidArgumentError):
            exact_quadratic_step(0.0, -1.0)


class TestExactQuarticStep:
    @pytest.mark.parametrize("coeffs,expected", [
        ((1.0, 0.0, 0.0, -1.0), 1.0),   # single real root at 1
        ((1.0, 0.0, 0.0, -8.0), 1.0),   # interior root 2 clipped
        ((1.0, -3.0, 3.0, -1.0), 1.0),  # triple root at 1
        ((2.0, 0.0, -4.0, 0.0), 1.0),   # candidates {0,1}: lower at 1
    ])
    def test_known_minimizers(self, coeffs, expected):
        assert exact_quartic_step(*coeffs).gamma == pytest.approx(expected, abs=1e-9)

    def test_candidate_tie_prefers_smaller(self):
        # symmetric double well g^2(g-1)^2 ... as quartic derivative form:
        # profile 0.25*g^4*... use v-coeffs of (g^2 - g)^2 = g^4 - 2g^3 + g^2
        step = exact_quartic_step(4.0, -6.0, 2.0, 0.0)
        assert step.gamma == 0.0

    def test_rejects_nonconvex_leading(self):
        with pytest.raises(InvalidArgumentError):
            exact_quartic_step(-1.0, 0.0, 0.0, 0.0)

    def test_tiny_quartic_term_keeps_the_quadratic_minimizer(self):
        # 0.25e-150 g^4 + 0.5 g^2 - 0.5 g is least at 0.5 up to 1e-150
        step = exact_quartic_step(1e-150, 0.0, 1.0, -0.5)
        assert step.gamma == pytest.approx(0.5, abs=1e-9)
        assert step.armijo_exponent is None

    def test_tiny_coefficients_need_no_scan(self):
        # an increasing profile keeps the left endpoint, found from the
        # roots of its derivative alone
        assert exact_quartic_step(1e-300, 1e-300, 1e-300, 1.0).gamma == 0.0

    @pytest.mark.parametrize("v3, gamma", [(1e120, 0.0), (-1e120, 1.0)])
    def test_a_huge_cubic_term_keeps_an_endpoint(self, v3, gamma):
        # the profile rises (falls) across the whole of [0, 1]
        assert exact_quartic_step(1.0, v3, 1.0, 1.0).gamma == gamma

    @pytest.mark.parametrize("coeffs, gamma", [
        # the derivative 5e-324 g^3 + g^2 + g - 1: a leading term that a
        # monic form would blow up to overflow
        ((5e-324, 1.0, 1.0, -1.0), (np.sqrt(5.0) - 1.0) / 2.0),
        # every coefficient near 1e-200, where products of values underflow
        ((1e-200, 1e-200, 1e-200, -1e-200), 0.5436890126920764),
    ])
    def test_extreme_coefficients_keep_the_root(self, coeffs, gamma):
        assert exact_quartic_step(*coeffs).gamma == pytest.approx(gamma, abs=1e-15)

    def test_derivative_with_a_double_root_inside(self):
        # the derivative (g - 0.25)^2 (g - 0.75): a flat point at 0.25
        # and the minimizer at 0.75
        coeffs = (1.0, -1.25, 0.4375, -0.046875)
        assert cubic_real_roots(*coeffs) == pytest.approx([0.25, 0.75], abs=1e-7)
        assert exact_quartic_step(*coeffs).gamma == pytest.approx(0.75, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_wide_coefficient_spread_matches_golden(self, seed):
        # coefficients spanning six orders of magnitude independently
        gen = np.random.default_rng(seed)
        v4 = 10.0 ** gen.uniform(-3, 3)
        v3, v2, v1 = (10.0 ** gen.uniform(-3, 3, 3)
                      * gen.choice([-1.0, 1.0], 3)).tolist()
        step = exact_quartic_step(v4, v3, v2, v1)
        profile = ScalarProfile(v4, v3, v2, v1)
        oracle = golden_section(profile.value, tol=1e-12, grid=1000)
        assert (abs(step.gamma - oracle) <= 1e-6
                or abs(profile.value(step.gamma) - profile.value(oracle))
                <= 1e-10 * max(1.0, abs(profile.value(oracle))))


class TestCubicRoots:
    def test_unit_root(self):
        assert cubic_real_roots(1, 0, 0, -1) == pytest.approx([1.0])

    def test_three_roots(self):
        assert cubic_real_roots(1, 0, -1, 0) == pytest.approx([-1.0, 0.0, 1.0])

    def test_triple_root(self):
        assert cubic_real_roots(1, -3, 3, -1) == pytest.approx([1.0], abs=1e-9)

    def test_double_plus_simple(self):
        assert cubic_real_roots(1, 0, -3, 2) == pytest.approx([-2.0, 1.0], abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @example(27091)    # roots -4.9e-4, 8.7e-6 and 3.6e4: nine orders of magnitude apart
    @example(11)       # a pair 4e-7 apart at 4.08 and a third root at 3.67
    @example(120817)   # a triple root at -1.54
    @example(27)       # a pair 4e-6 apart at 2.33 and a third root at 2.89
    def test_hard_root_configurations(self, seed):
        # near-double, triple and widely spread roots; the answer must
        # stay within the root's own conditioning radius and the root
        # count within the algebra
        gen = np.random.default_rng(seed)
        kind = int(gen.integers(3))
        if kind == 0:
            # pair separations below ~1e-7, or a third root crowding the
            # pair, put the split inside the rounding ambiguity radius
            # where real-versus-complex is genuinely undecidable
            r2 = float(gen.standard_normal() * 3)
            r1 = float(gen.standard_normal() * 3)
            while abs(r1 - r2) < 0.1:
                r1 = float(gen.standard_normal() * 3)
            roots_true = [r1, r2, r2 + 10.0 ** gen.uniform(-6.5, -3)]
        elif kind == 1:
            r = float(gen.standard_normal() * 2)
            roots_true = [r, r, r]
        else:
            roots_true = [float(gen.standard_normal()),
                          float(gen.standard_normal() * 1e-5),
                          float(gen.standard_normal() * 1e5)]
        c3 = 10.0 ** gen.uniform(-2, 2)
        s1, s2, s3 = roots_true
        got = cubic_real_roots(c3, -c3 * (s1 + s2 + s3),
                               c3 * (s1 * s2 + s1 * s3 + s2 * s3),
                               -c3 * s1 * s2 * s3)
        assert 1 <= got.size <= 3
        for i, r in enumerate(roots_true):
            nearest_other = min(abs(r - o) for j, o in enumerate(roots_true)
                                if j != i)
            tol = 1e-7 if nearest_other > 1e-2 else 2e-4
            assert np.min(np.abs(got - r)) <= tol * max(1.0, abs(r)), (
                roots_true, got)

    def test_a_cubic_needs_a_nonzero_leading_coefficient(self):
        with pytest.raises(InvalidArgumentError, match="nonzero leading"):
            cubic_real_roots(0.0, 1.0, 1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_matches_oracles(self, seed):
        gen = np.random.default_rng(seed)
        c3 = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        c2, c1, c0 = (c3 * gen.standard_normal(3) * 3.0).tolist()
        mine = cubic_real_roots(c3, c2, c1, c0)
        brute = real_cubic_roots(c3, c2, c1, c0)
        companion = np.sort([float(np.real(r)) for r in np.roots([c3, c2, c1, c0])
                             if abs(np.imag(r)) < 1e-9 * max(1.0, abs(r))])
        assert mine.size >= 1
        for root in mine:
            assert np.min(np.abs(companion - root)) <= 1e-8 * max(1.0, abs(root))
        for root in brute:
            assert np.min(np.abs(mine - root)) <= 1e-8 * max(1.0, abs(root))


def _smallest_armijo_exponent(phi, delta_g, d, alpha, beta, m_max=60):
    # direct evaluation of the acceptance inequality, independent of the
    # implementation's loop
    for m in range(m_max + 1):
        gamma = beta ** m
        if phi(gamma) + gamma * delta_g <= phi(0.0) + alpha * gamma * d:
            return m
    return None


class TestSuccessiveStep:
    def test_full_step_accepted(self):
        phi = lambda g: 0.5 * (1.0 - g) ** 2
        step = successive_step(phi, 0.0, -1.0, alpha=0.5, beta=0.5)
        assert step.gamma == 1.0 and step.armijo_exponent == 0

    def test_backtracks_with_demanding_alpha(self):
        phi = lambda g: 0.5 * (1.0 - g) ** 2
        expected = _smallest_armijo_exponent(phi, 0.0, -1.0, 0.9, 0.5)
        step = successive_step(phi, 0.0, -1.0, alpha=0.9, beta=0.5)
        assert step.armijo_exponent == expected
        assert step.gamma == pytest.approx(0.5 ** expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_agrees_with_direct_evaluation(self, seed):
        gen = np.random.default_rng(seed)
        a2 = float(np.exp(gen.uniform(-2, 2)))
        d = -float(np.exp(gen.uniform(-2, 1)))
        delta_g = float(gen.normal() * 0.1)
        phi = lambda g: 0.5 * a2 * g * g + (d - delta_g) * g
        alpha = float(gen.uniform(0.05, 0.95))
        beta = float(gen.uniform(0.1, 0.9))
        expected = _smallest_armijo_exponent(phi, delta_g, d, alpha, beta)
        step = successive_step(phi, delta_g, d, alpha=alpha, beta=beta)
        assert step.armijo_exponent == expected

    def test_nonnegative_descent_rejected_before_probing(self):
        calls = []

        def phi(g):
            calls.append(g)
            return 0.0

        with pytest.raises(LineSearchError):
            successive_step(phi, 0.0, 0.0)
        assert calls == []

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.5), (1.0, 0.5),
                                             (0.1, 0.0), (0.1, 1.0)])
    def test_alpha_and_beta_must_lie_inside_the_unit_interval(self, alpha, beta):
        with pytest.raises(InvalidArgumentError, match=r"\(0, 1\)"):
            successive_step(lambda g: -g, 0.0, -1.0, alpha=alpha, beta=beta)

    def test_exhaustion_raises(self):
        # ascending profile with a bogus negative descent quantity
        with pytest.raises(LineSearchError):
            successive_step(lambda g: 10.0 * g, 0.0, -1e-6)


class TestDescentQuantity:
    def test_zero_displacement(self):
        x = np.array([1.0, 2.0])
        assert descent_quantity(np.array([3.0, -1.0]), x - x,
                                L1Norm(0.7).change(x, x)) == 0.0

    def test_inner_product(self):
        minimizer, xk = np.array([0.0, 5.0]), np.array([1.0, 5.0])
        d = descent_quantity(np.array([1.0, 0.0]), minimizer - xk,
                             Zero().change(xk, minimizer))
        assert d == pytest.approx(-1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_negative_at_exact_minimizer(self, seed):
        # strictly convex quadratic surrogate + l1; its exact minimizer
        # must be a descent direction unless it coincides with the anchor
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 6))
        diag = np.exp(gen.uniform(-1, 1, n))
        anchor = gen.standard_normal(n)
        grad = gen.standard_normal(n)
        gain = float(np.exp(gen.uniform(-3, 0)))
        # minimizer of grad'(v-a) + 0.5 (v-a)'diag(v-a) + gain |v|_1
        from bsca.surrogates import soft_threshold
        minimizer = soft_threshold(anchor - grad / diag, gain / diag)
        if np.linalg.norm(minimizer - anchor) < 1e-12:
            return
        d = descent_quantity(grad, minimizer - anchor,
                             L1Norm(gain).change(anchor, minimizer))
        assert d < 0.0


class TestProfiles:
    def test_slope_offset_folding(self):
        prof = ScalarProfile(1.0, 0.0, 0.0, -1.0).with_slope_offset(0.5)
        assert prof.v1 == pytest.approx(-0.5)
        assert prof.value(1.0) == pytest.approx(0.25 - 0.5)

    def test_degenerate_quartic_cascades(self):
        prof = ScalarProfile(0.0, 0.0, 2.0, -1.0)
        assert prof.minimize().gamma == pytest.approx(0.5)

    def test_quadratic_is_a_quartic_without_leading_terms(self):
        assert quadratic_profile(2.0, -1.0) == ScalarProfile(0.0, 0.0, 2.0, -1.0)

    def test_cubic_profile(self):
        # (1/3) g^3 - g: stationary at g = 1, value -2/3
        assert ScalarProfile(0.0, 1.0, 0.0, -1.0).minimize().gamma == pytest.approx(1.0)
        # -(1/3) g^3 + (1/2) g^2: stationary at 0 and 1, lowest at 0
        assert ScalarProfile(0.0, -1.0, 1.0, 0.0).minimize().gamma == 0.0

    def test_linear_profile(self):
        assert quadratic_profile(0.0, -2.0).minimize().gamma == 1.0
        assert quadratic_profile(0.0, 2.0).minimize().gamma == 0.0

    def test_tiny_coefficients_keep_the_root(self):
        # the derivative 1e-200 (g^2 + g - 1), whose products underflow
        got = ScalarProfile(0.0, 1e-200, 1e-200, -1e-200).minimize().gamma
        assert got == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)

    @pytest.mark.parametrize("profile, gamma", [
        # the derivatives (g - 0.5)^2 and -(g - 0.5)^2: monotone through
        # a flat point, so an endpoint wins
        (ScalarProfile(0.0, 1.0, -1.0, 0.25), 0.0),
        (ScalarProfile(0.0, -1.0, 1.0, -0.25), 1.0),
    ])
    def test_derivative_with_a_double_root_inside(self, profile, gamma):
        assert profile.minimize().gamma == gamma

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_profiles_without_a_positive_quartic_term_match_golden(self, seed):
        # a cubic, a line, or a negative leading coefficient, at the
        # bars of acceptance criterion 3
        gen = np.random.default_rng(seed)
        scale = float(np.exp(gen.uniform(np.log(1e-3), np.log(1e3))))
        v4, v3, v2, v1 = (gen.standard_normal(4) * scale * 2.0).tolist()
        kind = int(gen.integers(3))
        if kind == 0:
            v4 = 0.0
        elif kind == 1:
            v4 = v3 = v2 = 0.0
        else:
            v4 = -abs(v4)
        profile = ScalarProfile(v4, v3, v2, v1)
        step = profile.minimize()
        oracle = golden_section(profile.value, tol=1e-12, grid=1000)
        assert (abs(step.gamma - oracle) <= 1e-6
                or abs(profile.value(step.gamma) - profile.value(oracle))
                <= 1e-10 * max(1.0, abs(profile.value(oracle))))

    @pytest.mark.parametrize("profile, gamma, value", [
        (quadratic_profile(-2.0, 0.5), 1.0, -0.5),
        (ScalarProfile(-1.0, 0.0, 0.0, 0.0), 1.0, -0.25),
        # -(1/4) g^4 + g^3 - 0.1 g: the stationary point of the full
        # cubic derivative, not of its last three terms (0.18257)
        (ScalarProfile(-1.0, 3.0, 0.0, -0.1), 0.18860, -0.0124678),
    ])
    def test_negative_leading_coefficient_is_kept(self, profile, gamma, value):
        got = profile.minimize().gamma
        assert got == pytest.approx(gamma, abs=1e-5)
        assert profile.value(got) == pytest.approx(value, abs=1e-7)

