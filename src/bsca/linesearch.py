"""Stepsize computation on [0, 1].

All searches operate on the constructed differentiable profile

    phi(gamma) = f(x + gamma * d) - f(x) + gamma * (g(B) - g(x)),

whose nonsmooth part enters only through the constant slope term, so the
profile is smooth even when g is not.  In both applications it is a
polynomial of degree at most 4, minimized exactly by comparing the
endpoints with the real roots of its derivative inside [0, 1], which
one bracketed bisection finds (``_roots_between``); a convex quadratic
has a closed form.  Without a polynomial profile the exact search scans
a grid and refines by golden section, and the successive search
backtracks (Armijo).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, LineSearchError

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class StepResult:
    """A stepsize in [0, 1] plus how it was found."""

    gamma: float
    armijo_exponent: int | None = None     # None for exact searches


@dataclass(frozen=True)
class ScalarProfile:
    """The polynomial profile
    (1/4) v4 g^4 + (1/3) v3 g^3 + (1/2) v2 g^2 + v1 g on [0, 1];
    a quadratic has v4 = v3 = 0."""

    v4: float
    v3: float
    v2: float
    v1: float

    def with_slope_offset(self, delta_g: float) -> "ScalarProfile":
        """Fold the nonsmooth slope term gamma * delta_g into the profile."""
        return ScalarProfile(self.v4, self.v3, self.v2, self.v1 + delta_g)

    def value(self, gamma: float) -> float:
        return gamma * (self.v1 + gamma * (0.5 * self.v2 + gamma * (
            self.v3 / 3.0 + gamma * 0.25 * self.v4)))

    def minimize(self) -> StepResult:
        """Exact minimizer over [0, 1]: a closed form for the convex
        quadratic; any other profile compares the endpoints with the real
        stationary points inside (``exact_quartic_step`` for v4 > 0)."""
        if self.v4 > 0.0:
            return exact_quartic_step(self.v4, self.v3, self.v2, self.v1)
        if self.v4 == self.v3 == 0.0 < self.v2:
            return exact_quadratic_step(self.v2, self.v1)
        return _polynomial_argmin(
            self, _roots_between(self.v4, self.v3, self.v2, self.v1, 0.0, 1.0))


def quadratic_profile(a2: float, a1: float) -> ScalarProfile:
    return ScalarProfile(0.0, 0.0, float(a2), float(a1))


def _polynomial_argmin(profile: ScalarProfile, stationary: list[float]) -> StepResult:
    """The endpoint or real stationary point in [0, 1] where the profile
    is least (ties go to the smaller gamma)."""
    candidates = [0.0, 1.0] + [g for g in stationary if 0.0 < g < 1.0]
    return StepResult(min(candidates, key=lambda g: (profile.value(g), g)))


# ---------------------------------------------------------------------------
# closed-form exact steps
# ---------------------------------------------------------------------------

def exact_quadratic_step(a2: float, a1: float) -> StepResult:
    """Minimize (1/2) a2 g^2 + a1 g over [0, 1]; requires a2 > 0."""
    if a2 <= 0.0:
        raise InvalidArgumentError("quadratic profile needs a2 > 0")
    return StepResult(min(1.0, max(0.0, -a1 / a2)))


def exact_quartic_step(v4: float, v3: float, v2: float, v1: float) -> StepResult:
    """Minimize (1/4)v4 g^4 + (1/3)v3 g^3 + (1/2)v2 g^2 + v1 g over [0, 1].

    The interior stationary points are the real roots of the derivative
    cubic inside [0, 1] (``_roots_between``); the quartic is evaluated at
    those roots and at both endpoints, and the argmin wins (ties go to the
    smaller gamma).  No coefficient spread needs a scan: the bracketing
    never divides by v4 and compares signs, not products.  Requires
    v4 > 0.
    """
    if v4 <= 0.0:
        raise InvalidArgumentError("quartic profile needs v4 > 0")
    return _polynomial_argmin(ScalarProfile(v4, v3, v2, v1),
                              _roots_between(v4, v3, v2, v1, 0.0, 1.0))


def _grid_golden(phi: Callable[[float], float], grid: int = 1000,
                 tol: float = 1e-12) -> StepResult:
    """Minimizer of ``phi`` on [0, 1] for an exact search without a
    polynomial profile: uniform scan, then a
    golden-section refine around the best grid point, which is kept when
    the refined point scores no better."""
    gammas = np.linspace(0.0, 1.0, grid + 1)
    values = [phi(g) for g in gammas]
    i = int(np.argmin(values))
    a, b = gammas[max(i - 1, 0)], gammas[min(i + 1, grid)]
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = phi(d)
    gamma = 0.5 * (a + b)
    if values[i] < phi(gamma):
        gamma = gammas[i]
    return StepResult(float(gamma))


# ---------------------------------------------------------------------------
# real roots of a polynomial of degree at most 3
# ---------------------------------------------------------------------------

def cubic_real_roots(c3: float, c2: float, c1: float, c0: float) -> np.ndarray:
    """Sorted real roots of c3 t^3 + c2 t^2 + c1 t + c0, c3 != 0, as an
    array: those of ``_roots_between`` over Cauchy's bound on the roots,
    |t| <= 1 + max |c_i / c3| (capped at the largest float)."""
    if c3 == 0.0:
        raise InvalidArgumentError("cubic needs a nonzero leading coefficient")
    bound = min(1.0 + max(abs(c2), abs(c1), abs(c0)) / abs(c3), sys.float_info.max)
    return np.array(_roots_between(c3, c2, c1, c0, -bound, bound))


def _roots_between(c3: float, c2: float, c1: float, c0: float,
                   lo: float, hi: float) -> list[float]:
    """Sorted real roots in [lo, hi] of p(t) = c3 t^3 + c2 t^2 + c1 t + c0,
    of any degree up to 3.

    The turning points of p cut [lo, hi] into pieces on which p is
    monotone.  A piece whose end values differ in sign is bisected to
    adjacent floats, and a cut where |p| is finite and within the rounding
    of its own evaluation, 8 eps sum |c_i t^i|, counts as a (repeated)
    root.  Signs are compared rather than multiplied, which would
    underflow for tiny coefficients, and p is never divided by c3, which
    would lose a tiny leading term.
    """
    def p(t: float) -> float:
        return ((c3 * t + c2) * t + c1) * t + c0

    cuts = [lo] + sorted({t for t in _turning_points(c3, c2, c1) if lo < t < hi}) + [hi]
    values = []
    for t in cuts:
        value, r = p(t), abs(t)
        floor = 8.0 * _EPS * (((abs(c3) * r + abs(c2)) * r + abs(c1)) * r + abs(c0))
        values.append(0.0 if math.isfinite(value) and abs(value) <= floor else value)
    roots = [t for t, value in zip(cuts, values) if value == 0.0]
    for (a, fa), (b, fb) in pairwise(zip(cuts, values)):
        if fa < 0.0 < fb or fb < 0.0 < fa:
            roots.append(_bisect(p, a, b, fa < 0.0))
    return sorted(roots)


def _turning_points(c3: float, c2: float, c1: float) -> list[float]:
    """Real roots of p' = 3 c3 t^2 + 2 c2 t + c1 by the cancellation-safe
    quadratic formula, on coefficients scaled so that the discriminant
    cannot overflow."""
    m = max(abs(c3), abs(c2), abs(c1))
    if m == 0.0:
        return []
    a, b, c = 3.0 * (c3 / m), 2.0 * (c2 / m), c1 / m
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def _bisect(p: Callable[[float], float], lo: float, hi: float,
            rising: bool) -> float:
    """The root of p, monotone on [lo, hi] with ends of opposite signs
    (negative at ``lo`` when ``rising``): halve to adjacent floats, then
    keep the end with the smaller |p|."""
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return lo if abs(p(lo)) <= abs(p(hi)) else hi
        value = p(mid)
        if value == 0.0:
            return mid
        if (value < 0.0) == rising:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# successive (Armijo) search and the descent quantity
# ---------------------------------------------------------------------------

def successive_step(phi_smooth: Callable[[float], float], delta_g: float,
                    d: float, alpha: float = 0.1, beta: float = 0.5) -> StepResult:
    """Smallest m <= 60 with phi(b^m) + b^m*delta_g <= phi(0) + alpha*b^m*d.

    ``d`` must be a strictly negative descent quantity; the inequality is
    checked on the constructed smooth profile, so g is never re-evaluated
    during backtracking.  No such m raises LineSearchError.
    """
    if not d < 0.0:
        raise LineSearchError(f"descent quantity must be negative, got {d}")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise InvalidArgumentError("alpha and beta must lie in (0, 1)")
    phi0 = phi_smooth(0.0)
    gamma = 1.0
    for m in range(61):
        if phi_smooth(gamma) + gamma * delta_g <= phi0 + alpha * gamma * d:
            return StepResult(gamma, m)
        gamma *= beta
    raise LineSearchError(
        f"no Armijo stepsize within 60 halvings (d={d}); "
        "the descent quantity or direction is suspect")


def descent_quantity(grad_k: np.ndarray, minimizer: np.ndarray,
                     x_k: np.ndarray, g_at_minimizer: float,
                     g_at_x: float) -> float:
    """(B - x_k)' grad + g(B) - g(x_k); negative certifies descent."""
    return float((minimizer - x_k) @ grad_k + g_at_minimizer - g_at_x)
