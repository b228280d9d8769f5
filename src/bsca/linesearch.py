"""Stepsize computation on [0, 1].

All searches operate on the constructed differentiable profile

    phi(gamma) = f(x + gamma * d) - f(x) + gamma * (g(B) - g(x)),

whose nonsmooth part enters only through the constant slope term, so the
profile is smooth even when g is not.  In both applications it is a
polynomial of degree at most 4 with a closed-form minimizer (the quartic
via the real roots of its derivative cubic); otherwise the exact search
scans a grid and refines by golden section, and the successive search
backtracks (Armijo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError, LineSearchError

_BRANCH_RTOL = 1e-12


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
        """Exact minimizer over [0, 1]: closed forms for the quartic with
        v4 > 0 and the convex quadratic; any other profile compares the
        endpoints with the real stationary points inside."""
        if self.v4 > 0.0:
            return exact_quartic_step(self.v4, self.v3, self.v2, self.v1)
        if self.v4 == self.v3 == 0.0 < self.v2:
            return exact_quadratic_step(self.v2, self.v1)
        # np.roots strips leading zeros, so this is the lower-degree case
        roots = np.roots([self.v4, self.v3, self.v2, self.v1])
        return _polynomial_argmin(self, roots.real[abs(roots.imag) < 1e-9].tolist())


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
    cubic; the quartic is evaluated at those roots inside [0, 1] and at
    both endpoints, and the argmin wins (ties go to the smaller gamma).
    Coefficient spreads that overflow the root formulas go to a grid and
    golden-section scan instead.  Requires v4 > 0.
    """
    if v4 <= 0.0:
        raise InvalidArgumentError("quartic profile needs v4 > 0")
    profile = ScalarProfile(v4, v3, v2, v1)
    try:
        roots = _cubic_roots(v4, v3, v2, v1)
    except OverflowError:
        return _grid_golden(profile.value)
    if not all(map(math.isfinite, roots)):
        return _grid_golden(profile.value)
    return _polynomial_argmin(profile, roots)


def _grid_golden(phi: Callable[[float], float], grid: int = 1000,
                 tol: float = 1e-12) -> StepResult:
    """Last-resort minimizer of ``phi`` on [0, 1]: uniform scan, then a
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
# cubic roots (Cardano with a trigonometric branch)
# ---------------------------------------------------------------------------

def cubic_real_roots(c3: float, c2: float, c1: float, c0: float) -> np.ndarray:
    """Sorted real roots of c3 t^3 + c2 t^2 + c1 t + c0, c3 != 0, as an
    array (``_cubic_roots``)."""
    return np.array(_cubic_roots(c3, c2, c1, c0))


def _cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Sorted real roots of c3 t^3 + c2 t^2 + c1 t + c0, c3 != 0, as
    Python floats.

    The depressed-cubic discriminant picks between the one-real-root
    Cardano branch (in the cancellation-safe u - p/(3u) form) and the
    trigonometric three-root branch, with repeated-root closed forms at
    the near-zero boundary.  Closed-form seeds are Newton-polished to
    convergence, the quadratic left after deflating the most accurate
    root supplies any root the trigonometric branch mangled (its arccos
    loses the moderate roots under extreme coefficient spreads), and
    only candidates with a rounding-level residual survive.
    """
    if c3 == 0.0:
        raise InvalidArgumentError("cubic needs a nonzero leading coefficient")
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    p = b - a * a / 3.0
    q = 2.0 * a ** 3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    half_q = -0.5 * q
    third_p = p / 3.0
    disc = half_q * half_q + third_p ** 3
    scale = max(half_q * half_q, abs(third_p) ** 3, 1e-300)

    if disc > _BRANCH_RTOL * scale:
        sq = math.sqrt(disc)
        t1 = half_q + sq if half_q >= 0.0 else half_q - sq
        u = math.copysign(abs(t1) ** (1.0 / 3.0), t1)
        s = u - third_p / u if u != 0.0 else 0.0
        seeds = [s + shift]
    elif disc < -_BRANCH_RTOL * scale:
        # three distinct real roots, p < 0 here
        rho = math.sqrt(-third_p)
        cosarg = min(1.0, max(-1.0, half_q / rho ** 3))
        theta = math.acos(cosarg)
        seeds = [2.0 * rho * math.cos((theta - 2.0 * math.pi * j) / 3.0) + shift
                 for j in range(3)]
    else:
        if abs(p) ** 3 <= 1e-300 or abs(third_p) ** 3 <= _BRANCH_RTOL * scale:
            seeds = [shift]                       # triple root
        else:
            seeds = [3.0 * q / p + shift,         # simple root
                     -1.5 * q / p + shift]        # double root

    candidates = [_newton_polish(t, a, b, c) for t in seeds]
    best = min(candidates, key=lambda t: _residual_quality(t, a, b, c))
    candidates.extend(_deflated_pair(best, a, b, c))
    roots = sorted(t for t in candidates
                   if _residual_quality(t, a, b, c) <= 64.0)
    unique: list[float] = []
    for r in roots:
        if not unique or abs(r - unique[-1]) > 1e-10 * max(1.0, abs(r)):
            unique.append(r)
    if not unique:
        # a cubic always has one real root; Newton can step off a flat
        # (triple) root, so the raw seeds compete with the polished ones
        unique = [min([best] + seeds, key=lambda t: _residual_quality(t, a, b, c))]
    while len(unique) > 3:
        # rounding can leave a cluster around a repeated root; merge the
        # closest pair until the algebra is respected
        gaps = [unique[i + 1] - unique[i] for i in range(len(unique) - 1)]
        i = gaps.index(min(gaps))
        unique[i:i + 2] = [0.5 * (unique[i] + unique[i + 1])]
    return unique


def _residual_quality(t: float, a: float, b: float, c: float) -> float:
    """|p(t)| against the rounding floor of its own evaluation."""
    val = ((t + a) * t + b) * t + c
    floor = 1e-16 * (abs(t) ** 3 + abs(a) * t * t + abs(b * t) + abs(c) + 1e-300)
    return abs(val) / floor


def _deflated_pair(root: float, a: float, b: float, c: float) -> list[float]:
    """Real roots of the quadratic left after dividing ``root`` out of the
    monic cubic, via the cancellation-safe quadratic formula, polished.

    Forward deflation (``lin = a + root``, ``const = b + root * lin``)
    cancels when ``root`` dominates the other two roots and can then make
    a real pair look complex, so a pair it finds complex is tried again
    divided out backward (``const = -c / root``, ``lin = (const - b) /
    root``), which is stable for a dominant root.  A discriminant within
    rounding of zero counts as a double root.
    """
    lin = a + root
    forms = [(lin, b + root * lin)]
    if root != 0.0:
        const = -c / root
        forms.append(((const - b) / root, const))
    for lin, const in forms:
        disc = lin * lin - 4.0 * const
        if disc >= 0.0:
            sq = math.sqrt(disc)
            major = -0.5 * (lin + math.copysign(sq, lin))
            pair = (major, const / major) if major != 0.0 else (0.0,)
            return [_newton_polish(t, a, b, c) for t in pair]
        if disc >= -4e-12 * (lin * lin + 4.0 * abs(const)):
            # barely negative: a double root split by coefficient
            # rounding.  The double point is a critical point of the
            # cubic, from which a Newton step runs off to another root,
            # so it goes unpolished to the residual filter (a genuinely
            # complex pair fails it)
            return [-0.5 * lin]
    return []


def _newton_polish(t: float, a: float, b: float, c: float,
                   max_iterations: int = 60) -> float:
    # plain Newton converges linearly on repeated roots, hence the budget
    for _ in range(max_iterations):
        val = ((t + a) * t + b) * t + c
        der = (3.0 * t + 2.0 * a) * t + b
        if der == 0.0:
            break
        step = val / der
        t -= step
        if abs(step) <= 1e-16 * max(1.0, abs(t)):
            break
    return t


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
