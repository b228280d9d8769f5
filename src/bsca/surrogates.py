"""Strictly convex per-block approximation models and their solvers.

Five catalog kinds: quadratic (proximal-linear), elementwise and block
best-response, partial linearization and its elementwise hybrid.  Every
model shares the block gradient of f at its anchor, which is what makes
the surrogate minimizer a descent direction for the original problem.

A quadratic model gives D as a ``QuadOperator``.  The one closed form
is the proximal-linear model's (D = cI) with g in {0, l1}, box
constraints clipped; the rest goes through the inexact inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    CompositeProblem,
    Constraint,
    L1Norm,
    Regularizer,
    Unconstrained,
    Zero,
)
from .errors import InvalidArgumentError, NoClosedFormError
from .linesearch import exact_quadratic_step


def soft_threshold(b: np.ndarray, a) -> np.ndarray:
    """Elementwise shrinkage max(b - a, 0) - max(-b - a, 0), a >= 0."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0):
        raise InvalidArgumentError("threshold entries must be nonnegative")
    # sign(b) max(|b| - a, 0), worked in place: the same bits as the
    # formula above with two full-size temporaries instead of six; adding
    # 0.0 turns the -0.0 that copysign leaves at killed negative entries
    # back into +0.0
    out = np.asarray(np.abs(b) - a)
    np.maximum(out, 0.0, out=out)
    np.copysign(out, b, out=out)
    out += 0.0
    return out


@dataclass(frozen=True)
class QuadOperator:
    """D given by its action ``v -> Dv`` (for the exact inner stepsize)
    and its diagonal (for the elementwise best response), never formed.

    The action may keep state for the model's life: the one from
    ``phase_retrieval.pr_outer_model`` caches columns of D for a sparse
    argument (at most 32 nonzeros) over one block visit."""

    apply: Callable[[np.ndarray], np.ndarray]
    diagonal: np.ndarray


@dataclass(frozen=True)
class SurrogateModel:
    """One strictly convex approximation of f along block k at an anchor.

    ``grad_anchor`` is the problem's block gradient at the anchor, which
    equals ``gradient(anchor)`` for every catalog kind.  A quadratic
    model, (1/2) v'Dv - v'b up to a constant, sets ``quad`` to its D.
    """

    kind: str
    anchor: np.ndarray
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    grad_anchor: np.ndarray
    quad: QuadOperator | None = None
    is_global_upper_bound: bool = False

    def value(self, v: np.ndarray) -> float:
        return float(self.value_fn(np.asarray(v, dtype=float)))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        return self.grad_fn(np.asarray(v, dtype=float))


def _with_block(x: np.ndarray, sl: slice, v: np.ndarray) -> np.ndarray:
    out = x.copy()
    out[sl] = v
    return out


# ---------------------------------------------------------------------------
# catalog factories
# ---------------------------------------------------------------------------

def make_quadratic_surrogate(problem: CompositeProblem, x: np.ndarray, k: int,
                             curvature: float) -> SurrogateModel:
    """(v - a)' grad + (c/2) ||v - a||^2, the proximal-linear model."""
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    anchor = problem.block_of(x, k).copy()
    grad = np.asarray(problem.block_gradient(x, k), dtype=float)

    def value(v):
        delta = v - anchor
        return float(delta @ grad + 0.5 * curvature * (delta @ delta))

    def gradient(v):
        return grad + curvature * (v - anchor)

    diag = np.full(anchor.size, curvature)
    return SurrogateModel(
        kind="quadratic", anchor=anchor,
        value_fn=value, grad_fn=gradient, grad_anchor=grad,
        quad=QuadOperator(diag.__mul__, diag))


def make_best_response_surrogate(problem: CompositeProblem, x: np.ndarray,
                                 k: int, mode: str = "block") -> SurrogateModel:
    """Freeze everything but block k (mode "block") or but one scalar at
    a time (mode "elementwise").

    Block mode requires f strictly convex in the block, elementwise mode
    strict convexity in each scalar; neither is checkable here, so it is
    the caller's obligation.  Block mode is a global upper bound of the
    block restriction of f, elementwise mode is not.
    """
    x = np.asarray(x, dtype=float)
    sl = problem.partition.slice_of(k)
    anchor = x[sl].copy()
    grad_anchor = np.asarray(problem.block_gradient(x, k), dtype=float)

    if mode == "block":

        def value(v):
            return float(problem.smooth_value(_with_block(x, sl, v)))

        def gradient(v):
            return np.asarray(problem.block_gradient(_with_block(x, sl, v), k))

        return SurrogateModel(
            kind="best_response_block", anchor=anchor,
            value_fn=value, grad_fn=gradient, grad_anchor=grad_anchor,
            is_global_upper_bound=True)

    if mode == "elementwise":

        def value(v):
            total = 0.0
            work = x.copy()
            for i in range(anchor.size):
                work[sl.start + i] = v[i]
                total += problem.smooth_value(work)
                work[sl.start + i] = anchor[i]
            return float(total)

        def gradient(v):
            out = np.empty(anchor.size)
            work = x.copy()
            for i in range(anchor.size):
                work[sl.start + i] = v[i]
                out[i] = problem.block_gradient(work, k)[i]
                work[sl.start + i] = anchor[i]
            return out

        return SurrogateModel(
            kind="best_response_elementwise", anchor=anchor,
            value_fn=value, grad_fn=gradient, grad_anchor=grad_anchor)

    raise InvalidArgumentError(f"unknown best-response mode {mode!r}")


@dataclass(frozen=True)
class SmoothComposition:
    """f = outer(inner(x)) with smooth convex outer and smooth inner."""

    outer_value: Callable[[np.ndarray], float]
    outer_gradient: Callable[[np.ndarray], np.ndarray]
    inner_value: Callable[[np.ndarray], np.ndarray]
    inner_block_jacobian: Callable[[np.ndarray, int], np.ndarray]


def make_partial_linearization_surrogate(
        composition: SmoothComposition, problem: CompositeProblem,
        x: np.ndarray, k: int, curvature: float,
        mode: str = "full") -> SurrogateModel:
    """Linearize the inner map, keep the convex outer map, regularize.

    mode "full" linearizes along the whole block displacement; mode
    "hybrid" sums one-coordinate linearizations, which makes the model
    separable (at the price of duplicating the constant term).
    """
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    anchor = problem.block_of(x, k).copy()
    u0 = np.asarray(composition.inner_value(x), dtype=float)
    jac = np.asarray(composition.inner_block_jacobian(x, k), dtype=float)
    grad_anchor = jac.T @ composition.outer_gradient(u0)

    if mode == "full":

        def value(v):
            delta = v - anchor
            lin = u0 + jac @ delta
            return float(composition.outer_value(lin)
                         + 0.5 * curvature * (delta @ delta))

        def gradient(v):
            delta = v - anchor
            lin = u0 + jac @ delta
            return jac.T @ composition.outer_gradient(lin) + curvature * delta

        kind = "partial_linearization"

    elif mode == "hybrid":

        def value(v):
            delta = v - anchor
            total = 0.5 * curvature * float(delta @ delta)
            for i in range(anchor.size):
                total += composition.outer_value(u0 + jac[:, i] * delta[i])
            return float(total)

        def gradient(v):
            delta = v - anchor
            out = curvature * delta
            for i in range(anchor.size):
                out[i] += jac[:, i] @ composition.outer_gradient(
                    u0 + jac[:, i] * delta[i])
            return out

        kind = "hybrid_linearization"

    else:
        raise InvalidArgumentError(f"unknown linearization mode {mode!r}")

    return SurrogateModel(kind=kind, anchor=anchor,
                          value_fn=value, grad_fn=gradient,
                          grad_anchor=grad_anchor)


# ---------------------------------------------------------------------------
# subproblem solvers
# ---------------------------------------------------------------------------

def inner_best_response_step(model: SurrogateModel, x_tau: np.ndarray,
                             grad_tau: np.ndarray, regularizer: Regularizer,
                             constraint: Constraint) -> np.ndarray:
    """One-shot minimizer of the inner elementwise best-response at
    ``x_tau``, where the model gradient is ``grad_tau``: soft-threshold
    of the diagonally preconditioned gradient step, clipped to the box."""
    diag = model.quad.diagonal
    u = x_tau - grad_tau / diag
    if isinstance(regularizer, Zero):
        return constraint.clip(u)
    if isinstance(regularizer, L1Norm):
        return constraint.clip(soft_threshold(u, 1.0 / diag * regularizer.gain))
    raise NoClosedFormError(
        f"no closed form for regularizer {type(regularizer).__name__}")


def inner_exact_stepsize(x_tau: np.ndarray, grad_tau: np.ndarray,
                         minimizer: np.ndarray, quad_delta: np.ndarray,
                         regularizer: Regularizer) -> float:
    """Exact line search of the outer quadratic model along the inner
    best-response direction ``minimizer - x_tau``, given the model
    gradient at ``x_tau`` and D times the direction; rational closed
    form clipped to [0, 1].  A zero direction is a skip (gamma = 0)."""
    delta = minimizer - x_tau
    a2 = float(delta @ quad_delta)
    if a2 == 0.0:
        return 0.0
    a1 = float(grad_tau @ delta) + (regularizer.value(minimizer)
                                    - regularizer.value(x_tau))
    return exact_quadratic_step(a2, a1).gamma


def solve_surrogate(model: SurrogateModel, regularizer: Regularizer,
                    constraint: Constraint | None = None) -> np.ndarray:
    """Unique minimizer of (model + g_k) over the block's constraint set.

    Only the proximal-linear model (D = cI) has a closed form, its exact
    elementwise best response at the anchor; other models raise
    NoClosedFormError and go through ``engine.inexact_solver``.
    """
    constraint = constraint if constraint is not None else Unconstrained()
    if model.kind == "quadratic":
        return inner_best_response_step(model, model.anchor, model.grad_anchor,
                                        regularizer, constraint)
    raise NoClosedFormError(
        f"no closed-form minimizer for a {model.kind!r} model with "
        f"{type(regularizer).__name__} and {type(constraint).__name__}; "
        "use engine.inexact_solver")
