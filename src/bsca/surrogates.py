"""Strictly convex per-block approximation models and their solvers.

Five catalog kinds: quadratic (proximal-linear), elementwise and block
best-response, partial linearization and its elementwise hybrid.  Every
model shares the block gradient of f at its anchor, which is what makes
the surrogate minimizer a descent direction for the original problem.

Closed-form minimizers ship for the pairings (quadratic, {0, l1}),
(diagonal quadratic form, {0, l1}) and (dense quadratic form, 0), none
for a D given as an operator; box constraints are clipped wherever the
subproblem is separable.  The rest goes through the inexact inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Box,
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
    """D given by its action ``v -> Dv`` and its diagonal, never formed.

    The action may keep state for the model's life.  The one from
    ``phase_retrieval.pr_outer_model`` has a sparse path: an argument
    with at most 32 nonzeros, fewer than half its entries, is applied
    from columns of D that the action forms on demand and caches for
    one block visit; a dense argument keeps the two-pass formula
    ``2 A_k (u^2 * (A_k'v)) + cv`` bit for bit."""

    apply: Callable[[np.ndarray], np.ndarray]
    diagonal: np.ndarray


@dataclass(frozen=True)
class SurrogateModel:
    """One strictly convex approximation of f along block k at an anchor.

    ``grad_anchor`` is the problem's block gradient at the anchor, which
    equals ``gradient(anchor)`` for every catalog kind.  A quadratic
    model is (1/2) v'Dv - v'b up to a constant, with exactly one of three
    D forms set: ``quad_diag`` (D is diagonal), ``quad_matrix`` (dense)
    or ``quad_operator`` (matrix-free); b is derived by ``linear_term``.
    """

    kind: str
    anchor: np.ndarray
    value_fn: Callable[[np.ndarray], float]
    grad_fn: Callable[[np.ndarray], np.ndarray]
    grad_anchor: np.ndarray
    quad_diag: np.ndarray | None = None
    quad_matrix: np.ndarray | None = None
    quad_operator: QuadOperator | None = None
    curvature: float | None = None
    is_global_upper_bound: bool = False

    def value(self, v: np.ndarray) -> float:
        return float(self.value_fn(np.asarray(v, dtype=float)))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        return self.grad_fn(np.asarray(v, dtype=float))

    @property
    def has_quadratic_form(self) -> bool:
        forms = (self.quad_diag, self.quad_matrix, self.quad_operator)
        return any(f is not None for f in forms)

    def quad_diagonal(self) -> np.ndarray:
        if self.quad_diag is not None:
            return self.quad_diag
        if self.quad_operator is not None:
            return self.quad_operator.diagonal
        return np.diag(self.quad_matrix)

    def quad_apply(self, v: np.ndarray) -> np.ndarray:
        if self.quad_diag is not None:
            return self.quad_diag * v
        if self.quad_operator is not None:
            return self.quad_operator.apply(v)
        return self.quad_matrix @ v

    def linear_term(self) -> np.ndarray:
        return self.quad_apply(self.anchor) - self.grad_anchor


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

    return SurrogateModel(
        kind="quadratic", anchor=anchor,
        value_fn=value, grad_fn=gradient, grad_anchor=grad,
        quad_diag=np.full(anchor.size, curvature), curvature=curvature)


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
                          grad_anchor=grad_anchor, curvature=curvature)


# ---------------------------------------------------------------------------
# subproblem solvers
# ---------------------------------------------------------------------------

def _separable_prox(u: np.ndarray, threshold, regularizer: Regularizer,
                    constraint: Constraint) -> np.ndarray:
    if isinstance(regularizer, Zero):
        return constraint.clip(u)
    if isinstance(regularizer, L1Norm):
        return constraint.clip(soft_threshold(u, threshold * regularizer.gain))
    raise NoClosedFormError(
        f"no closed form for regularizer {type(regularizer).__name__}")


def inner_best_response_step(model: SurrogateModel, x_tau: np.ndarray,
                             grad_tau: np.ndarray, regularizer: Regularizer,
                             constraint: Constraint) -> np.ndarray:
    """One-shot minimizer of the inner elementwise best-response at
    ``x_tau``, where the model gradient is ``grad_tau``: soft-threshold
    of the diagonally preconditioned gradient step."""
    diag = model.quad_diagonal()
    return _separable_prox(x_tau - grad_tau / diag, 1.0 / diag,
                           regularizer, constraint)


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

    Pairings without a shipped closed form raise NoClosedFormError; their
    subproblems are solved by the inexact inner loop
    (``engine.inexact_solver``).
    """
    constraint = constraint if constraint is not None else Unconstrained()

    if model.kind == "quadratic":
        # spelled as the literal gradient step so that g = 0 reproduces
        # anchor - grad/c bit for bit
        u = model.anchor - model.grad_anchor / model.curvature
        return _separable_prox(u, 1.0 / model.curvature, regularizer, constraint)

    if model.quad_diag is not None:
        u = model.anchor - model.grad_anchor / model.quad_diag
        return _separable_prox(u, 1.0 / model.quad_diag, regularizer, constraint)

    if (model.quad_matrix is not None and isinstance(regularizer, Zero)
            and not isinstance(constraint, Box)):
        return np.linalg.solve(model.quad_matrix, model.linear_term())

    raise NoClosedFormError(
        f"no closed-form minimizer for a {model.kind!r} model with "
        f"{type(regularizer).__name__} and {type(constraint).__name__}; "
        "use engine.inexact_solver")
