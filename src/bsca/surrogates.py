"""Block models and the closed-form steps that minimize them.

A block model is a quadratic form: its anchor, the block gradient of f
there, and D as a ``QuadOperator``.  ``make_quadratic_surrogate`` builds
the proximal-linear model (D = cI); ``phase_retrieval.pr_outer_model``
is the paper's partial linearization.  One elementwise best response
(``inner_best_response_step``) minimizes the model plus g in {0, l1},
box constraints clipped, exactly when D is diagonal; otherwise it is
the inner round of ``engine.inexact_inner_loop``.  Under l1 it reads
D's diagonal only on the entries that can come out nonzero, so a model
may form its diagonal on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CompositeProblem, Constraint, L1Norm, Regularizer, Zero, _nonzeros
from .errors import InvalidArgumentError, NoClosedFormError
from .linesearch import exact_quadratic_step


def soft_threshold(b: np.ndarray, a) -> np.ndarray:
    """Elementwise shrinkage max(b - a, 0) - max(-b - a, 0), a >= 0."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0):
        raise InvalidArgumentError("threshold entries must be nonnegative")
    return _shrink(b, a)


def _shrink(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``soft_threshold`` of float arrays, unchecked: for thresholds
    known to be nonnegative."""
    # b minus its projection onto [-a, a] (the Moreau decomposition of
    # the l1 prox): the projection's negative, min(-min(b, a), a), is
    # worked in place and added to b.  The same bits as
    # max(b - a, 0) - max(-b - a, 0), with no temporary and in cheap
    # passes where sign(b) max(|b| - a, 0) takes a copysign several
    # times slower; adding 0.0 turns the -0.0 that b = -0.0 can leave at
    # a = 0 into +0.0.  The FISTA rounds of anomaly.sparse_inner_descent
    # clip in place instead, b - clip(b, -a, a), with the same bits: the
    # faster form depends on the threshold (timeit, 40000 entries).  For
    # an array of thresholds, as the inner best response passes, this
    # form takes 53 us and b - clip(b, -a, a) 250 us; for a scalar one,
    # written into a buffer in place as the rounds do, the clip takes
    # 30 us and this form 60 us
    out = np.asarray(np.minimum(b, a))
    np.negative(out, out=out)
    np.minimum(out, a, out=out)
    np.add(b, out, out=out)
    out += 0.0
    return out


@dataclass(frozen=True)
class QuadOperator:
    """D given by its action ``v -> Dv`` (for the exact inner stepsize)
    and by its diagonal's entries on given indices (for the elementwise
    best response), never formed.  A formed diagonal ``diag`` passes
    ``diag.__getitem__``, as a diagonal action passes ``diag.__mul__``.

    Both may keep state for the model's life: the ones from
    ``phase_retrieval.pr_outer_model`` cache columns of D for a sparse
    argument (at most 32 nonzeros) and the diagonal entries already
    asked for, over one block visit."""

    apply: Callable[[np.ndarray], np.ndarray]
    diagonal: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SurrogateModel:
    """One strictly convex approximation of f along block k at an anchor,
    the quadratic form ``(v - a)'g + (1/2) (v - a)'D(v - a)`` with anchor
    ``a``, the problem's block gradient ``g`` at the anchor, and D as a
    ``QuadOperator``.  Sharing ``g`` with f is what makes the model's
    minimizer a descent direction for the original problem."""

    anchor: np.ndarray
    grad_anchor: np.ndarray
    quad: QuadOperator


def make_quadratic_surrogate(problem: CompositeProblem, x: np.ndarray, k: int,
                             curvature: float) -> SurrogateModel:
    """(v - a)' grad + (c/2) ||v - a||^2, the proximal-linear model."""
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    anchor = problem.block_of(x, k).copy()
    grad = np.asarray(problem.block_gradient(x, k), dtype=float)
    diag = np.full(anchor.size, curvature)
    return SurrogateModel(anchor, grad, QuadOperator(diag.__mul__, diag.__getitem__))


# ---------------------------------------------------------------------------
# subproblem solvers
# ---------------------------------------------------------------------------

def zero_bar(gain: float) -> float:
    """The l1 bar of ``inner_best_response_step``: at a zero entry whose
    model gradient is at most this in magnitude the best response stays
    +0.0.  ``phase_retrieval.PhaseProducts.certified_dead`` certifies
    entries against the same bar, and is sound only while the two
    agree."""
    return gain * (1.0 - 1e-12)


def inner_best_response_step(model: SurrogateModel, x_tau: np.ndarray,
                             grad_tau: np.ndarray, regularizer: Regularizer,
                             constraint: Constraint) -> np.ndarray:
    """One-shot minimizer of the inner elementwise best-response at
    ``x_tau``, where the model gradient is ``grad_tau``: soft-threshold
    of the diagonally preconditioned gradient step, clipped to the box.

    Under l1 an entry with ``x_tau_i = 0`` and ``|grad_tau_i|`` at most
    the gain thresholds to +0.0 whatever ``D_ii`` is, so only the other
    entries are computed and read the diagonal.  The few-ulp margin on
    the gain covers the roundings of ``g / d`` and ``(1 / d) * gain``,
    so every entry keeps the bits of the whole-vector formula."""
    diagonal = model.quad.diagonal
    if isinstance(regularizer, Zero):
        return constraint.clip(x_tau - grad_tau / diagonal(np.arange(x_tau.size)))
    if isinstance(regularizer, L1Norm):
        gain = regularizer.gain
        live = _nonzeros((x_tau != 0.0) | ~(np.abs(grad_tau) <= zero_bar(gain)))
        diag = diagonal(live)
        step = np.zeros_like(x_tau)
        # unchecked: 1 / d * gain >= 0, as D's diagonal is positive
        step[live] = _shrink(x_tau[live] - grad_tau[live] / diag, 1.0 / diag * gain)
        return constraint.clip(step)
    raise NoClosedFormError(
        f"no closed form for regularizer {type(regularizer).__name__}")


def inner_exact_stepsize(grad_tau: np.ndarray, delta: np.ndarray,
                         quad_delta: np.ndarray, regularizer_change: float) -> float:
    """Exact line search of the outer quadratic model along the inner
    best-response direction ``delta`` (the best response minus
    ``x_tau``), given the model gradient at ``x_tau``, D times the
    direction and the regularizer's change along it; rational closed
    form clipped to [0, 1].  A zero direction is a skip (gamma = 0)."""
    a2 = float(delta @ quad_delta)
    if a2 == 0.0:
        return 0.0
    a1 = float(grad_tau @ delta) + regularizer_change
    return exact_quadratic_step(a2, a1).gamma
