"""Slow, independent reference routines that the tests use to cross-check
the closed forms in ``bsca``: golden-section minimization, central finite
differences, bisection cubic roots, a Cholesky reference solve, the
inner elementwise best-response model that the inner loop's one-shot
step minimizes, that step and the phase-retrieval model's gradient and
diagonal as they were formed before the diagonal was read on demand,
the low-rank + sparse objective and sparse-block model evaluated from
their matrix forms, and the sparse inner loop as it was before its
rounds ran in place.

Nothing here is performance-tuned; these exist so every closed-form path
has a brute-force counterpart in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from bsca.anomaly import AnomalyInstance, AnomalyState, step_sparse
from bsca.core import Zero
from bsca.errors import InvalidArgumentError
from bsca.surrogates import QuadOperator, SurrogateModel, soft_threshold

from conftest import block_products

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OracleReport:
    quantity: str
    reference: float
    candidate: float

    @property
    def abs_deviation(self) -> float:
        return abs(self.reference - self.candidate)

    @property
    def rel_deviation(self) -> float:
        scale = max(abs(self.reference), abs(self.candidate), 1e-300)
        return self.abs_deviation / scale


def golden_section(phi: Callable[[float], float], tol: float = 1e-10,
                   grid: int = 0) -> float:
    """Minimize phi over [0, 1].

    Without a grid the function must be unimodal.  With ``grid`` > 0 a
    uniform pre-scan isolates the basin of the global minimizer first
    (pitch 1/grid), which is enough for quartics on [0, 1].
    """
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")
    lo, hi = 0.0, 1.0
    if grid > 0:
        gammas = np.linspace(0.0, 1.0, grid + 1)
        values = [phi(g) for g in gammas]
        best = int(np.argmin(values))
        lo = gammas[max(best - 1, 0)]
        hi = gammas[min(best + 1, grid)]
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = phi(c), phi(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = phi(d)
    gamma = 0.5 * (a + b)
    # endpoints win whenever the bracket degenerated onto them
    candidates = [(phi(0.0), 0.0), (phi(gamma), gamma), (phi(1.0), 1.0)]
    return min(candidates, key=lambda t: (t[0], t[1]))[1]


def finite_diff_block_gradient(f: Callable[[np.ndarray], float],
                               x: np.ndarray, sl: slice,
                               eps: float = 1e-6) -> np.ndarray:
    """Central differences of f along the coordinates in ``sl``."""
    if eps <= 0:
        raise InvalidArgumentError("eps must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty(sl.stop - sl.start)
    work = x.copy()
    for i, j in enumerate(range(sl.start, sl.stop)):
        orig = work[j]
        work[j] = orig + eps
        up = f(work)
        work[j] = orig - eps
        down = f(work)
        work[j] = orig
        out[i] = (up - down) / (2.0 * eps)
    return out


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float,
                     tol: float = 1e-12) -> np.ndarray:
    """All real roots of c3 t^3 + c2 t^2 + c1 t + c0 by bracketed
    bisection over [-R, R], R = 1 + max |c_i / c3|; double roots are
    recovered from the critical points.
    """
    if c3 == 0:
        raise InvalidArgumentError("leading coefficient must be nonzero")
    a, b, c = c2 / c3, c1 / c3, c0 / c3

    def p(t: float) -> float:
        return ((t + a) * t + b) * t + c

    radius = 1.0 + max(abs(a), abs(b), abs(c))
    grid = np.linspace(-radius, radius, 2049)
    vals = np.array([p(t) for t in grid])
    roots: list[float] = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0.0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = p(mid)
                if fmid == 0.0 or (hi - lo) < tol * max(1.0, abs(mid)):
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    # even-multiplicity roots sit at critical points where p touches zero
    disc = a * a - 3.0 * b
    if disc >= 0.0:
        for t in ((-a + np.sqrt(disc)) / 3.0, (-a - np.sqrt(disc)) / 3.0):
            if abs(p(t)) <= 1e-10 * max(1.0, abs(t) ** 3):
                roots.append(t)
    roots.sort()
    unique: list[float] = []
    for r in roots:
        if not unique or abs(r - unique[-1]) > 1e-8 * max(1.0, abs(r)):
            unique.append(r)
    return np.array(unique)


def dense_spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = r for symmetric positive definite M via an explicit
    Cholesky factorization and hand-rolled triangular substitutions."""
    M = np.asarray(matrix, dtype=float)
    r = np.asarray(rhs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if not np.allclose(M, M.T, rtol=1e-10, atol=1e-12):
        raise InvalidArgumentError("matrix must be symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise InvalidArgumentError("matrix is not positive definite") from exc
    n = M.shape[0]
    y = np.zeros(n)
    for i in range(n):
        y[i] = (r[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def make_inner_surrogate(model: SurrogateModel,
                         x_tau: np.ndarray) -> SurrogateModel:
    """Elementwise best-response of a quadratic outer model, anchored at
    the inner iterate: the outer model's gradient there and the diagonal
    of its D.  Sharing that gradient is what keeps the inner loop honest.
    """
    x_tau = np.asarray(x_tau, dtype=float)
    diag = model.quad.diagonal(np.arange(x_tau.size))
    grad_tau = model.grad_anchor + model.quad.apply(x_tau - model.anchor)
    return SurrogateModel(x_tau.copy(), grad_tau,
                          QuadOperator(diag.__mul__, diag.__getitem__))


def inner_best_response_reference(diag: np.ndarray, x_tau: np.ndarray,
                                  grad_tau: np.ndarray, regularizer,
                                  constraint) -> np.ndarray:
    """``surrogates.inner_best_response_step`` as it was written before it
    read the diagonal on demand: every entry from the whole diagonal
    ``diag``."""
    u = x_tau - grad_tau / diag
    if isinstance(regularizer, Zero):
        return constraint.clip(u)
    return constraint.clip(soft_threshold(u, 1.0 / diag * regularizer.gain))


def outer_model_chunked_pass(rows: np.ndarray, u: np.ndarray,
                             intensities: np.ndarray, curvature: float,
                             chunk_rows: int = 16):
    """The block gradient and diagonal of ``pr_outer_model`` as they were
    summed before the gradient came from one product and the diagonal
    on demand: one pass over ``chunk_rows`` rows of A_k at a time, a
    gemv for the gradient and the chunk's squares for the diagonal."""
    u_sq = u * u
    grad_u = u * (u_sq - intensities)
    grad, diagonal = np.empty((2, rows.shape[0]))
    squares = np.empty((min(chunk_rows, rows.shape[0]), rows.shape[1]))
    for start in range(0, rows.shape[0], chunk_rows):
        chunk = rows[start:start + chunk_rows]
        grad[start:start + len(chunk)] = chunk @ grad_u
        diagonal[start:start + len(chunk)] = np.multiply(
            chunk, chunk, out=squares[:len(chunk)]) @ u_sq
    return grad, 2.0 * diagonal + curvature


def anomaly_residual(state: AnomalyState, instance: AnomalyInstance) -> np.ndarray:
    """E = L R + D S - Y."""
    return (state.left @ state.right + instance.dictionary @ state.sparse
            - instance.measurements)


def objective_value(state: AnomalyState, instance: AnomalyInstance) -> float:
    """The low-rank + sparse objective, straight from its matrix form."""
    fit = anomaly_residual(state, instance)
    return float(0.5 * np.vdot(fit, fit)
                 + 0.5 * instance.ridge * (np.vdot(state.left, state.left)
                                           + np.vdot(state.right, state.right))
                 + instance.sparse_gain * np.abs(state.sparse).sum())


def sparse_model_value(state: AnomalyState, sparse: np.ndarray,
                       instance: AnomalyInstance, proximal: float) -> float:
    """Sparse-block model at ``sparse``, anchored at ``state``:
    0.5 ||L R + D S - Y||^2 + (proximal/2) ||S - S_t||^2 + gain ||S||_1."""
    fit = anomaly_residual(AnomalyState(state.left, state.right, sparse), instance)
    shift = sparse - state.sparse
    return float(0.5 * np.vdot(fit, fit) + 0.5 * proximal * np.vdot(shift, shift)
                 + instance.sparse_gain * np.abs(sparse).sum())


def sparse_inner_descent_reference(state: AnomalyState, instance: AnomalyInstance,
                                   rounds: int, proximal: float,
                                   lipschitz: float | None = None, *,
                                   textbook: bool = False,
                                   replay: list[bool] | None = None
                                   ) -> tuple[np.ndarray, int, list[bool]]:
    """``anomaly.sparse_inner_descent`` with an empty carry and its FISTA
    rounds as they were written before they ran in place: every round
    allocates its trial, its products and its momentum step afresh.  The
    rounds keep residual images ``D S - T`` and take the gradient step
    as the loop does, ``contraction y + pull - D'r_y / lipschitz``;
    with ``textbook`` they keep images ``D S`` and take it as
    ``shrink(y - (D'(D y - T) + proximal (y - anchor)) / lipschitz)``.
    Returns the result, the number of momentum restarts and each round's
    verdict (accepted or not).  A ``replay`` of such verdicts is followed
    instead of the model comparison, so two step formulas can be run
    through the same rounds."""
    best, gamma = step_sparse(state, instance, proximal,
                              **block_products(instance, state).sparse)
    if gamma == 0.0:
        return best, 0, []
    D = instance.dictionary
    gain = instance.sparse_gain
    anchor = state.sparse
    if lipschitz is None:
        lipschitz = float(np.linalg.norm(D, 2)) ** 2 + proximal
    threshold = gain / lipschitz
    contraction = 1.0 - proximal / lipschitz
    pull = anchor * (proximal / lipschitz)
    target = instance.measurements - state.left @ state.right
    # the image a round keeps of a point: its residual D S - T, or D S
    offset = 0.0 if textbook else target

    def model(sparse: np.ndarray, image: np.ndarray) -> float:
        fit = image - target if textbook else image
        shift = sparse - anchor
        smooth = 0.5 * np.vdot(fit, fit) + 0.5 * proximal * np.vdot(shift, shift)
        return float(smooth + gain * np.abs(sparse).sum())

    def round_trial(search: np.ndarray, search_image: np.ndarray) -> np.ndarray:
        if textbook:
            step = D.T @ (search_image - target) + (search - anchor) * proximal
            return soft_threshold(search + step * (-1.0 / lipschitz), threshold)
        step = D.T @ (search_image * (-1.0 / lipschitz)) + search * contraction + pull
        return step - np.clip(step, -threshold, threshold)

    restarts, verdicts = 0, []
    best_image = D @ best - offset
    best_value = model(best, best_image)
    search, search_image, momentum = best, best_image, 1.0
    for _ in range(rounds - 1):
        trial = round_trial(search, search_image)
        trial_image = D @ trial - offset
        value = model(trial, trial_image)
        verdicts.append(value < best_value if replay is None else replay[len(verdicts)])
        if verdicts[-1]:
            following = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            weight = (momentum - 1.0) / following
            search = trial + weight * (trial - best)
            search_image = trial_image + weight * (trial_image - best_image)
            best, best_image, best_value = trial, trial_image, value
            momentum = following
        elif momentum == 1.0:
            break
        else:
            search, search_image, momentum = best, best_image, 1.0
            restarts += 1
    return best, restarts, verdicts
