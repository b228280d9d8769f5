"""Joint estimation of a low-rank matrix (factored as left @ right) and a
sparse matrix from linear measurements:

    minimize 0.5 ||L R + D S - Y||_F^2
             + (ridge/2) (||L||_F^2 + ||R||_F^2) + gain ||S||_1.

The two factor blocks have closed-form ridge solves (exact block
minimizers, hence unit steps).  The sparse block takes a scaled
soft-threshold, optionally refined by further inner rounds on a
strictly convex model (the two-layer scheme), followed by a rational
exact stepsize.  The solver runs through the generic engine over the
flat variable [vec(L), vec(R), vec(S)].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BlockPartition,
    BlockPoint,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    Zero,
    is_stationary,
    make_partition,
)
from .engine import BlockSolution, BlockSolver, run_bsca
from .errors import (
    DegenerateDiagonalError,
    DegenerateDirectionError,
    InvalidArgumentError,
)
from .linesearch import exact_quadratic_step, quadratic_profile, quartic_profile
from .surrogates import soft_threshold


@dataclass(frozen=True)
class AnomalyInstance:
    """Measurements Y (n x m), known dictionary D (n x p) with unit-norm
    rows, regularization gains and the factor rank."""

    measurements: np.ndarray
    dictionary: np.ndarray
    ridge: float
    sparse_gain: float
    rank: int
    true_left: np.ndarray | None = None
    true_right: np.ndarray | None = None
    true_sparse: np.ndarray | None = None
    noise: np.ndarray | None = None
    seed: int | None = None
    density: float | None = None
    noise_var: float | None = None

    def __post_init__(self) -> None:
        n, m = self.measurements.shape
        if self.dictionary.shape[0] != n:
            raise InvalidArgumentError("dictionary and measurements disagree on rows")
        if self.rank < 1 or self.rank > min(n, m):
            raise InvalidArgumentError("rank must lie in [1, min(n, m)]")
        if self.ridge <= 0 or self.sparse_gain <= 0:
            raise InvalidArgumentError("ridge and sparse_gain must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        n, m = self.measurements.shape
        return n, m, self.dictionary.shape[1]


@dataclass
class AnomalyState:
    left: np.ndarray      # n x rank
    right: np.ndarray     # rank x m
    sparse: np.ndarray    # p x m


def state_partition(instance: AnomalyInstance) -> BlockPartition:
    n, m, p = instance.shape
    r = instance.rank
    return make_partition([n * r, r * m, p * m])


def state_to_vector(state: AnomalyState) -> np.ndarray:
    return np.concatenate([state.left.ravel(), state.right.ravel(),
                           state.sparse.ravel()])


def vector_to_state(instance: AnomalyInstance, x: np.ndarray) -> AnomalyState:
    n, m, p = instance.shape
    r = instance.rank
    left = x[:n * r].reshape(n, r)
    right = x[n * r:n * r + r * m].reshape(r, m)
    sparse = x[n * r + r * m:].reshape(p, m)
    return AnomalyState(left, right, sparse)


def residual(state: AnomalyState, instance: AnomalyInstance) -> np.ndarray:
    return (state.left @ state.right
            + instance.dictionary @ state.sparse - instance.measurements)


def objective_value(state: AnomalyState, instance: AnomalyInstance) -> float:
    fit = residual(state, instance)
    return float(0.5 * np.vdot(fit, fit)
                 + 0.5 * instance.ridge * (np.vdot(state.left, state.left)
                                           + np.vdot(state.right, state.right))
                 + instance.sparse_gain * np.abs(state.sparse).sum())


# ---------------------------------------------------------------------------
# closed-form block updates
# ---------------------------------------------------------------------------

def best_left_factor(state: AnomalyState, instance: AnomalyInstance) -> np.ndarray:
    """Ridge solve for the left factor with right/sparse frozen; the
    rank x rank Gram system is factorized, never inverted."""
    target = instance.measurements - instance.dictionary @ state.sparse
    gram = state.right @ state.right.T
    gram[np.diag_indices_from(gram)] += instance.ridge
    return np.linalg.solve(gram, (target @ state.right.T).T).T


def best_right_factor(state: AnomalyState, instance: AnomalyInstance) -> np.ndarray:
    target = instance.measurements - instance.dictionary @ state.sparse
    gram = state.left.T @ state.left
    gram[np.diag_indices_from(gram)] += instance.ridge
    return np.linalg.solve(gram, state.left.T @ target)


def best_sparse_candidate(state: AnomalyState, instance: AnomalyInstance) -> np.ndarray:
    """Minimizer of the elementwise best-response model of the fit term
    plus the l1 penalty: a diagonally scaled soft-threshold."""
    D = instance.dictionary
    diag = np.einsum("ij,ij->j", D, D)
    if np.any(diag <= 0.0):
        raise DegenerateDiagonalError("dictionary has a zero column")
    scaled = diag[:, None] * state.sparse - D.T @ residual(state, instance)
    return soft_threshold(scaled, instance.sparse_gain) / diag[:, None]


def sparse_exact_stepsize(state: AnomalyState, candidate: np.ndarray,
                          instance: AnomalyInstance,
                          proximal: float = 0.0) -> float:
    """Rational exact stepsize for the sparse block, clipped to [0, 1].

    ``proximal`` > 0 searches the strictly convex sparse-block model
    (the fit term plus ``(proximal/2) ||S - state.sparse||^2``) instead
    of the fit term itself."""
    delta = candidate - state.sparse
    moved = instance.dictionary @ delta
    curvature = float(np.vdot(moved, moved)) + proximal * float(np.vdot(delta, delta))
    if curvature == 0.0:
        raise DegenerateDirectionError(
            "sparse direction lies in the dictionary null space")
    gain = instance.sparse_gain
    slope = float(np.vdot(residual(state, instance), moved)) + gain * (
        np.abs(candidate).sum() - np.abs(state.sparse).sum())
    return exact_quadratic_step(curvature, slope).gamma


def sparse_model_value(state: AnomalyState, sparse: np.ndarray,
                       instance: AnomalyInstance, proximal: float) -> float:
    """Sparse-block model at ``sparse``, anchored at ``state``:
    0.5 ||L R + D S - Y||^2 + (proximal/2) ||S - S_t||^2 + gain ||S||_1."""
    fit = residual(AnomalyState(state.left, state.right, sparse), instance)
    shift = sparse - state.sparse
    return float(0.5 * np.vdot(fit, fit) + 0.5 * proximal * np.vdot(shift, shift)
                 + instance.sparse_gain * np.abs(sparse).sum())


def sparse_inner_descent(state: AnomalyState, instance: AnomalyInstance,
                         rounds: int, proximal: float,
                         lipschitz: float | None = None,
                         stationarity_rtol: float = 1e-12) -> np.ndarray:
    """Inner layer of the two-layer sparse-block update: ``rounds``
    descent rounds on the strictly convex model of ``sparse_model_value``.

    Round one is ``step_sparse`` on the model: the elementwise best
    response at its exact stepsize, or the anchor itself when the block
    is stationary, so the engine skips it.  (The one-round update of
    ``anomaly_solver`` is the best response alone, with the outer exact
    stepsize doing the stepping.)  Then come ``rounds - 1``
    proximal-gradient rounds with Nesterov momentum (FISTA, Beck and
    Teboulle 2009).  A round is accepted only when it
    decreases the model, and a rejected round drops the momentum
    (adaptive restart, O'Donoghue and Candes 2015), so the output never
    exceeds the model value at the anchor ``state.sparse``.
    ``lipschitz`` bounds the model gradient's Lipschitz constant,
    ``||D||_2^2 + proximal`` when None.
    """
    best, gamma = step_sparse(state, instance, stationarity_rtol, proximal)
    if gamma == 0.0:
        return best
    D = instance.dictionary
    gain = instance.sparse_gain
    anchor = state.sparse
    if lipschitz is None:
        lipschitz = float(np.linalg.norm(D, 2)) ** 2 + proximal
    target = instance.measurements - state.left @ state.right

    # two scratch buffers, reused every round in place of fresh
    # full-size temporaries, whose allocation showed up in profiles at
    # about the cost of the round's two matrix products
    fit = np.empty_like(target)
    shift = np.empty_like(anchor)

    def model(sparse: np.ndarray, moved: np.ndarray) -> float:
        # sparse_model_value with moved = D @ sparse already formed
        np.subtract(moved, target, out=fit)
        np.subtract(sparse, anchor, out=shift)
        smooth = 0.5 * np.vdot(fit, fit) + 0.5 * proximal * np.vdot(shift, shift)
        return float(smooth + gain * np.abs(sparse, out=shift).sum())

    best_moved = D @ best
    best_value = model(best, best_moved)
    search, search_moved, momentum = best, best_moved, 1.0
    for _ in range(rounds - 1):
        # gradient step search - grad / lipschitz
        step = D.T @ np.subtract(search_moved, target, out=fit)
        step += np.multiply(np.subtract(search, anchor, out=shift), proximal, out=shift)
        step *= -1.0 / lipschitz
        step += search
        trial = soft_threshold(step, gain / lipschitz)
        trial_moved = D @ trial
        value = model(trial, trial_moved)
        if value < best_value:
            following = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
            weight = (momentum - 1.0) / following
            search = trial + weight * (trial - best)
            search_moved = trial_moved + weight * (trial_moved - best_moved)
            best, best_moved, best_value = trial, trial_moved, value
            momentum = following
        elif momentum == 1.0:
            break    # a plain proximal-gradient round failed: model minimized
        else:
            search, search_moved, momentum = best, best_moved, 1.0
    return best


def step_sparse(state: AnomalyState, instance: AnomalyInstance,
                stationarity_rtol: float = 1e-12,
                proximal: float = 0.0) -> tuple[np.ndarray, float]:
    """Candidate, exact stepsize, convex-combination update; gamma = 0
    when the block is already optimal.  ``proximal`` is passed on to
    ``sparse_exact_stepsize``."""
    candidate = best_sparse_candidate(state, instance)
    delta = candidate - state.sparse
    if is_stationary(delta, state.sparse, stationarity_rtol):
        return state.sparse, 0.0
    gamma = sparse_exact_stepsize(state, candidate, instance, proximal)
    return state.sparse + gamma * delta, gamma


# ---------------------------------------------------------------------------
# composite-problem adapter
# ---------------------------------------------------------------------------

def anomaly_problem(instance: AnomalyInstance) -> CompositeProblem:
    """Flat-variable view of the objective for the generic engine.

    The line profile along a direction touching both factors is quartic
    in the stepsize (the bilinear term), otherwise quadratic, and both
    come out in closed form.
    """
    Y = instance.measurements
    D = instance.dictionary
    ridge = instance.ridge
    partition = state_partition(instance)

    def unpack(x: np.ndarray) -> AnomalyState:
        return vector_to_state(instance, x)

    def smooth_value(x: np.ndarray) -> float:
        s = unpack(x)
        fit = s.left @ s.right + D @ s.sparse - Y
        return float(0.5 * np.vdot(fit, fit)
                     + 0.5 * ridge * (np.vdot(s.left, s.left)
                                      + np.vdot(s.right, s.right)))

    def block_gradient(x: np.ndarray, k: int) -> np.ndarray:
        s = unpack(x)
        fit = s.left @ s.right + D @ s.sparse - Y
        if k == 0:
            return (fit @ s.right.T + ridge * s.left).ravel()
        if k == 1:
            return (s.left.T @ fit + ridge * s.right).ravel()
        return (D.T @ fit).ravel()

    def line_profile(x: np.ndarray, direction: np.ndarray,
                     block: int | None = None):
        if block is not None:
            direction = partition.embed(block, direction)
        s = unpack(x)
        ds = unpack(direction)
        fit = s.left @ s.right + D @ s.sparse - Y
        first = s.left @ ds.right + ds.left @ s.right + D @ ds.sparse
        second = ds.left @ ds.right
        lin = float(np.vdot(fit, first)) + ridge * (
            float(np.vdot(s.left, ds.left)) + float(np.vdot(s.right, ds.right)))
        quad = float(np.vdot(first, first)) + 2.0 * float(np.vdot(fit, second)) \
            + ridge * (float(np.vdot(ds.left, ds.left))
                       + float(np.vdot(ds.right, ds.right)))
        fourth = 2.0 * float(np.vdot(second, second))
        if fourth == 0.0:
            return quadratic_profile(quad, lin)
        return quartic_profile(fourth, 3.0 * float(np.vdot(first, second)),
                               quad, lin)

    return CompositeProblem(
        partition=partition,
        smooth_value=smooth_value,
        block_gradient=block_gradient,
        nonsmooth=(Zero(), Zero(), L1Norm(instance.sparse_gain)),
        line_profile=line_profile,
    )


def anomaly_solver(instance: AnomalyInstance,
                   config: SolverConfig | None = None) -> BlockSolver:
    """Block solver; the factor blocks are exact best responses (global
    upper bounds), so the engine takes unit steps.  The sparse block runs
    ``config.inner_iterations`` rounds of ``sparse_inner_descent`` with
    proximal weight ``config.curvature``; without a config it is the
    one-round elementwise best response."""
    rounds = 1 if config is None else config.inner_iterations
    lipschitz = None
    if rounds > 1:
        lipschitz = float(np.linalg.norm(instance.dictionary, 2)) ** 2 + config.curvature

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        state = vector_to_state(instance, x)
        if k == 0:
            return BlockSolution(best_left_factor(state, instance).ravel(), True)
        if k == 1:
            return BlockSolution(best_right_factor(state, instance).ravel(), True)
        if rounds == 1:
            sparse = best_sparse_candidate(state, instance)
        else:
            sparse = sparse_inner_descent(state, instance, rounds, config.curvature,
                                          lipschitz, config.stationarity_rtol)
        return BlockSolution(sparse.ravel(), False)

    return solver


def run_anomaly_bsca(instance: AnomalyInstance, config: SolverConfig,
                     state0: AnomalyState | None = None) -> RunTrace:
    """Cyclic (left -> right -> sparse) or randomized block descent with
    closed-form factor updates and ``config.inner_iterations`` inner
    rounds on the sparse block."""
    if state0 is None:
        state0 = initial_state(instance, seed=config.seed)
    return run_bsca(anomaly_problem(instance), anomaly_solver(instance, config),
                    config, state_to_vector(state0))


def final_state(instance: AnomalyInstance, trace: RunTrace) -> AnomalyState:
    point: BlockPoint = trace.final_point
    return vector_to_state(instance, point.values)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

def _support_count(density: float, total: int) -> int:
    """ceil(density * total) with protection against float wobble just
    above an integer; always at least 1."""
    return max(1, int(np.ceil(density * total - 1e-9)))


def generate_anomaly_instance(n: int, m: int, p: int, rank: int,
                              density: float = 0.05,
                              noise_var: float = 1e-4, seed: int = 0,
                              ridge: float | None = None,
                              sparse_gain: float | None = None) -> AnomalyInstance:
    """Reproducible synthetic instance: Gaussian dictionary with
    unit-norm rows, Gaussian factors scaled to variance 100/p and 100/m,
    exactly ceil(density * p * m) nonzeros in the sparse truth, plus
    Gaussian noise.  Default gains are 0.25 * spectral(Y) for the ridge
    and 2e-4 * norm_inf(D' Y) (max absolute row sum) for the l1 part;
    both can be overridden.
    """
    if n < 1 or m < 1 or p < 1 or rank < 1:
        raise InvalidArgumentError("dimensions must be positive")
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    dictionary = rng.standard_normal((n, p))
    dictionary /= np.linalg.norm(dictionary, axis=1, keepdims=True)
    left = rng.standard_normal((n, rank)) * np.sqrt(100.0 / p)
    right = rng.standard_normal((rank, m)) * np.sqrt(100.0 / m)
    sparse = np.zeros(p * m)
    support = rng.choice(p * m, size=_support_count(density, p * m), replace=False)
    sparse[support] = rng.standard_normal(support.size)
    sparse = sparse.reshape(p, m)
    noise = rng.standard_normal((n, m)) * np.sqrt(noise_var)
    measurements = left @ right + dictionary @ sparse + noise
    if ridge is None:
        ridge = 0.25 * float(np.linalg.norm(measurements, 2))
    if sparse_gain is None:
        sparse_gain = 2e-4 * float(np.linalg.norm(dictionary.T @ measurements, np.inf))
    return AnomalyInstance(
        measurements=measurements, dictionary=dictionary, ridge=ridge,
        sparse_gain=sparse_gain, rank=rank, true_left=left, true_right=right,
        true_sparse=sparse, noise=noise, seed=seed, density=density,
        noise_var=noise_var)


def initial_state(instance: AnomalyInstance, seed: int = 0,
                  proper: bool = True) -> AnomalyState:
    """Seeded Gaussian start; ``proper`` matches the generating scales,
    otherwise the factors are standard normal.  Sparse part starts at 0."""
    n, m, p = instance.shape
    r = instance.rank
    rng = np.random.default_rng(seed)
    left_scale = np.sqrt(100.0 / p) if proper else 1.0
    right_scale = np.sqrt(100.0 / m) if proper else 1.0
    return AnomalyState(
        left=rng.standard_normal((n, r)) * left_scale,
        right=rng.standard_normal((r, m)) * right_scale,
        sparse=np.zeros((p, m)))
