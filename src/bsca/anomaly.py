"""Joint estimation of a low-rank matrix (factored as left @ right) and a
sparse matrix from linear measurements:

    minimize 0.5 ||L R + D S - Y||_F^2
             + (ridge/2) (||L||_F^2 + ||R||_F^2) + gain ||S||_1.

The two factor blocks have closed-form ridge solves (exact block
minimizers, hence unit steps).  The sparse block takes a scaled
soft-threshold, optionally refined by further inner rounds on a
strictly convex model (the two-layer scheme), followed by a rational
exact stepsize.  The solver runs through the generic engine over the
flat variable [vec(L), vec(R), vec(S)].  Every layer reads ``D S`` and
the residual ``E = L R + D S - Y`` from the problem's
``AnomalyProducts``, which re-forms ``D S`` only when a step moves S;
the sparse solve hands ``D'E`` to the engine as the block gradient.
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
    TrackedProducts,
    Zero,
    _support_count,
    is_stationary,
    make_partition,
)
from .engine import BlockSolution, BlockSolver, run_bsca
from .errors import (
    DegenerateDiagonalError,
    DegenerateDirectionError,
    InvalidArgumentError,
)
from .linesearch import ScalarProfile, exact_quadratic_step, quadratic_profile
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


def _smooth_value(state: AnomalyState, fit: np.ndarray, ridge: float) -> float:
    """The smooth part of the objective, given the residual ``fit``."""
    return float(0.5 * np.vdot(fit, fit)
                 + 0.5 * ridge * (np.vdot(state.left, state.left)
                                  + np.vdot(state.right, state.right)))


def _squared_column_norms(dictionary: np.ndarray) -> np.ndarray:
    """The diagonal of ``D'D``, the curvature of the elementwise sparse
    model; a zero column leaves that model without a minimizer."""
    diag = np.einsum("ij,ij->j", dictionary, dictionary)
    if np.any(diag <= 0.0):
        raise DegenerateDiagonalError("dictionary has a zero column")
    return diag


# ---------------------------------------------------------------------------
# closed-form block updates
# ---------------------------------------------------------------------------

# ``sparse_image`` is D S, ``fit`` the residual E, ``correlation`` D'E
# and ``diag`` the squared column norms of D, each at ``state``: the
# solves read them as ``anomaly_solver`` hands them over and form none.

def best_left_factor(state: AnomalyState, instance: AnomalyInstance,
                     sparse_image: np.ndarray) -> np.ndarray:
    """Ridge solve for the left factor with right/sparse frozen; the
    rank x rank Gram system is factorized, never inverted."""
    target = instance.measurements - sparse_image
    gram = state.right @ state.right.T
    gram[np.diag_indices_from(gram)] += instance.ridge
    return np.linalg.solve(gram, (target @ state.right.T).T).T


def best_right_factor(state: AnomalyState, instance: AnomalyInstance,
                      sparse_image: np.ndarray) -> np.ndarray:
    target = instance.measurements - sparse_image
    gram = state.left.T @ state.left
    gram[np.diag_indices_from(gram)] += instance.ridge
    return np.linalg.solve(gram, state.left.T @ target)


def best_sparse_candidate(state: AnomalyState, instance: AnomalyInstance, *,
                          correlation: np.ndarray,
                          diag: np.ndarray) -> np.ndarray:
    """Minimizer of the elementwise best-response model of the fit term
    plus the l1 penalty: a diagonally scaled soft-threshold."""
    scaled = diag[:, None] * state.sparse - correlation
    return soft_threshold(scaled, instance.sparse_gain) / diag[:, None]


def sparse_exact_stepsize(state: AnomalyState, candidate: np.ndarray,
                          instance: AnomalyInstance,
                          proximal: float = 0.0, *,
                          fit: np.ndarray,
                          delta: np.ndarray) -> float:
    """Rational exact stepsize for the sparse block, clipped to [0, 1].

    ``proximal`` > 0 searches the strictly convex sparse-block model
    (the fit term plus ``(proximal/2) ||S - state.sparse||^2``) instead
    of the fit term itself.  ``delta`` is ``candidate - state.sparse``."""
    moved = instance.dictionary @ delta
    curvature = float(np.vdot(moved, moved)) + proximal * float(np.vdot(delta, delta))
    if curvature == 0.0:
        raise DegenerateDirectionError(
            "sparse direction lies in the dictionary null space")
    slope = float(np.vdot(fit, moved)) + L1Norm(instance.sparse_gain).change(
        state.sparse, candidate)
    return exact_quadratic_step(curvature, slope).gamma


@dataclass
class FistaCarry:
    """What one sparse visit's FISTA rounds hand to the next visit of
    the same run: the momentum, the second-to-last accepted point, the
    visit's target ``Y - L R`` and the point's residual image under it.
    ``point`` is None before the first visit, after a visit to a
    stationary block and after rounds that ended on a restart."""

    momentum: float = 1.0
    point: np.ndarray | None = None
    residual: np.ndarray | None = None
    target: np.ndarray | None = None

    def rebase(self, target: np.ndarray) -> np.ndarray:
        """The carried residual image under the next visit's ``target``
        (the factors may have moved), in place and with no product."""
        self.residual += np.subtract(self.target, target, out=self.target)
        self.target = target
        return self.residual


def sparse_inner_descent(state: AnomalyState, instance: AnomalyInstance,
                         rounds: int, proximal: float,
                         lipschitz: float, *,
                         fit: np.ndarray,
                         correlation: np.ndarray,
                         diag: np.ndarray,
                         carry: FistaCarry) -> np.ndarray:
    """Inner layer of the two-layer sparse-block update: ``rounds``
    descent rounds on the strictly convex sparse-block model
    0.5 ||L R + D S - Y||^2 + (proximal/2) ||S - S_t||^2 + gain ||S||_1.

    Round one is ``step_sparse`` on the model: the elementwise best
    response at its exact stepsize, or the anchor itself when the block
    is stationary, so the engine skips it.  (The one-round update of
    ``anomaly_solver`` is the best response alone, with the outer exact
    stepsize doing the stepping.)  Then come ``rounds - 1``
    proximal-gradient rounds with Nesterov momentum (FISTA, Beck and
    Teboulle 2009).  A round is accepted only when it
    decreases the model, and a rejected round drops the momentum
    (adaptive restart, O'Donoghue and Candes 2015), so the output's
    model value is at most the round-one point's, which is at most the
    anchor's (``state.sparse``).
    ``lipschitz`` bounds the model gradient's Lipschitz constant, such
    as ``||D||_2^2 + proximal``, and ``fit``, ``correlation`` and
    ``diag`` are passed on to ``step_sparse``.

    The rounds keep residual images ``r = D S - (Y - L R)`` and take the
    step ``y - (D'r_y + proximal (y - S_t)) / lipschitz`` as
    ``contraction y + pull - D'r_y / lipschitz``.  They are written in
    place, into three buffers that trade names.  Measured worth
    (``scripts/ab_solve.py``, 10 pairs per side assignment, seed 2901):
    the same rounds as plain expressions, each result a new array, kept
    every bit and took 1.30 and 1.26 times as long on ``anomaly_desk``,
    losing all 20 pairs (an earlier measurement of such a rewrite read
    1.49 and 1.47).

    ``carry`` keeps the momentum from one call to the next: the rounds
    start from the round-one point extrapolated away from the carried
    point, as if the round-one point were the next accepted one (its
    residual image is extrapolated from the carried one, rebased to this
    visit's target, so the start forms no product through D), and the
    call leaves its own momentum in ``carry``.  An empty carry starts
    the rounds at the round-one point with momentum 1; a stationary
    block, or a call with one round, empties the carry.
    """
    best, gamma = step_sparse(state, instance, proximal, fit=fit,
                              correlation=correlation, diag=diag)
    if gamma == 0.0:
        carry.momentum, carry.point, carry.residual, carry.target = 1.0, None, None, None
        return best
    D = instance.dictionary
    gain = instance.sparse_gain
    anchor = state.sparse
    threshold = gain / lipschitz
    contraction = 1.0 - proximal / lipschitz
    pull = anchor * (proximal / lipschitz)
    target = instance.measurements - state.left @ state.right

    # the rounds allocate nothing: they write into best, trial and search
    # or their residual images, mostly in place, and buffers trade names
    # as their contents move; search is free once the gradient step ran
    def model(sparse: np.ndarray, residual: np.ndarray, scratch: np.ndarray) -> float:
        shift = np.subtract(sparse, anchor, out=scratch)
        smooth = 0.5 * np.vdot(residual, residual) + 0.5 * proximal * np.vdot(shift, shift)
        return float(smooth + gain * np.abs(sparse, out=shift).sum())

    trial, trial_residual = np.empty_like(anchor), np.empty_like(target)
    best_residual = D @ best
    best_residual -= target
    best_value = model(best, best_residual, trial)
    if carry.point is not None and rounds > 1:
        # the carried momentum, as a FISTA round that accepts best would
        # leave it, extrapolated into the carried buffers
        momentum, weight = _momentum_step(carry.momentum)
        search, search_residual = carry.point, carry.rebase(target)
        _extrapolate(best, search, weight)
        _extrapolate(best_residual, search_residual, weight)
    else:
        search, search_residual = best.copy(), best_residual.copy()
        momentum = 1.0
    for remaining in range(rounds - 2, -1, -1):
        # the gradient step into trial, shrunk in place as itself less its
        # clip to [-threshold, threshold] (x - x is +0.0: no -0.0 comes out)
        search_residual *= -1.0 / lipschitz
        np.matmul(D.T, search_residual, out=trial)
        search *= contraction
        trial += search
        trial += pull
        trial -= np.clip(trial, -threshold, threshold, out=search)
        np.matmul(D, trial, out=trial_residual)
        trial_residual -= target
        value = model(trial, trial_residual, search)
        if value < best_value:
            following, weight = _momentum_step(momentum)
            best, trial = trial, best
            best_residual, trial_residual = trial_residual, best_residual
            best_value, momentum = value, following
            if remaining:
                # the next search point best + weight (best - trial), in
                # the buffers of trial, the point best replaced
                _extrapolate(best, trial, weight)
                _extrapolate(best_residual, trial_residual, weight)
                search, trial = trial, search
                search_residual, trial_residual = trial_residual, search_residual
        elif momentum == 1.0:
            break    # a plain proximal-gradient round failed: model minimized
        else:
            np.copyto(search, best)
            np.copyto(search_residual, best_residual)
            momentum = 1.0
    # after rounds that end on an accepted round (or the carried start)
    # trial holds the point best replaced; after a restart the momentum is 1
    carry.momentum = momentum
    held = (trial, trial_residual, target) if momentum != 1.0 else (None, None, None)
    carry.point, carry.residual, carry.target = held
    return best


def _momentum_step(momentum: float) -> tuple[float, float]:
    """FISTA's next momentum and the extrapolation weight it gives."""
    following = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum * momentum))
    return following, (momentum - 1.0) / following


def _extrapolate(point: np.ndarray, previous: np.ndarray, weight: float) -> None:
    """``previous = point + weight (point - previous)``, in place, with
    the bits of that expression."""
    previous -= point
    previous *= -weight
    previous += point


def step_sparse(state: AnomalyState, instance: AnomalyInstance,
                proximal: float = 0.0, *,
                fit: np.ndarray,
                correlation: np.ndarray,
                diag: np.ndarray) -> tuple[np.ndarray, float]:
    """Candidate, exact stepsize, convex-combination update; gamma = 0
    when the block is already optimal.  E (``fit``), D'E
    (``correlation``) and D's squared column norms (``diag``) are the
    products at ``state``; ``proximal`` is passed on to
    ``sparse_exact_stepsize``."""
    candidate = best_sparse_candidate(state, instance, correlation=correlation,
                                      diag=diag)
    delta = candidate - state.sparse
    if is_stationary(delta, state.sparse):
        return state.sparse, 0.0
    gamma = sparse_exact_stepsize(state, candidate, instance, proximal, fit=fit,
                                  delta=delta)
    # state.sparse + gamma * delta, formed in the candidate's buffer
    np.multiply(delta, gamma, out=candidate)
    candidate += state.sparse
    return candidate, gamma


# ---------------------------------------------------------------------------
# composite-problem adapter
# ---------------------------------------------------------------------------

class AnomalyProducts(TrackedProducts):
    """The product hook of the low-rank + sparse problem (see
    ``core.TrackedProducts``): the residual ``E = L R + D S - Y`` and
    ``D S`` at the tracked points.  A step that moves S re-forms ``D S``,
    one product through D; a factor step keeps it.  E is formed from it
    by the expression of a fresh read, so every read carries the bits of
    fresh products and the sweep-end drift is 0: the hook vouches for
    the products ``carried`` forms (``carried_fresh``), and the sweep-end
    check forms none again.  (Carrying ``E + gamma D delta`` would save
    the product but change the last bits.)  A read off the tracked
    points is fresh, with the same bits.  Each ``anomaly_problem``
    builds its own.

    ``carry`` is the sparse solve's FISTA carry (see
    ``sparse_inner_descent``) for the run the hook serves: ``release``,
    which each run calls before it tracks its start and again at its
    end, empties it."""

    def __init__(self, instance: AnomalyInstance):
        super().__init__()
        self.instance = instance
        self.carry = FistaCarry()
        self._fresh_carry = None

    def fresh(self, x: np.ndarray, sparse_image: np.ndarray | None = None):
        state = vector_to_state(self.instance, x)
        if sparse_image is None:
            sparse_image = self.instance.dictionary @ state.sparse
        fit = state.left @ state.right + sparse_image - self.instance.measurements
        return fit, sparse_image

    def carried(self, held, x_new: np.ndarray, block: int | None,
                gamma: float, direction: np.ndarray):
        # a factor step leaves S, and D S with it
        self._fresh_carry = self.fresh(x_new, held[1] if block in (0, 1) else None)
        return self._fresh_carry

    def carried_fresh(self, products) -> bool:
        """True for the products ``carried`` just formed, which ``fresh``
        formed at their point; the hook then lets go of them."""
        fresh, self._fresh_carry = products is self._fresh_carry, None
        return fresh

    def drift_scale(self, held, fresh) -> float:
        return (float(np.linalg.norm(fresh[0]))
                + float(np.linalg.norm(self.instance.measurements)))

    def sparse_image(self, x: np.ndarray) -> np.ndarray:
        """``D S``: held at a tracked point, fresh elsewhere."""
        return (self.held(x) or self.fresh(x))[1]

    def residual(self, x: np.ndarray) -> np.ndarray:
        """``E = L R + D S - Y``: held at a tracked point, fresh elsewhere."""
        return (self.held(x) or self.fresh(x))[0]

    def release(self) -> None:
        super().release()
        self.carry = FistaCarry()


def anomaly_problem(instance: AnomalyInstance) -> CompositeProblem:
    """Flat-variable view of the objective for the generic engine, with
    a product hook of its own.

    The line profile along a direction touching both factors is quartic
    in the stepsize (the bilinear term), otherwise quadratic, and both
    come out in closed form.
    """
    D = instance.dictionary
    ridge = instance.ridge
    partition = state_partition(instance)
    products = AnomalyProducts(instance)

    def unpack(x: np.ndarray) -> AnomalyState:
        return vector_to_state(instance, x)

    def smooth_value(x: np.ndarray) -> float:
        return _smooth_value(unpack(x), products.residual(x), ridge)

    def block_gradient(x: np.ndarray, k: int) -> np.ndarray:
        s = unpack(x)
        fit = products.residual(x)
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
        fit = products.residual(x)
        first = s.left @ ds.right + ds.left @ s.right
        if block not in (0, 1):    # a factor direction's sparse part is zero
            first += D @ ds.sparse
        second = ds.left @ ds.right
        lin = float(np.vdot(fit, first)) + ridge * (
            float(np.vdot(s.left, ds.left)) + float(np.vdot(s.right, ds.right)))
        quad = float(np.vdot(first, first)) + 2.0 * float(np.vdot(fit, second)) \
            + ridge * (float(np.vdot(ds.left, ds.left))
                       + float(np.vdot(ds.right, ds.right)))
        fourth = 2.0 * float(np.vdot(second, second))
        if fourth == 0.0:
            return quadratic_profile(quad, lin)
        return ScalarProfile(fourth, 3.0 * float(np.vdot(first, second)),
                             quad, lin)

    return CompositeProblem(
        partition=partition,
        smooth_value=smooth_value,
        block_gradient=block_gradient,
        nonsmooth=(Zero(), Zero(), L1Norm(instance.sparse_gain)),
        line_profile=line_profile,
        products=products,
    )


def anomaly_solver(instance: AnomalyInstance,
                   config: SolverConfig | None = None) -> BlockSolver:
    """Block solver; the factor blocks are exact best responses (global
    upper bounds), so the engine takes unit steps.  The sparse block runs
    ``config.inner_iterations`` rounds of ``sparse_inner_descent`` with
    proximal weight ``config.curvature``; without a config it is the
    one-round elementwise best response.  The solves read ``D S`` and
    ``E`` from the problem's ``AnomalyProducts``, which tracks the
    engine's iterate, also after a demoted step, and the sparse solve
    hands ``D'E`` to the engine as the block gradient.  A problem
    without an ``AnomalyProducts`` is rejected with InvalidArgumentError.

    The FISTA momentum of the sparse rounds is carried from one visit to
    the next in the products' ``carry``, so it lasts for one run."""
    rounds = 1 if config is None else config.inner_iterations
    diag = _squared_column_norms(instance.dictionary)
    lipschitz = None
    if rounds > 1:
        lipschitz = float(np.linalg.norm(instance.dictionary, 2)) ** 2 + config.curvature

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        products = problem.products
        if not isinstance(products, AnomalyProducts):
            raise InvalidArgumentError(
                "anomaly_solver reads D S and E from the problem's AnomalyProducts")
        state = vector_to_state(instance, x)
        if k == 0:
            return BlockSolution(best_left_factor(
                state, instance, products.sparse_image(x)).ravel(), True)
        if k == 1:
            return BlockSolution(best_right_factor(
                state, instance, products.sparse_image(x)).ravel(), True)
        fit = products.residual(x)
        correlation = instance.dictionary.T @ fit
        if rounds == 1:
            sparse = best_sparse_candidate(state, instance, correlation=correlation,
                                           diag=diag)
        else:
            sparse = sparse_inner_descent(state, instance, rounds, config.curvature,
                                          lipschitz, fit=fit, correlation=correlation,
                                          diag=diag, carry=products.carry)
        return BlockSolution(sparse.ravel(), False, correlation.ravel())

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
        true_sparse=sparse, seed=seed, density=density, noise_var=noise_var)


def initial_state(instance: AnomalyInstance, seed: int = 0) -> AnomalyState:
    """Seeded Gaussian start at the generating scales of the factors;
    the sparse part starts at 0."""
    n, m, p = instance.shape
    r = instance.rank
    rng = np.random.default_rng(seed)
    return AnomalyState(
        left=rng.standard_normal((n, r)) * np.sqrt(100.0 / p),
        right=rng.standard_normal((r, m)) * np.sqrt(100.0 / m),
        sparse=np.zeros((p, m)))
