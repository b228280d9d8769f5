"""Shared model types: block partitions, composite problems, solver
configuration and run telemetry.

The decision variable is a flat vector of length ``I`` split into ``K``
contiguous blocks of sizes ``I_1, ..., I_K``.  A composite problem is
``h(x) = f(x) + sum_k g_k(x_k)`` with a smooth (possibly nonconvex) ``f``,
per-block convex regularizers ``g_k`` and per-block convex constraint
sets (unconstrained or box in this package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    FeasibilityError,
    InvalidArgumentError,
    InvalidPartitionError,
)

FEASIBILITY_ATOL = 1e-12

# bar on the relative drift of maintained products (CompositeProblem.
# products) at a sweep end: rounding leaves about 1e-15
PRODUCT_DRIFT_RTOL = 1e-9

# the stationarity bar (``is_stationary``): a move of at most this much
# relative to the point is rounding
STATIONARITY_RTOL = 1e-12


# ---------------------------------------------------------------------------
# partitions and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockPartition:
    """Sizes and offsets of the contiguous blocks of a flat variable."""

    block_sizes: tuple[int, ...]
    offsets: tuple[int, ...]
    total: int

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    def slice_of(self, k: int) -> slice:
        start = self.offsets[k]
        return slice(start, start + self.block_sizes[k])

    def embed(self, k: int, block: np.ndarray) -> np.ndarray:
        """Flat vector that holds ``block`` in block k and zeros elsewhere."""
        flat = np.zeros(self.total)
        flat[self.slice_of(k)] = block
        return flat


def make_partition(block_sizes: Sequence[int]) -> BlockPartition:
    """Build a partition from positive block sizes.

    Raises InvalidPartitionError on an empty sequence or a nonpositive size.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if not sizes:
        raise InvalidPartitionError("partition needs at least one block")
    if any(s < 1 for s in sizes):
        raise InvalidPartitionError(f"block sizes must be >= 1, got {sizes}")
    offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(sizes)[:-1])))
    return BlockPartition(sizes, offsets, sum(sizes))


def equal_partition(total: int, num_blocks: int) -> BlockPartition:
    """Contiguous near-equal blocks; the remainder is spread over the
    leading blocks."""
    if num_blocks < 1 or total < num_blocks:
        raise InvalidPartitionError(
            f"cannot split {total} coordinates into {num_blocks} blocks")
    base, rem = divmod(total, num_blocks)
    return make_partition([base + 1] * rem + [base] * (num_blocks - rem))


def _support_count(density: float, total: int) -> int:
    """The support size of a generated sparse truth: ceil(density *
    total), with protection against float wobble just above an integer;
    always at least 1."""
    return max(1, int(np.ceil(density * total - 1e-9)))


@dataclass
class BlockPoint:
    """A flat variable together with its block partition."""

    values: np.ndarray
    partition: BlockPartition

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size != self.partition.total:
            raise InvalidPartitionError(
                f"point has length {self.values.size}, "
                f"partition expects {self.partition.total}")


# ---------------------------------------------------------------------------
# constraints and regularizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unconstrained:
    def contains(self, v: np.ndarray) -> bool:
        return bool(np.isfinite(v).all())

    def clip(self, v: np.ndarray) -> np.ndarray:
        return v


@dataclass(frozen=True)
class Box:
    """Elementwise bounds ``lower <= v <= upper`` (closed, convex)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if np.any(lo > hi):
            raise InvalidArgumentError("box requires lower <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def contains(self, v: np.ndarray) -> bool:
        return bool(np.all(v >= self.lower - FEASIBILITY_ATOL)
                    and np.all(v <= self.upper + FEASIBILITY_ATOL))

    def clip(self, v: np.ndarray) -> np.ndarray:
        return np.clip(v, self.lower, self.upper)


Constraint = Unconstrained | Box


@dataclass(frozen=True)
class Zero:
    """g_k = 0."""

    def value(self, v: np.ndarray) -> float:
        return 0.0


@dataclass(frozen=True)
class L1Norm:
    """g_k(v) = gain * ||v||_1."""

    gain: float

    def __post_init__(self) -> None:
        if self.gain < 0:
            raise InvalidArgumentError("l1 gain must be nonnegative")

    def value(self, v: np.ndarray) -> float:
        # the reduction ``sum`` makes, without its Python wrapper
        return float(self.gain * np.add.reduce(np.abs(v), axis=None))


Regularizer = Zero | L1Norm


# ---------------------------------------------------------------------------
# composite problem
# ---------------------------------------------------------------------------

class TrackedProducts:
    """Products of the iterate that a problem maintains across a run
    (for phase retrieval, ``u = A'x``), so that the closures of the
    problem read them instead of re-forming them.

    A point is *tracked* from the ``track`` or ``update`` that names it,
    by identity, not by a copy: the solver loops never write into a
    point they have handed over.  Between steps one point is tracked.
    ``update`` tracks the step's end point and keeps its start until
    ``keep`` names the point the run goes on from.  ``held`` gives the
    products at a tracked point, None elsewhere, where a subclass's
    reads are fresh.

    Products formed fresh are not formed again at the same point: a
    ``track`` of a point whose products were formed fresh returns drift
    0 without re-forming them.  That holds for carried products too when
    the subclass vouches for them (``carried_fresh``).

    A subclass forms its products afresh (``fresh``), carries them
    along a step (``carried``), and gives the scale its drift is
    measured against (``drift_scale``).  The first entry of its products
    is the array the drift compares.  It may also give ``line``, a
    function that maps an array of stepsizes ``gamma`` to the array of
    ``f(x + gamma d)`` from its products, where ``direction`` and
    ``block`` mean what they mean for ``CompositeProblem.line_profile``.
    A hook that gives one has every closed-form profile audited through
    it, at all the audit's stepsizes in one call; without one, profiles
    are trusted and f is evaluated afresh along the step.
    """

    def __init__(self) -> None:
        # each entry is (point, products, whether they were formed fresh)
        self._current = None
        self._previous = None    # the step's start, from update until keep

    def _tracked(self, x: np.ndarray):
        for tracked in (self._current, self._previous):
            if tracked is not None and tracked[0] is x:
                return tracked
        return None

    def held(self, x: np.ndarray):
        """The products at ``x`` when it is tracked, else None."""
        tracked = self._tracked(x)
        return None if tracked is None else tracked[1]

    def track(self, x: np.ndarray) -> float | None:
        """Form the products of ``x`` afresh and track ``x`` alone.  When
        ``x`` was tracked already, return the relative drift of the
        maintained products against the fresh ones; else None."""
        tracked = self._tracked(x)
        if tracked is not None and tracked[2]:
            # fresh products again would have the same bits
            self._current, self._previous = tracked, None
            return 0.0
        fresh = self.fresh(x)
        self._current, self._previous = (x, fresh, True), None
        if tracked is None:
            return None
        held = tracked[1]
        return (float(np.linalg.norm(held[0] - fresh[0]))
                / max(self.drift_scale(held, fresh), np.finfo(float).tiny))

    def update(self, x: np.ndarray, x_new: np.ndarray, block: int | None,
               gamma: float, direction: np.ndarray) -> None:
        """Carry the products of a tracked ``x`` to ``x_new = x + gamma d``
        and track both until ``keep``.  When ``x`` is not tracked, the
        run has left the tracked points: track none."""
        tracked = self._tracked(x)
        if tracked is None:
            self._current = self._previous = None
            return
        self._previous = tracked
        carried = self.carried(tracked[1], x_new, block, gamma, direction)
        self._current = (x_new, carried, self.carried_fresh(carried))

    def carried_fresh(self, products) -> bool:
        """Whether products that ``carried`` returned have the bits of
        fresh ones at their point, so that a ``track`` there need not
        form them again: never, here."""
        return False

    def keep(self, x: np.ndarray) -> None:
        """Track ``x`` alone, the point the run goes on from, or nothing
        when it is not tracked."""
        self._current, self._previous = self._tracked(x), None

    def release(self) -> None:
        """Track no point."""
        self._current = self._previous = None

    def line(self, x: np.ndarray, direction: np.ndarray, block: int | None):
        """None: f is evaluated afresh along the step (see above)."""
        return None


@dataclass(frozen=True)
class CompositeProblem:
    """h(x) = f(x) + sum_k g_k(x_k) over a Cartesian product of sets.

    ``smooth_value`` and ``block_gradient`` must be pure functions of the
    flat variable.  ``line_profile(x, direction, block=None)``, when
    provided, returns the exact polynomial profile of
    ``f(x + gamma * d) - f(x)`` on [0, 1] as a ScalarProfile (see
    linesearch), where ``d`` is ``direction`` itself when ``block`` is
    None and ``direction`` embedded in block ``block`` otherwise (then
    ``direction`` has that block's length).  Solvers use it for
    closed-form exact line searches; without it they scan ``f`` along
    the step (a grid, then golden section).

    ``products``, when provided, is a TrackedProducts.  Each run
    releases it and ``track``s the start; ``bsca_step`` ``update``s it
    after every effective step, and
    ``_RunBook.advance`` ``keep``s the point its guard kept; at every
    sweep end the run loop ``track``s the iterate again, raise
    ProductDriftError when the maintained products have drifted from
    fresh ones by more than ``PRODUCT_DRIFT_RTOL``, and re-evaluate the
    objective from the fresh ones.  When the hook gives a ``line``, an
    exact step checks its closed-form profile against it at six points
    of the step before the minimizer is trusted (ProfileMismatchError
    beyond 1e-8 relative); without one, no step is audited.  The
    successive search and the scan of an exact search without a profile
    evaluate ``f`` along the step through ``line`` when the hook gives
    one, and afresh otherwise.  The closures stay pure: at a tracked
    point they may read the maintained products, which agree with fresh
    ones up to that drift; at any other point they compute from scratch.

    Existence of limit points (a coercive objective or bounded constraint
    sets) is the caller's obligation; nothing here can check it.
    """

    partition: BlockPartition
    smooth_value: Callable[[np.ndarray], float]
    block_gradient: Callable[[np.ndarray, int], np.ndarray]
    nonsmooth: tuple[Regularizer, ...]
    constraints: tuple[Constraint, ...] = ()
    line_profile: Callable[..., object] | None = None
    products: TrackedProducts | None = None

    def __post_init__(self) -> None:
        K = self.partition.num_blocks
        if len(self.nonsmooth) != K:
            raise InvalidArgumentError("need one regularizer per block")
        if not self.constraints:
            object.__setattr__(self, "constraints", tuple(Unconstrained() for _ in range(K)))
        if len(self.constraints) != K:
            raise InvalidArgumentError("need one constraint per block")

    @property
    def num_blocks(self) -> int:
        return self.partition.num_blocks

    def block_of(self, x: np.ndarray, k: int) -> np.ndarray:
        return x[self.partition.slice_of(k)]

    def nonsmooth_value(self, k: int, v: np.ndarray) -> float:
        return self.nonsmooth[k].value(v)

    def is_feasible(self, x: np.ndarray) -> bool:
        return all(
            self.constraints[k].contains(self.block_of(x, k))
            for k in range(self.num_blocks)
        )


def objective(problem: CompositeProblem, x: np.ndarray) -> float:
    """h(x) = f(x) + sum_k g_k(x_k); raises FeasibilityError off the set."""
    x = np.asarray(x, dtype=float)
    if not problem.is_feasible(x):
        raise FeasibilityError("point violates a block constraint")
    return composite_value(problem.smooth_value(x), block_values(problem, x))


def block_values(problem: CompositeProblem, x: np.ndarray) -> list[float]:
    """The regularizer values g_k(x_k), one per block."""
    return [problem.nonsmooth_value(k, problem.block_of(x, k))
            for k in range(problem.num_blocks)]


def composite_value(smooth: float, values: Sequence[float]) -> float:
    """f + sum_k g_k, summed in block order as ``objective`` sums it, so
    the same terms give the same bits."""
    total = float(smooth)
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# solver configuration
# ---------------------------------------------------------------------------

CYCLIC = "cyclic"
RANDOM = "random"
EXACT = "exact"
SUCCESSIVE = "successive"


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by every solver in the package.

    max_outer_iterations counts single-block updates; one sweep is
    ``num_blocks`` consecutive iterations.  The run stops early when the
    relative objective decrease over a full sweep drops below
    ``stop_tol`` or when every block update in a sweep was a
    stationarity skip.  The random block rule draws each block
    uniformly, from a generator seeded with ``seed``.

    ``inner_iterations`` caps the inner rounds ``inexact_solver`` runs
    on each outer subproblem; they stop earlier once a round is
    stationary (``is_stationary``), so a larger cap solves the
    subproblem to its fixed point.
    """

    max_outer_iterations: int
    block_rule: str = CYCLIC
    seed: int = 0
    line_search: str = EXACT
    alpha: float = 0.1
    beta: float = 0.5
    inner_iterations: int = 1
    stop_tol: float = 1e-8
    curvature: float = 1e-4

    def validate(self) -> None:
        if self.max_outer_iterations < 0:
            raise ConfigError("max_outer_iterations must be >= 0")
        if self.block_rule not in (CYCLIC, RANDOM):
            raise ConfigError(f"unknown block rule {self.block_rule!r}")
        if self.line_search not in (EXACT, SUCCESSIVE):
            raise ConfigError(f"unknown line search {self.line_search!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie in (0, 1)")
        if self.inner_iterations < 1:
            raise ConfigError("inner_iterations must be >= 1")
        if self.stop_tol < 0:
            raise ConfigError("stop_tol must be >= 0")
        if self.curvature <= 0:
            raise ConfigError("curvature must be positive")


def is_stationary(delta: np.ndarray, anchor: np.ndarray) -> bool:
    """True when the displacement ``delta`` from ``anchor`` is zero up to
    rounding, ``||delta|| <= STATIONARITY_RTOL * (1 + ||anchor||)``; every
    solver skips such a step."""
    return _norm(delta) <= STATIONARITY_RTOL * (1.0 + _norm(anchor))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real array, with its bits: the square
    root of the dot product of the array raveled as numpy ravels it,
    without the checks that cost ``np.linalg.norm`` microseconds a call."""
    v = v.ravel(order="K")
    return math.sqrt(v @ v)


def _nonzeros(v: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(v)``, without its dispatch."""
    return v.ravel().nonzero()[0]


# ---------------------------------------------------------------------------
# run telemetry
# ---------------------------------------------------------------------------

TRACE_HEADER = "iter,block,stepsize,armijo_m,objective,elapsed_s"

TERMINATED_TOLERANCE = "tolerance"
TERMINATED_MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    block: int                 # -1 for the initial row and joint updates
    stepsize: float
    armijo_exponent: int       # -1 when no backtracking ran
    objective: float
    elapsed_s: float


@dataclass
class RunTrace:
    """Per-iteration telemetry plus the final iterate."""

    entries: list[TraceEntry] = field(default_factory=list)
    final_point: BlockPoint | None = None
    termination_reason: str = TERMINATED_MAX_ITERATIONS
    tolerance_iteration: int | None = None
    # largest drift of the maintained products found at a sweep end;
    # None when the problem maintains none
    product_drift: float | None = None

    def record(self, iteration: int, block: int, stepsize: float,
               armijo_exponent: int, obj: float, elapsed_s: float) -> None:
        self.entries.append(TraceEntry(iteration, block, float(stepsize),
                                       int(armijo_exponent), float(obj),
                                       float(elapsed_s)))

    @property
    def objectives(self) -> np.ndarray:
        return np.array([e.objective for e in self.entries])

    @property
    def stepsizes(self) -> np.ndarray:
        return np.array([e.stepsize for e in self.entries])

    @property
    def final_objective(self) -> float:
        return self.entries[-1].objective

    @property
    def iterations(self) -> int:
        return self.entries[-1].iteration

    def to_csv(self) -> str:
        lines = [TRACE_HEADER]
        for e in self.entries:
            lines.append("%d,%d,%.17g,%d,%.17g,%.17g" % (
                e.iteration, e.block, e.stepsize, e.armijo_exponent,
                e.objective, e.elapsed_s))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_csv())
