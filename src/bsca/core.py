"""Shared model types: block partitions, composite problems, solver
configuration and run telemetry.

The decision variable is a flat vector of length ``I`` split into ``K``
contiguous blocks of sizes ``I_1, ..., I_K``.  A composite problem is
``h(x) = f(x) + sum_k g_k(x_k)`` with a smooth (possibly nonconvex) ``f``,
per-block convex regularizers ``g_k`` and per-block convex constraint
sets (unconstrained or box in this package).
"""

from __future__ import annotations

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


@dataclass
class BlockPoint:
    """A flat variable together with its block partition.

    ``block(k)`` returns a numpy view, so writing through it mutates only
    that block of ``values``.
    """

    values: np.ndarray
    partition: BlockPartition

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size != self.partition.total:
            raise InvalidPartitionError(
                f"point has length {self.values.size}, "
                f"partition expects {self.partition.total}")

    def block(self, k: int) -> np.ndarray:
        return self.values[self.partition.slice_of(k)]

    def copy(self) -> "BlockPoint":
        return BlockPoint(self.values.copy(), self.partition)


# ---------------------------------------------------------------------------
# constraints and regularizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unconstrained:
    def contains(self, v: np.ndarray, atol: float = FEASIBILITY_ATOL) -> bool:
        return bool(np.all(np.isfinite(v)))

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

    def contains(self, v: np.ndarray, atol: float = FEASIBILITY_ATOL) -> bool:
        return bool(np.all(v >= self.lower - atol) and np.all(v <= self.upper + atol))

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
        return float(self.gain * np.abs(v).sum())


Regularizer = Zero | L1Norm


# ---------------------------------------------------------------------------
# composite problem
# ---------------------------------------------------------------------------

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
    closed-form exact line searches and fall back to golden section
    without it.

    Existence of limit points (a coercive objective or bounded constraint
    sets) is the caller's obligation; nothing here can check it.
    """

    partition: BlockPartition
    smooth_value: Callable[[np.ndarray], float]
    block_gradient: Callable[[np.ndarray, int], np.ndarray]
    nonsmooth: tuple[Regularizer, ...]
    constraints: tuple[Constraint, ...] = ()
    line_profile: Callable[..., object] | None = None

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

    def is_feasible(self, x: np.ndarray, atol: float = FEASIBILITY_ATOL) -> bool:
        return all(
            self.constraints[k].contains(self.block_of(x, k), atol)
            for k in range(self.num_blocks)
        )


def _as_flat(x) -> np.ndarray:
    return x.values if isinstance(x, BlockPoint) else np.asarray(x, dtype=float)


def objective(problem: CompositeProblem, x) -> float:
    """h(x) = f(x) + sum_k g_k(x_k); raises FeasibilityError off the set."""
    xf = _as_flat(x)
    if not problem.is_feasible(xf):
        raise FeasibilityError("point violates a block constraint")
    total = float(problem.smooth_value(xf))
    for k in range(problem.num_blocks):
        total += problem.nonsmooth_value(k, problem.block_of(xf, k))
    return total


def smooth_objective(problem: CompositeProblem, x: np.ndarray) -> float:
    return float(problem.smooth_value(_as_flat(x)))


def block_gradient_check(problem: CompositeProblem, x, k: int,
                         eps: float = 1e-6) -> float:
    """Max abs deviation between the analytic block gradient and a
    central-difference estimate; diagnostic only."""
    if eps <= 0:
        raise InvalidArgumentError("eps must be positive")
    xf = _as_flat(x)
    analytic = problem.block_gradient(xf, k)
    sl = problem.partition.slice_of(k)
    estimate = np.empty_like(analytic)
    work = xf.copy()
    for i in range(estimate.size):
        j = sl.start + i
        orig = work[j]
        work[j] = orig + eps
        up = problem.smooth_value(work)
        work[j] = orig - eps
        down = problem.smooth_value(work)
        work[j] = orig
        estimate[i] = (up - down) / (2.0 * eps)
    return float(np.max(np.abs(analytic - estimate))) if estimate.size else 0.0


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
    stationarity skip.

    ``audit_profiles`` checks every closed-form line profile against
    five fresh evaluations of ``f`` before its minimizer is trusted
    (ProfileMismatchError beyond 1e-8 relative); each audit costs six
    evaluations of ``f``.  ``run_phase_retrieval`` audits whatever the
    setting.
    """

    max_outer_iterations: int
    block_rule: str = CYCLIC
    probabilities: tuple[float, ...] | None = None
    seed: int = 0
    line_search: str = EXACT
    alpha: float = 0.1
    beta: float = 0.5
    armijo_max_exponent: int = 60
    inner_iterations: int = 1
    inner_line_search: str = EXACT
    stop_tol: float = 1e-8
    curvature: float = 1e-4
    stationarity_rtol: float = 1e-12
    audit_profiles: bool = False

    def validate(self, num_blocks: int | None = None) -> None:
        if self.max_outer_iterations < 0:
            raise ConfigError("max_outer_iterations must be >= 0")
        if self.block_rule not in (CYCLIC, RANDOM):
            raise ConfigError(f"unknown block rule {self.block_rule!r}")
        if self.line_search not in (EXACT, SUCCESSIVE):
            raise ConfigError(f"unknown line search {self.line_search!r}")
        if self.inner_line_search not in (EXACT, SUCCESSIVE):
            raise ConfigError(f"unknown inner line search {self.inner_line_search!r}")
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
        if self.probabilities is not None:
            p = np.asarray(self.probabilities, dtype=float)
            if num_blocks is not None and p.size != num_blocks:
                raise ConfigError("need one probability per block")
            if p.min() <= 0.0:
                raise ConfigError("block probabilities must all be positive")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ConfigError("block probabilities must sum to one")


def is_stationary(delta: np.ndarray, anchor: np.ndarray, rtol: float) -> bool:
    """True when the displacement ``delta`` from ``anchor`` is zero up to
    rounding, ``||delta|| <= rtol * (1 + ||anchor||)``; every solver skips
    such a step."""
    return bool(np.linalg.norm(delta) <= rtol * (1.0 + np.linalg.norm(anchor)))


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
