"""Sparse quadratic inverse problem (phase retrieval):

    minimize 0.25 * sum_n ((a_n' x)^2 - y_n)^2 + gain * ||x||_1.

The smooth part has no (block) Lipschitz gradient, so no solver here
takes a global smoothness constant.  The outer surrogate linearizes the
residual map inside the quartic loss, which lands on an explicit
quadratic form per block; its subproblem is solved inexactly by a few
elementwise best-response rounds (soft-thresholds), and the outer
stepsize comes from the exact quartic line search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BlockPartition,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    equal_partition,
)
from .engine import inexact_solver, run_bsca
from .errors import InvalidArgumentError
from .linesearch import quartic_profile
from .surrogates import SurrogateModel


@dataclass(frozen=True)
class PhaseRetrievalInstance:
    """Sampling matrix whose columns are the measurement vectors,
    nonnegative squared measurements, l1 gain, and a partition of the
    unknowns into contiguous blocks."""

    sampling: np.ndarray          # unknowns x measurements
    intensities: np.ndarray       # squared measurements, >= 0
    sparse_gain: float
    partition: BlockPartition
    signal: np.ndarray | None = None
    seed: int | None = None
    density: float | None = None

    def __post_init__(self) -> None:
        unknowns, measurements = self.sampling.shape
        if self.intensities.shape != (measurements,):
            raise InvalidArgumentError("intensities must have one entry per measurement")
        if np.any(self.intensities < 0.0):
            raise InvalidArgumentError("intensities must be nonnegative")
        if self.sparse_gain <= 0.0:
            raise InvalidArgumentError("sparse_gain must be positive")
        if self.partition.total != unknowns:
            raise InvalidArgumentError("partition must cover all unknowns")

    @property
    def num_unknowns(self) -> int:
        return self.sampling.shape[0]

    def block_rows(self, k: int) -> np.ndarray:
        return self.sampling[self.partition.slice_of(k), :]


def pr_problem(instance: PhaseRetrievalInstance) -> CompositeProblem:
    """Composite view with the exact quartic line profile.  Along one
    block the profile is built from the block product ``A_k' delta``."""
    A = instance.sampling
    y = instance.intensities

    def smooth_value(x: np.ndarray) -> float:
        fit = (A.T @ x) ** 2 - y
        return float(0.25 * fit @ fit)

    def block_gradient(x: np.ndarray, k: int) -> np.ndarray:
        u = A.T @ x
        return instance.block_rows(k) @ (u * (u * u - y))

    def line_profile(x: np.ndarray, direction: np.ndarray,
                     block: int | None = None):
        u = A.T @ x
        rows = A if block is None else instance.block_rows(block)
        return _quartic_coeffs(u, rows.T @ direction, y)

    return CompositeProblem(
        partition=instance.partition,
        smooth_value=smooth_value,
        block_gradient=block_gradient,
        nonsmooth=tuple(L1Norm(instance.sparse_gain)
                        for _ in range(instance.partition.num_blocks)),
        line_profile=line_profile,
    )


def _quartic_coeffs(u: np.ndarray, w: np.ndarray, y: np.ndarray):
    w_sq = w * w
    v4 = float(w_sq @ w_sq)
    v3 = 3.0 * float(u @ (w_sq * w))
    v2 = float((3.0 * u * u - y) @ w_sq)
    v1 = float((u * (u * u - y)) @ w)
    return quartic_profile(v4, v3, v2, v1)


# ---------------------------------------------------------------------------
# outer surrogate
# ---------------------------------------------------------------------------

def pr_outer_model(instance: PhaseRetrievalInstance, x: np.ndarray, k: int,
                   curvature: float) -> SurrogateModel:
    """Partial linearization of the residual map inside the quartic loss,
    written as the quadratic form (1/2) v'Dv - v'b with
    D = 2 A_k diag(A'x)^2 A_k' + c I and b = D x_k - grad_k f(x)."""
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    u = instance.sampling.T @ x
    rows = instance.block_rows(k)
    matrix = 2.0 * (rows * (u * u)) @ rows.T
    matrix[np.diag_indices_from(matrix)] += curvature
    anchor = x[instance.partition.slice_of(k)].copy()
    grad = rows @ (u * (u * u - instance.intensities))
    linear = matrix @ anchor - grad

    def value(v):
        return float(0.5 * v @ (matrix @ v) - v @ linear)

    def gradient(v):
        return matrix @ v - linear

    return SurrogateModel(
        kind="pr_partial_linearization", block=k, anchor=anchor,
        value_fn=value, grad_fn=gradient, grad_anchor=grad,
        quad_matrix=matrix, quad_linear=linear, curvature=curvature)


# ---------------------------------------------------------------------------
# the two-layer solver
# ---------------------------------------------------------------------------

def run_phase_retrieval(instance: PhaseRetrievalInstance, config: SolverConfig,
                        x0: np.ndarray | None = None) -> RunTrace:
    """Inexact block descent: cyclic/random outer block selection, a
    finite number of soft-threshold inner rounds per block, exact (or
    Armijo) outer stepsize.  The initial point must be nonzero (the
    origin is a saddle with zero gradient).  Every exact outer step is
    audited against fresh objective evaluations, whatever
    ``config.audit_profiles`` says."""
    if x0 is None:
        start = np.random.default_rng(config.seed).standard_normal(instance.num_unknowns)
    else:
        start = np.asarray(x0, dtype=float)
        if not np.any(start):
            raise InvalidArgumentError("initial point must be nonzero")

    def outer_model(problem: CompositeProblem, x: np.ndarray, k: int) -> SurrogateModel:
        return pr_outer_model(instance, x, k, config.curvature)

    return run_bsca(pr_problem(instance), inexact_solver(outer_model, config),
                    replace(config, audit_profiles=True), start)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

def generate_pr_instance(unknowns: int, measurements: int,
                         density: float = 0.01, num_blocks: int = 1,
                         seed: int = 0,
                         sparse_gain: float | None = None) -> PhaseRetrievalInstance:
    """Gaussian sampling matrix with unit-norm columns, a sparse signal
    with exactly ceil(density * unknowns) nonzeros, noiseless squared
    measurements, and the l1 gain 0.05 * max|A y| unless overridden."""
    if unknowns < 1 or measurements < 1:
        raise InvalidArgumentError("dimensions must be positive")
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    sampling = rng.standard_normal((unknowns, measurements))
    sampling /= np.linalg.norm(sampling, axis=0, keepdims=True)
    signal = np.zeros(unknowns)
    support = rng.choice(
        unknowns, size=max(1, int(np.ceil(density * unknowns - 1e-9))),
        replace=False)
    signal[support] = rng.standard_normal(support.size)
    intensities = (sampling.T @ signal) ** 2
    if sparse_gain is None:
        sparse_gain = 0.05 * float(np.abs(sampling @ intensities).max())
    return PhaseRetrievalInstance(
        sampling=sampling, intensities=intensities, sparse_gain=sparse_gain,
        partition=equal_partition(unknowns, num_blocks), signal=signal,
        seed=seed, density=density)


def with_blocks(instance: PhaseRetrievalInstance,
                num_blocks: int) -> PhaseRetrievalInstance:
    """Same data, re-partitioned into ``num_blocks`` contiguous groups."""
    return PhaseRetrievalInstance(
        sampling=instance.sampling, intensities=instance.intensities,
        sparse_gain=instance.sparse_gain,
        partition=equal_partition(instance.num_unknowns, num_blocks),
        signal=instance.signal, seed=instance.seed, density=instance.density)
