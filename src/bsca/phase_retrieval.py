"""Sparse quadratic inverse problem (phase retrieval):

    minimize 0.25 * sum_n ((a_n' x)^2 - y_n)^2 + gain * ||x||_1.

The smooth part has no (block) Lipschitz gradient, so no solver here
takes a global smoothness constant.  The outer surrogate linearizes the
residual map inside the quartic loss, which lands on a matrix-free
quadratic form per block; its subproblem is solved inexactly by a few
elementwise best-response rounds (soft-thresholds), and the outer
stepsize comes from the exact quartic line search.  Every layer reads
``u = A'x`` from the problem's ``PhaseProducts``, which a run carries
from step to step and re-forms once per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BlockPartition,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    TrackedProducts,
    _support_count,
    equal_partition,
)
from .engine import inexact_solver, run_bsca
from .errors import InvalidArgumentError
from .linesearch import ScalarProfile
from .surrogates import QuadOperator, SurrogateModel


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


_SPARSE_CAP = 32    # most nonzeros of a vector taken on its support rows


def _sparse_support(v: np.ndarray) -> np.ndarray | None:
    """Indices of the nonzeros of ``v`` when there are at most
    ``_SPARSE_CAP`` of them and they are fewer than half of its entries;
    None when ``v`` is dense under that rule."""
    support = np.flatnonzero(v)
    if support.size <= _SPARSE_CAP and 2 * support.size < v.size:
        return support
    return None


def _transposed_product(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``rows.T @ v``, read from the rows on the support of ``v`` alone
    when ``v`` is sparse (``_sparse_support``)."""
    support = _sparse_support(v)
    if support is None:
        return rows.T @ v
    return rows[support].T @ v[support]


class PhaseProducts(TrackedProducts):
    """The product hook of phase retrieval (see ``core.TrackedProducts``):
    ``u = A'x`` at the tracked points.  A step carries ``u`` to
    ``u + gamma w``, where ``w = A_k'd`` is the block product the line
    profile formed (kept for the last direction), so a sweep of block
    steps forms no full product until its sweep-end check.  The drift
    is measured against the sum of the norms of the terms ``u`` was
    built from (the fresh product and each ``gamma w``), with which its
    rounding grows.  Each ``pr_problem`` builds its own, so runs never
    read each other's products.

    ``product``, ``direction_product`` and ``track`` have a sparse path:
    a vector with at most ``_SPARSE_CAP`` (32) nonzeros, fewer than half
    of its entries, is multiplied through the rows on its support only;
    a dense one keeps ``rows.T @ v``.  ``line`` evaluates f along a
    step from ``u`` and ``w`` in O(N)."""

    def __init__(self, instance: PhaseRetrievalInstance):
        super().__init__()
        self.instance = instance
        self._last = None

    def fresh(self, x: np.ndarray):
        u = _transposed_product(self.instance.sampling, x)
        return u, float(np.linalg.norm(u))

    def carried(self, held, x_new: np.ndarray, block: int | None,
                gamma: float, direction: np.ndarray):
        w = self.direction_product(block, direction)
        return held[0] + gamma * w, held[1] + abs(gamma) * float(np.linalg.norm(w))

    def drift_scale(self, held, fresh) -> float:
        return held[1]

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A'x``: the maintained product at a tracked point, a fresh
        one elsewhere."""
        held = self.held(x)
        if held is not None:
            return held[0]
        return _transposed_product(self.instance.sampling, x)

    def direction_product(self, block: int | None,
                          direction: np.ndarray) -> np.ndarray:
        """``A_k'd`` (``A'd`` when ``block`` is None), reused while the
        direction is the last array asked for: every solver loop passes
        one direction object to the line profile, its audit and
        ``update``, and never writes into it."""
        last = self._last
        if last is not None and last[0] == block and last[1] is direction:
            return last[2]
        rows = (self.instance.sampling if block is None
                else self.instance.block_rows(block))
        w = _transposed_product(rows, direction)
        self._last = (block, direction, w)
        return w

    def line(self, x: np.ndarray, direction: np.ndarray, block: int | None):
        u = self.product(x)
        w = self.direction_product(block, direction)
        y = self.instance.intensities

        def value(gamma: float) -> float:
            fit = (u + gamma * w) ** 2 - y
            return float(0.25 * fit @ fit)

        return value


def pr_problem(instance: PhaseRetrievalInstance) -> CompositeProblem:
    """Composite view with the exact quartic line profile and a product
    hook of its own.  Along one block the profile is built from the
    block product ``A_k' delta``."""
    y = instance.intensities
    products = PhaseProducts(instance)

    def smooth_value(x: np.ndarray) -> float:
        fit = products.product(x) ** 2 - y
        return float(0.25 * fit @ fit)

    def block_gradient(x: np.ndarray, k: int) -> np.ndarray:
        u = products.product(x)
        return instance.block_rows(k) @ (u * (u * u - y))

    def line_profile(x: np.ndarray, direction: np.ndarray,
                     block: int | None = None):
        return _quartic_coeffs(products.product(x),
                               products.direction_product(block, direction), y)

    return CompositeProblem(
        partition=instance.partition,
        smooth_value=smooth_value,
        block_gradient=block_gradient,
        nonsmooth=tuple(L1Norm(instance.sparse_gain)
                        for _ in range(instance.partition.num_blocks)),
        line_profile=line_profile,
        products=products,
    )


def _quartic_coeffs(u: np.ndarray, w: np.ndarray, y: np.ndarray):
    w_sq = w * w
    v4 = float(w_sq @ w_sq)
    v3 = 3.0 * float(u @ (w_sq * w))
    v2 = float((3.0 * u * u - y) @ w_sq)
    v1 = float((u * (u * u - y)) @ w)
    return ScalarProfile(v4, v3, v2, v1)


# ---------------------------------------------------------------------------
# outer surrogate
# ---------------------------------------------------------------------------

# rows per squares product of the diagonal.  The entries keep the bits
# of a gemv over 16-row chunks of A_k (_LAYOUT_ROWS) because the gemv
# sums each output the same way in any block-aligned group of 4 rows.
# A lone last row is summed one way when it is a chunk on its own
# (block lengths 1 mod 16) and another inside a longer chunk, so it is
# formed alone only then and with the group before it otherwise.
_CHUNK_ROWS = 4
_LAYOUT_ROWS = 16


class _BlockOperator:
    """D = 2 A_k diag(u^2) A_k' + cI of one block model, never formed,
    with what it has formed kept for the model's life (one block visit,
    so ``u`` is fixed).

    - ``gradient`` forms the block gradient ``A_k grad_u`` together with
      the columns ``2 A_k (u^2 * a_j)`` of ``D - cI`` on a given support,
      one per block row ``a_j``, in one product over the block.
    - ``apply`` takes a dense argument as ``2 A_k (u^2 * (A_k'v)) + cv``,
      two passes over the block, and a sparse one (``_sparse_support``)
      from the columns on its support.  The columns not yet held are
      formed in one batched product; when they would take the store past
      ``_SPARSE_CAP`` columns, it starts over with the asked support.
    - ``diagonal`` gives the entries on given indices.  It forms the
      block-aligned groups of ``_CHUNK_ROWS`` (4) rows that hold them,
      one squares product each, and keeps them; the entries have the
      bits of a pass over 16-row chunks (see ``_CHUNK_ROWS``)."""

    def __init__(self, rows: np.ndarray, u_sq: np.ndarray, curvature: float):
        self.rows = rows
        self.u_sq = u_sq
        self.twice_u_sq = 2.0 * u_sq
        self.curvature = curvature
        self.slot = np.full(rows.shape[0], -1)    # row -> held column, or -1
        self.held = 0
        self.columns = np.empty((_SPARSE_CAP, rows.shape[0]))
        self.diag = np.empty(rows.shape[0])
        length = rows.shape[0]
        groups = -(-length // _CHUNK_ROWS)
        if length % _CHUNK_ROWS == 1 and length % _LAYOUT_ROWS != 1:
            groups -= 1    # the lone last row joins the group before it
        self.formed = np.zeros(groups, dtype=bool)

    def gradient(self, grad_u: np.ndarray, support: np.ndarray) -> np.ndarray:
        """``A_k grad_u``, from the product that also forms the columns on
        ``support`` (at most ``_SPARSE_CAP`` rows): the rows
        ``[grad_u; 2 u^2 * a_j for j in support]`` are stacked and
        multiplied by ``A_k'`` once.  With ``support`` empty it is a
        one-row product."""
        stack = np.empty((1 + support.size, self.rows.shape[1]))
        stack[0] = grad_u
        # mode="clip" writes the gathered rows straight into ``out``; the
        # default mode would gather them into a temporary first
        np.take(self.rows, support, axis=0, out=stack[1:], mode="clip")
        stack[1:] *= self.twice_u_sq
        products = stack @ self.rows.T
        self._hold(support, products[1:])
        return products[0]

    def _hold(self, new: np.ndarray, columns: np.ndarray) -> None:
        end = self.held + new.size
        self.columns[self.held:end] = columns
        self.slot[new] = np.arange(self.held, end)
        self.held = end

    def apply(self, v: np.ndarray) -> np.ndarray:
        support = _sparse_support(v)
        if support is None:
            rows = self.rows
            return 2.0 * (rows @ (self.u_sq * (rows.T @ v))) + self.curvature * v
        new = support[self.slot[support] < 0]
        if new.size:
            if self.held + new.size > _SPARSE_CAP:
                self.slot[:] = -1
                self.held = 0
                new = support
            weighted = self.rows[new]
            weighted *= self.twice_u_sq
            self._hold(new, weighted @ self.rows.T)
        coefficients = np.zeros(self.held)
        coefficients[self.slot[support]] = v[support]
        return coefficients @ self.columns[:self.held] + self.curvature * v

    def diagonal(self, index: np.ndarray) -> np.ndarray:
        last = self.formed.size - 1
        wanted = np.zeros_like(self.formed)
        wanted[np.minimum(index // _CHUNK_ROWS, last)] = True
        for group in np.flatnonzero(wanted & ~self.formed):
            start = group * _CHUNK_ROWS
            stop = len(self.rows) if group == last else start + _CHUNK_ROWS
            rows = self.rows[start:stop]
            self.diag[start:stop] = 2.0 * ((rows * rows) @ self.u_sq) + self.curvature
        self.formed |= wanted
        return self.diag[index]


def pr_outer_model(problem: CompositeProblem, x: np.ndarray, k: int,
                   curvature: float) -> SurrogateModel:
    """Partial linearization of the residual map inside the quartic loss:
    the block model with D = 2 A_k diag(A'x)^2 A_k' + c I, which is
    never formed (``_BlockOperator``).  A dense argument is applied in
    two passes over A_k; an argument with at most ``_SPARSE_CAP`` (32)
    nonzeros, fewer than half the block's rows, from the columns of D on
    its support, which the model forms on demand and keeps for its own
    life, one block visit.  The block gradient comes from one product
    over A_k that also forms the columns on the anchor's support, when
    the anchor is sparse under the same rule, so a visit whose inner
    steps stay on that support reads A_k once.  The diagonal is formed
    on demand, a few rows at a time, where the best response reads it.
    ``problem`` is a ``pr_problem``: the data and ``A'x`` come from its
    product hook, so inside a run the model reads the maintained
    product."""
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    instance = problem.products.instance
    u = problem.products.product(x)
    u_sq = u * u
    operator = _BlockOperator(instance.block_rows(k), u_sq, curvature)
    anchor = x[instance.partition.slice_of(k)].copy()
    support = _sparse_support(anchor)
    if support is None:
        support = np.empty(0, dtype=np.intp)    # a dense anchor: the gradient alone
    grad = operator.gradient(u * (u_sq - instance.intensities), support)
    return SurrogateModel(anchor, grad, QuadOperator(operator.apply, operator.diagonal))


# ---------------------------------------------------------------------------
# the two-layer solver
# ---------------------------------------------------------------------------

def run_phase_retrieval(instance: PhaseRetrievalInstance, config: SolverConfig,
                        x0: np.ndarray | None = None) -> RunTrace:
    """Inexact block descent: cyclic/random outer block selection, a
    finite number of soft-threshold inner rounds per block, exact (or
    Armijo) outer stepsize.  The initial point must be nonzero (the
    origin is a saddle with zero gradient).  Every exact outer step
    audits its quartic profile against ``PhaseProducts.line``, as every
    exact step on a ``pr_problem`` does."""
    if x0 is None:
        start = np.random.default_rng(config.seed).standard_normal(instance.num_unknowns)
    else:
        start = np.asarray(x0, dtype=float)
        if not np.any(start):
            raise InvalidArgumentError("initial point must be nonzero")

    def outer_model(problem: CompositeProblem, x: np.ndarray, k: int) -> SurrogateModel:
        return pr_outer_model(problem, x, k, config.curvature)

    return run_bsca(pr_problem(instance), inexact_solver(outer_model, config),
                    config, start)


# ---------------------------------------------------------------------------
# synthetic instances
# ---------------------------------------------------------------------------

_DRAW_ROWS = 8     # rows of the sampling matrix drawn at a time


def generate_pr_instance(unknowns: int, measurements: int,
                         density: float = 0.01, num_blocks: int = 1,
                         seed: int = 0, sparse_gain: float | None = None,
                         out: np.ndarray | None = None) -> PhaseRetrievalInstance:
    """Gaussian sampling matrix with unit-norm columns, a sparse signal
    with exactly ceil(density * unknowns) nonzeros, noiseless squared
    measurements, and the l1 gain 0.05 * max|A y| unless overridden.

    The matrix is drawn into ``out`` when it is given (a C-contiguous
    float64 unknowns x measurements array, such as the mapped file of
    ``storage.map_pr_sampling``), else into a new array, with the same
    bits; see ``_draw_unit_columns``."""
    if unknowns < 1 or measurements < 1:
        raise InvalidArgumentError("dimensions must be positive")
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError("density must lie in (0, 1]")
    if out is None:
        out = np.empty((unknowns, measurements))
    elif (out.shape != (unknowns, measurements) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise InvalidArgumentError(
            f"out must be a C-contiguous float64 {unknowns} x {measurements} array")
    rng = np.random.default_rng(seed)
    sampling = _draw_unit_columns(rng, out)
    signal = np.zeros(unknowns)
    support = rng.choice(unknowns, size=_support_count(density, unknowns),
                         replace=False)
    signal[support] = rng.standard_normal(support.size)
    intensities = (sampling.T @ signal) ** 2
    if sparse_gain is None:
        sparse_gain = 0.05 * float(np.abs(sampling @ intensities).max())
    return PhaseRetrievalInstance(
        sampling=sampling, intensities=intensities, sparse_gain=sparse_gain,
        partition=equal_partition(unknowns, num_blocks), signal=signal,
        seed=seed, density=density)


def _draw_unit_columns(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with standard normals, _DRAW_ROWS rows at a time, and
    scale its columns to unit norm.  The draws are those of one
    ``rng.standard_normal(out.shape)``.  The squares of each drawn row
    are added into the column sums while its chunk is in cache, one row
    after another: the order of ``np.linalg.norm(out, axis=0)`` on two
    or more columns, whose bits the norms keep (a single column of 8 or
    more rows numpy sums pairwise instead).  The work arrays are two
    rows long."""
    squares = np.empty(out.shape[1])
    sums = np.zeros(out.shape[1])
    for lo in range(0, out.shape[0], _DRAW_ROWS):
        chunk = out[lo:lo + _DRAW_ROWS]
        rng.standard_normal(out=chunk)
        for row in chunk:
            sums += np.multiply(row, row, out=squares)
    out /= np.sqrt(sums)
    return out


def with_blocks(instance: PhaseRetrievalInstance,
                num_blocks: int) -> PhaseRetrievalInstance:
    """Same data, re-partitioned into ``num_blocks`` contiguous groups."""
    return PhaseRetrievalInstance(
        sampling=instance.sampling, intensities=instance.intensities,
        sparse_gain=instance.sparse_gain,
        partition=equal_partition(instance.num_unknowns, num_blocks),
        signal=instance.signal, seed=instance.seed, density=instance.density)
