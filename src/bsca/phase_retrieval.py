"""Sparse quadratic inverse problem (phase retrieval):

    minimize 0.25 * sum_n ((a_n' x)^2 - y_n)^2 + gain * ||x||_1.

The smooth part has no (block) Lipschitz gradient, so no solver here
takes a global smoothness constant.  The outer surrogate linearizes the
residual map inside the quartic loss, which lands on a matrix-free
quadratic form per block; its subproblem is solved inexactly by a few
elementwise best-response rounds (soft-thresholds), and the outer
stepsize comes from the exact quartic line search.  Every layer reads
``u = A'x`` from the problem's ``PhaseProducts``, which a run carries
from step to step and re-forms once per sweep.  Everything runs on the
calling thread; a second core works only through the BLAS's own
threads (``OPENBLAS_NUM_THREADS``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    BlockPartition,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    TrackedProducts,
    _nonzeros,
    _norm,
    _support_count,
    equal_partition,
)
from . import engine
from .engine import BlockSolution, BlockSolver, inexact_solver, run_bsca
from .errors import InvalidArgumentError
from .linesearch import ScalarProfile
from .surrogates import QuadOperator, SurrogateModel, zero_bar


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
_EPS = np.finfo(float).eps


def _spread(grad_u: np.ndarray, grad_u_ref: np.ndarray) -> float:
    """``||grad_u - grad_u'||`` plus the rounding of the block products
    ``A_k grad_u`` and ``A_k grad_u'``: a dot product of length N is off
    by at most ``N eps |a||b|``, so ``4 N eps ||a_i|| (||grad_u|| +
    ||grad_u'||)`` covers both."""
    slack = 4.0 * grad_u.size * _EPS
    return _norm(grad_u - grad_u_ref) + slack * (_norm(grad_u) + _norm(grad_u_ref))


def _sparse_support(v: np.ndarray) -> np.ndarray | None:
    """Indices of the nonzeros of ``v`` when there are at most
    ``_SPARSE_CAP`` of them and they are fewer than half of its entries;
    None when ``v`` is dense under that rule."""
    support = _nonzeros(v)
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


def _fresh_product(instance: PhaseRetrievalInstance, x: np.ndarray):
    """``(A'x, partials)``.  At a sparse ``x`` (``_sparse_support``) the
    product is read from its support rows and the partials are None; at
    a dense one it is the block-order sum of the block partials
    ``A_k'x_k``, which come back as a tuple, one per block.  They are
    formed in one batched product per run of equal-sized blocks, so an
    equal partition reads A in one product."""
    sampling = instance.sampling
    if _sparse_support(x) is not None:
        return _transposed_product(sampling, x), None
    partition = instance.partition
    partials = np.empty((partition.num_blocks, sampling.shape[1]))
    first = 0
    for size, run in itertools.groupby(partition.block_sizes):
        count = len(list(run))
        start = partition.offsets[first]
        stop = start + count * size
        np.matmul(x[start:stop].reshape(count, 1, size),
                  sampling[start:stop].reshape(count, size, -1),
                  out=partials[first:first + count, None])
        first += count
    u = partials[0].copy()
    for partial in partials[1:]:
        u += partial
    return u, tuple(partials)


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

    A fresh ``u`` at a dense point is the block-order sum of the block
    partials ``A_k'x_k`` (``_fresh_product``), tracked or not; a tracked
    point keeps each partial (``partial``) until its block moves, so a
    dense block model and its line search read it instead of forming
    ``A_k'x_k`` again.  ``product`` and ``direction_product`` have a
    sparse path: a vector with at most ``_SPARSE_CAP`` (32) nonzeros,
    fewer than half of its entries, is multiplied through the rows on
    its support only; a dense one keeps ``rows.T @ v``.  ``line``
    evaluates f at an array of stepsizes along a step from ``u`` and
    ``w``, in O(N) each.

    The hook also keeps, for the length of a run, each block's last
    whole-block gradient with its ``u * (u^2 - y)`` (``reference``), and
    the norms of a block's rows from its first diagonal pass over every
    row on (``row_norms``).  With them ``certified_dead`` bounds each
    entry of the block gradient without reading A_k, which certifies
    the entries a sparse visit's working set may leave out
    (``_working_set_visit``): all of them at a zero block that stays
    zero, whose visit then reads no row of A_k."""

    def __init__(self, instance: PhaseRetrievalInstance):
        super().__init__()
        self.instance = instance
        self._last = None
        self._references = {}    # block -> its last (A_k grad_u, grad_u)
        self._row_norms = {}     # block -> ||a_i|| of its rows
        self._work_rows = None

    def fresh(self, x: np.ndarray):
        u, partials = _fresh_product(self.instance, x)
        return u, _norm(u), partials

    def carried(self, held, x_new: np.ndarray, block: int | None,
                gamma: float, direction: np.ndarray):
        w = self.direction_product(block, direction)
        partials = held[2]
        if partials is not None:
            # the moved block's partial is gone; a joint step moves them all
            partials = None if block is None else (
                partials[:block] + (None,) + partials[block + 1:])
        return (held[0] + gamma * w,
                held[1] + abs(gamma) * _norm(w), partials)

    def drift_scale(self, held, fresh) -> float:
        return held[1]

    def release(self) -> None:
        """Track no point and forget the blocks' last gradients."""
        super().release()
        self._references.clear()

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A'x``: the maintained product at a tracked point, a fresh
        one elsewhere."""
        held = self.held(x)
        if held is not None:
            return held[0]
        return _fresh_product(self.instance, x)[0]

    def partial(self, x: np.ndarray, block: int) -> np.ndarray | None:
        """``A_k'x_k`` when ``x`` is tracked and holds it, else None."""
        held = self.held(x)
        if held is None or held[2] is None:
            return None
        return held[2][block]

    def direction_product(self, block: int | None, direction: np.ndarray,
                          x: np.ndarray | None = None) -> np.ndarray:
        """``A_k'd`` (``A'd`` when ``block`` is None), reused while the
        direction is the last array asked for: every solver loop passes
        one direction object to the line profile, its audit and
        ``update``, and never writes into it.  A dense ``d`` from a
        point ``x`` that holds the block's partial, whose end point
        ``x_k + d`` is sparse, is ``A_k'(x_k + d) - A_k'x_k``, read
        from the end point's support rows.  Measured worth of that path
        (``scripts/ab_solve.py``, 8 pairs per side assignment, two runs):
        without it a solve took 1.02-1.06 times as long on
        ``pr_scaleup`` and 1.04-1.09 on ``pr_wide_blocks``."""
        last = self._last
        if last is not None and last[0] == block and last[1] is direction:
            return last[2]
        if block is None:
            w = _transposed_product(self.instance.sampling, direction)
        else:
            rows = self.instance.block_rows(block)
            partial = None if x is None else self.partial(x, block)
            w = None
            if partial is not None and _sparse_support(direction) is None:
                end = x[self.instance.partition.slice_of(block)] + direction
                if _sparse_support(end) is not None:
                    w = _transposed_product(rows, end) - partial
            if w is None:
                w = _transposed_product(rows, direction)
        self._last = (block, direction, w)
        return w

    def line(self, x: np.ndarray, direction: np.ndarray, block: int | None):
        u = self.product(x)
        w = self.direction_product(block, direction, x)
        y = self.instance.intensities

        def values(gammas: np.ndarray) -> np.ndarray:
            fit = np.multiply.outer(gammas, w)
            fit += u
            np.square(fit, out=fit)
            fit -= y
            # one dot per stepsize: the bits of the scalar 0.25 * fit @ fit
            return 0.25 * np.array([row @ row for row in fit])

        return values

    def note_model(self, block: int, grad: np.ndarray, grad_u: np.ndarray) -> None:
        """Keep a whole-block gradient ``A_k grad_u`` with ``grad_u`` as the
        block's reference, until its next one or the run's end."""
        self._references[block] = (grad, grad_u)

    def reference(self, block: int):
        """``(A_k grad_u', grad_u')``, the block's last whole-block
        gradient in the run, or None."""
        return self._references.get(block)

    def row_norms(self, block: int) -> np.ndarray:
        """``||a_i||`` of the block's rows: from the squares of its first
        diagonal pass over every row (``row_norms_sink``), else formed
        here, once."""
        norms = self._row_norms.get(block)
        if norms is None:
            norms = self._row_norms[block] = _norms_of(self.instance.block_rows(block))
        return norms

    def row_norms_sink(self, block: int):
        """What a diagonal pass over every row of the block hands its row
        norms to, or None once they are known.  Measured worth
        (``scripts/ab_solve.py``, 10 pairs per side assignment, two runs):
        with the norms formed apart by ``row_norms``, a solve took
        1.07-1.11 times as long on ``pr_scaleup`` and 1.08-1.10 on
        ``pr_wide_blocks``."""
        if block in self._row_norms:
            return None
        return lambda norms: self._row_norms.setdefault(block, norms)

    def work_rows(self) -> np.ndarray:
        """A ``_SPARSE_CAP`` x N buffer for the rows of a working set
        (``_WorkingSet``), one visit at a time, kept for the hook's life
        so that its pages are touched once, not once per visit."""
        if self._work_rows is None:
            self._work_rows = np.empty((_SPARSE_CAP, self.instance.intensities.size))
        return self._work_rows

    def certified_dead(self, block: int, grad_ref: np.ndarray, spread: float,
                       rounds: int) -> np.ndarray:
        """Which entries of the block's model gradient ``g = A_k grad_u``,
        and of its carried value through ``rounds`` inner rounds, provably
        stay at most the inner best response's bar
        (``surrogates.zero_bar``), so a best response leaves them at zero:
        the entries a working set leaves out (``_working_set_visit``).
        ``grad_ref`` is a gradient ``A_k grad_u'`` and ``spread`` bounds
        how far ``grad_u`` and the rounds' path have moved from ``grad_u'``
        (see ``_spread``), so that ``|g_i| <= |grad_ref_i| + ||a_i||
        spread``; the bound takes a relative margin of ``4 (N + rounds)
        eps`` for its own rounding and the rounds' sums.  Reads no row of
        A_k once the block's row norms are known."""
        slack = 4.0 * (self.instance.intensities.size + rounds) * _EPS
        bound = (np.abs(grad_ref) + self.row_norms(block) * spread) * (1.0 + slack)
        return bound <= zero_bar(self.instance.sparse_gain)


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
                               products.direction_product(block, direction, x), y)

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

# rows per squares product of the diagonal and of the row norms.  The
# diagonal is formed on demand in whole chunks of these rows, so its
# entries keep the bits of one pass over the block in such chunks.
_LAYOUT_ROWS = 16


def _chunk_squares(rows: np.ndarray, chunks):
    """``(start, stop, squares)`` for each of the given 16-row chunks of
    ``rows``, the squares of rows ``start:stop`` in one buffer."""
    squares = np.empty((min(_LAYOUT_ROWS, len(rows)), rows.shape[1]))
    for chunk in chunks:
        start = chunk * _LAYOUT_ROWS
        part = rows[start:start + _LAYOUT_ROWS]
        yield start, start + len(part), np.multiply(part, part, out=squares[:len(part)])


def _norms_of(rows: np.ndarray) -> np.ndarray:
    """``||a_i||`` of each row, from squares formed 16 rows at a time."""
    sums = np.empty(len(rows))
    ones = np.ones(rows.shape[1])
    for start, stop, part in _chunk_squares(rows, range(-(-len(rows) // _LAYOUT_ROWS))):
        sums[start:stop] = part @ ones
    return np.sqrt(sums)


def _row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[i] . right[j]`` for every pair, each a 1-D dot product (one
    batched product with the bits of ``np.dot`` of the two rows, which
    do not depend on what other rows are in either operand)."""
    return np.matmul(left[:, None, None, :], right[None, :, :, None])[:, :, 0, 0]


class _BlockOperator:
    """D = 2 A_k diag(u^2) A_k' + cI of one block model, never formed,
    with what it has formed kept for the model's life (one block visit,
    so ``u`` is fixed).

    - ``gradient`` forms the block gradient ``A_k grad_u`` together with
      the columns ``2 A_k (u^2 * a_j)`` of ``D - cI`` on a given support,
      one per block row ``a_j``, in one product over the block.
    - ``anchored_gradient`` forms it for a dense anchor ``a`` together
      with ``D a``, from the partial ``A_k'a``, in one product.
    - ``apply`` takes a sparse argument (``_sparse_support``) from the
      columns on its support.  The columns not yet held are formed in
      one batched product; when they would take the store past
      ``_SPARSE_CAP`` columns, it starts over with the asked support.  A
      dense argument ``v`` whose end point ``a + v`` is sparse, with
      ``D a`` held, is ``D (a + v) - D a``; any other dense one is
      ``2 A_k (u^2 * (A_k'v)) + cv``, two passes over the block.
    - ``diagonal`` gives the entries on given indices.  It forms the
      16-row chunks (``_LAYOUT_ROWS``) that hold them, those it lacks,
      one squares product each, and keeps them.  While a ``norms_sink``
      is given, its passes also sum the squares of each row, and once
      every chunk is formed, in one call or over several, they hand the
      rows' norms ``||a_i||`` to it."""

    def __init__(self, rows: np.ndarray, u_sq: np.ndarray, curvature: float,
                 norms_sink=None):
        self.rows = rows
        self.norms_sink = norms_sink
        self.u_sq = u_sq
        self.twice_u_sq = 2.0 * u_sq
        self.curvature = curvature
        self.slot = np.full(rows.shape[0], -1)    # row -> held column, or -1
        self.held = 0
        self.columns = np.empty((_SPARSE_CAP, rows.shape[0]))
        self.anchor = self.anchor_image = None    # a and D a, dense anchors only
        self.diag = np.empty(rows.shape[0])
        self.formed = np.zeros(-(-rows.shape[0] // _LAYOUT_ROWS), dtype=bool)    # by chunk
        self.complete = False
        self.sums = None if norms_sink is None else np.empty(rows.shape[0])    # ||a_i||^2

    def gradient(self, grad_u: np.ndarray, support: np.ndarray) -> np.ndarray:
        """``A_k grad_u``, from the product that also forms the columns on
        ``support`` (at most ``_SPARSE_CAP`` rows): the rows
        ``[grad_u; 2 u^2 * a_j for j in support]`` are stacked and
        multiplied by ``A_k'`` once.  With ``support`` empty it is a
        one-row product.  Measured worth (``scripts/ab_solve.py``, 8 pairs
        per side assignment, two runs): with the gradient a gemv and the
        columns formed apart, a ``pr_wide_blocks`` solve took 1.07-1.12
        times as long."""
        stack = np.empty((1 + support.size, self.rows.shape[1]))
        stack[0] = grad_u
        # mode="clip" writes the gathered rows straight into ``out``; the
        # default mode would gather them into a temporary first
        np.take(self.rows, support, axis=0, out=stack[1:], mode="clip")
        stack[1:] *= self.twice_u_sq
        products = stack @ self.rows.T
        self._hold(support, products[1:])
        return products[0]

    def anchored_gradient(self, grad_u: np.ndarray, anchor: np.ndarray,
                          partial: np.ndarray) -> np.ndarray:
        """``A_k grad_u``, from the product of ``[grad_u; 2 u^2 * A_k'a]``
        with ``A_k'``, which also gives ``D a`` for ``apply``.  Measured
        worth (``scripts/ab_solve.py``, 8 pairs per side assignment, two
        runs): without ``D a``, so that a dense argument always takes two
        passes, a ``pr_scaleup`` solve took 1.07-1.08 times as long."""
        stack = np.empty((2, self.rows.shape[1]))
        stack[0] = grad_u
        np.multiply(self.twice_u_sq, partial, out=stack[1])
        products = stack @ self.rows.T
        self.anchor = anchor
        self.anchor_image = products[1] + self.curvature * anchor
        return products[0]

    def _hold(self, new: np.ndarray, columns: np.ndarray) -> None:
        end = self.held + new.size
        self.columns[self.held:end] = columns
        self.slot[new] = np.arange(self.held, end)
        self.held = end

    def apply(self, v: np.ndarray) -> np.ndarray:
        support = _sparse_support(v)
        if support is None and self.anchor is not None:
            end = self.anchor + v
            support = _sparse_support(end)
            if support is not None:
                return self._from_columns(end, support) - self.anchor_image
        if support is None:
            image = self.rows @ (self.u_sq * (self.rows.T @ v))
            return 2.0 * image + self.curvature * v
        return self._from_columns(v, support)

    def _from_columns(self, v: np.ndarray, support: np.ndarray) -> np.ndarray:
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
        """The diagonal on ``index``, from the chunks that hold it.
        Measured worth (``scripts/ab_solve.py``, 12 pairs per side
        assignment, two runs, traces bit for bit): with the whole diagonal
        formed at the first request, a ``pr_wide_blocks`` solve took
        1.04-1.26 times as long, and a ``pr_scaleup`` one 0.97-1.10."""
        if not self.complete:
            chunks = index // _LAYOUT_ROWS
            missing = chunks[~self.formed[chunks]]
            if missing.size:
                missing = np.unique(missing)
                ones = None if self.sums is None else np.ones(self.rows.shape[1])
                for start, stop, part in _chunk_squares(self.rows, missing.tolist()):
                    self.diag[start:stop] = 2.0 * (part @ self.u_sq) + self.curvature
                    if ones is not None:
                        self.sums[start:stop] = part @ ones
                self.formed[missing] = True
                self.complete = bool(self.formed.all())
                if self.complete and ones is not None:
                    self.norms_sink(np.sqrt(self.sums))
        return self.diag[index]


class _WorkingSet:
    """The model of a sparse-anchor block visit restricted to a working
    set W of the block's entries (at most ``_SPARSE_CAP``), read from W's
    rows of A_k alone.  Its vectors stay block-length, zero off W, and
    each entry on W is a 1-D dot product (``_row_dots``), whose bits do
    not depend on what else W holds: the gradient ``a_i'grad_u``, the
    entries ``a_i'w_j`` of ``D - cI``, with ``w_j = 2 u^2 * a_j``, on its
    diagonal and in the columns of the entries an argument moves, and
    their sums in ``apply``.  So two working sets that both hold every
    entry the inner rounds move give the same rounds bit for bit.

    ``apply`` also adds up, in ``path``, the norms ``||2 u^2 * (A_k'v)||``
    of the arguments it is given, one per inner round, so that
    ``||a_i||`` times their sum bounds how far the rounds move the
    gradient ``a_i'(2 u^2 * (A_k'(x_tau - a)))`` of an entry off W,
    since every inner stepsize is at most 1."""

    def __init__(self, rows: np.ndarray, u_sq: np.ndarray, grad_u: np.ndarray,
                 curvature: float, buffer: np.ndarray):
        length = rows.shape[0]
        self.rows = rows
        self.twice_u_sq = 2.0 * u_sq
        self.grad_u = grad_u
        self.curvature = curvature
        self.size = 0                                   # |W|
        self.order = np.empty(_SPARSE_CAP, dtype=np.intp)    # W, in the order it joined
        self.position = np.full(length, -1)             # row -> its place in W, or -1
        self.gathered = buffer     # a_i, by place
        self.entries = np.empty((_SPARSE_CAP, _SPARSE_CAP))       # a_i'w_j, by places
        self.columns = np.zeros(_SPARSE_CAP, dtype=bool)          # places j formed
        self.gradient = np.zeros(length)
        self.diag = np.empty(length)
        self.path = 0.0

    def cover(self, working: np.ndarray) -> None:
        """Take every entry of ``working`` into W: its gradient, its
        diagonal and its entries in the columns formed so far."""
        new = working[self.position[working] < 0]
        if not new.size:
            return
        first, end = self.size, self.size + new.size
        gathered = self.gathered[first:end]
        np.take(self.rows, new, axis=0, out=gathered, mode="clip")
        weighted = gathered * self.twice_u_sq
        self.gradient[new] = _row_dots(gathered, self.grad_u[None])[:, 0]
        self.diag[new] = np.matmul(gathered[:, None, :], weighted[:, :, None])[:, 0, 0]
        self.diag[new] += self.curvature
        formed = _nonzeros(self.columns[:first])
        if formed.size:
            self.entries[first:end, formed] = _row_dots(
                gathered, self.gathered[formed] * self.twice_u_sq)
        self.order[first:end] = new
        self.position[new] = np.arange(first, end)
        self.size = end

    def apply(self, v: np.ndarray) -> np.ndarray:
        support = _nonzeros(v)
        places = self.position[support]
        new = places[~self.columns[places]]
        size = self.size
        if new.size:
            self.entries[:size, new] = _row_dots(self.gathered[:size],
                                                 self.gathered[new] * self.twice_u_sq)
            self.columns[new] = True
        values = v[support]
        out = np.zeros(len(v))
        out[self.order[:size]] = _row_dots(self.entries[:size, places], values[None])[:, 0]
        out += self.curvature * v
        coefficients = np.zeros(size)
        coefficients[places] = values
        image = coefficients @ self.gathered[:size]    # A_k'v
        self.path += _norm(self.twice_u_sq * image)
        return out


def pr_outer_model(problem: CompositeProblem, x: np.ndarray, k: int,
                   curvature: float) -> SurrogateModel:
    """Partial linearization of the residual map inside the quartic loss:
    the block model with D = 2 A_k diag(A'x)^2 A_k' + c I, which is
    never formed (``_BlockOperator``).  An argument with at most
    ``_SPARSE_CAP`` (32) nonzeros, fewer than half the block's rows, is
    applied from the columns of D on its support, which the model forms
    on demand and keeps for its own life, one block visit; any other in
    two passes over A_k.  The block gradient comes from one product over
    A_k.  At a sparse anchor (same rule) that product also forms the
    columns on the anchor's support, so a visit whose inner steps stay
    on that support reads A_k once.  At a dense anchor it also forms
    ``D a`` from the partial ``A_k'a`` (held by the product hook, else
    formed), so a first inner step to a sparse target is applied from
    the target's columns: with the diagonal, three passes over A_k.
    The diagonal is formed on demand, 16 rows at a time, where the
    best response reads it; the block's first diagonal to be completed
    also gives the product hook the rows' norms.

    ``problem`` is a ``pr_problem``: the data and ``A'x`` come from its
    product hook, so inside a run the model reads the maintained
    product; the hook keeps the gradient as the block's reference
    (``PhaseProducts.reference``).

    ``pr_solver`` builds this model for a dense anchor, and for a sparse
    one only when its working set would pass ``_SPARSE_CAP``."""
    if curvature <= 0.0:
        raise InvalidArgumentError("curvature must be positive")
    x = np.asarray(x, dtype=float)
    products = problem.products
    instance = products.instance
    u = products.product(x)
    u_sq = u * u
    grad_u = u * (u_sq - instance.intensities)
    rows = instance.block_rows(k)
    operator = _BlockOperator(rows, u_sq, curvature, products.row_norms_sink(k))
    anchor = x[instance.partition.slice_of(k)].copy()
    support = _sparse_support(anchor)
    if support is None:
        partial = products.partial(x, k)
        if partial is None:
            partial = _transposed_product(rows, anchor)
        grad = operator.anchored_gradient(grad_u, anchor, partial)
    else:
        grad = operator.gradient(grad_u, support)
    products.note_model(k, grad, grad_u)
    return SurrogateModel(anchor, grad, QuadOperator(operator.apply, operator.diagonal))


def _working_set_visit(problem: CompositeProblem, x: np.ndarray, k: int,
                       config: SolverConfig) -> BlockSolution | None:
    """Block k's visit solved on a working set W (``_WorkingSet``), or
    None when its anchor is dense or W would pass ``_SPARSE_CAP``.

    W is the anchor's support and every entry that a reference gradient
    cannot certify dead (``PhaseProducts.certified_dead``): first the
    block's last whole-block gradient in the run, which costs no pass
    over A_k; failing that, the exact gradient ``A_k grad_u``, one
    matrix-vector pass, which becomes the block's new reference.  The
    inner rounds run on W, and an entry off W is dead when its bound,
    widened by the drift of the rounds' path, stays under the gain.  W
    grows by every entry whose bound fails, and the rounds run again.
    Every W that the check passes gives the same rounds bit for bit, so
    the result does not depend on which reference chose W: a restart,
    which has none, takes the steps the run took."""
    products = problem.products
    instance = products.instance
    anchor = x[instance.partition.slice_of(k)].copy()
    support = _sparse_support(anchor)
    if support is None:
        return None
    u = products.product(x)
    u_sq = u * u
    grad_u = u * (u_sq - instance.intensities)
    rows = instance.block_rows(k)

    def settle(grad_ref: np.ndarray, spread: float) -> BlockSolution | None:
        live = ~products.certified_dead(k, grad_ref, spread, config.inner_iterations)
        live[support] = True
        working = _nonzeros(live)
        visit = _WorkingSet(rows, u_sq, grad_u, config.curvature, products.work_rows())
        model = SurrogateModel(anchor, visit.gradient,
                               QuadOperator(visit.apply, visit.diag.__getitem__))
        while working.size <= _SPARSE_CAP:
            visit.cover(working)
            visit.path = 0.0
            minimizer = engine.inexact_inner_loop(model, problem, k, config)
            live = ~products.certified_dead(k, grad_ref, spread + visit.path,
                                            config.inner_iterations)
            live[visit.order[:visit.size]] = False
            if not live.any():
                return BlockSolution(minimizer, gradient=visit.gradient)
            live[working] = True
            working = _nonzeros(live)
        return None

    reference = products.reference(k)
    solution = (None if reference is None
                else settle(reference[0], _spread(grad_u, reference[1])))
    if solution is None:
        grad = rows @ grad_u
        products.note_model(k, grad, grad_u)
        solution = settle(grad, _spread(grad_u, grad_u))
    return solution


# ---------------------------------------------------------------------------
# the two-layer solver
# ---------------------------------------------------------------------------

def pr_solver(config: SolverConfig) -> BlockSolver:
    """The phase-retrieval block solver.  A block with a sparse anchor
    runs ``config.inner_iterations`` inner rounds on a working set
    (``_working_set_visit``): a visit that its reference certifies reads
    only W's rows of A_k, and any other makes one matrix-vector pass
    over A_k.  Any other block, and a working set past ``_SPARSE_CAP``,
    runs the rounds on ``pr_outer_model`` (``engine.inexact_solver``)."""
    modelled = inexact_solver(
        lambda problem, x, k: pr_outer_model(problem, x, k, config.curvature), config)

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        solution = _working_set_visit(problem, x, k, config)
        return modelled(problem, x, k) if solution is None else solution

    return solver


def run_phase_retrieval(instance: PhaseRetrievalInstance, config: SolverConfig,
                        x0: np.ndarray | None = None) -> RunTrace:
    """Inexact block descent (``run_bsca`` with ``pr_solver``):
    cyclic/random outer block selection, a finite number of
    soft-threshold inner rounds per block, exact (or Armijo) outer
    stepsize.  The initial point must be nonzero (the origin is a saddle
    with zero gradient).  Every exact outer step audits its quartic
    profile against ``PhaseProducts.line``, as every exact step on a
    ``pr_problem`` does."""
    if x0 is None:
        start = np.random.default_rng(config.seed).standard_normal(instance.num_unknowns)
    else:
        start = np.asarray(x0, dtype=float)
        if not np.any(start):
            raise InvalidArgumentError("initial point must be nonzero")
    return run_bsca(pr_problem(instance), pr_solver(config), config, start)


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
    partition = pr_partition(unknowns, measurements, density, num_blocks)
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
        partition=partition, signal=signal, seed=seed, density=density)


def pr_partition(unknowns: int, measurements: int, density: float,
                 num_blocks: int) -> BlockPartition:
    """The block partition of the instance ``generate_pr_instance`` draws
    with these settings; raises InvalidArgumentError or
    InvalidPartitionError on settings it rejects, which it checks here
    before it draws anything."""
    if unknowns < 1 or measurements < 1:
        raise InvalidArgumentError("dimensions must be positive")
    if not 0.0 < density <= 1.0:
        raise InvalidArgumentError("density must lie in (0, 1]")
    return equal_partition(unknowns, num_blocks)


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
    return replace(instance, partition=equal_partition(instance.num_unknowns, num_blocks))
