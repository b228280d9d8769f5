"""Solver runs: one run loop (``_RunBook.run``) and its steps.  A
sequential step solves one block's subproblem with a block solver (a
closed-form surrogate minimizer, or the inexact two-layer update), a
joint step solves every block's against one anchor (the parallel
variant), and a Bregman step moves the whole variable (the Bregman
proximal gradient baseline).

Every run produces a RunTrace whose objective column is nonincreasing.
A run stops at ``max_outer_iterations``, or earlier with reason
"tolerance" when a full sweep either decreases the objective by less
than ``stop_tol`` (relative) or consists solely of stationarity skips.
A restart from the final point of a run stopped by the latter rule is a
no-op: it starts from fresh products, as the final sweep's check left
them, so each block is skipped again for the reason it was skipped
then.  A stationary block is re-solved to itself; a step the guard
demoted, such as a unit factor step of the low-rank + sparse problem
that no longer lowers the objective, is demoted again.

A problem's product hook (``core.TrackedProducts``) tracks the iterate
alone between steps: a step tracks its end point as well, and the
guard's decision names the point kept.  Each run releases the hook
before it tracks its start, so state a solver carries in the hook from
one visit to the next (the low-rank + sparse solver's FISTA momentum)
starts every run empty, also after a run that raised; that solver reads
none at a stationary block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    PRODUCT_DRIFT_RTOL,
    RANDOM,
    SUCCESSIVE,
    TERMINATED_TOLERANCE,
    BlockPoint,
    CompositeProblem,
    RunTrace,
    SolverConfig,
    block_values,
    composite_value,
    is_stationary,
    objective,
)
from .errors import (
    FeasibilityError,
    InvalidArgumentError,
    ProductDriftError,
    ProfileMismatchError,
)
from .linesearch import (
    ScalarProfile,
    StepResult,
    cubic_real_roots,
    descent_quantity,
    successive_step,
)
from .surrogates import (
    SurrogateModel,
    inner_best_response_step,
    inner_exact_stepsize,
    make_quadratic_surrogate,
    soft_threshold,
)

_AUDIT_GAMMAS = (0.15, 0.35, 0.55, 0.75, 0.95)


@dataclass(frozen=True)
class BlockSolution:
    """Block subproblem minimizer, line-search hints, and the block gradient if formed."""

    minimizer: np.ndarray
    is_global_upper_bound: bool = False
    gradient: np.ndarray | None = None


BlockSolver = Callable[[CompositeProblem, np.ndarray, int], BlockSolution]


def quadratic_solver(curvature: float) -> BlockSolver:
    """The proximal-linear model's closed form as a block solver: one
    elementwise best response at the anchor, exact since D = cI."""

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        model = make_quadratic_surrogate(problem, x, k, curvature)
        minimizer = inner_best_response_step(
            model, model.anchor, model.grad_anchor, problem.nonsmooth[k],
            problem.constraints[k])
        return BlockSolution(minimizer, gradient=model.grad_anchor)

    return solver


# ---------------------------------------------------------------------------
# block selection
# ---------------------------------------------------------------------------

def _block_selector(config: SolverConfig, num_blocks: int) -> Callable[[int], int]:
    """``t -> k``, the 0-based block of iteration t: cyclic from block 0,
    or a uniform draw from a generator seeded with ``config.seed``."""
    if config.block_rule == RANDOM:
        rng = np.random.default_rng(config.seed)
        uniform = np.full(num_blocks, 1.0 / num_blocks)
        return lambda t: int(rng.choice(num_blocks, p=uniform))
    return lambda t: t % num_blocks


def _joint(t: int) -> None:
    """The block selector of the joint loops: every iteration moves all."""
    return None


# ---------------------------------------------------------------------------
# shared run bookkeeping
# ---------------------------------------------------------------------------

class _RunBook:
    """The run loop of every solver, with its guard, trace and stop rule.
    It keeps the iterate's objective and the per-block regularizer values
    it sums, evaluated in full at the start and at each sweep end whose
    check re-formed the products.

    The book validates the config and copies the start ``x0``; a runner
    then drops its own name for the start before ``run``, so the run
    holds no point but its iterate: not the start, which a caller may
    have passed as a temporary, nor a step the guard demoted."""

    def __init__(self, problem: CompositeProblem, config: SolverConfig,
                 x0: np.ndarray, sweep_len: int):
        config.validate()
        x = self.start_point = np.asarray(x0, dtype=float).copy()
        if not problem.is_feasible(x):
            raise FeasibilityError("initial point violates a block constraint")
        self.problem = problem
        self.config = config
        self.sweep_len = sweep_len
        self.trace = RunTrace()
        self.start = time.monotonic()
        if problem.products is not None:
            problem.products.release()
            problem.products.track(x)
            self.trace.product_drift = 0.0
        self._evaluate_all(x)
        self.trace.record(0, -1, 0.0, -1, self.objective, 0.0)
        self.sweep_objective = self.objective
        self.skips = 0

    def run(self, select: Callable[[int], int | None],
            step: Callable[[np.ndarray, int | None], tuple]) -> RunTrace:
        """Iterate from the start: iteration t moves block ``select(t)``
        (None: a joint step), and ``step(x, k)`` gives the candidate and
        its stepsize first."""
        x, self.start_point = self.start_point, None
        for t in range(self.config.max_outer_iterations):
            k = select(t)
            candidate, result = step(x, k)[:2]
            x, stop = self.advance(x, candidate, t, k, result)
            del candidate
            if stop:
                break
        return self.finish(x)

    def advance(self, x_prev: np.ndarray, x_new: np.ndarray, t: int,
                block: int | None, step: StepResult) -> tuple[np.ndarray, bool]:
        """Guard, log, and decide; returns (accepted point, stop flag).

        A nominally effective step whose freshly evaluated objective does
        not strictly decrease (possible only at the rounding floor of an
        exact search) is demoted to a skip, which keeps the trace
        nonincreasing and lets stalls terminate through the all-skip
        rule.  A single-block step moves block ``block`` alone, so the
        guard checks that block's constraint and re-evaluates its
        regularizer only, and sums ``f`` with the kept values of the
        others in the order ``core.objective`` sums them: the same bits
        at a cost that does not grow with the number of blocks.  A joint
        step (``block`` None, recorded as -1) is evaluated in full.  The
        problem's product hook keeps the point returned.  At a sweep
        end, before the stop test, the problem's maintained products are
        checked against fresh ones and replaced by them, and where that
        re-formed them the objective and its per-block values are
        re-evaluated in full (``_resync``), so a restart from the final
        point (which starts from fresh products) repeats the final
        sweep's decisions.
        """
        if step.gamma != 0.0:
            h_new, values = self._evaluate(x_new, t, block)
            if h_new >= self.objective:
                x_new, step, h_new = x_prev, _SKIP, self.objective
            else:
                # None after a joint step, until the sweep end that follows
                self.block_values = values
        else:
            x_new, h_new = x_prev, self.objective
        self.objective = h_new
        if self.problem.products is not None:
            self.problem.products.keep(x_new)
        m = step.armijo_exponent if step.armijo_exponent is not None else -1
        # after a resync the guard compares against the fresh objective,
        # which can sit a rounding step above the last row; rows never rise
        self.trace.record(t + 1, -1 if block is None else block, step.gamma, m,
                          min(h_new, self.trace.final_objective),
                          time.monotonic() - self.start)
        if step.gamma == 0.0:
            self.skips += 1
        stop = False
        if (t + 1) % self.sweep_len == 0:
            self._resync(x_new, t)
            all_skipped = self.skips == self.sweep_len
            rel = ((self.sweep_objective - self.objective)
                   / max(1.0, abs(self.sweep_objective)))
            if all_skipped or rel < self.config.stop_tol:
                self.trace.termination_reason = TERMINATED_TOLERANCE
                self.trace.tolerance_iteration = t + 1
                stop = True
            else:
                self.sweep_objective = self.objective
                self.skips = 0
        return x_new, stop

    def _evaluate(self, x_new: np.ndarray, t: int,
                  block: int | None) -> tuple[float, list[float] | None]:
        """h at a step's end point, and for a block step the per-block
        values it sums; a joint step moves every block and is evaluated
        by ``core.objective``.  Measured worth of the block-local
        evaluation (``scripts/ab_solve.py``, 10 pairs per side
        assignment, two runs): with every step evaluated in full, a
        ``pr_scaleup`` solve (20 blocks) took 1.18-1.23 times as long;
        ``anomaly_desk`` (3 blocks) read 0.98-1.01."""
        problem = self.problem
        if block is None:
            if not problem.is_feasible(x_new):
                raise FeasibilityError(f"iterate left the feasible set at t={t}")
            return objective(problem, x_new), None
        moved = problem.block_of(x_new, block)
        if not problem.constraints[block].contains(moved):
            raise FeasibilityError(f"iterate left the feasible set at t={t}")
        values = self.block_values.copy()
        values[block] = problem.nonsmooth[block].value(moved)
        return composite_value(problem.smooth_value(x_new), values), values

    def _evaluate_all(self, x: np.ndarray) -> None:
        self.block_values = block_values(self.problem, x)
        self.objective = composite_value(self.problem.smooth_value(x),
                                         self.block_values)

    def _resync(self, x: np.ndarray, t: int) -> None:
        """The sweep-end check: products re-formed, feasibility, and a full
        evaluation where the products changed.  The kept objective was
        summed from the products held at ``x`` and from per-block values
        of unchanged blocks, so where ``track`` re-formed none (no hook,
        or products that were fresh) it has the bits a full evaluation
        would give.  Measured with a spying count: a 90-iteration
        low-rank + sparse run makes 1 full evaluation instead of 31."""
        products = self.problem.products
        held = None if products is None else products.held(x)
        if products is not None:
            drift = products.track(x)
            if drift is not None:
                self.trace.product_drift = max(self.trace.product_drift, drift)
                if drift > PRODUCT_DRIFT_RTOL:
                    raise ProductDriftError(
                        f"maintained products drifted {drift:.3e} (relative) from "
                        f"fresh ones by t={t}, beyond {PRODUCT_DRIFT_RTOL:.0e}")
        if not self.problem.is_feasible(x):
            raise FeasibilityError(f"iterate left the feasible set by t={t}")
        if products is not None and products.held(x) is not held:
            self._evaluate_all(x)

    def finish(self, x: np.ndarray) -> RunTrace:
        if self.problem.products is not None:
            self.problem.products.release()
        self.trace.final_point = BlockPoint(x.copy(), self.problem.partition)
        return self.trace


_SKIP = StepResult(0.0)


def _audit_profile(line: Callable[[np.ndarray], np.ndarray],
                   profile: ScalarProfile, chosen: float) -> None:
    """Check the polynomial profile against ``line``, the product hook's
    line along the step (see ``CompositeProblem``), at fixed points of
    [0.15, 0.95], all evaluated in one call with 0.  A chosen stepsize
    short of them is checked too, with half of it: where f moves by
    orders of magnitude more at the fixed points, a wrong low-order
    coefficient hides in their tolerance."""
    gammas = _AUDIT_GAMMAS
    if 0.0 < chosen < _AUDIT_GAMMAS[0]:
        gammas += (chosen, 0.5 * chosen)
    values = line(np.array((0.0,) + gammas))
    f0 = float(values[0])
    for gamma, value in zip(gammas, values[1:]):
        direct = float(value) - f0
        predicted = profile.value(gamma)
        tol = 1e-8 * max(1.0, abs(f0), abs(direct))
        if abs(predicted - direct) > tol:
            raise ProfileMismatchError(
                f"profile predicts {predicted!r} but the objective moved "
                f"{direct!r} at gamma={gamma}")


def _line_search(problem: CompositeProblem, config: SolverConfig,
                 x: np.ndarray, direction: np.ndarray, delta_g: float,
                 d: float, block: int | None = None) -> StepResult:
    """Stepsize along ``direction``, which is block ``block``'s
    displacement when a block is given and the full one otherwise: an
    Armijo backtrack on, or the exact minimizer of, the problem's line
    profile, audited against the product hook's line when it gives one."""
    profile = problem.line_profile(x, direction, block)
    if config.line_search == SUCCESSIVE:
        step = successive_step(profile.value, delta_g, d, config.alpha, config.beta)
    else:
        step = profile.with_slope_offset(delta_g).minimize()
    if problem.products is not None:
        line = problem.products.line(x, direction, block)
        if line is not None:
            _audit_profile(line, profile, step.gamma)
    return step


# ---------------------------------------------------------------------------
# block updates and the run loop
# ---------------------------------------------------------------------------

def _block_move(problem: CompositeProblem, solver: BlockSolver,
                x: np.ndarray, k: int):
    """Solve block k's subproblem and measure the move to its minimizer B:
    ``(B - x_k, g_k(B) - g_k(x_k), d_k, is_global_upper_bound)``, or None
    when the block is stationary (B equals x_k up to rounding)."""
    xk = problem.block_of(x, k)
    sol = solver(problem, x, k)
    minimizer = np.asarray(sol.minimizer, dtype=float)
    delta = minimizer - xk
    if is_stationary(delta, xk):
        return None
    delta_g = problem.nonsmooth[k].change(xk, minimizer)
    grad = sol.gradient if sol.gradient is not None else problem.block_gradient(x, k)
    return (delta, delta_g, descent_quantity(grad, delta, delta_g),
            sol.is_global_upper_bound)


def bsca_step(problem: CompositeProblem, solver: BlockSolver, x: np.ndarray,
              k: int | None, config: SolverConfig) -> tuple[np.ndarray, StepResult, float]:
    """Solve block k's surrogate subproblem and move along the direction;
    with ``k`` None, solve every block's against the one anchor ``x`` and
    take a single joint step along their stacked moves.

    Returns the next point (a block step leaves the other blocks
    untouched), the stepsize, and the descent quantity d (summed over
    the blocks of a joint step).  A step with no move (every block it
    solves is stationary) is skipped with gamma = 0 and d = 0.  An
    effective step updates the problem's product hook.
    """
    x = np.asarray(x, dtype=float)
    if k is None:
        direction = np.zeros(problem.partition.total)
        delta_g = d = 0.0
        is_global_upper_bound = False
        for block in range(problem.num_blocks):
            move = _block_move(problem, solver, x, block)
            if move is not None:
                direction[problem.partition.slice_of(block)] = move[0]
                delta_g += move[1]
                d += move[2]
    else:
        move = _block_move(problem, solver, x, k)
        if move is None:
            return x, _SKIP, 0.0
        direction, delta_g, d, is_global_upper_bound = move
    if d >= 0.0:
        # only reachable at numerical stationarity of the subproblem
        return x, _SKIP, d
    if is_global_upper_bound:
        step = StepResult(1.0)
    else:
        step = _line_search(problem, config, x, direction, delta_g, d, k)
    if k is None:
        x_next = x + step.gamma * direction
    else:
        x_next = x.copy()
        sl = problem.partition.slice_of(k)
        x_next[sl] = x[sl] + step.gamma * direction
    if problem.products is not None and step.gamma != 0.0:
        problem.products.update(x, x_next, k, step.gamma, direction)
    return x_next, step, d


def run_bsca(problem: CompositeProblem, solver: BlockSolver,
             config: SolverConfig, x0: np.ndarray) -> RunTrace:
    """Sequential successive convex approximation over the blocks."""
    book = _RunBook(problem, config, x0, problem.num_blocks)
    del x0
    return book.run(_block_selector(config, problem.num_blocks),
                    lambda x, k: bsca_step(problem, solver, x, k, config))


def run_bgd(problem: CompositeProblem, config: SolverConfig,
            x0: np.ndarray) -> RunTrace:
    """Block gradient descent: ``run_bsca`` with the proximal-linear
    model (``quadratic_solver(config.curvature)``)."""
    return run_bsca(problem, quadratic_solver(config.curvature), config, x0)


def run_parallel_sca(problem: CompositeProblem, solver: BlockSolver,
                     config: SolverConfig, x0: np.ndarray) -> RunTrace:
    """All block subproblems solved against one anchor, then a single
    joint line search (``bsca_step`` with k None); the block-selection
    rule is irrelevant here and one iteration counts as a full sweep."""
    book = _RunBook(problem, config, x0, sweep_len=1)
    del x0
    return book.run(_joint, lambda x, k: bsca_step(problem, solver, x, k, config))


# ---------------------------------------------------------------------------
# inexact two-layer update
# ---------------------------------------------------------------------------

OuterSurrogateFactory = Callable[[CompositeProblem, np.ndarray, int], SurrogateModel]


def inexact_inner_loop(model: SurrogateModel, problem: CompositeProblem,
                       k: int, config: SolverConfig) -> np.ndarray:
    """Run the inner best-response iteration on the outer model for at
    most ``inner_iterations`` rounds and return the approximate
    minimizer.  The rounds end early at a stationary round or at a zero
    stepsize.

    When the very first inner subproblem returns its own anchor (the
    current block already solves the outer subproblem) the result is
    the anchor, so the block update is a stationarity skip.
    """
    reg = problem.nonsmooth[k]
    constraint = problem.constraints[k]
    x_tau = model.anchor.copy()
    # the model gradient, carried as grad + gamma D delta, one D per round
    grad_tau = model.grad_anchor
    for _ in range(config.inner_iterations):
        target = inner_best_response_step(model, x_tau, grad_tau, reg, constraint)
        delta = target - x_tau
        if is_stationary(delta, x_tau):
            break
        quad_delta = model.quad.apply(delta)
        gamma = inner_exact_stepsize(grad_tau, delta, quad_delta,
                                     reg.change(x_tau, target))
        if gamma <= 0.0:
            # the rounding floor: the model no longer decreases along delta
            break
        x_tau = x_tau + gamma * delta
        grad_tau = grad_tau + gamma * quad_delta
    return x_tau


def inexact_solver(outer_factory: OuterSurrogateFactory,
                   config: SolverConfig) -> BlockSolver:
    """The two-layer update as a block solver: the outer model's
    subproblem is solved by ``config.inner_iterations`` inner
    best-response rounds, and the engine's line search takes the outer
    step.  Run it with ``run_bsca``."""

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        model = outer_factory(problem, x, k)
        return BlockSolution(inexact_inner_loop(model, problem, k, config),
                             gradient=model.grad_anchor)

    return solver


# ---------------------------------------------------------------------------
# Bregman proximal gradient baseline (full-variable, quartic kernel)
# ---------------------------------------------------------------------------

def bregman_constant(instance) -> float:
    """Theoretical bound sum_n (3 ||a_n||^4 + ||a_n||^2 y_n)."""
    col_sq = np.einsum("ij,ij->j", instance.sampling, instance.sampling)
    return float(np.sum(3.0 * col_sq ** 2 + col_sq * instance.intensities))


def bregman_step(x: np.ndarray, grad: np.ndarray, constant: float,
                 l1_gain: float) -> np.ndarray:
    """Closed-form minimizer of the Bregman subproblem.

    With p = (||x||^2 + 1) x - grad / L and v the soft-thresholded p, the
    minimizer is theta * v where theta > 0 solves
    ||v||^2 theta^3 + theta - 1 = 0 (strictly increasing, one real root).
    """
    if constant <= 0.0:
        raise InvalidArgumentError("Bregman constant must be positive")
    p = (float(x @ x) + 1.0) * x - grad / constant
    v = soft_threshold(p, l1_gain / constant)
    v_sq = float(v @ v)
    if v_sq == 0.0:
        return v
    roots = cubic_real_roots(v_sq, 0.0, 1.0, -1.0)
    theta = float(roots[-1])
    return theta * v


def run_bpgd(instance, config: SolverConfig, x0: np.ndarray,
             discount: float = 1.0) -> RunTrace:
    """Bregman proximal gradient descent on a phase-retrieval instance.

    Full-variable updates only, with the kernel (1/4)||x||^4 +
    (1/2)||x||^2 and the relative-smoothness constant
    ``bregman_constant(instance) * discount``; the kernel removes the
    need for a Lipschitz gradient, at the price of steps scaled by 1/L.
    """
    from .phase_retrieval import pr_problem    # deferred: avoids a cycle

    problem = pr_problem(instance)
    constant = bregman_constant(instance) * discount
    if constant <= 0.0:
        raise InvalidArgumentError("Bregman constant must be positive")
    A = instance.sampling

    def step(x: np.ndarray, k) -> tuple[np.ndarray, StepResult]:
        u = problem.products.product(x)
        grad = A @ (u * (u * u - instance.intensities))
        candidate = bregman_step(x, grad, constant, instance.sparse_gain)
        if is_stationary(candidate - x, x):
            candidate, result = x, _SKIP
        else:
            result = StepResult(1.0)
        # the guard and the sweep-end check read the fresh A'x formed here
        problem.products.track(candidate)
        return candidate, result

    book = _RunBook(problem, config, x0, sweep_len=1)
    del x0
    return book.run(_joint, step)


def block_residuals(problem: CompositeProblem, solver: BlockSolver,
                    x: np.ndarray) -> np.ndarray:
    """Per-block fixed-point residuals ||B_k x - x_k||; zero at a
    blockwise stationary point."""
    x = np.asarray(x, dtype=float)
    out = np.empty(problem.num_blocks)
    for k in range(problem.num_blocks):
        xk = problem.block_of(x, k)
        minimizer = np.asarray(solver(problem, x, k).minimizer, dtype=float)
        out[k] = np.linalg.norm(minimizer - xk)
    return out
