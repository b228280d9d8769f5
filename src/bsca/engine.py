"""Solver loops: one sequential loop over block solvers (closed-form
surrogate minimizers, or the inexact two-layer update), the
all-blocks-at-once parallel variant, and the Bregman proximal gradient
baseline.

Every loop produces a RunTrace whose objective column is nonincreasing.
A run stops at ``max_outer_iterations``, or earlier with reason
"tolerance" when a full sweep either decreases the objective by less
than ``stop_tol`` (relative) or consists solely of stationarity skips.
The latter makes restarts from a converged point pure no-ops: each block
subproblem is re-solved by a pure function, reproduces its minimizer bit
for bit, and is skipped again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    EXACT,
    RANDOM,
    SUCCESSIVE,
    TERMINATED_TOLERANCE,
    BlockPoint,
    CompositeProblem,
    RunTrace,
    SolverConfig,
    is_stationary,
    objective,
)
from .errors import (
    ConfigError,
    FeasibilityError,
    InvalidArgumentError,
    ProfileMismatchError,
)
from .linesearch import (
    ScalarProfile,
    StepResult,
    _grid_golden,
    callable_profile,
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
    solve_surrogate,
)

_AUDIT_GAMMAS = (0.15, 0.35, 0.55, 0.75, 0.95)


@dataclass(frozen=True)
class BlockSolution:
    """Minimizer of one block subproblem plus its line-search hints."""

    minimizer: np.ndarray
    is_global_upper_bound: bool = False


BlockSolver = Callable[[CompositeProblem, np.ndarray, int], BlockSolution]


def make_surrogate_solver(factory: Callable[..., SurrogateModel],
                          inner=None) -> BlockSolver:
    """Turn a surrogate factory (problem, x, k) -> model into a block
    solver via the catalog closed forms."""

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        model = factory(problem, x, k)
        minimizer = solve_surrogate(model, problem.nonsmooth[k],
                                    problem.constraints[k], inner=inner)
        return BlockSolution(minimizer, model.is_global_upper_bound)

    return solver


def quadratic_solver(curvature: float) -> BlockSolver:
    return make_surrogate_solver(
        lambda problem, x, k: make_quadratic_surrogate(problem, x, k, curvature))


# ---------------------------------------------------------------------------
# block selection
# ---------------------------------------------------------------------------

@dataclass
class BlockRule:
    """Cyclic visits or seeded categorical draws over the blocks."""

    kind: str = "cyclic"
    probabilities: np.ndarray | None = None
    rng: np.random.Generator | None = None


def make_block_rule(config: SolverConfig, num_blocks: int) -> BlockRule:
    if config.block_rule == RANDOM:
        if config.probabilities is not None:
            p = np.asarray(config.probabilities, dtype=float)
        else:
            p = np.full(num_blocks, 1.0 / num_blocks)
        return BlockRule(RANDOM, p, np.random.default_rng(config.seed))
    return BlockRule()


def select_block(rule: BlockRule, t: int, num_blocks: int) -> int:
    """0-based block index for iteration t (cyclic order starts at 0)."""
    if rule.kind == RANDOM:
        return int(rule.rng.choice(num_blocks, p=rule.probabilities))
    return t % num_blocks


# ---------------------------------------------------------------------------
# shared run bookkeeping
# ---------------------------------------------------------------------------

class _RunBook:
    def __init__(self, problem: CompositeProblem, config: SolverConfig,
                 x: np.ndarray, sweep_len: int):
        if not problem.is_feasible(x):
            raise FeasibilityError("initial point violates a block constraint")
        self.problem = problem
        self.config = config
        self.sweep_len = sweep_len
        self.trace = RunTrace()
        self.start = time.monotonic()
        self.objective = objective(problem, x)
        self.trace.record(0, -1, 0.0, -1, self.objective, 0.0)
        self.sweep_objective = self.objective
        self.skips = 0

    def advance(self, x_prev: np.ndarray, x_new: np.ndarray, t: int,
                block: int, step: StepResult) -> tuple[np.ndarray, bool]:
        """Guard, log, and decide; returns (accepted point, stop flag).

        A nominally effective step whose freshly evaluated objective does
        not strictly decrease (possible only at the rounding floor of an
        exact search) is demoted to a skip, which keeps the trace
        nonincreasing and lets stalls terminate through the all-skip
        rule.
        """
        if step.gamma != 0.0:
            if not self.problem.is_feasible(x_new):
                raise FeasibilityError(f"iterate left the feasible set at t={t}")
            h_new = objective(self.problem, x_new)
            if h_new >= self.objective:
                x_new, step, h_new = x_prev, _SKIP, self.objective
        else:
            x_new, h_new = x_prev, self.objective
        self.objective = h_new
        m = step.armijo_exponent if step.armijo_exponent is not None else -1
        self.trace.record(t + 1, block, step.gamma, m, h_new,
                          time.monotonic() - self.start)
        if step.gamma == 0.0:
            self.skips += 1
        stop = False
        if (t + 1) % self.sweep_len == 0:
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

    def finish(self, x: np.ndarray) -> RunTrace:
        self.trace.final_point = BlockPoint(x.copy(), self.problem.partition)
        return self.trace


_SKIP = StepResult(0.0, None, 0.0)


def _audit_profile(problem: CompositeProblem, x: np.ndarray,
                   direction: np.ndarray, profile: ScalarProfile) -> None:
    """Check the polynomial profile against fresh objective evaluations."""
    f0 = problem.smooth_value(x)
    for gamma in _AUDIT_GAMMAS:
        direct = problem.smooth_value(x + gamma * direction) - f0
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
    displacement when a block is given and the full one otherwise."""
    full = direction if block is None else problem.partition.embed(block, direction)
    if config.line_search == SUCCESSIVE:

        def phi(gamma: float) -> float:
            return problem.smooth_value(x + gamma * full)

        return successive_step(phi, delta_g, d, config.alpha, config.beta,
                               config.armijo_max_exponent)

    if problem.line_profile is not None:
        profile = problem.line_profile(x, direction, block)
        if profile.kind != "callable":
            if config.audit_profiles:
                _audit_profile(problem, x, full, profile)
            return profile.with_slope_offset(delta_g).minimize()

    f0 = problem.smooth_value(x)
    return _grid_golden(callable_profile(
        lambda g: problem.smooth_value(x + g * full) - f0 + g * delta_g))


# ---------------------------------------------------------------------------
# sequential block updates
# ---------------------------------------------------------------------------

def bsca_step(problem: CompositeProblem, solver: BlockSolver, x: np.ndarray,
              k: int, config: SolverConfig) -> tuple[np.ndarray, StepResult, float]:
    """Solve block k's surrogate subproblem and move along the direction.

    Returns the next point (other blocks untouched), the stepsize, and
    the descent quantity d_k.  When the block is already optimal (the
    minimizer coincides with the current block up to rounding) the step
    is skipped with gamma = 0.
    """
    x = np.asarray(x, dtype=float)
    sl = problem.partition.slice_of(k)
    xk = x[sl]
    sol = solver(problem, x, k)
    minimizer = np.asarray(sol.minimizer, dtype=float)
    delta = minimizer - xk
    if is_stationary(delta, xk, config.stationarity_rtol):
        return x, _SKIP, 0.0
    reg = problem.nonsmooth[k]
    g_min = reg.value(minimizer)
    g_cur = reg.value(xk)
    d = descent_quantity(problem.block_gradient(x, k), minimizer, xk,
                         g_min, g_cur)
    if d >= 0.0:
        # only reachable at numerical stationarity of the subproblem
        return x, _SKIP, d
    if sol.is_global_upper_bound:
        step = StepResult(1.0, None, 0.0)
    else:
        step = _line_search(problem, config, x, delta, g_min - g_cur, d, k)
    x_next = x.copy()
    x_next[sl] = xk + step.gamma * delta
    return x_next, step, d


def run_bsca(problem: CompositeProblem, solver: BlockSolver,
             config: SolverConfig, x0: np.ndarray) -> RunTrace:
    """Sequential successive convex approximation over the blocks."""
    config.validate(problem.num_blocks)
    x = np.asarray(x0, dtype=float).copy()
    rule = make_block_rule(config, problem.num_blocks)
    book = _RunBook(problem, config, x, problem.num_blocks)
    for t in range(config.max_outer_iterations):
        k = select_block(rule, t, problem.num_blocks)
        candidate, step, _ = bsca_step(problem, solver, x, k, config)
        x, stop = book.advance(x, candidate, t, k, step)
        if stop:
            break
    return book.finish(x)


def run_bgd(problem: CompositeProblem, config: SolverConfig,
            x0: np.ndarray) -> RunTrace:
    """Block gradient descent: quadratic surrogates, exact line search."""
    cfg = replace(config, line_search=EXACT)
    return run_bsca(problem, quadratic_solver(cfg.curvature), cfg, x0)


# ---------------------------------------------------------------------------
# parallel variant (all blocks against one anchor, one joint search)
# ---------------------------------------------------------------------------

def run_parallel_sca(problem: CompositeProblem, solver: BlockSolver,
                     config: SolverConfig, x0: np.ndarray) -> RunTrace:
    """All block subproblems solved against one anchor, then a single
    joint line search; the block-selection rule is irrelevant here and
    one iteration counts as a full sweep."""
    config.validate(problem.num_blocks)
    x = np.asarray(x0, dtype=float).copy()
    book = _RunBook(problem, config, x, sweep_len=1)
    for t in range(config.max_outer_iterations):
        direction = np.zeros(problem.partition.total)
        delta_g = 0.0
        d = 0.0
        active = False
        for k in range(problem.num_blocks):
            sl = problem.partition.slice_of(k)
            xk = x[sl]
            minimizer = np.asarray(solver(problem, x, k).minimizer, dtype=float)
            delta = minimizer - xk
            if is_stationary(delta, xk, config.stationarity_rtol):
                continue
            active = True
            direction[sl] = delta
            reg = problem.nonsmooth[k]
            g_min = reg.value(minimizer)
            g_cur = reg.value(xk)
            delta_g += g_min - g_cur
            d += descent_quantity(problem.block_gradient(x, k), minimizer,
                                  xk, g_min, g_cur)
        if not active or d >= 0.0:
            candidate, step = x, _SKIP
        else:
            step = _line_search(problem, config, x, direction, delta_g, d)
            candidate = x + step.gamma * direction
        x, stop = book.advance(x, candidate, t, -1, step)
        if stop:
            break
    return book.finish(x)


# ---------------------------------------------------------------------------
# inexact two-layer update
# ---------------------------------------------------------------------------

OuterSurrogateFactory = Callable[[CompositeProblem, np.ndarray, int], SurrogateModel]


def quadratic_outer_factory(curvature: float) -> OuterSurrogateFactory:
    return lambda problem, x, k: make_quadratic_surrogate(problem, x, k, curvature)


def inexact_inner_loop(model: SurrogateModel, problem: CompositeProblem,
                       k: int, config: SolverConfig) -> np.ndarray:
    """Run the inner best-response iteration for ``inner_iterations``
    rounds on the outer model and return the approximate minimizer.

    When the very first inner subproblem returns its own anchor (the
    current block already solves the outer subproblem) the result is
    the anchor, so the block update is a stationarity skip.
    """
    if not model.has_quadratic_form:
        raise ConfigError(
            "inexact updates need an outer surrogate with a quadratic form")
    reg = problem.nonsmooth[k]
    constraint = problem.constraints[k]
    x_tau = model.anchor.copy()
    for _ in range(config.inner_iterations):
        target = inner_best_response_step(model, x_tau, reg, constraint)
        delta = target - x_tau
        if is_stationary(delta, x_tau, config.stationarity_rtol):
            break
        if config.inner_line_search == SUCCESSIVE:
            grad_tau = model.quad_apply(x_tau) - model.quad_linear
            d_inner = float(grad_tau @ delta) + reg.value(target) - reg.value(x_tau)

            def phi(gamma: float, base=x_tau, step=delta) -> float:
                return model.value(base + gamma * step)

            gamma = successive_step(phi, reg.value(target) - reg.value(x_tau),
                                    d_inner, config.alpha, config.beta,
                                    config.armijo_max_exponent).gamma
        else:
            gamma = inner_exact_stepsize(model, x_tau, target, reg)
        if gamma <= 0.0:
            break    # only at the rounding floor of the surrogate objective
        x_tau = x_tau + gamma * delta
    return x_tau


def inexact_solver(outer_factory: OuterSurrogateFactory,
                   config: SolverConfig) -> BlockSolver:
    """The two-layer update as a block solver: the outer model's
    subproblem is solved by ``config.inner_iterations`` inner
    best-response rounds, and the engine's line search takes the outer
    step.  Run it with ``run_bsca``."""

    def solver(problem: CompositeProblem, x: np.ndarray, k: int) -> BlockSolution:
        model = outer_factory(problem, x, k)
        return BlockSolution(inexact_inner_loop(model, problem, k, config))

    return solver


# ---------------------------------------------------------------------------
# Bregman proximal gradient baseline (full-variable, quartic kernel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BregmanBaselineSpec:
    """Kernel (1/4)||x||^4 + (1/2)||x||^2 with relative-smoothness
    constant L; ``constant`` None means the theoretical bound computed
    from the instance, optionally shrunk by ``discount``."""

    constant: float | None = None
    discount: float = 1.0


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


def run_bpgd(instance, spec: BregmanBaselineSpec,
             config: SolverConfig, x0: np.ndarray) -> RunTrace:
    """Bregman proximal gradient descent on a phase-retrieval instance.

    Full-variable updates only; the kernel removes the need for a
    Lipschitz gradient, at the price of steps scaled by 1/L.
    """
    from .phase_retrieval import pr_problem    # deferred: avoids a cycle

    problem = pr_problem(instance)
    constant = spec.constant if spec.constant is not None else bregman_constant(instance)
    constant *= spec.discount
    if constant <= 0.0:
        raise InvalidArgumentError("Bregman constant must be positive")
    x = np.asarray(x0, dtype=float).copy()
    book = _RunBook(problem, config, x, sweep_len=1)
    A = instance.sampling
    for t in range(config.max_outer_iterations):
        u = A.T @ x
        grad = A @ (u * (u * u - instance.intensities))
        candidate = bregman_step(x, grad, constant, instance.sparse_gain)
        if is_stationary(candidate - x, x, config.stationarity_rtol):
            candidate, step = x, _SKIP
        else:
            step = StepResult(1.0, None, 0.0)
        x, stop = book.advance(x, candidate, t, -1, step)
        if stop:
            break
    return book.finish(x)


def block_residuals(problem: CompositeProblem, solver: BlockSolver,
                    x: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Per-block fixed-point residuals ||B_k x - x_k||; zero at a
    blockwise stationary point."""
    x = np.asarray(x, dtype=float)
    out = np.empty(problem.num_blocks)
    for k in range(problem.num_blocks):
        xk = problem.block_of(x, k)
        minimizer = np.asarray(solver(problem, x, k).minimizer, dtype=float)
        out[k] = np.linalg.norm(minimizer - xk)
    return out
