"""Block successive convex approximation toolkit for composite
nonsmooth nonconvex problems h(x) = f(x) + sum_k g_k(x_k)."""

__version__ = "0.1.0"

from .core import (
    BlockPartition,
    BlockPoint,
    Box,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    Unconstrained,
    Zero,
    block_gradient_check,
    equal_partition,
    make_partition,
    objective,
)
from .engine import (
    BlockSolution,
    BregmanBaselineSpec,
    bsca_step,
    inexact_solver,
    quadratic_solver,
    make_surrogate_solver,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
    select_block,
)
from .linesearch import (
    ScalarProfile,
    StepResult,
    cubic_real_roots,
    descent_quantity,
    exact_quadratic_step,
    exact_quartic_step,
    successive_step,
)
from .surrogates import (
    SmoothComposition,
    SurrogateModel,
    make_best_response_surrogate,
    make_inner_surrogate,
    make_partial_linearization_surrogate,
    make_quadratic_surrogate,
    soft_threshold,
    solve_surrogate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
