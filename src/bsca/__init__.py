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
    equal_partition,
    make_partition,
    objective,
)
from .engine import (
    BlockSolution,
    bsca_step,
    inexact_solver,
    quadratic_solver,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
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
    QuadOperator,
    SurrogateModel,
    make_quadratic_surrogate,
    soft_threshold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
