#!/usr/bin/env python3
"""How the desk-scale low-rank + sparse benchmark's agreement and
residual depend on the l1 gain and on the inner rounds of the sparse
block update.

    python3 scripts/anomaly_gain_study.py [--sweeps 200] [--gain-factors 1 10 100 300]

For a sweep of l1 gains on the same instance and shared start, and
with one and with 30 inner rounds on the sparse block, runs the
sequential and parallel solvers for a fixed sweep budget and reports
their relative objective agreement, the worst per-block fixed-point
residual of the one-round map, the nonzeros of the sequential run's
sparse block and the seconds both runs took.

At the defaults (100 x 200 x 200, rank 3, 200 sweeps; one BLAS thread
on 2 cores) the data-derived recipe gain, 0.0453, leaves the sparse
subproblem an underdetermined dense lasso.  There one best-response
round per update ends at agreement 9.7e-6 and worst residual 1.8e-3,
above the criterion-5 bars of 1e-6 and 1e-5.  Thirty inner rounds,
whose FISTA momentum carries from one sparse visit to the next, reach
1.0e-13 and 1.8e-8 in 5.1 s.  At ten times the gain the subproblem
sparsifies (1501 nonzeros), and a single round already meets the bars
with orders of margin (1.3e-16 and 7.3e-8, in 0.5 s).  At 100 and 300
times the gain the sparse block stays zero.
"""

import argparse
import dataclasses
import time

import numpy as np

from bsca.anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    state_to_vector,
)
from bsca.cli import SOLVE_DEFAULTS, run_algorithm
from bsca.engine import block_residuals


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=100)
    ap.add_argument("--cols", type=int, default=200)
    ap.add_argument("--atoms", type=int, default=200)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--sweeps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--gain-factors", type=float, nargs="+",
                    default=[1.0, 10.0, 100.0, 300.0])
    args = ap.parse_args()

    base = generate_anomaly_instance(args.rows, args.cols, args.atoms,
                                     rank=args.rank, density=0.05,
                                     noise_var=1e-4, seed=args.seed)
    x0 = state_to_vector(initial_state(base, seed=args.seed + 1))
    print(f"recipe gain {base.sparse_gain:.4g}, ridge {base.ridge:.4g}, "
          f"budget {args.sweeps} sweeps\n")
    print(f"{'gain':>12} {'rounds':>6} {'agreement':>12} {'worst resid':>12} "
          f"{'nnz sparse':>10} {'seconds':>8}")
    for factor in args.gain_factors:
        inst = dataclasses.replace(base, sparse_gain=base.sparse_gain * factor)
        problem = anomaly_problem(inst)
        residual_map = anomaly_solver(inst)
        for rounds in (1, 30):
            opts = dict(SOLVE_DEFAULTS, tol=0.0, seed=args.seed + 1, inner_iters=rounds)
            begin = time.monotonic()
            seq = run_algorithm(inst, "bsca", dict(opts, max_iters=3 * args.sweeps), x0)
            par = run_algorithm(inst, "parallel-sca", dict(opts, max_iters=args.sweeps), x0)
            elapsed = time.monotonic() - begin
            agreement = (abs(seq.final_objective - par.final_objective)
                         / max(1.0, abs(seq.final_objective)))
            worst = 0.0
            for trace in (seq, par):
                x = trace.final_point.values
                res = block_residuals(problem, residual_map, x)
                for k in range(3):
                    xk = problem.block_of(x, k)
                    worst = max(worst, res[k] / (1.0 + np.linalg.norm(xk)))
            sparse = seq.final_point.values[problem.partition.slice_of(2)]
            nnz = int(np.count_nonzero(np.abs(sparse) > 1e-12))
            print(f"{inst.sparse_gain:12.4g} {rounds:6d} {agreement:12.3e} "
                  f"{worst:12.3e} {nnz:10d} {elapsed:8.1f}")


if __name__ == "__main__":
    main()
