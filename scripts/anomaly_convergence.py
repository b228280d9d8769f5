#!/usr/bin/env python3
"""Low-rank + sparse joint estimation: sequential block descent versus
the all-blocks parallel variant on one synthetic instance, traces to CSV.
"""

import argparse
import time
from pathlib import Path

from bsca.anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    run_anomaly_bsca,
    state_to_vector,
)
from bsca.core import SolverConfig
from bsca.engine import block_residuals, run_parallel_sca


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=100)
    ap.add_argument("--cols", type=int, default=200)
    ap.add_argument("--atoms", type=int, default=200)
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--density", type=float, default=0.05)
    ap.add_argument("--noise-var", type=float, default=1e-4)
    ap.add_argument("--sparse-gain", type=float, default=None,
                    help="override the data-derived l1 gain")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweeps", type=int, default=200)
    ap.add_argument("--out", default="anomaly_run")
    args = ap.parse_args()

    inst = generate_anomaly_instance(args.rows, args.cols, args.atoms,
                                     rank=args.rank, density=args.density,
                                     noise_var=args.noise_var, seed=args.seed,
                                     sparse_gain=args.sparse_gain)
    print(f"instance: ridge={inst.ridge:.6g} sparse_gain={inst.sparse_gain:.6g}")
    state0 = initial_state(inst, seed=args.seed + 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = SolverConfig(max_outer_iterations=3 * args.sweeps, stop_tol=0.0,
                       seed=args.seed + 1)
    begin = time.monotonic()
    seq = run_anomaly_bsca(inst, cfg, state0=state0)
    print(f"sequential: final={seq.final_objective:.10g} "
          f"iters={seq.iterations} ({time.monotonic() - begin:.1f}s, "
          f"{seq.termination_reason})")
    seq.write_csv(out / "bsca.trace.csv")

    problem = anomaly_problem(inst)
    solver = anomaly_solver(inst)
    begin = time.monotonic()
    par = run_parallel_sca(problem, solver,
                           SolverConfig(max_outer_iterations=args.sweeps,
                                        stop_tol=0.0, seed=args.seed + 1),
                           state_to_vector(state0))
    print(f"parallel:   final={par.final_objective:.10g} "
          f"iters={par.iterations} ({time.monotonic() - begin:.1f}s, "
          f"{par.termination_reason})")
    par.write_csv(out / "parallel.trace.csv")

    gap = abs(seq.final_objective - par.final_objective) / max(
        1.0, abs(seq.final_objective))
    res = block_residuals(problem, solver, seq.final_point.values)
    print(f"relative objective gap: {gap:.3e}")
    print(f"sequential per-block residuals: {res}")


if __name__ == "__main__":
    main()
