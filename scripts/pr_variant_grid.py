#!/usr/bin/env python3
"""Desk-scale phase-retrieval benchmark: the inexact block solver with
K in {1,2,10} blocks and {1,10} inner rounds, plus block gradient
descent and the Bregman baseline, all from one shared initial point.

Writes one trace CSV per variant plus comparison.csv into --out.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from bsca.core import SolverConfig
from bsca.engine import run_bgd, run_bpgd
from bsca.phase_retrieval import (
    generate_pr_instance,
    pr_problem,
    run_phase_retrieval,
    with_blocks,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--unknowns", type=int, default=400)
    ap.add_argument("--measurements", type=int, default=100)
    ap.add_argument("--density", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweeps", type=int, default=3000)
    ap.add_argument("--warm", type=float, default=0.2,
                    help="warm-start noise radius; 0 for a cold unit start")
    ap.add_argument("--out", default="pr_grid")
    args = ap.parse_args()

    inst = generate_pr_instance(args.unknowns, args.measurements,
                                density=args.density, seed=args.seed)
    noise = np.random.default_rng(1000 + args.seed).standard_normal(args.unknowns)
    noise /= np.linalg.norm(noise)
    x0 = inst.signal + args.warm * noise if args.warm > 0 else noise

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["variant,final_objective,iters_to_tol,seconds"]

    def record(name, trace, seconds):
        trace.write_csv(out / f"{name}.trace.csv")
        to_tol = trace.tolerance_iteration if trace.tolerance_iteration is not None else -1
        rows.append("%s,%.17g,%d,%.6g" % (name, trace.final_objective, to_tol, seconds))
        print(f"{name:14s} final={trace.final_objective:.6g} "
              f"iters={trace.iterations} ({seconds:.2f}s)")

    for K in (1, 2, 10):
        for tau in (1, 10):
            cfg = SolverConfig(max_outer_iterations=args.sweeps * K,
                               stop_tol=0.0, inner_iterations=tau,
                               seed=args.seed)
            begin = time.monotonic()
            trace = run_phase_retrieval(with_blocks(inst, K), cfg, x0)
            record(f"bsca_k{K}_t{tau}", trace, time.monotonic() - begin)
    for K in (2, 10):
        cfg = SolverConfig(max_outer_iterations=args.sweeps * K, stop_tol=0.0,
                           curvature=1e-4, seed=args.seed)
        begin = time.monotonic()
        trace = run_bgd(pr_problem(with_blocks(inst, K)), cfg, x0)
        record(f"bgd_k{K}", trace, time.monotonic() - begin)
    cfg = SolverConfig(max_outer_iterations=args.sweeps, stop_tol=0.0)
    begin = time.monotonic()
    record("bpgd", run_bpgd(inst, cfg, x0),
           time.monotonic() - begin)

    (out / "comparison.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {out / 'comparison.csv'}")


if __name__ == "__main__":
    main()
