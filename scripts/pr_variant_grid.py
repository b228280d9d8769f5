#!/usr/bin/env python3
"""Desk-scale phase-retrieval benchmark: the variants of a ``bsca
bench`` variants file, by default ``desk_pr.variants`` (the inexact
block solver with K in {1,2,10} blocks and {1,10} inner rounds, plus
block gradient descent and the Bregman baseline), all from one shared
warm start near the signal, which ``bsca bench`` cannot express.

    python3 scripts/pr_variant_grid.py [--variants FILE] [--out pr_grid]

Writes one trace CSV per variant plus comparison.csv into --out, as
``bsca bench`` does.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from bsca.cli import SOLVE_DEFAULTS, UsageError, run_variants
from bsca.phase_retrieval import generate_pr_instance


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--unknowns", type=int, default=400)
    ap.add_argument("--measurements", type=int, default=100)
    ap.add_argument("--density", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--warm", type=float, default=0.2,
                    help="warm-start noise radius; 0 for a cold unit start")
    ap.add_argument("--variants", default=Path(__file__).with_name("desk_pr.variants"))
    ap.add_argument("--out", default="pr_grid")
    args = ap.parse_args()

    inst = generate_pr_instance(args.unknowns, args.measurements,
                                density=args.density, seed=args.seed)
    noise = np.random.default_rng(1000 + args.seed).standard_normal(args.unknowns)
    noise /= np.linalg.norm(noise)
    x0 = inst.signal + args.warm * noise if args.warm > 0 else noise
    try:
        outcomes = run_variants(inst, args.variants, SOLVE_DEFAULTS, Path(args.out),
                                start=x0)
    except UsageError as exc:
        sys.exit(f"error: {exc}")
    print(Path(args.out, "comparison.csv").read_text(encoding="ascii"), end="")
    sys.exit(0 if all(failure is None for failure in outcomes.values()) else 1)


if __name__ == "__main__":
    main()
