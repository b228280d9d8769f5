#!/usr/bin/env python3
"""Solve benchmark for the bsca package.

    python3 perfbench/run.py --workload pr_scaleup --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory, and the benchmark fails when that is missing.  With
``--trace 0`` it sets the instance up several times, makes one warm-up
solve, then solves until ``--seconds`` have passed (at least
MIN_TIMED_SOLVES times) and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced solves for the same
time and reports the per-layer metrics of the traced ones.  Every solve
is checked (see checks.py); a solve that raises or fails a check counts
in ``failed``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are fixed before numpy loads: one thread is steadier than
# two on a 2-core machine and leaves the second core to the rest of it
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _import_package():
    """Put the checkout's ``src/`` first on the path and make sure
    ``bsca`` comes from it, never from an installed copy."""
    if not (SRC / "bsca" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'bsca'}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bsca
    if Path(bsca.__file__).resolve().parent != (SRC / "bsca").resolve():
        sys.exit(f"perfbench: bsca imported from {bsca.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    run = measure.traced_run if args.trace else measure.timed_run
    result = run(workload, args.seed, args.seconds, OUT)

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    for message in result.pop("messages") + result.pop("notes", []):
        print(f"  {message}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
