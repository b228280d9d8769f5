#!/usr/bin/env python3
"""Reproduce gate for refactors: record a fixed set of seeded ``bsca``
runs with one checkout, then re-run every manifest with another.

    python3 scripts/manifest_gate.py record DIR   # with the reference checkout
    python3 scripts/manifest_gate.py check DIR    # with the changed checkout

``record`` generates one phase-retrieval and one low-rank + sparse
instance and runs 20 ``bsca solve`` variants on them at the CLI
defaults.  ``check`` runs ``bsca reproduce`` on each of the 22 manifests,
prints one verdict line per manifest, and exits 1 if any reproduction
differs or fails.  Both run ``bsca`` from the checkout this script lives
in, in subprocesses with one BLAS thread, so that threaded products do
not change the last bits.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

from bsca.storage import RUN_MANIFEST

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

INSTANCES = {
    "pr": ["--I", "400", "--N", "1000", "--density", "0.01", "--seed", "7"],
    "anomaly": ["--N", "30", "--K", "40", "--I", "40", "--rho", "2", "--seed", "1"],
}

# (instance, algorithm, solve flags beyond the CLI defaults)
SOLVES = [
    ("anomaly", "bsca", []),
    ("anomaly", "bsca", ["--line-search", "armijo"]),
    ("anomaly", "inexact-bsca", []),
    ("anomaly", "inexact-bsca", ["--line-search", "armijo"]),
    ("anomaly", "parallel-sca", []),
    ("anomaly", "parallel-sca", ["--line-search", "armijo"]),
    ("anomaly", "bgd", []),
    ("pr", "bsca", ["--blocks", "10"]),
    ("pr", "bsca", ["--blocks", "3"]),
    ("pr", "bsca", ["--blocks", "3", "--line-search", "armijo"]),
    ("pr", "bsca", ["--blocks", "3", "--rule", "random"]),
    ("pr", "inexact-bsca", ["--blocks", "10"]),
    ("pr", "inexact-bsca", ["--blocks", "3"]),
    ("pr", "parallel-sca", ["--blocks", "10"]),
    ("pr", "parallel-sca", ["--blocks", "3"]),
    ("pr", "parallel-sca", ["--blocks", "3", "--line-search", "armijo"]),
    ("pr", "bgd", ["--blocks", "3"]),
    ("pr", "bgd", ["--blocks", "10"]),
    ("pr", "bpgd", []),
    ("pr", "bpgd", ["--blocks", "1"]),
]


def bsca(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "bsca", *argv], env=env,
                          capture_output=True, text=True)


def record(root: Path) -> int:
    for app, flags in INSTANCES.items():
        _checked(bsca("generate", app, "--out", str(root / "instances" / app), *flags))
    for app, algorithm, flags in SOLVES:
        name = "-".join([app, algorithm] + [f.lstrip("-") for f in flags])
        _checked(bsca("solve", str(root / "instances" / app), "--algorithm", algorithm,
                      "--out", str(root / "runs" / name), *flags))
    print(f"recorded {len(INSTANCES) + len(SOLVES)} manifests under {root}")
    return 0


def check(root: Path) -> int:
    manifests = sorted(root.glob(f"*/*/{RUN_MANIFEST}"))
    if not manifests:
        sys.exit(f"manifest_gate: no manifests under {root}")
    failed = 0
    for path in manifests:
        done = bsca("reproduce", str(path))
        lines = (done.stdout + done.stderr).strip().splitlines()
        verdict = [line for line in lines if line.startswith("reproduc")]
        print(f"{path.parent.relative_to(root)}: "
              + ("; ".join(verdict or lines[-1:]) or f"exit {done.returncode}"))
        failed += done.returncode != 0
    print(f"{len(manifests) - failed} of {len(manifests)} manifests reproduce")
    return 1 if failed else 0


def _checked(done: subprocess.CompletedProcess) -> None:
    if done.returncode != 0:
        sys.exit(f"manifest_gate: {' '.join(done.args[1:])} failed:\n{done.stderr}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=("record", "check"))
    ap.add_argument("dir", type=Path)
    args = ap.parse_args()
    root = args.dir.resolve()
    sys.exit(record(root) if args.command == "record" else check(root))


if __name__ == "__main__":
    main()
