#!/usr/bin/env python3
"""Reproduce gate for refactors: record a fixed set of seeded ``bsca``
runs with one checkout, then re-run every manifest with another.

    python3 scripts/manifest_gate.py record DIR   # with the reference checkout
    python3 scripts/manifest_gate.py check DIR    # with the changed checkout
    python3 scripts/manifest_gate.py compare REF_CHECKOUT    # both in one

``record`` generates one phase-retrieval and one low-rank + sparse
instance, runs 20 ``bsca solve`` variants on them at the CLI defaults,
and runs ``bsca bench`` of ``desk_anomaly.variants`` on the low-rank +
sparse one.  It also generates a phase-retrieval instance with one
1000 x 2500 block (19 MiB) and solves it with ``bsca``, which checks
the bits of products over a big block.  ``check`` reruns each of the
25 manifests with ``bsca reproduce --out`` into a temporary directory,
prints one verdict line per manifest, and exits 1 if any
reproduction differs or fails.  For each trace of a run that differs
(``trace.csv``, or a bench run's ``<name>.trace.csv``) it prints one
more line: iterations and final objective (recorded -> rerun), the
rows that differ, the largest relative objective difference, and
whether the skipped iterations (stepsize 0) are the same.  Both run ``bsca`` from the checkout this
script lives in, in subprocesses with one BLAS thread, so that threaded
products do not change the last bits.  ``compare`` records with the
package of REF_CHECKOUT (its ``src``) into a temporary directory, then
checks with this checkout.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))    # the checkout's package, as in the subprocesses

from bsca.storage import RUN_MANIFEST  # noqa: E402

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

INSTANCES = {
    "pr": ["--I", "400", "--N", "1000", "--density", "0.01", "--seed", "7"],
    "anomaly": ["--N", "30", "--K", "40", "--I", "40", "--rho", "2", "--seed", "1"],
}

# (instance, algorithm, solve flags beyond the CLI defaults)
SOLVES = [
    ("anomaly", "bsca", []),
    ("anomaly", "bsca", ["--inner-iters", "1"]),
    ("anomaly", "bsca", ["--line-search", "armijo"]),
    ("anomaly", "parallel-sca", []),
    ("anomaly", "parallel-sca", ["--line-search", "armijo"]),
    ("anomaly", "bgd", []),
    # the proximal-linear model backtracks the most
    ("anomaly", "bgd", ["--line-search", "armijo"]),
    ("pr", "bsca", ["--blocks", "10"]),
    ("pr", "bsca", ["--blocks", "3"]),
    ("pr", "bsca", ["--blocks", "3", "--line-search", "armijo"]),
    ("pr", "bsca", ["--blocks", "3", "--rule", "random"]),
    # 4 blocks of 34 rows and 8 of 33: 33 is 1 mod 16, so the last
    # 16-row chunk of a block's diagonal holds one row
    ("pr", "bsca", ["--blocks", "12"]),
    ("pr", "parallel-sca", ["--blocks", "10"]),
    ("pr", "parallel-sca", ["--blocks", "3"]),
    ("pr", "parallel-sca", ["--blocks", "3", "--line-search", "armijo"]),
    ("pr", "bgd", ["--blocks", "3"]),
    ("pr", "bgd", ["--blocks", "10"]),
    ("pr", "bgd", ["--blocks", "3", "--line-search", "armijo"]),
    ("pr", "bpgd", []),
    ("pr", "bpgd", ["--blocks", "1"]),
]
# the one-block phase-retrieval bundle: its name, generate flags and
# ``bsca solve`` flags
BIG_BLOCK = ("pr-big-block", ["--I", "1000", "--N", "2500", "--density", "0.01",
                              "--seed", "7"], ["--blocks", "1", "--max-iters", "20"])
# the variants file ``bsca bench`` runs on the low-rank + sparse instance
BENCH_VARIANTS = Path(__file__).with_name("desk_anomaly.variants")


def bsca(*argv: str, src: Path = SRC) -> subprocess.CompletedProcess:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "bsca", *argv], env=env,
                          capture_output=True, text=True)


def record(root: Path, src: Path = SRC) -> int:
    for app, flags in INSTANCES.items():
        _checked(bsca("generate", app, "--out", str(root / "instances" / app), *flags,
                      src=src))
    for app, algorithm, flags in SOLVES:
        name = "-".join([app, algorithm] + [f.lstrip("-") for f in flags])
        _checked(bsca("solve", str(root / "instances" / app), "--algorithm", algorithm,
                      "--out", str(root / "runs" / name), *flags, src=src))
    _checked(bsca("bench", str(root / "instances" / "anomaly"), "--variants",
                  str(BENCH_VARIANTS), "--out", str(root / "runs" / "anomaly-bench"), src=src))
    name, generate_flags, solve_flags = BIG_BLOCK
    big = root / "instances" / name
    _checked(bsca("generate", "pr", "--out", str(big), *generate_flags, src=src))
    _checked(bsca("solve", str(big), "--algorithm", "bsca", "--out", str(root / "runs" / name),
                  *solve_flags, src=src))
    print(f"recorded {len(INSTANCES) + len(SOLVES) + 3} manifests under {root}")
    return 0


def check(root: Path) -> int:
    manifests = sorted(root.glob(f"*/*/{RUN_MANIFEST}"))
    if not manifests:
        sys.exit(f"manifest_gate: no manifests under {root}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="manifest-gate-") as tmp:
        for i, path in enumerate(manifests):
            rerun = Path(tmp) / str(i)
            done = bsca("reproduce", str(path), "--out", str(rerun))
            lines = (done.stdout + done.stderr).strip().splitlines()
            verdict = [line for line in lines if line.startswith("reproduc")]
            print(f"{path.parent.relative_to(root)}: "
                  + ("; ".join(verdict or lines[-1:]) or f"exit {done.returncode}"))
            failed += done.returncode != 0
            for old in sorted(path.parent.glob("*trace.csv")) if done.returncode else []:
                if (rerun / old.name).is_file():
                    print(f"    {old.name}: {trace_difference(old, rerun / old.name)}")
    print(f"{len(manifests) - failed} of {len(manifests)} manifests reproduce")
    return 1 if failed else 0


def trace_difference(old_path: Path, new_path: Path) -> str:
    """One line summing up how two ``trace.csv`` files differ; the
    wall-clock column is ignored."""
    old, new = _trace_rows(old_path), _trace_rows(new_path)
    pairs = list(zip(old, new))
    differ = sum(a != b for a, b in pairs) + abs(len(old) - len(new))
    rel = max((abs(a["objective"] - b["objective"])
               / max(abs(a["objective"]), abs(b["objective"]), sys.float_info.min)
               for a, b in pairs), default=0.0)
    same_skips = ([row["stepsize"] == 0.0 for row in old]
                  == [row["stepsize"] == 0.0 for row in new])
    return (f"iterations {old[-1]['iter']:g} -> {new[-1]['iter']:g}; final objective "
            f"{old[-1]['objective']!r} -> {new[-1]['objective']!r}; "
            f"{differ} of {max(len(old), len(new))} rows differ; largest relative "
            f"objective difference {rel:.1e}; skip pattern "
            + ("same" if same_skips else "differs"))


def _trace_rows(path: Path) -> list[dict[str, float]]:
    header, *lines = path.read_text(encoding="ascii").splitlines()
    names = header.split(",")[:-1]
    return [dict(zip(names, map(float, line.split(",")[:-1]))) for line in lines]


def _checked(done: subprocess.CompletedProcess) -> None:
    if done.returncode != 0:
        sys.exit(f"manifest_gate: {' '.join(done.args[1:])} failed:\n{done.stderr}")


def compare(reference: Path) -> int:
    """Record with the reference checkout's package, check with this one."""
    src = reference / "src"
    if not (src / "bsca" / "__init__.py").is_file():
        sys.exit(f"manifest_gate: no package at {src / 'bsca'}")
    with tempfile.TemporaryDirectory(prefix="manifest-gate-record-") as tmp:
        record(Path(tmp), src)
        return check(Path(tmp))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=("record", "check", "compare"))
    ap.add_argument("dir", type=Path,
                    help="the manifest directory, or for compare the reference checkout")
    args = ap.parse_args()
    run = {"record": record, "check": check, "compare": compare}[args.command]
    sys.exit(run(args.dir.resolve()))


if __name__ == "__main__":
    main()
