"""Batch front end: instance generation, solver runs, benchmark grids
and bit-exact reproduction from run manifests.

Exit codes: 0 success, 2 usage problems, 3 solver/runtime failures.
``BSCA_THREADS`` caps how many benchmark variants run concurrently.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    run_anomaly_bsca,
    state_to_vector,
)
from .core import EXACT, SUCCESSIVE, RunTrace, SolverConfig
from .engine import (
    BregmanBaselineSpec,
    inexact_solver,
    make_surrogate_solver,
    quadratic_outer_factory,
    run_bgd,
    run_bpgd,
    run_bsca,
    run_parallel_sca,
)
from .errors import BscaError
from .phase_retrieval import (
    generate_pr_instance,
    pr_outer_model,
    pr_problem,
    run_phase_retrieval,
    with_blocks,
)
from .storage import (
    INSTANCE_MANIFEST,
    RUN_MANIFEST,
    read_instance,
    read_manifest,
    write_anomaly_instance,
    write_manifest,
    write_pr_instance,
)
from .surrogates import InnerSolve

ALGORITHMS = ("bsca", "inexact-bsca", "parallel-sca", "bgd", "bpgd")

SOLVE_DEFAULTS = {
    "blocks": None,
    "rule": "cyclic",
    "inner_iters": 10,
    "line_search": "exact",
    "alpha": 0.1,
    "beta": 0.5,
    "c": 1e-4,
    "tol": 1e-8,
    "max_iters": 1000,
    "seed": 0,
    "discount": 1.0,
}


class UsageError(Exception):
    pass


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out if args.out else f"{args.app}_instance")
    params: dict = {"seed": args.seed}
    if args.app == "anomaly":
        for name in ("N", "K", "I", "rho"):
            if getattr(args, name) is None:
                raise UsageError(f"generate anomaly requires --{name}")
        density = args.density if args.density is not None else 0.05
        instance = generate_anomaly_instance(
            n=args.N, m=args.K, p=args.I, rank=args.rho,
            density=density, noise_var=args.noise_var, seed=args.seed,
            ridge=args.ridge, sparse_gain=args.sparse_gain)
        write_anomaly_instance(out, instance)
        params.update(N=args.N, K=args.K, I=args.I, rho=args.rho,
                      density=density, noise_var=args.noise_var,
                      ridge=args.ridge, sparse_gain=args.sparse_gain)
    else:
        for name in ("I", "N"):
            if getattr(args, name) is None:
                raise UsageError(f"generate pr requires --{name}")
        density = args.density if args.density is not None else 0.01
        instance = generate_pr_instance(
            unknowns=args.I, measurements=args.N, density=density,
            num_blocks=args.blocks, seed=args.seed,
            sparse_gain=args.sparse_gain)
        write_pr_instance(out, instance)
        params.update(I=args.I, N=args.N, density=density,
                      blocks=args.blocks, sparse_gain=args.sparse_gain)
    entries = {
        "format": "bsca-run-v1",
        "command": "generate",
        "version": __version__,
        "app": args.app,
        "started": _timestamp(),
    }
    for key, value in params.items():
        entries[f"param.{key}"] = value
    entries["output.instance"] = INSTANCE_MANIFEST
    entries["finished"] = _timestamp()
    write_manifest(out / RUN_MANIFEST, entries)
    print(f"instance written to {out}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _merge_options(args, file_config: dict) -> dict:
    """flags > config file > built-in defaults."""
    merged = dict(SOLVE_DEFAULTS)
    for key, value in file_config.items():
        norm = key.replace("-", "_")
        if norm not in merged:
            raise UsageError(f"unknown config key {key!r}")
        merged[norm] = _coerce(norm, value)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _coerce(key: str, value: str):
    if key in ("blocks", "inner_iters", "max_iters", "seed"):
        return int(value)
    if key in ("alpha", "beta", "c", "tol", "discount"):
        return float(value)
    return value


def _solver_config(opts: dict) -> SolverConfig:
    search = {"exact": EXACT, "armijo": SUCCESSIVE}.get(opts["line_search"])
    if search is None:
        raise UsageError(f"unknown line search {opts['line_search']!r}")
    if opts["rule"] not in ("cyclic", "random"):
        raise UsageError(f"unknown block rule {opts['rule']!r}")
    return SolverConfig(
        max_outer_iterations=opts["max_iters"],
        block_rule=opts["rule"],
        seed=opts["seed"],
        line_search=search,
        alpha=opts["alpha"],
        beta=opts["beta"],
        inner_iterations=opts["inner_iters"],
        stop_tol=opts["tol"],
        curvature=opts["c"],
    )


def run_algorithm(instance, algorithm: str, opts: dict) -> RunTrace:
    """Dispatch one solver run; raises UsageError on bad combinations."""
    config = _solver_config(opts)
    kind = type(instance).__name__
    if kind == "AnomalyInstance":
        if opts["blocks"] is not None:
            raise UsageError(
                "anomaly instances always use the three factor/sparse blocks")
        if algorithm == "bpgd":
            raise UsageError("bpgd requires a phase-retrieval instance")
        problem = anomaly_problem(instance)
        x0 = state_to_vector(initial_state(instance, seed=opts["seed"]))
        if algorithm == "bsca":
            return run_anomaly_bsca(instance, config)
        if algorithm == "parallel-sca":
            return run_parallel_sca(problem, anomaly_solver(instance, config),
                                    config, x0)
        if algorithm == "bgd":
            return run_bgd(problem, config, x0)
        if algorithm == "inexact-bsca":
            return run_bsca(problem, inexact_solver(
                quadratic_outer_factory(opts["c"]), config), config, x0)
    elif kind == "PhaseRetrievalInstance":
        if opts["blocks"] is not None:
            if algorithm == "bpgd" and opts["blocks"] != 1:
                raise UsageError("bpgd does not support block updates")
            instance = with_blocks(instance, opts["blocks"])
        problem = pr_problem(instance)
        x0 = np.random.default_rng(opts["seed"]).standard_normal(
            instance.num_unknowns)
        if algorithm in ("bsca", "inexact-bsca"):
            return run_phase_retrieval(instance, config, x0)
        if algorithm == "parallel-sca":
            solver = make_surrogate_solver(
                lambda prob, x, k: pr_outer_model(instance, x, k, opts["c"]),
                inner=InnerSolve(max_iterations=500, tol=1e-12))
            return run_parallel_sca(problem, solver, config, x0)
        if algorithm == "bgd":
            return run_bgd(problem, config, x0)
        if algorithm == "bpgd":
            return run_bpgd(instance, BregmanBaselineSpec(discount=opts["discount"]),
                            config, x0)
    raise UsageError(f"unknown algorithm {algorithm!r}")


def _load_instance(path) -> object:
    directory = Path(path)
    if not (directory / INSTANCE_MANIFEST).is_file():
        raise UsageError(f"{path}: not a readable instance directory")
    return read_instance(directory)


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    file_config = read_manifest(args.config) if args.config else {}
    opts = _merge_options(args, file_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _timestamp()
    trace = run_algorithm(instance, args.algorithm, opts)
    trace.write_csv(out / "trace.csv")
    entries = {
        "format": "bsca-run-v1",
        "command": "solve",
        "version": __version__,
        "started": started,
        "instance": str(Path(args.instance).resolve()),
        "algorithm": args.algorithm,
    }
    for key, value in opts.items():
        if value is not None:
            entries[f"param.{key}"] = value
    entries.update({
        "output.trace": "trace.csv",
        "final_objective": trace.final_objective,
        "iterations": trace.iterations,
        "termination": trace.termination_reason,
        "finished": _timestamp(),
    })
    write_manifest(out / RUN_MANIFEST, entries)
    print("final_objective=%.17g iters=%d seconds=%.6g"
          % (trace.final_objective, trace.iterations,
             trace.entries[-1].elapsed_s))
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _parse_variants(path) -> list[dict]:
    variants = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = dict(tok.split("=", 1) for tok in line.split())
        if "name" not in tokens or "algorithm" not in tokens:
            raise UsageError(f"variant line needs name= and algorithm=: {raw!r}")
        variants.append(tokens)
    if not variants:
        raise UsageError(f"{path}: no variants defined")
    return variants


def cmd_bench(args) -> int:
    instance = _load_instance(args.instance)
    variants = _parse_variants(args.variants)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _timestamp()

    baseline = _merge_options(args, {})

    def run_one(tokens: dict):
        name = tokens["name"]
        algorithm = tokens["algorithm"]
        if algorithm not in ALGORITHMS:
            raise UsageError(f"variant {name}: unknown algorithm {algorithm!r}")
        opts = dict(baseline)
        for key, value in tokens.items():
            if key in ("name", "algorithm"):
                continue
            norm = key.replace("-", "_")
            if norm not in opts:
                raise UsageError(f"variant {name}: unknown key {key!r}")
            opts[norm] = _coerce(norm, value)
        begin = time.monotonic()
        trace = run_algorithm(instance, algorithm, opts)
        return name, trace, time.monotonic() - begin

    workers = max(1, min(int(os.environ.get("BSCA_THREADS", "1")),
                         len(variants)))
    results: dict[str, tuple] = {}
    failures: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {tokens["name"]: pool.submit(run_one, tokens)
                   for tokens in variants}
        for name, future in futures.items():
            try:
                results[name] = future.result()
            except (BscaError, UsageError) as exc:
                failures[name] = str(exc)

    rows = ["variant,final_objective,iters_to_tol,seconds"]
    for tokens in variants:
        name = tokens["name"]
        if name not in results:
            print(f"variant {name} failed: {failures[name]}", file=sys.stderr)
            continue
        _, trace, seconds = results[name]
        trace.write_csv(out / f"{name}.trace.csv")
        to_tol = trace.tolerance_iteration if trace.tolerance_iteration is not None else -1
        rows.append("%s,%.17g,%d,%.6g"
                    % (name, trace.final_objective, to_tol, seconds))
    (out / "comparison.csv").write_text("\n".join(rows) + "\n", encoding="ascii")

    entries = {
        "format": "bsca-run-v1",
        "command": "bench",
        "version": __version__,
        "started": started,
        "instance": str(Path(args.instance).resolve()),
        "variants": str(Path(args.variants).resolve()),
        "output.comparison": "comparison.csv",
    }
    for key in ("max_iters", "tol", "seed"):
        flag = getattr(args, key, None)
        if flag is not None:
            entries[f"param.{key}"] = flag
    for name in results:
        entries[f"output.trace.{name}"] = f"{name}.trace.csv"
    for name, message in failures.items():
        entries[f"failed.{name}"] = message
    entries["finished"] = _timestamp()
    write_manifest(out / RUN_MANIFEST, entries)
    if not results:
        print("all variants failed", file=sys.stderr)
        return 3
    print(f"comparison written to {out / 'comparison.csv'}")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _csv_rows_without_time(path) -> list[str]:
    """Trace/comparison rows with the wall-clock column dropped; every
    other column must reproduce bit-exactly."""
    rows = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        cells = line.split(",")
        rows.append(",".join(cells[:-1]))
    return rows


def _same_outputs(manifest: dict, old_dir: Path, new_dir: Path) -> bool:
    ok = True
    for key, rel in manifest.items():
        if not key.startswith("output.") or key == "output.instance":
            continue
        a, b = old_dir / rel, new_dir / rel
        if rel.endswith(".csv"):
            same = _csv_rows_without_time(a) == _csv_rows_without_time(b)
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            print(f"mismatch in {rel}", file=sys.stderr)
            ok = False
    if "output.instance" in manifest:
        for mat in sorted(old_dir.glob("*.mat")):
            if (old_dir / mat.name).read_bytes() != (new_dir / mat.name).read_bytes():
                print(f"mismatch in {mat.name}", file=sys.stderr)
                ok = False
    return ok


def _manifest_argv(manifest: dict, out_dir: str) -> list[str]:
    command = manifest["command"]
    params = {key[len("param."):]: value for key, value in manifest.items()
              if key.startswith("param.")}
    flags = [item for key, value in params.items() if value != "None"
             for item in (f"--{key.replace('_', '-')}", value)]
    if command == "generate":
        return ["generate", manifest["app"], "--out", out_dir] + flags
    if command == "solve":
        return ["solve", manifest["instance"], "--algorithm",
                manifest["algorithm"], "--out", out_dir] + flags
    if command == "bench":
        return ["bench", manifest["instance"], "--variants",
                manifest["variants"], "--out", out_dir] + flags
    raise UsageError(f"cannot reproduce command {command!r}")


def cmd_reproduce(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise UsageError(f"{args.manifest}: no such manifest")
    manifest = read_manifest(manifest_path)
    old_dir = manifest_path.parent
    with tempfile.TemporaryDirectory(prefix="bsca-reproduce-") as tmp:
        new_dir = Path(args.out) if args.out else Path(tmp) / "rerun"
        code = main(_manifest_argv(manifest, str(new_dir)))
        if code != 0:
            print("reproduction run failed", file=sys.stderr)
            return 3
        if _same_outputs(manifest, old_dir, new_dir):
            print("reproduce: outputs match")
            return 0
    print("reproduce: outputs differ", file=sys.stderr)
    return 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsca",
        description="Block successive convex approximation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance bundle")
    gen.add_argument("app", choices=("anomaly", "pr"))
    gen.add_argument("--out", default=None)
    gen.add_argument("--N", type=int, default=None)
    gen.add_argument("--K", type=int, default=None)
    gen.add_argument("--I", type=int, default=None)
    gen.add_argument("--rho", type=int, default=None)
    gen.add_argument("--blocks", type=int, default=1)
    gen.add_argument("--density", type=float, default=None)
    gen.add_argument("--noise-var", dest="noise_var", type=float, default=1e-4)
    gen.add_argument("--ridge", type=float, default=None)
    gen.add_argument("--sparse-gain", dest="sparse_gain", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="run one solver on an instance")
    solve.add_argument("instance")
    solve.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    solve.add_argument("--out", default="run")
    solve.add_argument("--config", default=None)
    _add_solver_flags(solve)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="run a grid of solver variants")
    bench.add_argument("instance")
    bench.add_argument("--variants", required=True)
    bench.add_argument("--out", default="bench")
    _add_solver_flags(bench)
    bench.set_defaults(func=cmd_bench)

    rep = sub.add_parser("reproduce", help="re-run a manifest and compare")
    rep.add_argument("manifest")
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_reproduce)
    return parser


def _add_solver_flags(parser) -> None:
    parser.add_argument("--blocks", type=int, default=None)
    parser.add_argument("--rule", choices=("cyclic", "random"), default=None)
    parser.add_argument("--inner-iters", dest="inner_iters", type=int, default=None)
    parser.add_argument("--line-search", dest="line_search",
                        choices=("exact", "armijo"), default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--discount", type=float, default=None)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BscaError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())
