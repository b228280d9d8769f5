"""Batch front end: instance generation, solver runs, benchmark grids
and bit-exact reproduction from run manifests.

Exit codes: 0 success, 2 usage problems, 3 solver/runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import (
    anomaly_problem,
    anomaly_solver,
    generate_anomaly_instance,
    initial_state,
    state_to_vector,
)
from .core import EXACT, SUCCESSIVE, RunTrace, SolverConfig
from .engine import run_bgd, run_bpgd, run_bsca, run_parallel_sca
from .errors import BscaError, ConfigError, InvalidArgumentError, InvalidPartitionError
from .phase_retrieval import (
    generate_pr_instance,
    pr_partition,
    pr_problem,
    pr_solver,
    run_phase_retrieval,
    with_blocks,
)
from .storage import (
    INSTANCE_MANIFEST,
    RUN_MANIFEST,
    map_pr_sampling,
    read_instance,
    read_manifest,
    write_anomaly_instance,
    write_manifest,
    write_pr_instance,
)

ALGORITHMS = ("bsca", "parallel-sca", "bgd", "bpgd")
# algorithm names that older manifests and bench variant files record,
# and what runs for them: ``inexact-bsca`` was an alias of ``bsca`` on
# both applications
RENAMED_ALGORITHMS = {"inexact-bsca": "bsca"}

# the solve options, key -> (type, default, allowed values): they make
# the flags of solve and bench (``--inner-iters`` for inner_iters), the
# keys of config files and bench variant lines (either spelling), and
# the param.* entries of solve and bench manifests
SOLVE_OPTIONS = {
    "blocks": (int, None, None),
    "rule": (str, "cyclic", ("cyclic", "random")),
    "inner_iters": (int, 10, None),
    "line_search": (str, "exact", ("exact", "armijo")),
    "alpha": (float, 0.1, None),
    "beta": (float, 0.5, None),
    "c": (float, 1e-4, None),
    "tol": (float, 1e-8, None),
    "max_iters": (int, 1000, None),
    "seed": (int, 0, None),
    "discount": (float, 1.0, None),
}
SOLVE_DEFAULTS = {key: default for key, (_, default, _) in SOLVE_OPTIONS.items()}

# the BLAS thread settings, which solve and bench manifests record: a
# BLAS that threads a product may round it otherwise than one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(Exception):
    pass


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _usage(call, *args, **kwargs):
    """``call(*args, **kwargs)``; the settings it rejects are a usage
    error."""
    try:
        return call(*args, **kwargs)
    except (ConfigError, InvalidArgumentError, InvalidPartitionError) as exc:
        raise UsageError(str(exc)) from None


def _blas_threads() -> dict[str, str]:
    """Manifest entries for the BLAS thread settings of this process."""
    return {f"blas.{var}": os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}


def _write_run_manifest(out: Path, command: str, started: str, entries: dict) -> None:
    """``out/run.manifest``: the header of every run manifest (format,
    command, version, start time), then ``entries``, then the finish
    time."""
    write_manifest(out / RUN_MANIFEST, {
        "format": "bsca-run-v1", "command": command, "version": __version__,
        "started": started, **entries, "finished": _timestamp()})


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out if args.out else f"{args.app}_instance")
    started = _timestamp()
    params: dict = {"seed": args.seed}
    if args.app == "anomaly":
        for name in ("N", "K", "I", "rho"):
            if getattr(args, name) is None:
                raise UsageError(f"generate anomaly requires --{name}")
        density = args.density if args.density is not None else 0.05
        instance = _usage(
            generate_anomaly_instance, n=args.N, m=args.K, p=args.I, rank=args.rho,
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
        _usage(pr_partition, args.I, args.N, density, args.blocks)
        # drawn straight into a mapped file that becomes the bundle's
        # sampling.mat, so the matrix is written once and never held in
        # anonymous memory
        sampling = map_pr_sampling(out, args.I, args.N)
        try:
            instance = generate_pr_instance(
                unknowns=args.I, measurements=args.N, density=density,
                num_blocks=args.blocks, seed=args.seed,
                sparse_gain=args.sparse_gain, out=sampling)
            write_pr_instance(out, instance)
        finally:    # the drawn file is gone once it is in place
            Path(sampling.filename).unlink(missing_ok=True)
        params.update(I=args.I, N=args.N, density=density,
                      blocks=args.blocks, sparse_gain=args.sparse_gain)
    _write_run_manifest(out, "generate", started, {
        "app": args.app, **{f"param.{key}": value for key, value in params.items()},
        "output.instance": INSTANCE_MANIFEST})
    print(f"instance written to {out}")
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _merge_options(args, file_config: dict) -> dict:
    """flags > config file > built-in defaults."""
    opts = _with_settings(SOLVE_DEFAULTS, file_config, "config")
    return {key: value if getattr(args, key) is None else getattr(args, key)
            for key, value in opts.items()}


def _with_settings(opts: dict, settings: dict, source: str) -> dict:
    """``opts`` overridden by text ``key = value`` settings."""
    opts = dict(opts)
    for key, text in settings.items():
        norm = key.replace("-", "_")
        if norm not in SOLVE_OPTIONS:
            raise UsageError(f"{source}: unknown key {key!r}")
        kind, _, allowed = SOLVE_OPTIONS[norm]
        try:
            value = kind(text)
        except ValueError:
            raise UsageError(
                f"{source}: {key} must be {kind.__name__}, got {text!r}") from None
        if allowed is not None and value not in allowed:
            raise UsageError(f"{source}: {key} must be one of {allowed}, got {text!r}")
        opts[norm] = value
    return opts


def _read_named(path, source: str) -> dict:
    """``read_manifest`` of a file named on the command line: a malformed
    line there is a usage error."""
    try:
        return read_manifest(path)
    except InvalidArgumentError as exc:
        raise UsageError(f"{source}: {exc}") from None


def _param_entries(opts: dict) -> dict:
    return {f"param.{key}": value for key, value in opts.items() if value is not None}


def _solver_config(opts: dict) -> SolverConfig:
    """The config of ``opts``; settings it rejects are a usage error."""
    config = SolverConfig(
        max_outer_iterations=opts["max_iters"],
        block_rule=opts["rule"],
        seed=opts["seed"],
        line_search=SUCCESSIVE if opts["line_search"] == "armijo" else EXACT,
        alpha=opts["alpha"],
        beta=opts["beta"],
        inner_iterations=opts["inner_iters"],
        stop_tol=opts["tol"],
        curvature=opts["c"],
    )
    _usage(config.validate)
    return config


def run_algorithm(instance, algorithm: str, opts: dict, start=None) -> RunTrace:
    """Dispatch one solver run from ``start``, by default the seeded start
    of ``opts["seed"]``; raises UsageError on bad combinations."""
    config = _solver_config(opts)
    kind = type(instance).__name__
    if kind == "AnomalyInstance":
        if opts["blocks"] is not None:
            raise UsageError(
                "anomaly instances always use the three factor/sparse blocks")
        if algorithm == "bpgd":
            raise UsageError("bpgd requires a phase-retrieval instance")
        problem = anomaly_problem(instance)
        x0 = (state_to_vector(initial_state(instance, seed=opts["seed"]))
              if start is None else start)
        if algorithm in ("bsca", "parallel-sca"):
            run = run_bsca if algorithm == "bsca" else run_parallel_sca
            return run(problem, anomaly_solver(instance, config), config, x0)
        if algorithm == "bgd":
            return run_bgd(problem, config, x0)
    elif kind == "PhaseRetrievalInstance":
        if opts["blocks"] is not None:
            if algorithm == "bpgd" and opts["blocks"] != 1:
                raise UsageError("bpgd does not support block updates")
            instance = _usage(with_blocks, instance, opts["blocks"])
        x0 = (np.random.default_rng(opts["seed"]).standard_normal(
            instance.num_unknowns) if start is None else start)
        if algorithm == "bsca":
            return run_phase_retrieval(instance, config, x0)
        if algorithm == "parallel-sca":
            return run_parallel_sca(pr_problem(instance), pr_solver(config), config, x0)
        if algorithm == "bgd":
            return run_bgd(pr_problem(instance), config, x0)
        if algorithm == "bpgd":
            return run_bpgd(instance, config, x0, discount=opts["discount"])
    raise UsageError(f"unknown algorithm {algorithm!r}")


def _load_instance(path) -> object:
    directory = Path(path)
    if not (directory / INSTANCE_MANIFEST).is_file():
        raise UsageError(f"{path}: not a readable instance directory")
    return read_instance(directory)


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    file_config = _read_named(args.config, "config") if args.config else {}
    opts = _merge_options(args, file_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = _timestamp()
    trace = run_algorithm(instance, args.algorithm, opts)
    trace.write_csv(out / "trace.csv")
    _write_run_manifest(out, "solve", started, {
        "instance": str(Path(args.instance).resolve()),
        "algorithm": args.algorithm,
        **_blas_threads(),
        **_param_entries(opts),
        "output.trace": "trace.csv",
        "final_objective": trace.final_objective,
        "iterations": trace.iterations,
        "termination": trace.termination_reason,
    })
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
        pairs = [tok.split("=", 1) for tok in line.split()]
        if any(len(pair) != 2 for pair in pairs):
            raise UsageError(f"variant line tokens must be key=value: {raw!r}")
        tokens = dict(pairs)
        if "name" not in tokens or "algorithm" not in tokens:
            raise UsageError(f"variant line needs name= and algorithm=: {raw!r}")
        if any(v["name"] == tokens["name"] for v in variants):
            raise UsageError(f"variant name {tokens['name']!r} is used twice")
        variants.append(tokens)
    if not variants:
        raise UsageError(f"{path}: no variants defined")
    return variants


def run_variants(instance, variants_file, baseline: dict, out: Path,
                 start=None) -> dict[str, str | None]:
    """Run each variant line of ``variants_file`` (``_parse_variants``)
    with its settings over the options ``baseline``, from ``start`` (see
    ``run_algorithm``).  Writes ``out/<name>.trace.csv`` per run and
    ``out/comparison.csv``; returns each variant's failure message, None
    for one that ran, in the file's order."""
    variants = _parse_variants(variants_file)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["variant,final_objective,iters_to_tol,seconds"]
    outcomes: dict[str, str | None] = {}
    for tokens in variants:
        settings = dict(tokens)
        name, algorithm = settings.pop("name"), settings.pop("algorithm")
        # reproduce reruns the variants file an older bench read
        algorithm = RENAMED_ALGORITHMS.get(algorithm, algorithm)
        try:
            opts = _with_settings(baseline, settings, f"variant {name}")
            begin = time.monotonic()
            trace = run_algorithm(instance, algorithm, opts, start)
            seconds = time.monotonic() - begin
        except (BscaError, UsageError) as exc:
            outcomes[name] = str(exc)
            print(f"variant {name} failed: {exc}", file=sys.stderr)
            continue
        outcomes[name] = None
        trace.write_csv(out / f"{name}.trace.csv")
        to_tol = trace.tolerance_iteration if trace.tolerance_iteration is not None else -1
        rows.append("%s,%.17g,%d,%.6g" % (name, trace.final_objective, to_tol, seconds))
    (out / "comparison.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    return outcomes


def cmd_bench(args) -> int:
    instance = _load_instance(args.instance)
    out = Path(args.out)
    started = _timestamp()
    baseline = _merge_options(args, {})
    outcomes = run_variants(instance, args.variants, baseline, out)
    ran = [name for name, failure in outcomes.items() if failure is None]
    _write_run_manifest(out, "bench", started, {
        "instance": str(Path(args.instance).resolve()),
        "variants": str(Path(args.variants).resolve()),
        "output.comparison": "comparison.csv",
        **_blas_threads(),
        **_param_entries(baseline),
        **{f"output.trace.{name}": f"{name}.trace.csv" for name in ran},
        **{f"failed.{name}": failure for name, failure in outcomes.items()
           if failure is not None},
    })
    if not ran:
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


def _same_file(old: Path, new: Path) -> bool:
    """Whether a rerun's output matches the recorded one; an output the
    rerun left out does not."""
    if not new.is_file():
        return False
    if old.suffix == ".csv":
        return _csv_rows_without_time(old) == _csv_rows_without_time(new)
    return old.read_bytes() == new.read_bytes()


def _same_outputs(manifest: dict, old_dir: Path, new_dir: Path) -> bool:
    names = [rel for key, rel in manifest.items()
             if key.startswith("output.") and key != "output.instance"]
    if "output.instance" in manifest:
        names += [mat.name for mat in sorted(old_dir.glob("*.mat"))]
    ok = True
    for rel in names:
        if not _same_file(old_dir / rel, new_dir / rel):
            print(f"mismatch in {rel}", file=sys.stderr)
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
        algorithm = RENAMED_ALGORITHMS.get(manifest["algorithm"], manifest["algorithm"])
        return ["solve", manifest["instance"], "--algorithm", algorithm,
                "--out", out_dir] + flags
    if command == "bench":
        return ["bench", manifest["instance"], "--variants",
                manifest["variants"], "--out", out_dir] + flags
    raise UsageError(f"cannot reproduce command {command!r}")


def cmd_reproduce(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise UsageError(f"{args.manifest}: no such manifest")
    manifest = _read_named(manifest_path, "manifest")
    old_dir = manifest_path.parent
    with tempfile.TemporaryDirectory(prefix="bsca-reproduce-") as tmp:
        new_dir = Path(args.out) if args.out else Path(tmp) / "rerun"
        try:
            argv = _manifest_argv(manifest, str(new_dir))
        except KeyError as exc:
            raise UsageError(
                f"{manifest_path}: missing key {exc.args[0]!r}") from None
        code = main(argv)
        if code != 0:
            print("reproduction run failed", file=sys.stderr)
            return 3
        if _same_outputs(manifest, old_dir, new_dir):
            print("reproduce: outputs match")
            return 0
    print("reproduce: outputs differ", file=sys.stderr)
    now = _blas_threads()
    changed = [f"{key[len('blas.'):]} recorded {value}, now {now.get(key, 'unset')}"
               for key, value in manifest.items()
               if key.startswith("blas.") and now.get(key, "unset") != value]
    if changed:
        print("reproduce: BLAS thread settings differ from the recorded run: "
              + "; ".join(changed), file=sys.stderr)
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
    for key, (kind, _, allowed) in SOLVE_OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                            choices=allowed, default=None)


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
