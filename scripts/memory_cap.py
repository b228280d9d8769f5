#!/usr/bin/env python3
"""Phase retrieval beyond memory: generate and solve under a data limit.

    python3 scripts/memory_cap.py [--sizes 20000x5000 40000x5000]
                                  [--blocks 10] [--cap-mib 256] [--dir DIR]

For each size (unknowns x measurements) the script runs two children,
one after the other, each with one BLAS thread:

- mapped: under ``RLIMIT_DATA`` of ``--cap-mib``, set on that child
  alone.  It draws the sampling matrix straight into a bundle's mapped
  file (``storage.map_pr_sampling``), writes the bundle, reads it back
  mapped read-only and solves from the read instance.
- in memory: no limit.  It generates the same instance in memory and
  solves it.

Both solve with ``run_phase_retrieval`` from the generating signal plus
0.2 times a unit Gaussian vector (seed 1), as the benchmark's phase
retrieval workloads start, with 10 inner rounds, ``stop_tol`` 1e-8 and
an iteration cap of 100 sweeps.  For each child the script prints the
generate seconds, split into the draw (into the mapped file, or into
memory), the bundle write and the read-back (both 0 in memory), the
solve seconds, the iterations and the stop rule, the first
sweep's seconds and the median of the later ones, the peak ``RssAnon``
(the parent reads the child's ``/proc/<pid>/status`` every 10 ms) and
the child's own ``VmHWM``, then whether the two final objectives and
final points agree bit for bit.  The bundle goes into a temporary
directory under ``--dir`` (default: the system's temporary directory)
and is deleted after each size; the 40000 x 5000 matrix takes 1.6 GB
on disk, and the in-memory child holds as much.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
WARM_RADIUS = 0.2
INNER_ROUNDS = 10
STOP_TOL = 1e-8
SWEEP_CAP = 100
POLL_S = 0.01


def solve_child(mode: str, unknowns: int, measurements: int, blocks: int,
                bundle: str) -> dict:
    """Generate (into the mapped bundle or in memory) and solve; returns
    the child's measurements."""
    from bsca import storage
    from bsca.core import SolverConfig
    from bsca.phase_retrieval import generate_pr_instance, run_phase_retrieval

    begin = time.perf_counter()
    out = (storage.map_pr_sampling(bundle, unknowns, measurements)
           if mode == "mapped" else None)
    instance = generate_pr_instance(unknowns, measurements, num_blocks=blocks,
                                    seed=0, out=out)
    draw_s = time.perf_counter() - begin
    write_s = read_s = 0.0
    if mode == "mapped":
        begin = time.perf_counter()
        storage.write_pr_instance(bundle, instance)
        write_s = time.perf_counter() - begin
        del instance, out
        begin = time.perf_counter()
        instance = storage.read_instance(bundle)
        read_s = time.perf_counter() - begin
    noise = np.random.default_rng(1).standard_normal(unknowns)
    start = instance.signal + WARM_RADIUS * noise / np.linalg.norm(noise)
    config = SolverConfig(max_outer_iterations=SWEEP_CAP * blocks,
                          inner_iterations=INNER_ROUNDS, stop_tol=STOP_TOL)
    begin = time.perf_counter()
    trace = run_phase_retrieval(instance, config, start)
    solve_s = time.perf_counter() - begin
    elapsed = np.array([entry.elapsed_s for entry in trace.entries])
    sweeps = np.diff(elapsed[::blocks])
    status = dict(line.split(":", 1) for line in
                  Path("/proc/self/status").read_text().splitlines())
    return {"generate_s": draw_s + write_s + read_s, "draw_s": draw_s,
            "write_s": write_s, "read_s": read_s, "solve_s": solve_s,
            "iterations": trace.iterations, "termination": trace.termination_reason,
            "first_sweep_s": float(sweeps[0]) if sweeps.size else float("nan"),
            "later_sweep_s": (float(np.median(sweeps[1:])) if sweeps.size > 1
                              else float("nan")),
            "vm_hwm_mib": int(status["VmHWM"].split()[0]) / 1024,
            "objective": float(trace.final_objective).hex(),
            "point_sha256": hashlib.sha256(trace.final_point.values.tobytes()).hexdigest()}


def rss_anon_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("RssAnon:"):
                return int(line.split()[1])
    except OSError:     # the child has exited
        pass
    return 0


def run_child(mode: str, unknowns: int, measurements: int, blocks: int,
              bundle: Path, cap_mib: int | None) -> dict:
    """One child run of this script; returns its report plus the peak
    RssAnon seen while it ran."""
    def limit():
        if cap_mib is not None:
            resource.setrlimit(resource.RLIMIT_DATA, (cap_mib << 20, cap_mib << 20))

    argv = [sys.executable, __file__, "--child", mode, "--sizes",
            f"{unknowns}x{measurements}", "--blocks", str(blocks), "--dir", str(bundle)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, env=env, preexec_fn=limit)
    peak = 0
    while child.poll() is None:
        peak = max(peak, rss_anon_kib(child.pid))
        time.sleep(POLL_S)
    stdout, stderr = child.communicate()
    if child.returncode != 0:
        return {"failed": f"exit code {child.returncode}: {stderr.strip()[-400:]}"}
    report = json.loads(stdout.splitlines()[-1])
    report["peak_rss_anon_mib"] = peak / 1024
    return report


def parse_size(text: str) -> tuple[int, int]:
    unknowns, measurements = text.lower().split("x")
    return int(unknowns), int(measurements)


def describe(report: dict) -> str:
    if "failed" in report:
        return f"failed, {report['failed']}"
    return (f"generate {report['generate_s']:.2f} s (draw {report['draw_s']:.2f}, "
            f"write {report['write_s']:.2f}, read back {report['read_s']:.2f}), "
            f"solve {report['solve_s']:.2f} s, "
            f"{report['iterations']} iterations ({report['termination']}), sweep "
            f"{report['first_sweep_s']:.3f} s first / {report['later_sweep_s']:.3f} s later, "
            f"peak RssAnon {report['peak_rss_anon_mib']:.0f} MiB, "
            f"VmHWM {report['vm_hwm_mib']:.0f} MiB, objective {report['objective']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", nargs="+", default=["20000x5000", "40000x5000"])
    ap.add_argument("--blocks", type=int, default=10)
    ap.add_argument("--cap-mib", type=int, default=256)
    ap.add_argument("--dir", default=tempfile.gettempdir())
    ap.add_argument("--child", choices=("mapped", "memory"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(solve_child(args.child, *parse_size(args.sizes[0]),
                                     args.blocks, args.dir)))
        return 0
    results = []
    all_match = True
    for size in args.sizes:
        unknowns, measurements = parse_size(size)
        print(f"{unknowns} x {measurements}, {args.blocks} blocks, "
              f"matrix {unknowns * measurements * 8 / 2**20:.0f} MiB, "
              f"RLIMIT_DATA {args.cap_mib} MiB on the mapped child", flush=True)
        bundle = Path(tempfile.mkdtemp(prefix="memory-cap-", dir=args.dir))
        try:
            mapped = run_child("mapped", unknowns, measurements, args.blocks,
                               bundle, args.cap_mib)
        finally:
            shutil.rmtree(bundle, ignore_errors=True)
        print(f"  mapped:    {describe(mapped)}", flush=True)
        memory = run_child("memory", unknowns, measurements, args.blocks, bundle, None)
        print(f"  in memory: {describe(memory)}", flush=True)
        match = ("failed" not in mapped and "failed" not in memory
                 and mapped["objective"] == memory["objective"]
                 and mapped["point_sha256"] == memory["point_sha256"])
        all_match = all_match and match
        print(f"  final objective and point match bit for bit: {'yes' if match else 'no'}")
        results.append({"size": size, "blocks": args.blocks, "cap_mib": args.cap_mib,
                        "mapped": mapped, "memory": memory, "match": match})
    print(json.dumps(results))
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
