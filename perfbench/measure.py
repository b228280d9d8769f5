"""Timed and traced runs of one workload."""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import tracing

MIN_TIMED_SOLVES = 3

END_TO_END = {"solve_s": "s", "sweep_ms_p50": "ms", "iterations": "count",
              "setup_s": "s", "peak_rss_mb": "MiB", "solve_rss_mb": "MiB"}

# end-to-end times reported in gauge-scaled seconds (see gauge()); the
# set-up time is not scaled, since page faults and file writes dominate
# it and the gauge tracks neither (scaling widened its spread)
SCALED = ("solve_s", "sweep_ms_p50")

# The machine's speed drifts by up to a half over minutes, with the load
# of whatever shares it.  A fixed kernel of the benchmark's own, timed
# between the solves, drifts with it, so the end-to-end times are scaled
# by GAUGE_REF_S over the run's median gauge time: they read as seconds
# on a machine where the gauge takes GAUGE_REF_S, about its median on the
# 2-core machine of the README.
GAUGE_REF_S = 0.25
_GAUGE_RNG = np.random.default_rng(0)
_GAUGE_D = _GAUGE_RNG.standard_normal((100, 200))
_GAUGE_Y = _GAUGE_RNG.standard_normal((100, 200))
_GAUGE_STEP = 1.0 / np.linalg.norm(_GAUGE_D, 2) ** 2


def gauge(matrix: np.ndarray) -> float:
    """Seconds for a fixed mix of the kinds of work the solvers do, none
    of it through the package: an interpreter loop, accelerated
    soft-thresholding on 100 x 200 arrays, and products through the
    workload's own matrix (memory-bound for the 76 MiB sampling matrix)."""
    ones = np.ones(matrix.shape[0])
    begin = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    S = Z = np.zeros((200, 200))
    for _ in range(100):
        B = Z - _GAUGE_STEP * (_GAUGE_D.T @ (_GAUGE_D @ Z - _GAUGE_Y))
        S_next = np.maximum(B - _GAUGE_STEP, 0.0) - np.maximum(-B - _GAUGE_STEP, 0.0)
        Z = S_next + 0.5 * (S_next - S)
        S = S_next
    for _ in range(min(10_000, max(1, 200_000_000 // matrix.size))):
        matrix.T @ ones
    return time.perf_counter() - begin


# per-layer names reported as a call count alone
COUNT_ONLY = {"surrogates.inner_best_response_step"}

# module order of the per-layer metrics
MODULES = ("storage", "core", "engine", "surrogates", "linesearch",
           "phase_retrieval", "anomaly", "kernel", "solve", "trace")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"storage.bytes": "bytes", "engine.skips": "count",
             "kernel.full_products": "count", "kernel.block_products": "count",
             "kernel.flops": "flop", "kernel.bytes": "bytes",
             "solve.self_s": "s", "trace.solve_s": "s", "trace.overhead_s": "s"}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        if name not in COUNT_ONLY:
            units[f"{name}.self_s"] = "s"
    return dict(sorted(units.items(), key=lambda item: MODULES.index(item[0].split(".")[0])))


@dataclasses.dataclass
class Tally:
    """Solves attempted and failed in one run, and why they failed."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    messages: list[str] = dataclasses.field(default_factory=list)
    reference: object = None        # the run's first passing trace

    def note_setup(self, failures: list[str]) -> None:
        if failures:
            self.correct = False
            self.messages += failures

    def solve(self, run, workload, instance, config, start, checked_instance=None):
        """One solve, checked against the benchmark's own formulas and
        against the run's first passing trace (the start is the same, so
        every trace must be bit for bit the same); returns (trace, wall
        seconds), with trace None when the solve raised or failed a
        check, so that no metric is taken from a failed solve."""
        self.attempted += 1
        begin = time.perf_counter()
        try:
            trace = run(instance, config, start)
        except Exception as exc:    # a raising solve is a failed operation
            self.failed += 1
            self.messages.append(f"solve {self.attempted} raised {exc!r}")
            return None, 0.0
        wall = time.perf_counter() - begin
        failures = workload.check(instance if checked_instance is None else checked_instance,
                                  trace)
        if self.reference is None:
            if not failures:
                self.reference = trace
        elif not (np.array_equal(trace.objectives, self.reference.objectives)
                  and np.array_equal(trace.final_point.values,
                                     self.reference.final_point.values)):
            failures.append("trace differs from the run's first passing solve")
        if failures:
            self.failed += 1
            self.messages += [f"solve {self.attempted}: {f}" for f in failures]
            return None, wall
        return trace, wall

    def merge(self, other: "Tally") -> None:
        """Add the counts of a tally kept in a child process."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct = self.correct and other.correct
        self.messages += other.messages

    def result(self, values: dict, units: dict) -> dict:
        return {"correct": self.correct and self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()},
                "messages": self.messages}


@contextlib.contextmanager
def bundle_directory(out: Path):
    directory = Path(tempfile.mkdtemp(prefix="bundle-", dir=out))
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def sweep_ms(trace, blocks: int) -> np.ndarray:
    """Wall time of each full sweep, from the trace's elapsed_s column."""
    elapsed = np.array([e.elapsed_s for e in trace.entries])
    return np.diff(elapsed[::blocks]) * 1e3


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def in_child(fn, *args):
    """fn(*args) in a forked process, whose result comes back through a
    pipe.  A forked child's peak resident size starts from the parent's
    size at the fork, not from the parent's peak, so the child's peak
    leaves out whatever the parent freed before."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(send, fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, None
    finally:
        receive.close()
        child.join()
    if not ok:
        raise SystemExit(f"perfbench: {value or f'child exited with code {child.exitcode}'}")
    return value


def _child_main(send, fn, args) -> None:
    try:
        reply = (True, fn(*args))
    except BaseException:   # SystemExit too: the parent reports it
        reply = (False, traceback.format_exc())
    send.send(reply)
    send.close()


def timed_run(workload, seed: int, seconds: float, out: Path) -> dict:
    """Set-ups in this process, solves in a forked child that holds only
    the last set-up's instance."""
    tally = Tally()
    config = workload.config(seed)
    setup_s = []
    for _ in range(workload.setup_repeats):
        instance = None     # drop the previous instance before the next
        # a new directory each time: rewriting a bundle in place makes
        # ext4 force the truncated files to disk (auto_da_alloc), which
        # ties the set-up time to the shared disk
        with bundle_directory(out) as directory:
            instance, spent, failures = workload.setup(directory, config)
        setup_s.append(spent)
        tally.note_setup(failures)
    solved, values, gauges = in_child(timed_solves, workload, instance, config, seed, seconds)
    tally.merge(solved)
    values["setup_s"] = statistics.median(setup_s)
    values["peak_rss_mb"] = max(peak_rss_mb(), peak_rss_mb(resource.RUSAGE_CHILDREN))
    gauge_s = statistics.median(gauges)
    notes = [f"gauge {gauge_s:.4f} s (median of {len(gauges)}); unscaled "
             + ", ".join(f"{name} {values[name]:.6g}" for name in SCALED)]
    for name in SCALED:
        values[name] *= GAUGE_REF_S / gauge_s
    return dict(tally.result(values, END_TO_END), notes=notes)


def timed_solves(workload, instance, config, seed: int, seconds: float):
    """One warm-up solve, then solves until ``seconds`` have passed (at
    least MIN_TIMED_SOLVES), with a gauge before each solve and after
    the last; returns the tally, the unscaled solve metrics, taken from
    the solves that passed every check, and the gauge times."""
    tally = Tally()
    start = workload.start(instance, seed)
    matrix = getattr(instance, workload.counted)
    gauges = [gauge(matrix)]
    tally.solve(workload.run, workload, instance, config, start)     # warm-up
    traces = []
    timed = 0
    deadline = time.perf_counter() + seconds
    while timed < MIN_TIMED_SOLVES or time.perf_counter() < deadline:
        timed += 1
        gauges.append(gauge(matrix))
        trace, _ = tally.solve(workload.run, workload, instance, config, start)
        if trace is not None:
            traces.append(trace)
    gauges.append(gauge(matrix))
    if not traces:
        raise SystemExit("every timed solve failed:\n" + "\n".join(tally.messages))
    sweeps = np.concatenate([sweep_ms(t, workload.blocks) for t in traces])
    tally.reference = None      # the parent needs the counts, not the trace
    return tally, {
        "solve_s": statistics.median(t.entries[-1].elapsed_s for t in traces),
        "sweep_ms_p50": float(np.median(sweeps)),
        "iterations": traces[0].iterations,
        "solve_rss_mb": peak_rss_mb(),
    }, gauges


def traced_run(workload, seed: int, seconds: float, out: Path) -> dict:
    """Untraced and traced solves in turn; the traced ones see the
    package through the tracer's wrappers and a counting view of the
    instance's matrix."""
    tally = Tally()
    tracer = tracing.Tracer()
    config = workload.config(seed)
    with bundle_directory(out) as directory, tracer.patched():
        instance, _, failures = workload.setup(directory, config)
    tally.note_setup(failures)
    counted = dataclasses.replace(instance, **{workload.counted: tracing.counting_view(
        getattr(instance, workload.counted), tracer.kernel)})
    traced_solve = tracer.wrap(tracing.ROOT, workload.run)
    start = workload.start(instance, seed)
    tally.solve(workload.run, workload, instance, config, start)     # warm-up
    traced_s, overhead_s, groups, skips = [], [], [], []
    kernel = Counter()      # products of the traced solves that passed
    pairs = 0
    deadline = time.perf_counter() + seconds
    while pairs == 0 or time.perf_counter() < deadline:
        pairs += 1
        plain, plain_s = tally.solve(workload.run, workload, instance, config, start)
        tracer.group = f"solve-{pairs}"
        tracer.kernel.clear()
        with tracer.patched():
            trace, wall = tally.solve(traced_solve, workload, counted, config, start,
                                      checked_instance=instance)
        if trace is not None:
            groups.append(tracer.group)
            kernel.update(tracer.kernel)
            traced_s.append(wall)
            skips.append(int(np.sum(trace.stepsizes[1:] == 0.0)))
            if plain is not None:
                overhead_s.append(wall - plain_s)
    if not overhead_s:
        raise SystemExit("perfbench: no traced/untraced pair passed:\n"
                         + "\n".join(tally.messages))
    tracer.write_spans(out / f"spans-{workload.name}-seed{seed}.csv")

    solves = len(groups)
    per_solve = tracer.totals(groups)
    in_setup = tracer.totals(["setup"])
    values = {"storage.bytes": tracer.storage_bytes,
              "engine.skips": statistics.median(skips),
              "solve.self_s": per_solve[tracing.ROOT][1] / solves,
              "trace.solve_s": statistics.median(traced_s),
              # each traced solve against the untraced one just before it
              "trace.overhead_s": statistics.median(overhead_s)}
    for name in tracing.KERNEL_COUNTS:
        values[f"kernel.{name}"] = kernel[name] / solves
    for name in tracing.SPAN_NAMES:
        # storage spans come from the one traced set-up, the rest per solve
        totals, count = (in_setup, 1) if name.startswith("storage.") else (per_solve, solves)
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / count
        values[f"{name}.self_s"] = self_s / count
    return tally.result(values, per_layer_units())
