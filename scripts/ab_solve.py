#!/usr/bin/env python3
"""Interleaved timing of two checkouts on one benchmark workload.

    python3 scripts/ab_solve.py CHECKOUT_A CHECKOUT_B WORKLOAD PAIRS [--seed S]

Each checkout's ``src/bsca`` is imported under a module name of its own,
and ``perfbench/workloads.py`` of the checkout this script lives in is
loaded once against each, so both solve the workload as the benchmark
defines it: the same instance (its fingerprints are compared) and the
same start, drawn from ``--seed``.

The two checkouts are timed under both side assignments, one after
the other: first with CHECKOUT_A in the first side and CHECKOUT_B in
the second, then swapped.  The first side is loaded and builds its
instance first, and the benchmark's gauge (``perfbench/measure.gauge``)
is timed on its matrix before each pair.  In each assignment, after one
warm-up solve each, which is checked as the benchmark checks its
solves, the two sides alternate for PAIRS pairs, the first side first
and the second side first in turn, with one BLAS thread.  Both solves
of a pair are scaled by the gauge timed before it, as the benchmark
scales its times: to seconds on a machine where the gauge takes
``measure.GAUGE_REF_S``.

For each assignment the script prints whether the traces agree bit for
bit, each checkout's median solve time and quartiles, raw and scaled,
the median over pairs of the time ratio B/A (CHECKOUT_B over
CHECKOUT_A), the share of pairs in which B ran faster, and whether the
claim rule held on the scaled times: at least ten pairs ran, B won at
least nine tenths of them (ties count for neither side), and the
medians differ by more than the distance between A's quartiles.  It
also prints each side's function calls per solve, Python and built-in,
counted by ``cProfile`` in one more solve per side, which is not timed:
a count that repeats exactly, for a claim about per-call overhead.
B's gain is claimed only when the rule holds under both assignments,
so a bias of the harness towards one side cannot make the claim.  The last lines give the
geometric mean of the two assignments' median ratios B/A, which
cancels a bias that slows one side by a factor, and the claim's
verdict.  Timing the two sides back to back keeps a machine whose
speed drifts over minutes from favouring either, and the gauge keeps
that drift out of the quartiles.  Nothing under perfbench/ is changed.
"""

import argparse
import cProfile
import importlib
import importlib.util
import math
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # BLAS threads are fixed before numpy loads, as the benchmark fixes them
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_package(checkout: Path, name: str):
    """Import ``checkout/src/bsca`` and all its modules as ``name``."""
    folder = checkout / "src" / "bsca"
    spec = importlib.util.spec_from_file_location(
        name, folder / "__init__.py", submodule_search_locations=[str(folder)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(folder.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    return package


def load_workloads(name: str):
    """``perfbench/workloads.py`` loaded while ``bsca`` and its modules
    name the package imported as ``name``."""
    alias = {"bsca": sys.modules[name]}
    alias.update({"bsca" + key[len(name):]: module
                  for key, module in sys.modules.items()
                  if key.startswith(name + ".")})
    saved = {key: sys.modules[key] for key in alias if key in sys.modules}
    sys.modules.update(alias)
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{name}", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads
        spec.loader.exec_module(workloads)
    finally:
        for key in alias:
            del sys.modules[key]
        sys.modules.update(saved)
    return workloads


class Side:
    """One checkout's workload, instance and start."""

    def __init__(self, checkout: Path, name: str, workload: str, seed: int):
        load_package(checkout, name)
        self.workloads = load_workloads(name)
        if workload not in self.workloads.WORKLOADS:
            sys.exit(f"ab_solve: unknown workload {workload!r}; one of "
                     f"{sorted(self.workloads.WORKLOADS)}")
        self.workload = self.workloads.WORKLOADS[workload]
        self.instance = self.workload.generate()
        self.config = self.workload.config(seed)
        self.start = self.workload.start(self.instance, seed)

    def solve(self):
        begin = time.perf_counter()
        trace = self.workload.run(self.instance, self.config, self.start)
        return trace, time.perf_counter() - begin


def signature(trace) -> tuple:
    """Everything a trace records but its times."""
    return (trace.objectives.tobytes(), trace.stepsizes.tobytes(),
            tuple((e.block, e.armijo_exponent) for e in trace.entries),
            trace.final_point.values.tobytes(), trace.termination_reason)


MIN_PAIRS = 10    # fewer pairs leave A's quartiles no spread to beat


def _rule(times_a, times_b) -> tuple[bool, str]:
    """The claim rule on one assignment's paired solve times: at least
    ``MIN_PAIRS`` pairs, B faster in at least nine tenths of them, and
    A's median above B's by more than A's quartile spread.  Returns the
    verdict and a line that states it with its numbers."""
    a, b = np.asarray(times_a, dtype=float), np.asarray(times_b, dtype=float)
    wins = int(np.count_nonzero(b < a))
    needed = math.ceil(0.9 * a.size)
    lower, upper = np.percentile(a, [25, 75])
    gap = float(np.median(a) - np.median(b))
    enough = a.size >= MIN_PAIRS
    held = enough and wins >= needed and gap > upper - lower
    return held, (f"claim rule {'held' if held else 'did not hold'}: B won {wins} of "
                  f"{a.size} pairs (needs {needed}"
                  f"{'' if enough else f', of at least {MIN_PAIRS} pairs'}); "
                  f"median gap {gap:.4f} s, A's quartile spread {upper - lower:.4f} s")


def claim(as_given, swapped) -> tuple[bool, str]:
    """Whether B's gain over A may be claimed: ``as_given`` and
    ``swapped`` are each ``(times_a, times_b)``, A's and B's paired solve
    times with the sides as given and with them swapped, and the claim
    rule (``_rule``) must hold on both.  Returns the verdict and a line
    that states it."""
    verdicts = [_rule(*times)[0] for times in (as_given, swapped)]
    held = all(verdicts)
    return held, (f"claim {'held' if held else 'did not hold'}: the rule "
                  f"{'held' if verdicts[0] else 'did not hold'} with the sides as "
                  f"given and {'held' if verdicts[1] else 'did not hold'} with them "
                  f"swapped")


def side_free_ratio(as_given, swapped) -> tuple[float, str]:
    """The geometric mean of the median ratios B/A of the two side
    assignments, each ``(times_a, times_b)``.  A harness that slows one
    side by a factor slows B in one assignment and A in the other, so
    the factor cancels in the mean.  Returns the mean and a line that
    states it with both medians."""
    medians = [float(np.median(np.asarray(b, dtype=float) / np.asarray(a, dtype=float)))
               for a, b in (as_given, swapped)]
    mean = math.sqrt(medians[0] * medians[1])
    return mean, (f"geometric mean of the two median ratios B/A: {mean:.3f} "
                  f"(as given {medians[0]:.3f}, swapped {medians[1]:.3f})")


def report(times_a, times_b, gauges, reference: float) -> tuple[bool, list[str]]:
    """The summary of one assignment's paired solve times: each
    checkout's median and quartiles, raw and scaled by the gauge timed
    before each pair (to seconds on a machine where the gauge takes
    ``reference``), the median ratio B/A, the pairs B won, and the claim
    rule on the scaled times.  Returns the rule's verdict and the
    lines."""
    raw = {"A": np.asarray(times_a, dtype=float), "B": np.asarray(times_b, dtype=float)}
    scale = reference / np.asarray(gauges, dtype=float)
    lines = [f"gauge: median {np.median(gauges):.4f} s over {len(gauges)} pairs, "
             f"scaled to {reference} s"]
    for label, times in raw.items():
        for kind, values in (("raw", times), ("scaled", times * scale)):
            lower, median, upper = np.percentile(values, [25, 50, 75])
            lines.append(f"{label} solve, {kind}: median {median:.4f} s, quartiles "
                         f"[{lower:.4f}, {upper:.4f}] s")
    ratios = raw["B"] / raw["A"]
    faster = int(np.count_nonzero(ratios < 1.0))
    lines.append(f"median ratio B/A {np.median(ratios):.3f}; B faster in {faster} of "
                 f"{ratios.size} pairs ({100.0 * faster / ratios.size:.0f}%)")
    held, line = _rule(raw["A"] * scale, raw["B"] * scale)
    return held, lines + [f"scaled {line}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkout_a", type=Path)
    ap.add_argument("checkout_b", type=Path)
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("PAIRS must be at least 1")

    sys.path.insert(0, str(PERFBENCH))    # workloads.py imports checks.py
    measure = importlib.import_module("measure")
    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs}")
    same, scaled = True, []
    assignments = (("as given", (("A", args.checkout_a), ("B", args.checkout_b))),
                   ("swapped", (("B", args.checkout_b), ("A", args.checkout_a))))
    for number, (name, roles) in enumerate(assignments):
        print(f"sides {name}: {roles[0][0]} runs first, {roles[1][0]} second")
        sides = {label: Side(checkout.resolve(), f"bsca_{label.lower()}{number}",
                             args.workload, args.seed)
                 for label, checkout in roles}
        agreed, times, gauges = timed_pairs(sides, [label for label, _ in roles],
                                            args.pairs, measure)
        same = same and agreed
        print(f"traces bit for bit: {'yes' if agreed else 'no'}")
        lines = report(times["A"], times["B"], gauges, measure.GAUGE_REF_S)[1]
        print("\n".join(lines))
        for label, _ in roles:
            print(f"{label} function calls per solve (cProfile, untimed): "
                  f"{python_calls(sides[label])}")
        del sides
        scale = measure.GAUGE_REF_S / np.asarray(gauges)
        scaled.append((np.asarray(times["A"]) * scale, np.asarray(times["B"]) * scale))
    print(side_free_ratio(*scaled)[1])
    print(claim(*scaled)[1])
    return 0 if same else 1


def python_calls(side: Side) -> int:
    """The calls ``cProfile`` counts in one solve of ``side``, built-in
    functions included, summed over the profiler's own entries:
    ``pstats`` keys them by file, line and name, under which the
    ``__init__`` of two dataclasses can collide and count once."""
    profile = cProfile.Profile()
    profile.runcall(side.solve)
    return sum(entry.callcount for entry in profile.getstats())


def timed_pairs(sides: dict, order: list[str], pairs: int, measure):
    """One checked warm-up solve per side, then ``pairs`` pairs, the
    side ``order[0]`` first in even pairs and second in odd ones, with
    the gauge timed on its matrix before each pair.  Returns whether
    every trace matched the other side's and its own warm-up's, each
    side's solve times, and the gauge times."""
    warm = {}
    for label in order:
        side = sides[label]
        trace, _ = side.solve()
        warm[label] = signature(trace)
        for failure in side.workload.check(side.instance, trace):
            print(f"{label} fails a check: {failure}")
    # compared as text: each package has its own partition class
    first, second = (sides[label] for label in order)
    if (repr(first.workloads.fingerprint(first.instance))
            != repr(second.workloads.fingerprint(second.instance))):
        sys.exit("ab_solve: the two checkouts built different instances")
    same = warm["A"] == warm["B"]
    matrix = getattr(first.instance, first.workload.counted)
    times, gauges = {"A": [], "B": []}, []
    for pair in range(pairs):
        gauges.append(measure.gauge(matrix))
        for label in (order if pair % 2 == 0 else order[::-1]):
            trace, seconds = sides[label].solve()
            same = same and signature(trace) == warm[label]
            times[label].append(seconds)
    return same, times, gauges


if __name__ == "__main__":
    sys.exit(main())
