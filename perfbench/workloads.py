"""The three workloads: how each builds its instance through the
package's storage, where it starts, how it solves, and what it checks.

Instances are fixed (instance seed 0); the benchmark's ``--seed`` draws
the start: the direction of the perturbation of the generating signal
in phase retrieval, the initial factors in the low-rank + sparse run.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bsca import storage
from bsca.anomaly import (
    anomaly_problem,
    anomaly_solver,
    final_state,
    generate_anomaly_instance,
    initial_state,
    run_anomaly_bsca,
)
from bsca.core import SolverConfig
from bsca.phase_retrieval import generate_pr_instance, pr_problem, run_phase_retrieval

import checks

# phase retrieval: 2000 unknowns, 5000 measurements, density 0.01
PR_UNKNOWNS, PR_MEASUREMENTS, PR_DENSITY = 2000, 5000, 0.01
PR_WARM_RADIUS = 0.2
PR_INNER_ROUNDS = 10
PR_RESIDUAL_BAR = 2e-5

# low-rank + sparse: the criterion-5 desk instance
DESK_SHAPE = dict(n=100, m=200, p=200, rank=3, density=0.05, noise_var=1e-4)
DESK_INNER_ROUNDS = 30
DESK_RESIDUAL_BAR = 1e-5

STOP_TOL = 1e-8
INSTANCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int                 # iterations per sweep
    max_iterations: int         # cap; the stop rule fires well before it
    setup_repeats: int
    counted: str                # instance field handed over as a counting view
    writer: str                 # bsca.storage function that writes the bundle
    generate: Callable[[], object]
    build: Callable[[object, SolverConfig], None]
    start: Callable[[object, int], object]
    run: Callable[[object, SolverConfig, object], object]
    check: Callable[[object, object], list[str]]
    inner_rounds: int

    def config(self, seed: int) -> SolverConfig:
        return SolverConfig(max_outer_iterations=self.max_iterations,
                            inner_iterations=self.inner_rounds,
                            stop_tol=STOP_TOL, seed=seed)

    def setup(self, directory: Path, config: SolverConfig):
        """Generate, write and read back the instance bundle, then build
        the problem and block solver; returns (instance, seconds,
        failures).  The generated instance is dropped before the read,
        so the read-back copy is the only one alive, and the round trip
        is checked against fingerprints taken outside the timed part.
        The storage functions are looked up on the module at call time,
        so a traced set-up goes through their wrappers."""
        begin = time.perf_counter()
        generated = self.generate()
        getattr(storage, self.writer)(directory, generated)
        seconds = time.perf_counter() - begin
        expected = fingerprint(generated)
        del generated
        begin = time.perf_counter()
        instance = storage.read_instance(directory)
        self.build(instance, config)
        seconds += time.perf_counter() - begin
        return instance, seconds, round_trip_failures(expected, fingerprint(instance))


INSTANCE_FIELDS = ("sampling", "intensities", "signal", "measurements", "dictionary",
                   "true_left", "true_right", "true_sparse", "sparse_gain", "ridge",
                   "partition", "rank")


def fingerprint(instance) -> dict:
    """Each instance field, with every array replaced by its shape, its
    dtype and a hash of its bytes."""
    out = {}
    for field in INSTANCE_FIELDS:
        value = getattr(instance, field, None)
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            value = (value.shape, value.dtype.str, hashlib.sha256(value).hexdigest())
        out[field] = value
    return out


def round_trip_failures(expected: dict, read: dict) -> list[str]:
    return [f"storage round trip changed {field}"
            for field in INSTANCE_FIELDS if expected[field] != read[field]]


# ---------------------------------------------------------------------------
# phase retrieval
# ---------------------------------------------------------------------------

def pr_start(instance, seed: int) -> np.ndarray:
    """The generating signal plus PR_WARM_RADIUS times a unit-norm
    Gaussian vector drawn from the seed."""
    noise = np.random.default_rng(seed).standard_normal(instance.num_unknowns)
    return instance.signal + PR_WARM_RADIUS * noise / np.linalg.norm(noise)


def pr_check(instance, trace) -> list[str]:
    A, y, gain = instance.sampling, instance.intensities, instance.sparse_gain
    x = trace.final_point.values
    h_final = checks.pr_value(A, y, gain, x)
    out = checks.trace_failures(trace.objectives, h_final, trace.termination_reason)
    out += checks.bar_failure("prox-gradient residual",
                              checks.pr_residual(A, y, gain, x), PR_RESIDUAL_BAR)
    if not np.array_equal(np.flatnonzero(x), np.flatnonzero(instance.signal)):
        out.append(f"support has {np.count_nonzero(x)} entries, not the "
                   f"signal's {np.count_nonzero(instance.signal)}")
    h_signal = checks.pr_value(A, y, gain, instance.signal)
    if not h_final <= h_signal:
        out.append(f"final objective {h_final!r} above the signal's {h_signal!r}")
    return out


def pr_workload(name: str, blocks: int, max_iterations: int) -> Workload:
    return Workload(
        name=name, blocks=blocks, max_iterations=max_iterations,
        setup_repeats=12, counted="sampling", writer="write_pr_instance",
        inner_rounds=PR_INNER_ROUNDS,
        generate=lambda: generate_pr_instance(
            PR_UNKNOWNS, PR_MEASUREMENTS, density=PR_DENSITY,
            num_blocks=blocks, seed=INSTANCE_SEED),
        build=lambda instance, config: pr_problem(instance),
        start=pr_start,
        run=run_phase_retrieval,
        check=pr_check)


# ---------------------------------------------------------------------------
# low-rank + sparse
# ---------------------------------------------------------------------------

def desk_check(instance, trace) -> list[str]:
    Y, D = instance.measurements, instance.dictionary
    ridge, gain = instance.ridge, instance.sparse_gain
    s = final_state(instance, trace)
    h_final = checks.anomaly_value(Y, D, ridge, gain, s.left, s.right, s.sparse)
    out = checks.trace_failures(trace.objectives, h_final, trace.termination_reason)
    for block, value in checks.anomaly_residuals(
            Y, D, ridge, gain, s.left, s.right, s.sparse).items():
        out += checks.bar_failure(f"block {block} residual", value, DESK_RESIDUAL_BAR)
    h_truth = checks.anomaly_value(Y, D, ridge, gain, instance.true_left,
                                   instance.true_right, instance.true_sparse)
    if not h_final <= h_truth:
        out.append(f"final objective {h_final!r} above the truth's {h_truth!r}")
    return out


def desk_build(instance, config: SolverConfig) -> None:
    anomaly_problem(instance)
    anomaly_solver(instance, config)


DESK = Workload(
    name="anomaly_desk", blocks=3, max_iterations=1200, setup_repeats=100,
    counted="dictionary", writer="write_anomaly_instance",
    inner_rounds=DESK_INNER_ROUNDS,
    generate=lambda: generate_anomaly_instance(seed=INSTANCE_SEED, **DESK_SHAPE),
    build=desk_build,
    start=lambda instance, seed: initial_state(instance, seed=seed),
    run=run_anomaly_bsca,
    check=desk_check)


WORKLOADS = {w.name: w for w in (
    pr_workload("pr_scaleup", blocks=20, max_iterations=400),
    pr_workload("pr_wide_blocks", blocks=2, max_iterations=40),
    DESK,
)}
