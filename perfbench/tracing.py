"""Spans and counters recorded from outside the package.

Wrappers replace the module attributes through which the solvers look
up each layer (``bsca.phase_retrieval.pr_outer_model`` and so on) for
the length of a ``with tracer.patched():`` block, and the closures that
``pr_problem``/``anomaly_problem`` return are wrapped as they are built.
Products with the sampling matrix or the dictionary are counted by
handing the solver a ``CountingArray`` view of it.  Spans are kept in
memory and written out by ``write_spans``; a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import importlib
import os
import time
from collections import Counter

import numpy as np

# metric name -> the bindings a solver calls it through; a binding is a
# module plus a dotted attribute path inside it
SPANS = {
    "storage.write_instance": [("bsca.storage", "write_pr_instance"),
                               ("bsca.storage", "write_anomaly_instance")],
    "storage.read_instance": [("bsca.storage", "read_instance")],
    "core.objective": [("bsca.core", "objective"), ("bsca.engine", "objective")],
    "engine.advance": [("bsca.engine", "_RunBook.advance")],
    "engine.inexact_inner_loop": [("bsca.engine", "inexact_inner_loop"),
                                  ("bsca.phase_retrieval", "inexact_inner_loop")],
    "surrogates.inner_best_response_step": [
        ("bsca.surrogates", "inner_best_response_step"),
        ("bsca.engine", "inner_best_response_step")],
    "surrogates.soft_threshold": [("bsca.surrogates", "soft_threshold"),
                                  ("bsca.engine", "soft_threshold"),
                                  ("bsca.anomaly", "soft_threshold")],
    "linesearch.exact_step": [("bsca.linesearch", "exact_quadratic_step"),
                              ("bsca.linesearch", "exact_quartic_step"),
                              ("bsca.surrogates", "exact_quadratic_step"),
                              ("bsca.phase_retrieval", "exact_quartic_step"),
                              ("bsca.anomaly", "exact_quadratic_step")],
    "phase_retrieval.pr_outer_model": [("bsca.phase_retrieval", "pr_outer_model")],
    "phase_retrieval.pr_outer_stepsize": [("bsca.phase_retrieval", "pr_outer_stepsize")],
    "phase_retrieval.audit": [("bsca.phase_retrieval", "_audit_outer_profile")],
    "anomaly.sparse_inner_descent": [("bsca.anomaly", "sparse_inner_descent")],
    "anomaly.best_sparse_candidate": [("bsca.anomaly", "best_sparse_candidate")],
    "anomaly.factor_solves": [("bsca.anomaly", "best_left_factor"),
                              ("bsca.anomaly", "best_right_factor")],
}

# problem factory -> metric prefix and the closures of its result
PROBLEM_FACTORIES = {
    ("bsca.phase_retrieval", "pr_problem"): (
        "phase_retrieval", ("smooth_value", "block_gradient")),
    ("bsca.anomaly", "anomaly_problem"): (
        "anomaly", ("smooth_value", "block_gradient", "line_profile")),
}

SPAN_NAMES = list(SPANS) + [f"{prefix}.{closure}"
                            for prefix, closures in PROBLEM_FACTORIES.values()
                            for closure in closures]

KERNEL_COUNTS = ("full_products", "block_products", "flops", "bytes")

ROOT = "solve"


class CountingArray(np.ndarray):
    """ndarray view that counts the matrix products it takes part in.

    Every ufunc runs on plain views of its operands, so results are
    plain arrays with the bits the plain operands would give.  A product
    through the whole array counts as full, one through a slice of it
    (a block of rows) as a block product.
    """

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)
        self.full_size = getattr(obj, "full_size", self.size)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            self._count(*inputs)
        inputs = tuple(_plain(v) for v in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(_plain(v) for v in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)

    def _count(self, a, b) -> None:
        counted = a if isinstance(a, CountingArray) else b
        if counted.counts is None:
            return
        m, k = (1, a.shape[0]) if a.ndim == 1 else a.shape[-2:]
        n = 1 if b.ndim == 1 else b.shape[-1]
        full = counted.size == counted.full_size
        counted.counts["full_products" if full else "block_products"] += 1
        counted.counts["flops"] += 2 * m * k * n
        counted.counts["bytes"] += 8 * (m * k + k * n + m * n)


def _plain(v):
    return v.view(np.ndarray) if isinstance(v, CountingArray) else v


def counting_view(matrix: np.ndarray, counts: Counter) -> CountingArray:
    view = matrix.view(CountingArray)
    view.counts = counts
    return view


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """In-memory span recorder.

    A span is (group, id, parent id, name, start, end).  ``group`` is
    set by the caller to what the spans belong to (the set-up, or one
    traced solve), so the spans of one solve share it; the caller wraps
    each solve itself in a root span named ``ROOT``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.kernel = Counter()
        self.storage_bytes = 0
        self.group = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((self.group, span_id, parent, name, start, end))

        return traced

    def _wrap_factory(self, prefix: str, closures, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            problem = factory(*args, **kwargs)
            wrapped = {c: self.wrap(f"{prefix}.{c}", getattr(problem, c))
                       for c in closures if getattr(problem, c, None) is not None}
            return dataclasses.replace(problem, **wrapped)

        return traced_factory

    def _count_file(self, fn):
        """Add the size of the matrix file a read or write touches."""
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.storage_bytes += os.path.getsize(path)
            return result

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper whose binding exists; restore on exit."""
        saved = []

        def install(binding, make):
            found = _resolve(*binding)
            if found is not None:
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))

        try:
            for name, bindings in SPANS.items():
                for binding in bindings:
                    install(binding, functools.partial(self.wrap, name))
            for binding, (prefix, closures) in PROBLEM_FACTORIES.items():
                install(binding, functools.partial(self._wrap_factory, prefix, closures))
            for attr in ("write_matrix", "read_matrix"):
                install(("bsca.storage", attr), self._count_file)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, groups) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name over the given groups."""
        groups = set(groups)
        child_time = Counter()
        for group, _, parent, _, start, end in self.spans:
            if group in groups and parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for group, span_id, _, name, start, end in self.spans:
            if group in groups:
                calls, seconds = out.get(name, (0, 0.0))
                out[name] = (calls + 1, seconds + (end - start) - child_time[span_id])
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group", "span", "parent", "name", "start_s", "end_s"])
            for group, span_id, parent, name, start, end in self.spans:
                writer.writerow([group, span_id, parent, name,
                                 "%.9f" % start, "%.9f" % end])
