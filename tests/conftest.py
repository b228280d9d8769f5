"""Shared builders for randomized composite test problems."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from bsca import core, engine
from bsca.anomaly import AnomalyProducts, state_to_vector
from bsca.core import (
    Box,
    CompositeProblem,
    L1Norm,
    SolverConfig,
    Unconstrained,
    Zero,
    make_partition,
)
from bsca.linesearch import quadratic_profile
from bsca.phase_retrieval import PhaseRetrievalInstance
from bsca.surrogates import (
    QuadOperator,
    SurrogateModel,
    inner_best_response_step,
    inner_exact_stepsize,
)

# the benchmark's tracer (its counting view of a matrix), loaded from its file
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing",
    Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def random_quadratic_problem(rng, block_sizes, l1_gain=0.0, box_halfwidth=None,
                             condition=4.0):
    """f(x) = 0.5 x'Hx - q'x with a well-conditioned SPD Hessian, optional
    l1 regularizers and box constraints, and the exact quadratic line
    profile attached."""
    n = sum(block_sizes)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.exp(rng.uniform(0.0, np.log(condition), n))
    hessian = (basis * eigs) @ basis.T
    hessian = 0.5 * (hessian + hessian.T)
    target = rng.standard_normal(n)
    partition = make_partition(block_sizes)

    def smooth_value(x):
        return float(0.5 * x @ (hessian @ x) - target @ x)

    def block_gradient(x, k):
        return (hessian @ x - target)[partition.slice_of(k)]

    def line_profile(x, d, block=None):
        if block is not None:
            d = partition.embed(block, d)
        return quadratic_profile(float(d @ (hessian @ d)),
                                 float(d @ (hessian @ x - target)))

    nonsmooth = tuple(L1Norm(l1_gain) if l1_gain > 0 else Zero()
                      for _ in block_sizes)
    if box_halfwidth is None:
        constraints = tuple(Unconstrained() for _ in block_sizes)
    else:
        constraints = tuple(Box(-box_halfwidth * np.ones(s), box_halfwidth * np.ones(s))
                            for s in block_sizes)
    problem = CompositeProblem(partition, smooth_value, block_gradient,
                               line_profile, nonsmooth, constraints)
    return problem, hessian, target


def small_pr_instance(gen, sizes):
    """Phase retrieval with ``3 n`` Gaussian measurements of a random
    signal, its unknowns split into blocks of ``sizes``."""
    n = sum(sizes)
    sampling = gen.standard_normal((n, 3 * n))
    return PhaseRetrievalInstance(
        sampling=sampling, intensities=(sampling.T @ gen.standard_normal(n)) ** 2,
        sparse_gain=0.1, partition=make_partition(sizes))


@dataclass(frozen=True)
class BlockProducts:
    """What ``anomaly_solver`` hands the low-rank + sparse block updates
    at a state: D S, E, D'E, D's squared column norms and the Lipschitz
    bound of the sparse-block model."""

    sparse_image: np.ndarray
    fit: np.ndarray
    correlation: np.ndarray
    diag: np.ndarray
    lipschitz: float

    @property
    def sparse(self) -> dict:
        """The products ``step_sparse`` and ``sparse_inner_descent`` take."""
        return dict(fit=self.fit, correlation=self.correlation, diag=self.diag)


def block_products(instance, state, proximal=0.0):
    """``BlockProducts`` at ``state``, with D S and E formed fresh by the
    problem's hook and the bound ``||D||_2^2 + proximal``."""
    fit, sparse_image = AnomalyProducts(instance).fresh(state_to_vector(state))
    D = instance.dictionary
    return BlockProducts(sparse_image, fit, D.T @ fit, np.einsum("ij,ij->j", D, D),
                         float(np.linalg.norm(D, 2)) ** 2 + proximal)


def spd_model(spd, b, anchor):
    """The quadratic model (1/2) v'Dv - v'b anchored at ``anchor``, with
    the dense SPD matrix ``spd`` given as its ``QuadOperator``."""
    return SurrogateModel(anchor, spd @ anchor - b,
                          QuadOperator(spd.__matmul__, np.diag(spd).copy().__getitem__))


def diagonal_operator(diag):
    """The ``QuadOperator`` of the formed diagonal D = diag(``diag``)."""
    return QuadOperator(diag.__mul__, diag.__getitem__)


def whole_diagonal(model):
    """All of a block model's diagonal, read through its accessor."""
    return model.quad.diagonal(np.arange(model.anchor.size))


def model_value(model, v):
    """A block model's value (1/2) v'Dv - v'b at ``v``, with
    b = D a - grad_anchor at its anchor a (``linear_term``).  This is
    grad_anchor'(v - a) + (1/2) (v - a)'D(v - a) up to a constant, one
    without the model's offset from the origin, whose rounding would
    hide the last decreases of a converging inner chain."""
    return float(0.5 * v @ model.quad.apply(v) - v @ linear_term(model))


def model_gradient(model, v):
    """A block model's gradient at ``v``: grad_anchor + D(v - a)."""
    return model.grad_anchor + model.quad.apply(v - model.anchor)


def linear_term(model):
    """b of a quadratic model (1/2) v'Dv - v'b: D anchor - grad_anchor."""
    return model.quad.apply(model.anchor) - model.grad_anchor


def fresh_inner_step(model, x_tau, regularizer, constraint):
    """``inner_best_response_step`` at the fresh model gradient."""
    grad_tau = model.quad.apply(x_tau) - linear_term(model)
    return inner_best_response_step(model, x_tau, grad_tau, regularizer, constraint)


def fresh_inner_stepsize(model, x_tau, target, regularizer):
    """``inner_exact_stepsize`` at the fresh model gradient and D delta."""
    grad_tau = model.quad.apply(x_tau) - linear_term(model)
    delta = target - x_tau
    return inner_exact_stepsize(grad_tau, delta, model.quad.apply(delta),
                                regularizer.change(x_tau, target))


def carried_gradient_drift(monkeypatch, model, problem, rounds):
    """Run ``rounds`` inner rounds on ``model`` and return (rounds run,
    largest drift of the carried gradient from a fresh D x_tau - b).
    The drift is relative to ||D x_tau|| + ||b||, the terms the fresh
    gradient is the difference of, so it measures accumulated rounding
    and not the cancellation near the minimizer."""
    seen = []
    honest = engine.inner_best_response_step

    def spy(model, x_tau, grad_tau, reg, constraint):
        seen.append((x_tau.copy(), grad_tau.copy()))
        return honest(model, x_tau, grad_tau, reg, constraint)

    monkeypatch.setattr(engine, "inner_best_response_step", spy)
    monkeypatch.setattr(core, "STATIONARITY_RTOL", 0.0)    # every round runs
    engine.inexact_inner_loop(model, problem, 0, SolverConfig(
        max_outer_iterations=1, inner_iterations=rounds))
    drift = 0.0
    for x, grad in seen:
        dx, b = model.quad.apply(x), linear_term(model)
        drift = max(drift, np.linalg.norm(grad - (dx - b))
                    / (np.linalg.norm(dx) + np.linalg.norm(b)))
    return len(seen), drift


class ProductLog(np.ndarray):
    """ndarray view that appends the operand shapes of each matrix
    product it takes part in to ``log``.  Every ufunc runs on plain views
    of its operands, so results are plain arrays with the plain bits;
    slices and row gathers of the view log to the same list."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__" and self.log is not None:
            self.log.append(tuple(np.shape(v) for v in inputs))
        inputs = tuple(_plain(v) for v in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(_plain(v) for v in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


def _plain(v):
    return v.view(np.ndarray) if isinstance(v, ProductLog) else v


def product_log(matrix, log):
    """A ``ProductLog`` view of ``matrix`` that appends to ``log``."""
    view = matrix.view(ProductLog)
    view.log = log
    return view


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
