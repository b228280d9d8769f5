"""Shared builders for randomized composite test problems."""

from __future__ import annotations

import numpy as np
import pytest

from bsca.core import (
    Box,
    CompositeProblem,
    L1Norm,
    Unconstrained,
    Zero,
    make_partition,
)
from bsca.linesearch import quadratic_profile
from bsca.surrogates import SmoothComposition


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
                               nonsmooth, constraints, line_profile)
    return problem, hessian, target


def random_composition_problem(rng, block_sizes, inner_dim=6):
    """Nonconvex f = f1(f2(x)) with convex quartic-tailed f1 and squared
    linear forms f2; returns (problem, composition) so the partial
    linearization factories can be fed directly."""
    n = sum(block_sizes)
    weights = rng.standard_normal((inner_dim, n)) / np.sqrt(n)
    shift = rng.standard_normal(inner_dim) * 0.3
    partition = make_partition(block_sizes)

    def inner_value(x):
        return (weights @ x) ** 2 + shift

    def inner_block_jacobian(x, k):
        sl = partition.slice_of(k)
        return 2.0 * (weights @ x)[:, None] * weights[:, sl]

    def outer_value(u):
        return float(0.25 * u @ u + 0.1 * np.sum(u ** 4))

    def outer_gradient(u):
        return 0.5 * u + 0.4 * u ** 3

    composition = SmoothComposition(outer_value, outer_gradient,
                                    inner_value, inner_block_jacobian)

    def smooth_value(x):
        return composition.outer_value(composition.inner_value(x))

    def block_gradient(x, k):
        jac = composition.inner_block_jacobian(x, k)
        return jac.T @ composition.outer_gradient(composition.inner_value(x))

    problem = CompositeProblem(partition, smooth_value, block_gradient,
                               tuple(Zero() for _ in block_sizes))
    return problem, composition


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
