import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsca.errors import InvalidArgumentError

from oracles import (
    OracleReport,
    dense_spd_solve,
    finite_diff_block_gradient,
    golden_section,
    real_cubic_roots,
)


class TestGoldenSection:
    def test_known_vertex(self):
        assert golden_section(lambda g: (g - 0.3) ** 2, tol=1e-10) == pytest.approx(0.3, abs=1e-8)

    def test_boundary(self):
        assert golden_section(lambda g: g, tol=1e-10) == pytest.approx(0.0, abs=1e-9)

    def test_grid_prescan_finds_global(self):
        # two basins; the tilt makes the right one global
        def phi(g):
            return (g - 0.1) ** 2 * (g - 0.9) ** 2 - 0.05 * g
        got = golden_section(phi, tol=1e-10, grid=1000)
        dense = np.linspace(0.0, 1.0, 2_000_001)
        brute = dense[np.argmin(phi(dense))]
        assert got == pytest.approx(brute, abs=1e-6)

    def test_bad_tol(self):
        with pytest.raises(InvalidArgumentError):
            golden_section(lambda g: g, tol=0.0)


class TestFiniteDiff:
    def test_quadratic(self):
        f = lambda x: float(0.5 * x @ x)
        got = finite_diff_block_gradient(f, np.array([1.0, 2.0]), slice(0, 2))
        assert np.allclose(got, [1.0, 2.0], atol=1e-9)

    def test_partial_block(self):
        f = lambda x: float(x[0] ** 2 + 3.0 * x[1] + x[2] ** 3)
        got = finite_diff_block_gradient(f, np.array([1.0, 5.0, 2.0]), slice(2, 3), eps=1e-6)
        assert got == pytest.approx([12.0], abs=1e-5)

    def test_quadratic_is_exact(self):
        f = lambda x: float(0.5 * x @ x)
        got = finite_diff_block_gradient(f, np.array([1.0, 2.0]), slice(0, 2), eps=1e-6)
        assert np.max(np.abs(got - [1.0, 2.0])) < 1e-8

    def test_quartic_scalar(self):
        f = lambda x: float(0.25 * (x[0] * x[0] - 1.0) ** 2)
        got = finite_diff_block_gradient(f, np.array([2.0]), slice(0, 1), eps=1e-5)
        assert got == pytest.approx([6.0], abs=1e-6)

    def test_affine(self):
        f = lambda x: float(3.0 * x[0] + 1.0)
        got = finite_diff_block_gradient(f, np.array([0.7]), slice(0, 1), eps=1e-4)
        assert got == pytest.approx([3.0], abs=1e-10)

    def test_bad_eps(self):
        with pytest.raises(InvalidArgumentError):
            finite_diff_block_gradient(lambda x: float(x[0]), np.array([0.0]),
                                       slice(0, 1), eps=0.0)


class TestCubicOracle:
    def test_single_root(self):
        assert real_cubic_roots(1, 0, 0, -1) == pytest.approx([1.0], abs=1e-10)

    def test_three_roots(self):
        assert real_cubic_roots(1, 0, -1, 0) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-10)

    def test_triple_root(self):
        got = real_cubic_roots(1, -3, 3, -1)
        assert got == pytest.approx([1.0], abs=1e-6)

    def test_double_root(self):
        # (t - 1)^2 (t + 2) = t^3 - 3t + 2
        got = real_cubic_roots(1, 0, -3, 2)
        assert got == pytest.approx([-2.0, 1.0], abs=1e-7)

    def test_zero_leading(self):
        with pytest.raises(InvalidArgumentError):
            real_cubic_roots(0, 1, 1, 1)


class TestDenseSpdSolve:
    def test_identity(self):
        r = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(dense_spd_solve(np.eye(3), r), r)

    def test_diagonal(self):
        assert dense_spd_solve(np.diag([2.0]), np.array([4.0])) == pytest.approx([2.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_random_spd_residual(self, seed):
        gen = np.random.default_rng(seed)
        m = gen.standard_normal((10, 10))
        spd = m @ m.T + 10.0 * np.eye(10)
        r = gen.standard_normal(10)
        x = dense_spd_solve(spd, r)
        assert np.linalg.norm(spd @ x - r) <= 1e-10 * np.linalg.norm(r)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidArgumentError):
            dense_spd_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            dense_spd_solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))


def test_oracle_report_deviations():
    report = OracleReport("gamma", reference=1.0, candidate=1.0 + 1e-9)
    assert report.abs_deviation == pytest.approx(1e-9)
    assert report.rel_deviation == pytest.approx(1e-9, rel=1e-3)
