import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bsca import core
from bsca.core import (
    BlockPoint,
    Box,
    CompositeProblem,
    L1Norm,
    RunTrace,
    SolverConfig,
    TRACE_HEADER,
    Unconstrained,
    Zero,
    equal_partition,
    make_partition,
    objective,
)
from bsca.errors import (
    ConfigError,
    FeasibilityError,
    InvalidArgumentError,
    InvalidPartitionError,
)


class TestPartition:
    def test_single_block(self):
        part = make_partition([3])
        assert part.num_blocks == 1
        assert part.total == 3
        assert part.offsets == (0,)

    def test_prefix_sums(self):
        part = make_partition([2, 3, 5])
        assert part.num_blocks == 3
        assert part.total == 10
        assert part.offsets == (0, 2, 5)
        assert part.slice_of(1) == slice(2, 5)

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidPartitionError):
            make_partition([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidPartitionError):
            make_partition([])

    def test_equal_partition_spreads_remainder(self):
        part = equal_partition(11, 3)
        assert part.block_sizes == (4, 4, 3)
        assert part.total == 11


class TestBlockPoint:
    def test_length_mismatch(self):
        with pytest.raises(InvalidPartitionError):
            BlockPoint(np.zeros(4), make_partition([2, 3]))


def _scalar_problem(f, grad, regularizer=Zero()):
    return CompositeProblem(
        partition=make_partition([1]),
        smooth_value=lambda x: float(f(x[0])),
        block_gradient=lambda x, k: np.array([grad(x[0])]),
        nonsmooth=(regularizer,),
    )


class TestProblemParts:
    def test_a_box_needs_lower_at_most_upper(self):
        with pytest.raises(InvalidArgumentError, match="lower <= upper"):
            Box(np.zeros(2), np.array([1.0, -1.0]))

    def test_an_l1_gain_must_be_nonnegative(self):
        assert L1Norm(0.0).value(np.ones(2)) == 0.0
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            L1Norm(-1e-3)

    @pytest.mark.parametrize("nonsmooth, constraints, message", [
        ((Zero(),), (), "one regularizer per block"),
        ((Zero(), Zero()), (Unconstrained(),), "one constraint per block"),
    ])
    def test_a_problem_needs_one_part_per_block(self, nonsmooth, constraints, message):
        with pytest.raises(InvalidArgumentError, match=message):
            CompositeProblem(make_partition([1, 2]), lambda x: 0.0,
                             lambda x, k: np.zeros(1), nonsmooth, constraints)


class TestObjective:
    def test_pure_quadratic(self):
        part = make_partition([2])
        prob = CompositeProblem(part, lambda x: float(0.5 * x @ x),
                                lambda x, k: x, (Zero(),))
        assert objective(prob, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_l1_only(self):
        part = make_partition([2])
        prob = CompositeProblem(part, lambda x: 0.0,
                                lambda x, k: np.zeros(2), (L1Norm(2.0),))
        assert objective(prob, np.array([1.0, -1.0])) == pytest.approx(4.0)

    def test_composite_scalar(self):
        prob = _scalar_problem(lambda v: 0.5 * (v - 1.0) ** 2,
                               lambda v: v - 1.0, L1Norm(1.0))
        assert objective(prob, np.array([0.0])) == pytest.approx(0.5)

    def test_infeasible_raises(self):
        prob = CompositeProblem(
            make_partition([2]), lambda x: 0.0, lambda x, k: np.zeros(2),
            (Zero(),), (Box(np.zeros(2), np.ones(2)),))
        with pytest.raises(FeasibilityError):
            objective(prob, np.array([2.0, 0.5]))


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig(max_outer_iterations=10).validate()

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.0), dict(beta=0.0), dict(beta=1.5),
        dict(inner_iterations=0), dict(curvature=0.0), dict(stop_tol=-1.0),
        dict(max_outer_iterations=-1), dict(line_search="bogus"),
        dict(block_rule="bogus"),
    ])
    def test_rejects(self, kwargs):
        base = dict(max_outer_iterations=5)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SolverConfig(**base).validate()


class TestRunTrace:
    def test_csv_roundtrip_format(self, tmp_path):
        trace = RunTrace()
        trace.record(0, -1, 0.0, -1, 1.0 / 3.0, 0.0)
        trace.record(1, 0, 0.5, 2, 0.25, 0.125)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert lines[1].startswith("0,-1,0,")
        cells = lines[2].split(",")
        assert cells[:2] == ["1", "0"]
        # 17 significant digits round-trip exactly
        assert float(cells[4]) == 0.25
        assert float(lines[1].split(",")[4]) == 1.0 / 3.0
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert path.read_text() == text

    def test_stepsize_and_objective_columns(self):
        trace = RunTrace()
        trace.record(0, -1, 0.0, -1, 5.0, 0.0)
        trace.record(1, 0, 1.0, -1, 4.0, 0.1)
        trace.record(2, 1, 0.25, 3, 4.0, 0.2)
        assert np.all(trace.stepsizes >= 0.0) and np.all(trace.stepsizes <= 1.0)
        assert np.all(np.diff(trace.objectives) <= 0.0)


# signed zeros, subnormals, and magnitudes near 1e200, whose squares
# overflow to inf, among ordinary finite floats
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e200, -3e200]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
# Gaussian entries, whose transpose numpy sums in memory order: in row
# order the last bit of these norms differs
@example(np.random.default_rng(0).standard_normal((37, 29)))
@example(np.random.default_rng(1).standard_normal((37, 29)))
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                               max_side=40), elements=_EDGE_FLOATS))
def test_norm_and_support_helpers_keep_the_bits_of_numpy(v):
    # the visit path's norms and supports stand in for np.linalg.norm and
    # np.flatnonzero, whose bits the traces keep
    for array in (v, v.T):
        with np.errstate(over="ignore"):
            norm, expected = core._norm(array), np.linalg.norm(array)
        assert type(norm) is float
        assert np.float64(norm).tobytes() == expected.tobytes()
        support = core._nonzeros(array)
        assert support.dtype == np.flatnonzero(array).dtype
        assert support.tobytes() == np.flatnonzero(array).tobytes()
