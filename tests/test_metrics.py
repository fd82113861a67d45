import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left
from gesturemix import DataError, parallel, silhouette
from gesturemix.metrics import _BLOCK_BYTES
from oracles import brute_force_silhouette, per_point_silhouette


def test_coincident_far_clusters_score_one():
    data = np.vstack([np.zeros((5, 3)), np.full((5, 3), 10.0)])
    assignment = np.array([0] * 5 + [1] * 5)
    report = silhouette(data, assignment)
    assert report.overall == 1.0
    assert np.all(report.per_point == 1.0)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(30, 3), scale=2.0)
    assignment = rng.integers(0, 3, size=30)
    rotation, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = data @ rotation.T + np.array([3.0, -7.0, 1.0])
    a = silhouette(data, assignment)
    b = silhouette(moved, assignment)
    assert np.allclose(a.per_point, b.per_point, atol=1e-9)


def test_scale_invariance():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(25, 3))
    assignment = rng.integers(0, 2, size=25)
    a = silhouette(data, assignment)
    b = silhouette(137.0 * data, assignment)
    assert np.allclose(a.per_point, b.per_point, atol=1e-9)


def test_single_cluster_rejected():
    with pytest.raises(DataError):
        silhouette(np.random.default_rng(1).normal(size=(10, 3)), np.zeros(10, dtype=int))


def test_non_finite_data_rejected_before_clusters_are_counted():
    with pytest.raises(DataError, match="^non-finite data point$"):
        silhouette([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]], np.zeros(3, dtype=int))


def test_too_few_points_rejected():
    with pytest.raises(DataError):
        silhouette(np.zeros((2, 3)), np.array([0, 1]))


@pytest.mark.parametrize("assignment", [[0, 1], [0, 1, 0, 1], [[0, 1, 0]]])
def test_assignment_of_the_wrong_shape_rejected(assignment):
    with pytest.raises(DataError, match="^one component index per row required, got shape"):
        silhouette(np.arange(9.0).reshape(3, 3), assignment)


@pytest.mark.parametrize(("assignment", "dtype"), [
    ([0.2, 0.7] * 3, "float64"),  # fractions, not component indices
    (["a", "b"] * 3, "<U1"),  # names, not component indices
    ([True, False] * 3, "bool"),
])
def test_assignment_that_is_not_integer_indices_rejected(assignment, dtype):
    message = f"^assignment must hold integer component indices, got {dtype}$"
    with pytest.raises(DataError, match=message):
        silhouette(np.arange(18.0).reshape(6, 3), assignment)


def test_memory_stays_linear_in_rows():
    # an N x N x 3 difference buffer at N=3000 would take over 200 MiB
    rng = np.random.default_rng(3)
    data = rng.normal(size=(3000, 3))
    assignment = rng.integers(0, 4, size=3000)
    tracemalloc.start()
    try:
        silhouette(data, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def _assert_same_as_per_point_loop(data, assignment):
    report = silhouette(data, assignment)
    per_point, clusters, per_cluster_mean = per_point_silhouette(data, assignment)
    assert np.array_equal(report.per_point, per_point)
    assert report.overall == per_point.mean()
    assert np.array_equal(report.clusters, clusters)
    assert np.array_equal(report.per_cluster_mean, per_cluster_mean)


@pytest.mark.usefixtures("processes")
class TestBitIdenticalToPerPointLoop:
    """The cluster-sorted row sums add the same distances in the same order as
    the per-point definition, so every score is equal, not merely close, on
    however many processes the blocks are split."""

    @pytest.mark.parametrize("n", [257, 600, 3000])
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_interleaved_assignments_across_block_boundaries(self, n, k):
        rng = np.random.default_rng(n + k)
        data = rng.normal(size=(n, 3)) * np.array([1.0, 1e3, 1e-3])
        _assert_same_as_per_point_loop(data, rng.integers(0, k, size=n))

    def test_non_contiguous_cluster_ids(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(600, 3))
        _assert_same_as_per_point_loop(data, rng.choice([-4, 3, 17, 1000], size=600))

    def test_clusters_missing_from_a_block(self):
        # sorted by cluster, the first blocks hold rows of cluster 0 alone
        rng = np.random.default_rng(12)
        data = rng.normal(size=(600, 3))
        assignment = np.array([2] * 10 + [0] * 580 + [1] * 10)
        rng.shuffle(assignment)
        _assert_same_as_per_point_loop(data, assignment)

    @pytest.mark.parametrize("largest", [600, 1024, 3000])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_cluster_ending_on_a_block_end(self, largest, blocks):
        # every point of cluster 0 has cluster 1 as its candidate, and cluster
        # 0 fills exactly `blocks` whole blocks; cluster 2, the largest, sets
        # the block size
        rows = min(max(_BLOCK_BYTES // (8 * largest), 8), 256)
        rng = np.random.default_rng(largest + blocks)
        assignment = np.repeat([0, 1, 2], [blocks * rows, 2, largest])
        centres = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [40.0, 0.0, 0.0]])
        data = centres[assignment] + rng.normal(size=(assignment.size, 3))
        shuffled = rng.permutation(assignment.size)
        _assert_same_as_per_point_loop(data[shuffled], assignment[shuffled])

    def test_singleton_clusters(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(600, 3))
        assignment = rng.integers(0, 3, size=600)
        assignment[[5, 300, 599]] = [7, 8, 9]
        report = silhouette(data, assignment)
        assert np.all(report.per_point[[5, 300, 599]] == 0.0)
        _assert_same_as_per_point_loop(data, assignment)

    def test_duplicate_points(self):
        # a cluster of coincident points next to one at the same place: a = b = 0
        rng = np.random.default_rng(14)
        data = np.vstack([np.ones((300, 3)), rng.normal(size=(300, 3))])
        assignment = np.concatenate([rng.integers(0, 2, size=300), rng.integers(2, 4, size=300)])
        report = silhouette(data, assignment)
        assert np.all(report.per_point[:300] == 0.0)
        _assert_same_as_per_point_loop(data, assignment)


    @pytest.mark.parametrize("offset", [1e6, 1e12])
    def test_unit_spread_blobs_far_from_the_origin(self, offset):
        rng = np.random.default_rng(18)
        centres = rng.uniform(-5.0, 5.0, size=(4, 3))
        assignment = rng.integers(0, 4, size=600)
        _assert_same_as_per_point_loop(offset + centres[assignment] + rng.normal(size=(600, 3)), assignment)

    @pytest.mark.parametrize("shift", [0.0, 1e-10])
    def test_lower_bound_level_with_b(self, shift):
        # seen from the origin, cluster 1 (x = 1.9 and 2.1) is the candidate;
        # cluster 2 lies on the opposite ray (x = -1 and -3, plus `shift`), so
        # its lower bound is its mean: level with b at shift 0, and at 1e-10
        # below b by far less than the margin, holding the least mean
        data = np.zeros((6, 3))
        data[1:, :2] = [[0.0, 1.0], [1.9, 0.0], [2.1, 0.0], [-1.0 + shift, 0.0], [-3.0 + shift, 0.0]]
        _assert_same_as_per_point_loop(data, np.array([0, 0, 1, 1, 2, 2]))

    def test_separated_blobs_where_most_sums_are_skipped(self):
        rng = np.random.default_rng(19)
        centres = rng.uniform(-50.0, 50.0, size=(16, 3))
        assignment = rng.integers(0, 16, size=3000)
        _assert_same_as_per_point_loop(centres[assignment] + rng.normal(size=(3000, 3)), assignment)

    def test_a_quarter_as_many_clusters_as_points(self):
        # clusters of four: a block's bounds are B x K floats, and no (N, K)
        # array is ever built, so memory stays linear in N
        def tiny_clusters(n, seed):
            rng = np.random.default_rng(seed)
            centres = rng.uniform(-10.0, 10.0, size=(n // 4, 3)) * (n // 4) ** (1 / 3)
            assignment = rng.permutation(np.arange(n) % (n // 4))
            return centres[assignment] + rng.normal(size=(n, 3)), assignment

        _assert_same_as_per_point_loop(*tiny_clusters(800, 20))
        tracemalloc.start()
        try:
            silhouette(*tiny_clusters(4000, 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4000 * 1000 / 4  # a quarter of one (N, K) float array

class TestProcesses:
    def test_child_error_reaches_the_caller(self, cpus, monkeypatch):
        cpus(2)
        caller, sqrt = os.getpid(), np.sqrt

        def sqrt_failing_in_a_child(*args, **kwargs):
            if os.getpid() != caller:
                raise RuntimeError("child failed")
            return sqrt(*args, **kwargs)

        monkeypatch.setattr(np, "sqrt", sqrt_failing_in_a_child)
        rng = np.random.default_rng(15)
        with pytest.raises(RuntimeError, match="child failed"):
            silhouette(rng.normal(size=(600, 3)), rng.integers(0, 3, size=600))
        assert_no_child_left()

    @pytest.mark.parametrize(("far", "reason"), [
        (np.nan, "non-finite data point"),
        (np.inf, "non-finite data point"),
        (-np.inf, "non-finite data point"),
        (1e200, "too wide a range"),
        (1e154, "too wide a range"),
    ])
    def test_data_it_cannot_score_is_rejected_before_any_fork(self, cpus, forks, far, reason):
        # 1e200 is finite, but its squared distance to the rest overflows; at
        # 1e154 each coordinate's square is finite and their sum overflows
        cpus(2)
        rng = np.random.default_rng(16)
        data = np.vstack([rng.normal(size=(600, 3)), np.full((1, 3), far)])
        assignment = np.append(rng.integers(0, 2, size=600), 2)
        with pytest.raises(DataError, match=reason):
            silhouette(data, assignment)
        assert forks == []

    def test_workers_keep_the_callers_errstate(self, cpus, forks):
        # two points 1e-170 apart: their distance's square underflows, in the
        # block the child scores, while the column spans square as usual
        rng = np.random.default_rng(16)
        data = np.vstack([rng.normal(size=(600, 3)), [[10.0, 10.0, 0.0], [10.0, 10.0, 1e-170]]])
        assignment = np.append(np.zeros(600, dtype=int), [1, 1])
        errors = []
        for count in (1, 2):
            cpus(count)
            with np.errstate(under="raise"), pytest.raises(FloatingPointError) as caught:
                silhouette(data, assignment)
            errors.append(str(caught.value))
        assert errors[1] == errors[0] == "underflow encountered in square"
        assert len(forks) == 1
        assert_no_child_left()
        _assert_same_as_per_point_loop(data, assignment)  # underflow is ignored by default

    def test_bounds_ignore_an_underflow_of_their_own(self, cpus, forks):
        # as above, but the pair sits at its column's minimum, so the bounds,
        # taken from the data shifted to its minimum, underflow too: before
        # the fork, silently, while the child's block still raises
        cpus(2)
        rng = np.random.default_rng(16)
        data = np.vstack([np.abs(rng.normal(size=(600, 3))), [[10.0, 10.0, 0.0], [10.0, 10.0, 1e-170]]])
        assignment = np.append(np.zeros(600, dtype=int), [1, 1])
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="^underflow encountered in square$"):
            silhouette(data, assignment)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2])
    def test_the_callers_numpy_state_is_kept(self, cpus, count):
        # the distance tiles run under a smaller ufunc buffer and the bounds
        # ignore underflow; neither outlives the call, returned or raised
        cpus(count)
        rng = np.random.default_rng(16)
        data = np.vstack([rng.normal(size=(600, 3)), [[10.0, 10.0, 0.0], [10.0, 10.0, 1e-170]]])
        assignment = np.append(np.zeros(600, dtype=int), [1, 1])
        bufsize = np.setbufsize(2**14)
        try:
            with np.errstate(under="raise"):
                state = np.getbufsize(), np.geterr()
                with pytest.raises(FloatingPointError):
                    silhouette(data, assignment)
                assert (np.getbufsize(), np.geterr()) == state
            state = np.getbufsize(), np.geterr()
            silhouette(data, assignment)
            assert (np.getbufsize(), np.geterr()) == state
        finally:
            np.setbufsize(bufsize)

    def test_a_childs_warning_made_an_error_is_its_items_error(self, cpus):
        # pyproject makes every warning an error: item 1 is the first child's,
        # and its error comes before the caller's at item 3
        cpus(3)
        caller = os.getpid()

        def fail(i):
            if os.getpid() != caller:
                warnings.warn(f"item {i}", UserWarning)
            if i == 3:
                raise ValueError("item 3")
            return i

        with pytest.raises(UserWarning, match="item 1"):
            list(parallel.fan_out(fail, list(range(6))))
        assert_no_child_left()

    def test_more_processes_than_cores(self, cpus, forks):
        # a lost or misplaced block would break bit identity; every child must
        # have been reaped when silhouette returns
        cpus(5)
        rng = np.random.default_rng(17)
        _assert_same_as_per_point_loop(rng.normal(size=(3000, 3)), rng.integers(0, 3, size=3000))
        assert len(forks) == 4
        assert_no_child_left()

    def test_no_more_processes_than_blocks(self, cpus, forks):
        # two clusters of a few rows each are two blocks
        cpus(8)
        silhouette(np.arange(12.0).reshape(4, 3), np.array([0, 0, 1, 1]))
        assert len(forks) == 1  # one child beside the caller
        assert_no_child_left()


@settings(max_examples=200)
@given(
    points=st.lists(
        st.tuples(
            st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
            st.integers(0, 3),
        ),
        min_size=3,
        max_size=30,
    )
)
def test_matches_brute_force_on_small_inputs(points):
    data = np.array([p for p, _ in points])
    assignment = np.array([c for _, c in points])
    assume(len(np.unique(assignment)) >= 2)
    report = silhouette(data, assignment)
    oracle = brute_force_silhouette(data, assignment)
    assert np.allclose(report.per_point, oracle, atol=1e-12, rtol=0)


_EDGE_FLOATS = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, 1e154, -1e154]


# cpus(2) sets the same CPU count for every example, and the forks made by one
# example are counted from its start
@settings(
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    points=st.lists(
        st.tuples(
            st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
            st.integers(0, 3),
        ),
        min_size=3,
        max_size=30,
    ),
    # (row, column, value) written over the points: any float64 at all
    wild=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 2), st.floats() | st.sampled_from(_EDGE_FLOATS)),
        max_size=3,
    ),
)
def test_any_float_data_is_rejected_unforked_or_scored_exactly(points, wild, cpus, forks):
    # pyproject makes a warning in this process an error, and a warning in a
    # child the error of the child's block
    cpus(2)
    data = np.array([p for p, _ in points])
    assignment = np.array([c for _, c in points])
    assume(len(np.unique(assignment)) >= 2)
    for row, column, value in wild:
        data[row % len(data), column] = value
    forked = len(forks)
    try:
        _assert_same_as_per_point_loop(data, assignment)
    except DataError:
        assert len(forks) == forked
