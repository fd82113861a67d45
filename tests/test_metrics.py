import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gesturemix import DataError, metrics, silhouette
from gesturemix.metrics import _BLOCK_BYTES
from oracles import brute_force_silhouette, per_point_silhouette


def test_coincident_far_clusters_score_one():
    data = np.vstack([np.zeros((5, 3)), np.full((5, 3), 10.0)])
    assignment = np.array([0] * 5 + [1] * 5)
    report = silhouette(data, assignment)
    assert report.overall == 1.0
    assert np.all(report.per_point == 1.0)


def test_identical_points_split_arbitrarily_score_zero():
    data = np.ones((8, 3))
    assignment = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    report = silhouette(data, assignment)
    assert np.all(report.per_point == 0.0)
    assert report.overall == 0.0


def test_singleton_cluster_scores_zero():
    data = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [9.0, 9.0, 9.0]])
    assignment = np.array([0, 0, 1])
    report = silhouette(data, assignment)
    assert report.per_point[2] == 0.0


def test_twelve_point_three_cluster_matches_oracle():
    rng = np.random.default_rng(0)
    data = np.vstack(
        [
            rng.normal(size=(4, 3), loc=0.0, scale=0.5),
            rng.normal(size=(4, 3), loc=4.0, scale=0.5),
            rng.normal(size=(4, 3), loc=-4.0, scale=0.5),
        ]
    )
    assignment = np.repeat([0, 1, 2], 4)
    report = silhouette(data, assignment)
    oracle = brute_force_silhouette(data, assignment)
    assert np.allclose(report.per_point, oracle, atol=1e-12, rtol=0)
    assert report.overall == pytest.approx(np.mean(np.array(oracle)), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_random_instances_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 60))
    k = int(rng.integers(2, 5))
    data = rng.normal(size=(n, 3), scale=2.0)
    assignment = rng.integers(0, k, size=n)
    if len(np.unique(assignment)) < 2:
        assignment[0] = 0
        assignment[1] = 1
    report = silhouette(data, assignment)
    oracle = brute_force_silhouette(data, assignment)
    assert np.allclose(report.per_point, oracle, atol=1e-12, rtol=0)


def test_report_structure():
    rng = np.random.default_rng(4)
    data = np.vstack([rng.normal(size=(6, 3)), rng.normal(size=(6, 3), loc=5.0)])
    assignment = np.array([0] * 6 + [3] * 6)  # non-contiguous cluster ids allowed
    report = silhouette(data, assignment)
    assert report.overall == pytest.approx(report.per_point.mean(), abs=1e-12)
    assert np.all(report.per_point >= -1.0) and np.all(report.per_point <= 1.0)
    assert list(report.clusters) == [0, 3]
    assert report.per_cluster_mean[0] == pytest.approx(report.per_point[:6].mean(), abs=1e-12)
    text = report.to_text()
    assert text.startswith("silhouette_overall=")
    assert "silhouette_cluster_3=" in text


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


def test_too_few_points_rejected():
    with pytest.raises(DataError):
        silhouette(np.zeros((2, 3)), np.array([0, 1]))


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


@pytest.fixture()
def cpus(monkeypatch):
    """Make silhouette see the given number of usable CPUs."""

    def set_cpus(count):
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: count)

    return set_cpus


class TestBitIdenticalToPerPointLoop:
    """The cluster-sorted row sums add the same distances in the same order as
    the per-point definition, so every score is equal, not merely close, on
    however many threads the blocks are split."""

    @pytest.fixture(autouse=True, params=[1, 2, 3], ids=lambda w: f"threads={w}")
    def threads(self, request, cpus):
        cpus(request.param)

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

    @pytest.mark.parametrize("n", [600, 1024, 3000])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_cluster_ending_on_a_block_end(self, n, blocks):
        # cluster 0 holds exactly `blocks` whole blocks of rows, cluster 1 two members
        rows = min(max(_BLOCK_BYTES // (8 * n), 8), 256)
        rng = np.random.default_rng(n + blocks)
        data = rng.normal(size=(n, 3))
        assignment = np.repeat([0, 1, 2], [blocks * rows, 2, n - blocks * rows - 2])
        rng.shuffle(assignment)
        _assert_same_as_per_point_loop(data, assignment)

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


class TestThreads:
    def test_worker_error_reaches_the_caller(self, cpus, monkeypatch):
        cpus(2)
        sqrt = np.sqrt

        def sqrt_failing_off_the_calling_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return sqrt(*args, **kwargs)

        monkeypatch.setattr(np, "sqrt", sqrt_failing_off_the_calling_thread)
        before = threading.active_count()
        rng = np.random.default_rng(15)
        with pytest.raises(RuntimeError, match="worker failed"):
            silhouette(rng.normal(size=(600, 3)), rng.integers(0, 3, size=600))
        assert threading.active_count() == before

    def test_workers_keep_the_callers_errstate(self, cpus):
        # distances to the far singleton overflow; b is the nearer cluster's, so
        # nothing else is out of range; pyproject makes any warning an error
        cpus(2)
        rng = np.random.default_rng(16)
        data = np.vstack([rng.normal(size=(600, 3)), np.full((1, 3), 1e200)])
        assignment = np.append(rng.integers(0, 2, size=600), 2)
        with pytest.warns(RuntimeWarning, match="overflow"):
            silhouette(data, assignment)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(silhouette(data, assignment).per_point))
            _assert_same_as_per_point_loop(data, assignment)

    def test_more_threads_than_cores_switching_often(self, cpus):
        # a lost or misplaced block would break bit identity; every worker
        # must have ended when silhouette returns
        cpus(5)
        rng = np.random.default_rng(17)
        data, assignment = rng.normal(size=(3000, 3)), rng.integers(0, 3, size=3000)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _assert_same_as_per_point_loop(data, assignment)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_no_more_threads_than_blocks(self, cpus, monkeypatch):
        # two clusters of a few rows each are two blocks
        cpus(8)
        submitted = []
        submit = ThreadPoolExecutor.submit

        def counted(self, *args):
            submitted.append(args)
            return submit(self, *args)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
        silhouette(np.arange(12.0).reshape(4, 3), np.array([0, 0, 1, 1]))
        assert len(submitted) == 1  # one worker beside the calling thread


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
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
