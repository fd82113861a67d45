import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gesturemix import DataError, silhouette
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


class TestBitIdenticalToPerPointLoop:
    """The cluster-sorted row sums add the same distances in the same order as
    the per-point definition, so every score is equal, not merely close."""

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
