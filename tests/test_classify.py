import numpy as np
import pytest

from gesturemix import (
    ClusterLabelMap,
    DataError,
    EmConfig,
    FeatureMatrix,
    MixtureParams,
    NormalizationStats,
    build_label_map,
    classify_video,
    e_step,
    fit,
    record_header,
    result_record,
)

IDENTITY_STATS = NormalizationStats(mean=np.zeros(3), std=np.ones(3))


def tight_mixture(means, spread=0.05):
    k = len(means)
    covs = np.broadcast_to(spread**2 * np.eye(3), (k, 3, 3))
    return MixtureParams(means=means, covs=covs, weights=np.full(k, 1.0 / k))


def twin_mixture():
    """Two identical standard-normal components at the origin, equally weighted."""
    return MixtureParams(
        means=np.zeros((2, 3)), covs=np.stack([np.eye(3)] * 2), weights=np.array([0.5, 0.5])
    )


def feature_rows(row_specs):
    """21 rows built by repeating (point, count) specs."""
    rows = []
    for point, count in row_specs:
        rows.extend([np.asarray(point, dtype=float)] * count)
    assert len(rows) == 21
    return np.array(rows)


def first_vote(params, rows, stats=IDENTITY_STATS):
    """The vote of the first row of a 21-row raw feature matrix."""
    label_map = ClusterLabelMap(labels=("a",) * params.k, confidence=(1.0,) * params.k)
    feat = FeatureMatrix(rows=rows, source_id="v")
    return classify_video(feat, params, label_map, stats).votes[0]


class TestClusterLabelMap:
    @pytest.mark.parametrize("label", ["", "a,b", "wa\nve"])
    def test_label_the_model_file_cannot_hold_rejected(self, label):
        with pytest.raises(DataError):
            ClusterLabelMap(labels=("wave", label), confidence=(1.0, 1.0))


class TestVote:
    """Each row votes for its maximum-posterior component."""

    def test_moderate_confidence_row(self, votes_on_posteriors):
        # posterior row (0.2, 0.1, 0.6, 0.1) belongs to the third gesture at 0.6
        idx, posterior = votes_on_posteriors([[0.2, 0.1, 0.6, 0.1]] * 21)[0]
        assert idx == 2
        assert posterior == 0.6

    def test_high_confidence_row(self, votes_on_posteriors):
        idx, posterior = votes_on_posteriors([[0.08, 0.02, 0.8, 0.1]] * 21)[0]
        assert idx == 2
        assert posterior == 0.8

    def test_exact_tie_goes_to_lowest_index(self, votes_on_posteriors):
        idx, posterior = votes_on_posteriors([[0.5, 0.5]] * 21)[0]
        assert idx == 0
        assert posterior == 0.5


class TestClassifyRow:
    def test_row_at_component_mean(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        idx, posterior = first_vote(params, np.zeros((21, 3)))
        assert idx == 0
        assert posterior > 0.999

    def test_argmax_is_scale_free(self):
        # the winning index only depends on ratios of weighted densities
        rng = np.random.default_rng(3)
        params = tight_mixture(rng.normal(size=(4, 3), scale=2.0), spread=0.8)
        label_map = ClusterLabelMap(labels=("a", "b", "c", "d"), confidence=(1.0,) * 4)
        # raw variances are non-negative; the stats shift them back around 0
        stats = NormalizationStats(mean=np.full(3, 20.0), std=np.ones(3))
        for i in range(2):
            raw = rng.normal(size=(21, 3), scale=2.0) + 20.0
            feat = FeatureMatrix(rows=raw, source_id=f"v{i}")
            votes = classify_video(feat, params, label_map, stats).votes
            for row, (idx, _) in zip(raw - 20.0, votes):
                unnormalized = [
                    w * np.exp(-0.5 * (row - m) @ np.linalg.inv(c) @ (row - m))
                    / np.sqrt(np.linalg.det(c))
                    for w, m, c in zip(params.weights, params.means, params.covs)
                ]
                assert idx == int(np.argmax(unnormalized))

    def test_identical_components_tie_to_zero(self):
        idx, posterior = first_vote(twin_mixture(), np.ones((21, 3)))
        assert idx == 0
        assert posterior == pytest.approx(0.5, abs=1e-12)


def rows_of(*blocks):
    """Assignments and row labels from (component, label, row count) blocks."""
    assignment = [comp for comp, _, n in blocks for _ in range(n)]
    row_labels = [label for _, label, n in blocks for _ in range(n)]
    return np.array(assignment), row_labels


class TestBuildLabelMap:
    def test_pure_clusters_map_cleanly(self):
        label_map = build_label_map(*rows_of((0, "pick", 21), (1, "wave", 21)), 2)
        assert label_map.labels == ("pick", "wave")
        assert label_map.confidence == (1.0, 1.0)

    def test_majority_label_with_confidence(self):
        assignment, row_labels = rows_of((0, "pick", 63), (0, "wave", 42), (1, "wave", 21))
        label_map = build_label_map(assignment, row_labels, 2)
        assert label_map.labels[0] == "pick"  # 63 pick rows vs 42 wave rows
        assert label_map.confidence[0] == pytest.approx(0.6)
        assert label_map.labels[1] == "wave"

    def test_empty_cluster_rejected(self):
        with pytest.raises(DataError):
            build_label_map(*rows_of((0, "pick", 21), (1, "wave", 21)), 3)


class TestClassifyVideo:
    def test_unanimous_vote(self):
        params = tight_mixture([[0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
        label_map = ClusterLabelMap(labels=("pick", "wave"), confidence=(1.0, 1.0))
        feat = FeatureMatrix(rows=np.full((21, 3), 0.2), source_id="v")
        result = classify_video(feat, params, label_map, IDENTITY_STATS)
        assert result.winner == "pick"
        assert result.counts == {"pick": 21, "wave": 0}
        assert result.margin == 21

    def test_eleven_to_ten_split(self):
        params = tight_mixture([[0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
        label_map = ClusterLabelMap(labels=("pick", "wave"), confidence=(1.0, 1.0))
        rows = feature_rows([([0.2, 0.2, 0.2], 11), ([5.0, 5.0, 5.0], 10)])
        result = classify_video(
            FeatureMatrix(rows=rows, source_id="v"), params, label_map, IDENTITY_STATS
        )
        assert result.counts == {"pick": 11, "wave": 10}
        assert result.winner == "pick"
        assert result.margin == 1

    def test_counts_always_sum_to_21(self):
        rng = np.random.default_rng(9)
        params = tight_mixture(rng.normal(size=(4, 3), scale=1.5), spread=1.0)
        label_map = ClusterLabelMap(
            labels=("a", "b", "c", "d"), confidence=(1.0, 1.0, 1.0, 1.0)
        )
        for i in range(10):
            feat = FeatureMatrix(rows=rng.random((21, 3)) * 3.0, source_id=f"v{i}")
            result = classify_video(feat, params, label_map, IDENTITY_STATS)
            assert sum(result.counts.values()) == 21
            assert result.counts[result.winner] == max(result.counts.values())

    def test_vote_tie_breaks_to_smallest_label(self):
        params = twin_mixture()
        # identical components: every row ties and votes cluster 0
        label_map = ClusterLabelMap(labels=("zebra", "apple"), confidence=(1.0, 1.0))
        feat = FeatureMatrix(rows=np.full((21, 3), 0.3), source_id="v")
        result = classify_video(feat, params, label_map, IDENTITY_STATS)
        assert result.counts == {"apple": 0, "zebra": 21}
        assert result.winner == "zebra"

    def test_cluster_permutation_gauge_invariance(self):
        rng = np.random.default_rng(12)
        means = rng.normal(size=(3, 3), scale=2.0)
        params = tight_mixture(means, spread=0.6)
        label_map = ClusterLabelMap(labels=("a", "b", "c"), confidence=(1.0, 1.0, 1.0))
        perm = [2, 0, 1]
        permuted = MixtureParams(
            means=params.means[perm], covs=params.covs[perm], weights=params.weights[perm]
        )
        permuted_map = ClusterLabelMap(
            labels=tuple(label_map.labels[i] for i in perm),
            confidence=tuple(label_map.confidence[i] for i in perm),
        )
        for i in range(10):
            feat = FeatureMatrix(rows=rng.random((21, 3)) * 4.0, source_id=f"v{i}")
            a = classify_video(feat, params, label_map, IDENTITY_STATS)
            b = classify_video(feat, permuted, permuted_map, IDENTITY_STATS)
            assert a.winner == b.winner
            assert a.counts == b.counts

    def test_label_map_size_mismatch_rejected(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        label_map = ClusterLabelMap(labels=("pick",), confidence=(1.0,))
        feat = FeatureMatrix(rows=np.zeros((21, 3)), source_id="v")
        with pytest.raises(DataError):
            classify_video(feat, params, label_map, IDENTITY_STATS)


class TestRecords:
    def test_record_and_header_format(self):
        params = tight_mixture([[0.2, 0.2, 0.2], [5.0, 5.0, 5.0]])
        label_map = ClusterLabelMap(labels=("wave", "pick"), confidence=(1.0, 1.0))
        feat = FeatureMatrix(rows=np.full((21, 3), 0.2), source_id="vid-7")
        result = classify_video(feat, params, label_map, IDENTITY_STATS)
        assert record_header(label_map) == "source_id,winner,margin,count_pick,count_wave"
        assert result_record(result, label_map) == "vid-7,wave,21,0,21"


class TestSelfConsistency:
    def test_training_rows_reproduce_confidences(self):
        # fit's responsibilities belong to the parameters it returns, so the map
        # labelled from them matches the majority fractions of fresh E-step votes
        rng = np.random.default_rng(21)
        rows = np.vstack([rng.normal(size=(21, 3), scale=1.2) + 6.0 * (i % 2) for i in range(6)])
        row_labels = [("wave" if i % 2 else "pick") for i in range(6) for _ in range(21)]
        params, resp, _ = fit(rows, EmConfig(k=2, seed=0))
        label_map = build_label_map(np.argmax(resp, axis=1), row_labels, params.k)
        assignment = np.argmax(e_step(rows, params), axis=1)
        for k in range(params.k):
            owned = [row_labels[i] for i in np.nonzero(assignment == k)[0]]
            agree = sum(1 for lbl in owned if lbl == label_map.labels[k])
            assert label_map.confidence[k] == pytest.approx(agree / len(owned), abs=1e-15)
