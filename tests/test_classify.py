import numpy as np
import pytest

from gesturemix import (
    ClusterLabelMap,
    DataError,
    FeatureMatrix,
    MixtureParams,
    NormalizationStats,
    build_label_map,
    classify_video,
    e_step,
    record_header,
    result_record,
    vote,
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


class TestVote:
    def test_moderate_confidence_row(self):
        # posterior row (0.2, 0.1, 0.6, 0.1) belongs to the third gesture at 0.6
        idx, posterior = vote([0.2, 0.1, 0.6, 0.1])
        assert idx == 2
        assert posterior == 0.6

    def test_high_confidence_row(self):
        idx, posterior = vote([0.08, 0.02, 0.8, 0.1])
        assert idx == 2
        assert posterior == 0.8

    def test_exact_tie_goes_to_lowest_index(self):
        idx, posterior = vote([0.5, 0.5])
        assert idx == 0
        assert posterior == 0.5


class TestClassifyRow:
    def test_row_at_component_mean(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        idx, posterior = vote(e_step(np.zeros((1, 3)), params)[0])
        assert idx == 0
        assert posterior > 0.999

    def test_argmax_is_scale_free(self):
        # the winning index only depends on ratios of weighted densities
        rng = np.random.default_rng(3)
        params = tight_mixture(rng.normal(size=(4, 3), scale=2.0), spread=0.8)
        for _ in range(30):
            row = rng.normal(size=3, scale=2.0)
            idx, _ = vote(e_step(row[None], params)[0])
            unnormalized = [
                w * np.exp(-0.5 * (row - m) @ np.linalg.inv(c) @ (row - m))
                / np.sqrt(np.linalg.det(c))
                for w, m, c in zip(params.weights, params.means, params.covs)
            ]
            assert idx == int(np.argmax(unnormalized))

    def test_identical_components_tie_to_zero(self):
        idx, posterior = vote(e_step(np.ones((1, 3)), twin_mixture())[0])
        assert idx == 0
        assert posterior == pytest.approx(0.5, abs=1e-12)


class TestBuildLabelMap:
    def test_pure_clusters_map_cleanly(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]])
        rng = np.random.default_rng(1)
        features = [
            FeatureMatrix(rows=rng.normal(size=(21, 3), scale=0.02), source_id="a",
                          label="pick", normalized=True),
            FeatureMatrix(rows=8.0 + rng.normal(size=(21, 3), scale=0.02), source_id="b",
                          label="wave", normalized=True),
        ]
        label_map = build_label_map(features, params)
        assert label_map.labels == ("pick", "wave")
        assert label_map.confidence == (1.0, 1.0)

    def test_majority_label_with_confidence(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0]])
        rng = np.random.default_rng(2)
        near_zero = lambda: rng.normal(size=(21, 3), scale=0.02)
        features = (
            [FeatureMatrix(rows=near_zero(), source_id=f"p{i}", label="pick", normalized=True)
             for i in range(3)]
            + [FeatureMatrix(rows=near_zero(), source_id=f"w{i}", label="wave", normalized=True)
               for i in range(2)]
            + [FeatureMatrix(rows=8.0 + near_zero(), source_id="far", label="wave",
                             normalized=True)]
        )
        label_map = build_label_map(features, params)
        assert label_map.labels[0] == "pick"  # 63 pick rows vs 42 wave rows
        assert label_map.confidence[0] == pytest.approx(0.6)
        assert label_map.labels[1] == "wave"

    def test_empty_cluster_rejected(self):
        params = tight_mixture([[0.0, 0.0, 0.0], [8.0, 8.0, 8.0], [100.0, 100.0, 100.0]])
        features = [
            FeatureMatrix(rows=np.zeros((21, 3)), source_id="a", label="pick", normalized=True),
            FeatureMatrix(rows=np.full((21, 3), 8.0), source_id="b", label="wave", normalized=True),
        ]
        with pytest.raises(DataError):
            build_label_map(features, params)

    def test_unlabeled_features_rejected(self):
        params = tight_mixture([[0.0, 0.0, 0.0]])
        features = [FeatureMatrix(rows=np.zeros((21, 3)), source_id="a", normalized=True)]
        with pytest.raises(DataError):
            build_label_map(features, params)


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

    def test_normalized_input_rejected(self):
        params = tight_mixture([[0.0, 0.0, 0.0]])
        label_map = ClusterLabelMap(labels=("pick",), confidence=(1.0,))
        feat = FeatureMatrix(rows=np.zeros((21, 3)), source_id="v", normalized=True)
        with pytest.raises(DataError):
            classify_video(feat, params, label_map, IDENTITY_STATS)

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
        # re-deriving per-cluster majority fractions from fresh E-step votes
        # must reproduce the stored confidences exactly
        rng = np.random.default_rng(21)
        params = tight_mixture([[0.0, 0.0, 0.0], [6.0, 6.0, 6.0]], spread=1.0)
        features = []
        for i in range(6):
            rows = rng.normal(size=(21, 3), scale=1.2) + (6.0 if i % 2 else 0.0)
            features.append(
                FeatureMatrix(rows=rows, source_id=f"v{i}", label="wave" if i % 2 else "pick",
                              normalized=True)
            )
        label_map = build_label_map(features, params)
        stacked = np.vstack([f.rows for f in features])
        row_labels = [f.label for f in features for _ in range(21)]
        assignment = np.argmax(e_step(stacked, params), axis=1)
        for k in range(params.k):
            owned = [row_labels[i] for i in np.nonzero(assignment == k)[0]]
            agree = sum(1 for lbl in owned if lbl == label_map.labels[k])
            assert label_map.confidence[k] == pytest.approx(agree / len(owned), abs=1e-15)
