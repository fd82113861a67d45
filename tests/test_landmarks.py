import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gesturemix import (
    DataError,
    FeatureMatrix,
    GestureVideo,
    NormalizationStats,
    apply_normalization,
    compute_variances,
    fit_normalization,
)
from gesturemix.landmarks import LANDMARK_COUNT, STD_FLOOR
from oracles import population_variance


def make_video(frames, source_id="vid", label=None):
    return GestureVideo(frames=np.asarray(frames, dtype=float), source_id=source_id, label=label)


def two_pass_variance(frames):
    """Oracle: textbook two-pass population variance, plain Python loops."""
    n_frames = len(frames)
    out = np.zeros((LANDMARK_COUNT, 3))
    for lm in range(LANDMARK_COUNT):
        for c in range(3):
            values = [frames[t][lm][c] for t in range(n_frames)]
            mean = sum(values) / n_frames
            out[lm, c] = sum((v - mean) ** 2 for v in values) / n_frames
    return out


class TestComputeVariances:
    def test_identical_frames_give_zeros(self):
        video = make_video(np.full((5, 21, 3), 0.25))
        feat = compute_variances(video)
        assert np.all(feat.rows == 0.0)

    def test_two_frames_single_moving_landmark(self):
        frames = np.zeros((2, 21, 3))
        frames[1, 0, 0] = 2.0  # landmark 0, x in {0, 2}
        feat = compute_variances(make_video(frames))
        assert feat.rows[0, 0] == 1.0  # mean 1, deviations +-1, divisor 2
        expected = np.zeros((21, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(feat.rows, expected)

    def test_sinusoid_matches_two_pass_oracle(self):
        t = np.arange(150)
        frames = np.empty((150, 21, 3))
        for lm in range(21):
            for c in range(3):
                frames[:, lm, c] = 0.3 * np.sin(2 * np.pi * (lm + 1) * t / 150 + 0.1 * c)
        feat = compute_variances(make_video(frames))
        assert np.allclose(feat.rows, two_pass_variance(frames), atol=1e-13, rtol=0)

    def test_propagates_source_id_and_label(self):
        video = make_video(np.random.default_rng(0).random((4, 21, 3)), "abc", "wave")
        feat = compute_variances(video)
        assert feat.source_id == "abc"
        assert feat.label == "wave"

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(42)
        frames = rng.normal(size=(30, 21, 3))
        shuffled = frames[rng.permutation(30)]
        a = compute_variances(make_video(frames)).rows
        b = compute_variances(make_video(shuffled)).rows
        assert np.allclose(a, b, atol=1e-12, rtol=0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(20, 21, 3))
        offset = np.array([5.0, -3.0, 11.0])
        a = compute_variances(make_video(frames)).rows
        b = compute_variances(make_video(frames + offset)).rows
        assert np.allclose(a, b, atol=1e-12, rtol=0)


def _outcome(call):
    """What a call returns or its DataError message, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = call()
        except DataError as exc:
            outcome = f"DataError: {exc}"
    return outcome, [str(w.message) for w in caught]


class TestVarianceOracle:
    """compute_variances runs np.var's own ufunc steps, so it equals np.var bit for bit."""

    @settings(max_examples=200)
    @given(
        count=st.integers(2, 300),
        exponent=st.integers(-40, 1023),
        centre=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        spike=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    @example(count=150, exponent=1023, centre=0.9, seed=1, spike=None)  # the mean overflows
    @example(count=150, exponent=600, centre=0.0, seed=1, spike=None)  # the squares overflow
    @example(count=300, exponent=0, centre=0.5, seed=1, spike=None)  # finite, 300 frames
    def test_rows_equal_numpy_var(self, count, exponent, centre, seed, spike):
        # |centre + u| < 2, so every frame value is finite up to 2**1023 scale
        rng = np.random.default_rng(seed)
        frames = (centre + rng.uniform(-1.0, 1.0, size=(count, LANDMARK_COUNT, 3))) * 2.0**exponent
        if spike is not None:
            frames[tuple(rng.integers(frames.shape))] = spike
            with pytest.raises(DataError) as excinfo:
                make_video(frames, source_id="prop")
            assert str(excinfo.value) == "non-finite landmark coordinate in 'prop'"
            return
        video = make_video(frames, source_id="prop")
        expected, expected_warnings = _outcome(lambda: population_variance(frames))
        got, got_warnings = _outcome(lambda: compute_variances(video))
        assert got_warnings == expected_warnings
        if np.isfinite(expected).all():
            assert np.array_equal(got.rows, expected)
        else:  # overflow: the error names it, not the input
            assert got == (
                "DataError: landmark variance overflows in 'prop': "
                "coordinates are too large to square in double precision"
            )


class TestVideoValidation:
    def test_wrong_landmark_count_rejected(self):
        with pytest.raises(DataError):
            make_video(np.zeros((5, 20, 3)))


class TestFitNormalization:
    def test_constant_features_hit_std_floor(self):
        stats = fit_normalization(np.full((21, 3), 0.7))
        assert np.allclose(stats.mean, 0.7)
        assert np.all(stats.std == STD_FLOOR)

    def test_symmetric_two_value_column(self):
        stats = fit_normalization(np.vstack([np.zeros((21, 3)), np.full((21, 3), 2.0)]))
        assert np.allclose(stats.mean, 1.0)
        assert np.allclose(stats.std, 1.0)  # population std of {0, 2}

    def test_matches_streaming_oracle(self):
        # Welford accumulation, one row at a time.
        rows = np.random.default_rng(3).random((80 * 21, 3))
        count = 0
        mean = np.zeros(3)
        m2 = np.zeros(3)
        for row in rows:
            count += 1
            delta = row - mean
            mean = mean + delta / count
            m2 = m2 + delta * (row - mean)
        stats = fit_normalization(rows)
        assert np.allclose(stats.mean, mean, rtol=1e-12, atol=1e-15)
        assert np.allclose(stats.std, np.sqrt(m2 / count), rtol=1e-9, atol=1e-15)

    def test_empty_list_rejected(self):
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(DataError):
                fit_normalization(empty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected_as_data(self, bad):
        # rows whose statistics merely overflow still fail NormalizationStats
        rows = np.ones((21, 3))
        rows[4, 2] = bad
        with pytest.raises(DataError, match="^non-finite data point$"):
            fit_normalization(rows)

    def test_rows_of_the_wrong_width_rejected(self):
        with pytest.raises(DataError, match=r"^data must be an \(N, 3\) array, got shape \(21, 2\)$"):
            fit_normalization(np.ones((21, 2)))


class TestApplyNormalization:
    def test_column_mean_maps_to_zero(self):
        stats = NormalizationStats(mean=np.array([1.0, 2.0, 3.0]), std=np.array([2.0, 2.0, 2.0]))
        out = apply_normalization(np.tile([1.0, 2.0, 3.0], (21, 1)), stats)
        assert np.all(out == 0.0)

    def test_identity_stats_preserve_values(self):
        stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
        rows = np.random.default_rng(1).random((21, 3))
        assert np.array_equal(apply_normalization(rows, stats), rows)

    def test_self_fit_set_is_standardized(self):
        rows = np.random.default_rng(9).random((210, 3))
        out = apply_normalization(rows, fit_normalization(rows))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)


class TestFeatureMatrixValidation:
    def test_wrong_shape_rejected(self):
        with pytest.raises(DataError):
            FeatureMatrix(rows=np.zeros((20, 3)), source_id="bad")


class TestCheckMessages:
    """Each check of the video, feature matrix and normalization stats raises its own message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, bad):
        frames = np.zeros((3, 21, 3))
        frames[2, 20, 1] = bad
        rows = np.zeros((21, 3))
        rows[5, 0] = bad
        cases = [
            (lambda: make_video(frames, source_id="v"), "non-finite landmark coordinate in 'v'"),
            (lambda: FeatureMatrix(rows=rows, source_id="f"),
             "NaN or infinite feature value in 'f'"),
            (lambda: NormalizationStats(mean=np.array([0.0, bad, 0.0]), std=np.ones(3)),
             "non-finite normalization stats"),
            (lambda: NormalizationStats(mean=np.zeros(3), std=np.array([1.0, 1.0, bad])),
             "non-finite normalization stats"),
        ]
        for build, message in cases:
            with pytest.raises(DataError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_sign_checks(self):
        rows = np.zeros((21, 3))
        rows[20, 2] = -1e-300
        with pytest.raises(DataError, match=r"^negative variance in 'f'$"):
            FeatureMatrix(rows=rows, source_id="f")
        for std in ([1.0, 0.0, 1.0], [1.0, -2.0, 1.0]):
            with pytest.raises(DataError, match=r"^normalization stds must be strictly positive$"):
                NormalizationStats(mean=np.zeros(3), std=np.array(std))

    def test_negative_zero_is_not_negative(self):
        assert FeatureMatrix(rows=np.full((21, 3), -0.0), source_id="f").rows.shape == (21, 3)


class TestNames:
    """Names are strings written into comma- and line-separated files, so they may
    hold neither; only a label may be None."""

    @pytest.mark.parametrize(
        "name", ["", "a,b", "wa\nve", "wave\r", "wa\x85ve", "wave\u2028", "wa\ud800ve", 5, None]
    )
    def test_separator_in_source_id_or_label_rejected(self, name):
        with pytest.raises(DataError):
            FeatureMatrix(rows=np.zeros((21, 3)), source_id=name)
        with pytest.raises(DataError):
            make_video(np.zeros((2, 21, 3)), source_id=name)
        if name is None:  # the one name a label may be: unlabeled
            return
        with pytest.raises(DataError):
            FeatureMatrix(rows=np.zeros((21, 3)), source_id="v", label=name)
        with pytest.raises(DataError):
            make_video(np.zeros((2, 21, 3)), label=name)

    def test_plain_names_accepted(self):
        video = make_video(np.zeros((2, 21, 3)), source_id="wave-007 take 2", label="pick up")
        assert compute_variances(video).label == "pick up"
