import numpy as np
import pytest

from gesturemix import (
    DataError,
    GestureProfile,
    compute_variances,
    default_profiles,
    generate_dataset,
    generate_video,
)


def test_four_named_profiles():
    profiles = default_profiles()
    assert [p.name for p in profiles] == ["wave", "pick", "stack", "push"]


def test_wave_moves_in_xy():
    wave = default_profiles()[0]
    ax, ay, az = wave.axis_amplitudes
    assert ax > 5 * az and ay > 5 * az


def test_pick_moves_in_y():
    pick = default_profiles()[1]
    ax, ay, az = pick.axis_amplitudes
    assert ay > 5 * ax and ay > 5 * az


def test_stack_moves_in_all_axes():
    stack = default_profiles()[2]
    amps = stack.axis_amplitudes
    assert amps.max() <= 2 * amps.min()


def test_push_moves_in_z():
    push = default_profiles()[3]
    ax, ay, az = push.axis_amplitudes
    assert az > 5 * ax and az > 5 * ay


def test_profiles_are_separable():
    # feature centroids must sit well apart relative to within-class spread
    centroids = {}
    spreads = {}
    for profile in default_profiles():
        rows = np.vstack(
            [
                compute_variances(generate_video(profile, frames=150, seed=seed)).rows
                for seed in range(10)
            ]
        )
        centroids[profile.name] = rows.mean(axis=0)
        spreads[profile.name] = np.mean(np.linalg.norm(rows - rows.mean(axis=0), axis=1))
    names = list(centroids)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            gap = np.linalg.norm(centroids[a] - centroids[b])
            assert gap > 3 * max(spreads[a], spreads[b]), (a, b, gap)


def test_still_profile_gives_zero_features():
    still = GestureProfile(
        name="still",
        axis_amplitudes=np.zeros(3),
        noise_std=1e-30,
    )
    video = generate_video(still, frames=50, seed=1)
    feat = compute_variances(video)
    assert np.allclose(feat.rows, 0.0, atol=1e-12)


def test_video_is_deterministic_per_seed():
    wave = default_profiles()[0]
    a = generate_video(wave, frames=40, seed=99)
    b = generate_video(wave, frames=40, seed=99)
    assert np.array_equal(a.frames, b.frames)
    c = generate_video(wave, frames=40, seed=100)
    assert not np.array_equal(a.frames, c.frames)


def test_video_carries_profile_label():
    pick = default_profiles()[1]
    video = generate_video(pick, frames=10, seed=0, source_id="x")
    assert video.label == "pick"
    assert video.source_id == "x"


def test_motion_variance_is_half_amplitude_squared():
    # with negligible jitter the sinusoid variance identity is exact
    profile = GestureProfile(
        name="probe",
        axis_amplitudes=np.array([0.4, 0.2, 0.1]),
        noise_std=1e-30,
    )
    feat = compute_variances(generate_video(profile, frames=150, seed=3))
    expected = profile.axis_amplitudes**2 / 2
    assert np.allclose(feat.rows, expected, rtol=1e-9, atol=1e-12)


def test_sample_variances_concentrate_around_expectation():
    # A^2/2 + noise^2 within 30% for at least 99% of landmark trajectories
    deviations = []
    for profile in default_profiles():
        expected = profile.axis_amplitudes**2 / 2 + profile.noise_std**2
        for seed in range(20):
            rows = compute_variances(generate_video(profile, frames=150, seed=seed)).rows
            deviations.append(np.abs(rows - expected) / expected)
    deviations = np.array(deviations)
    assert np.mean(deviations <= 0.30) >= 0.99
    # and the per-profile average variance is on target much more tightly
    for profile in default_profiles():
        expected = profile.axis_amplitudes**2 / 2 + profile.noise_std**2
        mean_rows = np.mean(
            [compute_variances(generate_video(profile, frames=150, seed=s)).rows for s in range(20)],
            axis=(0, 1),
        )
        assert np.allclose(mean_rows, expected, rtol=0.05)


def test_wave_variance_dominates_z_by_amplitude_ratio():
    wave = default_profiles()[0]
    rows = compute_variances(generate_video(wave, frames=150, seed=11)).rows
    expected = wave.axis_amplitudes**2 / 2 + wave.noise_std**2
    ratio = expected[0] / expected[2]
    measured = rows[:, 0].mean() / rows[:, 2].mean()
    assert measured == pytest.approx(ratio, rel=0.25)


def test_bad_profile_rejected():
    with pytest.raises(DataError):
        GestureProfile(name="x", axis_amplitudes=np.array([0.1, -0.1, 0.1]), noise_std=0.1)
    with pytest.raises(DataError):
        GestureProfile(name="x", axis_amplitudes=np.zeros(3), noise_std=0.0)
    # a bad field fails here, naming the profile's field, not later in generate_video
    good = dict(name="x", axis_amplitudes=np.zeros(3), noise_std=0.1)
    for field, value, message in [
        ("axis_amplitudes", [np.nan, 0.0, 0.0], "axis_amplitudes"),
        ("axis_amplitudes", [np.inf, 0.0, 0.0], "axis_amplitudes"),
        ("noise_std", np.inf, "noise_std"),
        ("noise_std", None, "noise_std must be a real number"),
        ("noise_std", "0.19", "noise_std must be a real number"),
        ("name", "", "name is empty"),
        ("name", "a,b", "comma or line break"),
        ("name", "a\nb", "comma or line break"),
        ("name", "\ud800", "UTF-8"),
        ("name", None, "name must be a string"),
    ]:
        with pytest.raises(DataError, match=message):
            GestureProfile(**{**good, field: value})


class TestGenerateDataset:
    def test_singleton_dataset(self):
        videos = generate_dataset(default_profiles()[:1], videos_per_profile=1, frames=5, seed=0)
        assert len(videos) == 1
        assert videos[0].label == "wave"

    def test_repeatable_for_fixed_master_seed(self):
        a = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=5)
        b = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=5)
        for va, vb in zip(a, b):
            assert va.source_id == vb.source_id
            assert np.array_equal(va.frames, vb.frames)

    def test_disjoint_master_seeds_give_disjoint_videos(self):
        a = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=1)
        b = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=2)
        for va in a:
            for vb in b:
                assert not np.array_equal(va.frames, vb.frames)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_validated_before_anything_is_drawn(self, monkeypatch, seed):
        def draw(*args, **kwargs):
            raise AssertionError("drew from a bad seed")

        monkeypatch.setattr(np.random, "default_rng", draw)
        monkeypatch.setattr(np.random, "SeedSequence", draw)
        with pytest.raises(DataError, match="^seed must be"):
            generate_video(default_profiles()[0], frames=10, seed=seed)
        with pytest.raises(DataError, match="^seed must be"):
            generate_dataset(default_profiles(), videos_per_profile=1, frames=10, seed=seed)

    @pytest.mark.parametrize("count", [None, 2.5, "3", True])
    def test_counts_must_be_integers(self, count):
        with pytest.raises(DataError, match="^frames must be an integer"):
            generate_video(default_profiles()[0], frames=count)
        with pytest.raises(DataError, match="^videos_per_profile must be an integer"):
            generate_dataset(default_profiles(), videos_per_profile=count, frames=10)

    def test_source_ids_are_unique_and_labeled(self):
        videos = generate_dataset(default_profiles(), videos_per_profile=3, frames=10, seed=0)
        ids = [v.source_id for v in videos]
        assert len(set(ids)) == len(ids)
        assert {v.label for v in videos} == {"wave", "pick", "stack", "push"}
