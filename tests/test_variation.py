"""Dynamic variations of a gesture: the default model still recognises the
held-out videos of criterion 07 when their raw frames are resampled, cut,
jittered, mirrored, scaled or rotated before the variance features are taken.

Each transform keeps the gesture's per-axis motion signature; the bound is
criterion 07's 0.94 accuracy, over all 250 videos at once.
"""

import numpy as np
import pytest

from gesturemix import GestureVideo, classify_video, compute_variances


def _about_mean_pose(frames, scale):
    mean = frames.mean(axis=0)
    return mean + scale * (frames - mean)


def _rotated_xy(frames, degrees):
    """In-plane rotation of every landmark about the video's centroid."""
    c, s = np.cos(np.deg2rad(degrees)), np.sin(np.deg2rad(degrees))
    centre = frames.mean(axis=(0, 1))
    out = frames - centre
    out[..., :2] = out[..., :2] @ np.array([[c, s], [-s, c]])
    return out + centre


def _mirrored_x(frames):
    out = frames.copy()
    out[..., 0] = 1.0 - out[..., 0]
    return out


TRANSFORMS = {
    "every 2nd frame": lambda f, rng: f[::2],
    "every 3rd frame": lambda f, rng: f[::3],
    "first half": lambda f, rng: f[: len(f) // 2],
    "jitter N(0, 0.05)": lambda f, rng: f + rng.normal(0.0, 0.05, size=f.shape),
    "x-mirror": lambda f, rng: _mirrored_x(f),
    "amplitude x0.9": lambda f, rng: _about_mean_pose(f, 0.9),
    "amplitude x1.1": lambda f, rng: _about_mean_pose(f, 1.1),
    "rotation 10 deg": lambda f, rng: _rotated_xy(f, 10.0),
    "rotation 20 deg": lambda f, rng: _rotated_xy(f, 20.0),
}


@pytest.mark.parametrize("name", TRANSFORMS)
def test_varied_gesture_is_recognised(name, default_experiment, held_out):
    model = default_experiment["model"]
    params, label_map, stats = model.params, model.label_map, model.stats
    transform = TRANSFORMS[name]
    correct = 0
    for i, video in enumerate(held_out):
        frames = transform(np.array(video.frames), np.random.default_rng(i))
        varied = GestureVideo(frames=frames, source_id=video.source_id, label=video.label)
        result = classify_video(compute_variances(varied), params, label_map, stats)
        correct += result.winner == video.label
    accuracy = correct / len(held_out)
    assert accuracy >= 0.94, f"{name}: accuracy {accuracy:.3f}"
