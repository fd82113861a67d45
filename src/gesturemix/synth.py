"""Synthetic labeled gesture videos with controlled per-axis variance signatures.

Four archetypes stand in for recorded gestures: wave moves mostly in x-y,
pick mostly in y, stack in all three axes, and push mostly in z. Each
landmark follows a sinusoid (a whole number of cycles per video, so its
population variance is exactly amplitude^2 / 2 per axis) plus Gaussian
jitter, giving an expected per-axis variance of A^2/2 + noise_std^2.

The amplitude and jitter constants below were calibrated once so that a
default 80-video corpus trains into four clusters that are clearly separable
by voting yet overlap enough for a mid-range silhouette score; they are
frozen and covered by tests.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .landmarks import (COORD_DIM, LANDMARK_COUNT, GestureVideo, _freeze, all_finite,
                        check_names, check_numbers)

# Full sinusoid cycles per video; integral so the motion variance is exact.
MOTION_CYCLES = 3

# Calibrated motion amplitudes (normalized camera units).
AMP_LARGE = 0.30
AMP_MID = 0.18
AMP_SMALL = 0.04
NOISE_STD = 0.19

PROFILE_AMPLITUDES = {
    "wave": (AMP_LARGE, AMP_LARGE, AMP_SMALL),
    "pick": (AMP_SMALL, AMP_LARGE, AMP_SMALL),
    "stack": (AMP_MID, AMP_MID, AMP_MID),
    "push": (AMP_SMALL, AMP_SMALL, AMP_LARGE),
}


def _rest_pose() -> np.ndarray:
    """A fixed 21-point hand layout: wrist plus four joints on each of five fingers."""
    pose = np.zeros((LANDMARK_COUNT, COORD_DIM))
    pose[0] = (0.50, 0.85, 0.00)  # wrist
    finger_angles = np.deg2rad([-50.0, -25.0, 0.0, 25.0, 50.0])
    for finger, angle in enumerate(finger_angles):
        direction = np.array([np.sin(angle), -np.cos(angle), 0.05])
        for joint in range(4):
            reach = 0.10 + 0.07 * (joint + 1)
            pose[1 + 4 * finger + joint] = pose[0] + reach * direction
    return pose


# The rest pose every generated video moves about; read-only.
BASE_POSE = _rest_pose()
BASE_POSE.setflags(write=False)


@dataclass(frozen=True)
class GestureProfile:
    """Named motion archetype: per-axis amplitudes and jitter level."""

    name: str
    axis_amplitudes: np.ndarray
    noise_std: float

    def __post_init__(self):
        check_names(name=self.name)  # every video's label and part of its source id
        amps = _freeze(self, "axis_amplitudes")
        if amps.shape != (COORD_DIM,) or not all_finite(amps) or np.any(amps < 0):
            raise DataError("axis_amplitudes must be 3 finite non-negative reals")
        check_numbers(float, noise_std=self.noise_std)
        if not (self.noise_std > 0 and all_finite(self.noise_std)):
            raise DataError("noise_std must be positive and finite")


def default_profiles() -> tuple[GestureProfile, ...]:
    """The four calibrated archetypes: wave, pick, stack, push."""
    return tuple(
        GestureProfile(
            name=name,
            axis_amplitudes=np.array(amps),
            noise_std=NOISE_STD,
        )
        for name, amps in PROFILE_AMPLITUDES.items()
    )


def generate_video(
    profile: GestureProfile,
    frames: int = 150,
    seed: int = 0,
    source_id: str | None = None,
) -> GestureVideo:
    """One synthetic video: sinusoidal landmark motion plus jitter, seeded."""
    check_numbers(int, 2, frames=frames)
    check_numbers(int, 0, seed=seed)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(LANDMARK_COUNT, COORD_DIM))
    angle = 2.0 * np.pi * MOTION_CYCLES * np.arange(frames) / frames
    motion = profile.axis_amplitudes * np.sin(angle[:, None, None] + phases)
    jitter = rng.normal(0.0, profile.noise_std, size=(frames, LANDMARK_COUNT, COORD_DIM))
    if source_id is None:
        source_id = f"{profile.name}-seed{seed}"
    return GestureVideo(
        frames=BASE_POSE + motion + jitter,
        source_id=source_id,
        label=profile.name,
    )


def generate_dataset(
    profiles: Sequence[GestureProfile],
    videos_per_profile: int = 20,
    frames: int = 150,
    seed: int = 0,
) -> list[GestureVideo]:
    """Deterministic labeled corpus; video j's seed derives from (master seed, j) only."""
    check_numbers(int, 1, videos_per_profile=videos_per_profile)
    check_numbers(int, 0, seed=seed)
    total = len(profiles) * videos_per_profile
    children = np.random.SeedSequence(seed).spawn(total)
    videos = []
    j = 0
    for profile in profiles:
        for i in range(videos_per_profile):
            child_seed = int(children[j].generate_state(1, np.uint64)[0])
            videos.append(
                generate_video(
                    profile,
                    frames=frames,
                    seed=child_seed,
                    source_id=f"{profile.name}-{i:03d}",
                )
            )
            j += 1
    return videos
