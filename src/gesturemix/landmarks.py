"""Landmark recordings and their per-landmark variance features.

A gesture video is an ordered stack of frames, each holding the 21 tracked
hand landmark positions in (x, y, z). Each video is reduced to a 21x3 matrix
of per-landmark coordinate variances; those rows are the data points every
downstream model consumes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

LANDMARK_COUNT = 21
COORD_DIM = 3

# Variance columns are z-scored; a column with zero spread gets this floor so
# the division stays defined.
STD_FLOOR = 1e-12

# Separators of the text formats: a name holding one could not be read back.
# The files are split into lines by str.splitlines, which breaks at all but ",".
_NAME_BREAKERS = frozenset(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


# The reductions as ufunc methods: np.all, np.any, np.var and the array
# methods reach these same calls through a Python layer that costs more than
# the work on a 21x3 matrix.
_all = np.logical_and.reduce
_any = np.logical_or.reduce
_sum = np.add.reduce


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a float array is finite; the finiteness check of
    every type here and of the mixture's data."""
    return bool(_all(np.isfinite(a), axis=None))


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def check_names(**names: str | None) -> None:
    """Reject a name the text formats could not write or read back; None means
    no name."""
    for field, name in names.items():
        if name is None:
            continue
        if name == "":  # an empty CSV cell reads back as no label
            raise DataError(f"{field} is empty")
        if not _NAME_BREAKERS.isdisjoint(name):
            raise DataError(f"{field} {name!r} holds a comma or line break")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise DataError(f"{field} {name!r} cannot be written as UTF-8") from None


@dataclass(frozen=True)
class GestureVideo:
    """One recorded gesture: frames of shape (frame_count, 21, 3)."""

    frames: np.ndarray
    source_id: str
    label: str | None = None

    def __post_init__(self):
        check_names(source_id=self.source_id, label=self.label)
        frames = _freeze(self.frames)
        if frames.ndim != 3 or frames.shape[1:] != (LANDMARK_COUNT, COORD_DIM):
            raise DataError(
                f"frames must have shape (F, {LANDMARK_COUNT}, {COORD_DIM}), "
                f"got {frames.shape}"
            )
        if frames.shape[0] < 2:
            raise DataError("a gesture video needs at least 2 frames")
        if not all_finite(frames):
            raise DataError(f"non-finite landmark coordinate in {self.source_id!r}")
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-landmark coordinate variances of one video: 21 non-negative rows of
    (var_x, var_y, var_z)."""

    rows: np.ndarray
    source_id: str
    label: str | None = None

    def __post_init__(self):
        check_names(source_id=self.source_id, label=self.label)
        rows = _freeze(self.rows)
        if rows.shape != (LANDMARK_COUNT, COORD_DIM):
            raise DataError(
                f"feature matrix must be {LANDMARK_COUNT}x{COORD_DIM}, got {rows.shape}"
            )
        if not all_finite(rows):
            raise DataError(f"NaN or infinite feature value in {self.source_id!r}")
        if _any(rows < 0, axis=None):
            raise DataError(f"negative variance in {self.source_id!r}")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class NormalizationStats:
    """Column-wise mean and standard deviation of the training feature rows."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = _freeze(self.mean)
        std = _freeze(self.std)
        if mean.shape != (COORD_DIM,) or std.shape != (COORD_DIM,):
            raise DataError("normalization stats must hold 3 means and 3 stds")
        if not (all_finite(mean) and all_finite(std)):
            raise DataError("non-finite normalization stats")
        if _any(std <= 0, axis=None):
            raise DataError("normalization stds must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def compute_variances(video: GestureVideo) -> FeatureMatrix:
    """Reduce a video to per-landmark population variances (divisor = frame count).

    The steps are the ufunc calls np.var(frames, axis=0) makes, in its order,
    so the rows equal np.var's bit for bit: sum over frames, divide by F,
    subtract, square, sum, divide by F.

    Finite coordinates above about 1e154 in magnitude overflow the square;
    that is reported as a DataError naming the overflow, after numpy's own
    overflow warning (callers may silence it with np.errstate).
    """
    frames = video.frames
    count = frames.shape[0]
    mean = _sum(frames, axis=0)
    mean /= count
    dev = frames - mean
    np.square(dev, out=dev)
    rows = _sum(dev, axis=0)
    rows /= count
    try:
        return FeatureMatrix(rows=rows, source_id=video.source_id, label=video.label)
    except DataError as exc:
        # the video's names and frames passed their checks, so only a variance
        # that overflowed to infinity can fail the feature matrix's
        raise DataError(
            f"landmark variance overflows in {video.source_id!r}: coordinates are "
            "too large to square in double precision"
        ) from exc


def fit_normalization(rows) -> NormalizationStats:
    """Column mean/std of stacked (N, 3) feature rows, std floored at STD_FLOOR."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != COORD_DIM or rows.shape[0] == 0:
        raise DataError(f"normalization needs non-empty (N, {COORD_DIM}) rows, got {rows.shape}")
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), STD_FLOOR)
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(rows, stats: NormalizationStats) -> np.ndarray:
    """Z-score each column of (N, 3) feature rows: (value - column mean) / column std."""
    return (rows - stats.mean) / stats.std
