"""Landmark recordings and their per-landmark variance features.

A gesture video is an ordered stack of frames, each holding the 21 tracked
hand landmark positions in (x, y, z). Each video is reduced to a 21x3 matrix
of per-landmark coordinate variances; those rows are the data points every
downstream model consumes.
"""

import numbers
from collections.abc import Mapping, Set
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
    every type here and of `as_rows`."""
    return bool(_all(np.isfinite(a), axis=None))


def as_rows(data, k: int = 1, width: int | None = None) -> np.ndarray:
    """Rows of data as a checked (N, d) float array: at least k rows, `width`
    columns when given, every value finite. The one check on rows of data of
    the mixture, the normalization, the silhouette and the plot export."""
    x = _as_floats(data, "data", copy=False)
    if x.ndim != 2 or width not in (None, x.shape[1]):
        raise DataError(f"data must be an (N, {width or 'd'}) array, got shape {x.shape}")
    if len(x) < k:
        raise DataError(f"need at least k={k} data points, got {len(x)}" if len(x) else "empty data")
    if not all_finite(x):
        raise DataError("non-finite data point")
    return x


def as_assignment(assignment, n: int) -> np.ndarray:
    """A hard cluster assignment as a checked (n,) integer array, one component
    index per row: the one check of the label map's and the silhouette's."""
    a = np.asarray(assignment)
    if a.dtype.kind not in "iu":
        raise DataError(f"assignment must hold integer component indices, got {a.dtype}")
    if a.shape != (n,):
        raise DataError(f"one component index per row required, got shape {a.shape} for {n} rows")
    return a


def as_sequence(value, field: str) -> tuple:
    """A sequence of one entry per row or component as a tuple. A string, set
    or mapping iterates, but not so, and is a DataError, as a non-iterable is."""
    try:
        if isinstance(value, (str, bytes, Set, Mapping)):
            raise TypeError
        return tuple(value)
    except TypeError:
        raise DataError(f"{field} must be a sequence, got {value!r}") from None


def _as_floats(a, field: str, copy: bool) -> np.ndarray:
    """`a` as a float64 array. Only integers and floats convert: a complex, bool,
    string or object array is a DataError, as a bool or string is no number."""
    try:
        x = np.asarray(a)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise DataError(f"{field} must be an array of real numbers") from exc
    if x.dtype.kind not in "iuf":
        raise DataError(f"{field} must be an array of real numbers, got {x.dtype}")
    return x.astype(np.float64, copy=copy)


def _freeze(record, field: str) -> np.ndarray:
    """Replace the frozen `record`'s `field` with a read-only float copy of its
    own, and return the copy: what the record's checks then read is what it keeps."""
    out = _as_floats(getattr(record, field), field, copy=True)
    out.setflags(write=False)
    object.__setattr__(record, field, out)
    return out


def check_numbers(kind, minimum=None, **values) -> None:
    """Reject a value that is not of `kind`: int, any integer numpy's included,
    or float, any real number. A bool, None or string is neither, 2.5 no int.
    A `minimum`, when given, is the least value each may take."""
    abc, noun = (numbers.Integral, "an integer") if kind is int else (numbers.Real, "a real number")
    for field, value in values.items():
        if isinstance(value, bool) or not isinstance(value, abc):
            raise DataError(f"{field} must be {noun}, got {value!r}")
        if minimum is not None and value < minimum:
            raise DataError(f"{field} must be at least {minimum}")


def check_names(**names: str) -> None:
    """Reject a name that is not a string, or that the text formats could not
    write or read back."""
    for field, name in names.items():
        if not isinstance(name, str):
            raise DataError(f"{field} must be a string, got {name!r}")
        if name == "":  # an empty CSV cell reads back as no label
            raise DataError(f"{field} is empty")
        if not _NAME_BREAKERS.isdisjoint(name):
            raise DataError(f"{field} {name!r} holds a comma or line break")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise DataError(f"{field} {name!r} cannot be written as UTF-8") from None


def check_each_name(names, field: str) -> None:
    """check_names on each distinct entry of `names`, in order of first
    appearance; when an entry cannot be hashed, on every entry, to name it."""
    try:
        names = dict.fromkeys(names)
    except TypeError:
        pass
    for name in names:
        check_names(**{field: name})


@dataclass(frozen=True)
class GestureVideo:
    """One recorded gesture: frames of shape (frame_count, 21, 3)."""

    frames: np.ndarray
    source_id: str
    label: str | None = None

    def __post_init__(self):
        check_names(source_id=self.source_id)
        if self.label is not None:  # the one name that may be absent
            check_names(label=self.label)
        frames = _freeze(self, "frames")
        if frames.ndim != 3 or frames.shape[1:] != (LANDMARK_COUNT, COORD_DIM):
            raise DataError(
                f"frames must have shape (F, {LANDMARK_COUNT}, {COORD_DIM}), "
                f"got {frames.shape}"
            )
        if frames.shape[0] < 2:
            raise DataError("a gesture video needs at least 2 frames")
        if not all_finite(frames):
            raise DataError(f"non-finite landmark coordinate in {self.source_id!r}")

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
        check_names(source_id=self.source_id)
        if self.label is not None:  # the one name that may be absent
            check_names(label=self.label)
        rows = _freeze(self, "rows")
        if rows.shape != (LANDMARK_COUNT, COORD_DIM):
            raise DataError(
                f"feature matrix must be {LANDMARK_COUNT}x{COORD_DIM}, got {rows.shape}"
            )
        if not all_finite(rows):
            raise DataError(f"NaN or infinite feature value in {self.source_id!r}")
        if _any(rows < 0, axis=None):
            raise DataError(f"negative variance in {self.source_id!r}")


@dataclass(frozen=True)
class NormalizationStats:
    """Column-wise mean and standard deviation of the training feature rows."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean, std = _freeze(self, "mean"), _freeze(self, "std")
        if mean.shape != (COORD_DIM,) or std.shape != (COORD_DIM,):
            raise DataError("normalization stats must hold 3 means and 3 stds")
        if not (all_finite(mean) and all_finite(std)):
            raise DataError("non-finite normalization stats")
        if _any(std <= 0, axis=None):
            raise DataError("normalization stds must be strictly positive")


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
    rows = as_rows(rows, width=COORD_DIM)
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), STD_FLOOR)
    return NormalizationStats(mean=mean, std=std)


def apply_normalization(rows, stats: NormalizationStats) -> np.ndarray:
    """Z-score each column of (N, 3) feature rows: (value - column mean) / column std."""
    try:
        return (rows - stats.mean) / stats.std
    except (TypeError, ValueError):  # numpy's, for rows that are not (N, 3) real numbers
        raise DataError(f"feature rows must be (N, {COORD_DIM}) real numbers, got shape "
                        f"{np.asarray(rows, dtype=object).shape}") from None
