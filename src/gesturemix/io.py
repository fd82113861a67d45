"""Versioned text formats: landmark videos, feature CSVs, trained models, plot data.

Every file is UTF-8 text, written beside its target and renamed onto it, so a
failed write leaves any previous file whole. Every float is written as "%.17g"
writes it, so every round trip is bit-exact: rows of floats by one numpy kernel,
`_format_floats`, which hands what it cannot do to "%.17g" itself, and the model
file's few floats by "%.17g". A reader checks only the layout of its file;
every range, shape and name rule is checked by the object it builds, and
`_checked` adds the file and line (or model field) to that object's error.

Both body readers check and parse a whole body at once: a landmark body with
numpy's C text reader, which makes float()'s correctly rounded conversion, a
feature CSV column by column once its layout holds. Only when that fails (or a
landmark body holds U+001F, which numpy strips and float() refuses) does the
line loop run: it raises the first bad line's error as `path:N`, blank lines
counted, or takes what float() takes and numpy refuses, such as 1_0.
"""

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import ClusterLabelMap
from .errors import DataError, ModelFormatError, NumericalError
from .gmm import EmConfig, MixtureParams
from .landmarks import (COORD_DIM, LANDMARK_COUNT, FeatureMatrix, GestureVideo,
                        NormalizationStats, as_rows, as_sequence, check_each_name,
                        check_names, check_numbers)
from .parallel import fan_out

VIDEO_MAGIC = "gesture-landmarks v1"
MODEL_MAGIC = "gesture-gmm-model v3"
FEATURE_CSV_HEADER = "lm,var_x,var_y,var_z,source_id,label"
PLOT_HEADER = "var_x,var_y,var_z,group"
MANIFEST_HEADER = "file,source_id,label"


def _parse_floats(cells: list[str], where: str) -> list[float]:
    """The cells as floats; the first that does not parse is a DataError naming `where`."""
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError as exc:
            raise DataError(f"non-numeric value {cell!r} in {where}") from exc
    return values


def _read_lines(path: Path, error=DataError) -> list[str]:
    """The file's lines. A file that is not UTF-8 text is malformed input,
    reported as `error` naming the file."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return text.splitlines()


def _write_lines(path, lines: list[str]) -> None:
    """Write the lines to `<path>.tmp` and rename it onto `path`."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _checked(where, make, field: str | None = None):
    """make(), with the error of what it builds reported against `where`: a
    ModelFormatError naming `field` when one is given, else a DataError."""
    try:
        return make()
    except (ValueError, NumericalError) as exc:
        if field is not None:
            raise ModelFormatError(f"{where}: {exc}", field=field) from exc
        raise DataError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Float text: every float is written as this template writes it

_FLOAT = "%.17g"
_CHUNK = 10_000  # values formatted at a time, in whole rows
_POW10 = np.array([float(10**k) for k in range(22)])  # each exact in float64


def _halves(a):
    """Veltkamp's split of a into two halves of 26 bits."""
    t = a * 134217729.0  # 2**27 + 1
    return (high := t - (t - a)), a - high


def _table(cells) -> np.ndarray:
    """24-byte cells as the columns of a (3, len(cells)) table of uint64 words."""
    return np.array([np.frombuffer(cell, "<u8") for cell in cells]).T.copy()


# A value |x| = N * 10**(X - 16) with 10**16 <= N < 10**17 fills bytes 0-23 of
# its cell: the sign at 0, N's 17 digits at 7-23, and for X < 0 "0." at 1-2 and
# -1 - X more "0" just before the digits. For X >= 0 the X + 1 integer digits
# move one byte down and the "." takes byte 7 + X; an integer has no ".", so
# _MARKS repeats its 22 columns without it. Tables are indexed by X + 5 (X = -5
# and 16 only when log10 is one off; N's range check catches those).
_POW10_HIGH, _POW10_LOW = _halves(_POW10)
_KEPT = _table([bytes(7) + b"0" * n + bytes(17 - n) for n in range(18)])
_DOT = [0] * 5 + list(range(7, 24))
_MOVED = _table([b"\xff" * q + bytes(24 - q) for q in _DOT])
_STAYED = _table([bytes(q + 1) + b"\xff" * (23 - q) for q in _DOT])
_MARKS = _table([b"\0" + b"0." + bytes(5 + x) + b"0" * (-1 - x) + bytes(17) if x < 0
                 else bytes(7 + x) + b"." * dot + bytes(17 - x - dot)
                 for dot in (1, 0) for x in range(-5, 17)])


def _cells(x) -> np.ndarray:
    """Each value of x as a 32-byte cell: its text in bytes 0-23, NUL where
    it has no character, and "," at byte 24."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)  # the others come from _FLOAT, below
    e = np.floor(np.log10(a)).astype(np.intp)  # X, or one off near a power of ten
    # a * 10**(16 - X) exactly, as high + low (Dekker 1971: numpy has no fused multiply-add)
    high = a * _POW10[16 - e]
    (ah, al), bh, bl = _halves(a), _POW10_HIGH[16 - e], _POW10_LOW[16 - e]
    low = ((ah * bh - high) + ah * bl + al * bh) + al * bl
    # high >= 2**53 is an integer, so N = high + low rounded half to even
    whole = np.floor(low)
    frac = low - whole
    n = high.astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | (frac == 0.5) & (n & 1 == 1)
    fast &= (n >= 10**16) & (n < 10**17)
    n = np.where(fast, n, 10**16).astype(np.uint64)
    cells = np.empty((4, len(x)), "<u8")
    cells[3] = ord(",")
    s = cells[:3]
    s[0] = n // 10**16
    n -= s[0] * 10**16
    s[0] <<= 56
    w = np.stack([n // 10**8, n % 10**8])
    # eight digits a word, one a byte, by multiply-shift: 4-digit halves, pairs, digits
    high = w // 10_000
    w = high | (w - high * 10_000) << 32
    high = (w * 10486) >> 20 & 0x7F0000007F
    w = high | (w - high * 100) << 16
    high = (w * 103) >> 10 & 0xF000F000F000F
    s[1:] = high | (w - high * 10) << 8
    # '0' is added through the last nonzero digit and the whole integer part;
    # a word's last nonzero digit is its top nonzero byte, read from its exponent
    last = (np.frexp(s[1:].astype(np.float64))[1] + 7) >> 3
    kept = np.maximum(np.where(last[1] > 0, 9 + last[1], 1 + last[0]), e + 1)
    s |= _KEPT.take(kept, axis=1)
    moved = s >> 8
    moved[:2] |= s[1:] << 56
    s &= _STAYED.take(e + 5, axis=1)
    s |= moved & _MOVED.take(e + 5, axis=1)
    s |= _MARKS.take(e + 5 + 22 * (kept == e + 1), axis=1)
    s[0] |= (x < 0) * np.uint64(ord("-"))
    cells = np.ascontiguousarray(cells.T).view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [_FLOAT % v for v in x[slow].tolist()]
        cells[slow, :24] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return cells


def _format_floats(rows) -> str:
    """An (R, C) float array as a row template of _FLOAT cells filled by %
    writes it: "," between the values of a row, a newline between rows."""
    rows = np.asarray(rows, dtype=np.float64)
    r, c = rows.shape
    step = max(1, _CHUNK // c)
    parts = []
    for start in range(0, r, step):
        cells = _cells(rows[start:start + step].ravel()).reshape(-1, c, 32)
        cells[:, -1, 24] = ord("\n")
        parts.append(cells.tobytes().translate(None, b"\0"))
    return b"".join(parts)[:-1].decode("ascii")


# ---------------------------------------------------------------------------
# Landmark video files


def write_video(video: GestureVideo, path) -> None:
    lines = [VIDEO_MAGIC, f"source_id={video.source_id}"]
    if video.label is not None:
        lines.append(f"label={video.label}")
    lines.append(_format_floats(video.frames.reshape(video.frame_count, -1)))
    _write_lines(path, lines)


def _parse_video(path: Path) -> tuple[str, str | None, np.ndarray]:
    """A video file's source_id, label and (F, 21, 3) frames, its layout checked."""
    lines = _read_lines(path)
    if not lines or lines[0] != VIDEO_MAGIC:
        raise DataError(f"{path}: missing '{VIDEO_MAGIC}' header")
    if len(lines) < 2 or not lines[1].startswith("source_id="):
        raise DataError(f"{path}: missing source_id line")
    source_id = lines[1][len("source_id="):]
    label = None
    body = 2
    if len(lines) > 2 and lines[2].startswith("label="):
        label = lines[2][len("label="):]
        body = 3
    rows = [line for line in lines[body:] if line.strip()]
    # numpy's C reader makes the conversion float() makes, without a Python
    # object per cell. No comment character, as float() refuses 0.5#x; no
    # empty body, on which numpy warns; and no U+001F, which numpy strips
    # around a value and float() refuses.
    if rows and not any("\x1f" in row for row in rows):
        try:
            frames = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            frames = None
        if frames is not None and frames.shape[1] == LANDMARK_COUNT * COORD_DIM:
            return source_id, label, frames.reshape(-1, LANDMARK_COUNT, COORD_DIM)
    # the line loop names the first bad line, and takes what float() takes
    # and numpy refuses, such as 1_0
    values: list[float] = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != LANDMARK_COUNT * COORD_DIM:
            raise DataError(
                f"{path}:{lineno}: expected {LANDMARK_COUNT * COORD_DIM} values, got {len(cells)}"
            )
        values += _parse_floats(cells, f"{path}:{lineno}")
    return source_id, label, np.array(values).reshape(-1, LANDMARK_COUNT, COORD_DIM)


def read_video_dir(path) -> list[GestureVideo]:
    """All *.landmarks files under a directory, in sorted filename order. The
    files are parsed on every usable CPU; the videos are built here."""
    path = Path(path)
    files = sorted(path.glob("*.landmarks"))
    if not files:
        raise DataError(f"no *.landmarks files in {path}")
    # GestureVideo looked up when called, so a wrapper set on this module sees it
    return [_checked(f, lambda: GestureVideo(frames=frames, source_id=sid, label=label))
            for f, (sid, label, frames) in zip(files, fan_out(_parse_video, files))]


def write_manifest(entries: Sequence[tuple[str, str, str]], path) -> None:
    for fname, source_id, label in entries:
        check_names(file=fname, source_id=source_id, label=label)
    lines = [MANIFEST_HEADER]
    lines += [f"{fname},{source_id},{label}" for fname, source_id, label in entries]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# Feature CSV (21 rows per video)


# The lm column of a whole file: 1..21, once per video.
_LM_CYCLE = [str(lm) for lm in range(1, LANDMARK_COUNT + 1)]


def write_feature_csv(features: Sequence[FeatureMatrix], path) -> None:
    rows = [feat.rows for feat in features]
    values = iter(_format_floats(np.vstack(rows)).split("\n") if rows else ())
    lines = [FEATURE_CSV_HEADER]
    for feat in features:
        label = feat.label if feat.label is not None else ""
        lines += [f"{lm},{next(values)},{feat.source_id},{label}" for lm in _LM_CYCLE]
    _write_lines(path, lines)


def read_feature_csv(path) -> list[FeatureMatrix]:
    """The videos of a feature CSV. The layout is checked for the whole file at
    once (6 cells a row, lm = 1..21 per video, one source_id and label per
    video), then each value column is parsed in one pass; on any failure the
    line loop names the first bad line."""
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0] != FEATURE_CSV_HEADER:
        raise DataError(f"{path}: missing '{FEATURE_CSV_HEADER}' header")
    rows = [line for line in lines[1:] if line.strip()]
    n = len(rows)
    if n % LANDMARK_COUNT != 0:
        raise DataError(f"{path}: {n} data rows is not a multiple of {LANDMARK_COUNT}")
    if not rows:
        return []
    # the physical line number of each row: blank lines are skipped but counted
    lineno = range(2, n + 2) if n == len(lines) - 1 else [
        no for no, line in enumerate(lines[1:], start=2) if line.strip()
    ]
    # while every row holds 6 cells, cell j of row i is cells[6 i + j]: one
    # flat list of strings, rather than a list per row, for the whole file
    cells = ",".join(rows).split(",")
    lm, source_ids, labels = cells[0::6], cells[4::6], cells[5::6]
    values = np.empty((n, COORD_DIM))
    try:
        # each row's own comma count: a 7-cell row then a 5-cell one leave the cells lined up
        if ([row.count(",") for row in rows].count(5) != n
                or lm != _LM_CYCLE * (n // LANDMARK_COUNT)
                or any(column[offset::LANDMARK_COUNT] != column[::LANDMARK_COUNT]
                       for column in (source_ids, labels) for offset in range(1, LANDMARK_COUNT))):
            raise ValueError("a row breaks the layout")
        for j in range(COORD_DIM):
            values[:, j] = list(map(float, cells[1 + j::6]))
    except ValueError:
        for i, row in enumerate(rows):  # each line's rules in the order above
            where, cells = f"{path}:{lineno[i]}", row.split(",")
            if len(cells) != 6:
                raise DataError(f"{where}: expected 6 values, got {len(cells)}")
            if cells[0] != _LM_CYCLE[i % LANDMARK_COUNT]:
                raise DataError(f"{where}: lm={cells[0]}, expected {i % LANDMARK_COUNT + 1}")
            if cells[4:] != rows[i - i % LANDMARK_COUNT].split(",")[4:]:
                raise DataError(f"{where}: source_id or label changes mid-video")
            values[i] = _parse_floats(cells[1:4], where)
    return [
        _checked(f"{path}:{lineno[start]}", lambda: FeatureMatrix(
            rows=values[start:start + LANDMARK_COUNT],
            source_id=source_ids[start],
            label=labels[start] or None,
        ))
        for start in range(0, n, LANDMARK_COUNT)
    ]


# ---------------------------------------------------------------------------
# Plot-data export (scatter of variance features by group)


def export_plot_data(rows, files) -> None:
    """Columnar var_x,var_y,var_z,group files for external plotting tools: the
    same rows in each file, grouped by the `files[path]` entry for each row.
    The rows are formatted once for all the files."""
    x = as_rows(rows, 0, COORD_DIM)
    files = {path: as_sequence(groups, "groups") for path, groups in files.items()}
    for groups in files.values():
        if len(groups) != x.shape[0]:
            raise DataError(f"{x.shape[0]} rows vs {len(groups)} group entries")
    check_each_name([group for groups in files.values() for group in groups], "group")
    values = _format_floats(x).split("\n") if len(x) else []
    for path, groups in files.items():
        _write_lines(path, [PLOT_HEADER, *map("{},{}".format, values, groups)])


# ---------------------------------------------------------------------------
# Trained model files


@dataclass(frozen=True)
class ModelFile:
    """Everything a classify/score run needs, plus the training configuration and outcome."""

    config: EmConfig
    params: MixtureParams
    stats: NormalizationStats
    label_map: ClusterLabelMap
    iterations: int
    final_log_likelihood: float
    silhouette: float

    def __post_init__(self):
        if not self.config.k == self.params.k == self.label_map.k:
            raise DataError(
                f"k={self.config.k} but the mixture has {self.params.k} components "
                f"and the label map {self.label_map.k}"
            )
        check_numbers(int, 0, iterations=self.iterations)
        check_numbers(float, final_log_likelihood=self.final_log_likelihood,
                      silhouette=self.silhouette)


def _floats(text: str) -> np.ndarray:
    return np.array([float(c) for c in text.split(",")])


# How a value is written, by the parser that reads it back; the rest use str().
_WRITERS = {float: _FLOAT.__mod__, _floats: lambda a: ",".join(map(_FLOAT.__mod__, np.ravel(a)))}

# The model format, in file order: (key, its value in a ModelFile, parser).
# The header keys come once, the component keys once per component; the
# header starts with the fields of EmConfig, each parsed by its type.
_HEADER_KEYS = (
    *((f.name, lambda m, name=f.name: getattr(m.config, name), f.type) for f in fields(EmConfig)),
    ("iterations", lambda m: m.iterations, int),
    ("final_log_likelihood", lambda m: m.final_log_likelihood, float),
    ("silhouette", lambda m: m.silhouette, float),
    ("norm_mean", lambda m: m.stats.mean, _floats),
    ("norm_std", lambda m: m.stats.std, _floats),
    ("weights", lambda m: m.params.weights, _floats),
)
_COMPONENT_KEYS = (
    ("component", lambda m, i: i, str),
    ("label", lambda m, i: m.label_map.labels[i], str),
    ("confidence", lambda m, i: m.label_map.confidence[i], float),
    ("mean", lambda m, i: m.params.means[i], _floats),
    ("cov", lambda m, i: m.params.covs[i], _floats),
)


def _key_lines(keys, *where) -> list[str]:
    return [f"{key}={_WRITERS.get(parse, str)(get(*where))}" for key, get, parse in keys]


def save_model(model: ModelFile, path) -> None:
    lines = [MODEL_MAGIC, *_key_lines(_HEADER_KEYS, model)]
    for i in range(model.params.k):
        lines += _key_lines(_COMPONENT_KEYS, model, i)
    lines.append("end")
    _write_lines(path, lines)


def load_model(path) -> ModelFile:
    """Read a model file back. The loader checks the key sequence, the component
    indices and the `end` sentinel; every range, shape and weight-sum check is
    made by the object the values build."""
    path = Path(path)
    lines = [line for line in _read_lines(path, ModelFormatError) if line.strip()]
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(
            f"{path}: missing or unsupported version header (want '{MODEL_MAGIC}')",
            field="version",
        )
    rest = iter(lines[1:])

    def read(keys) -> dict:
        values = {}
        for key, _, parse in keys:
            line = next(rest, None)
            if line is None:
                raise ModelFormatError(f"{path}: file ends before '{key}'", field=key)
            if not line.startswith(key + "="):
                raise ModelFormatError(f"{path}: expected '{key}=...', found {line!r}", field=key)
            text = line[len(key) + 1:]
            try:
                values[key] = parse(text)
            except ValueError as exc:
                raise ModelFormatError(f"{path}: bad value {text!r}", field=key) from exc
        return values

    head = read(_HEADER_KEYS)
    config = _checked(path, lambda: EmConfig(**{f.name: head[f.name] for f in fields(EmConfig)}),
                      "config")

    components = []
    for idx in range(config.k):
        component = read(_COMPONENT_KEYS)
        if component["component"] != str(idx):
            raise ModelFormatError(
                f"{path}: expected component {idx}, found {component['component']!r}",
                field=f"component {idx}",
            )
        components.append(component)
    if next(rest, None) != "end":
        raise ModelFormatError(f"{path}: missing 'end' sentinel", field="end")
    if next(rest, None) is not None:
        raise ModelFormatError(f"{path}: content after the 'end' sentinel", field="end")

    def stacked(key) -> list:
        return [c[key] for c in components]

    stats = _checked(path, lambda: NormalizationStats(
        mean=head["norm_mean"], std=head["norm_std"]
    ), "norm_mean/norm_std")
    params = _checked(path, lambda: MixtureParams(
        means=stacked("mean"),
        covs=np.array(stacked("cov")).reshape(config.k, COORD_DIM, COORD_DIM),
        weights=head["weights"],
    ), "weights/components")
    label_map = _checked(path, lambda: ClusterLabelMap(
        labels=stacked("label"), confidence=stacked("confidence")
    ), "components")
    return _checked(path, lambda: ModelFile(
        config=config,
        params=params,
        stats=stats,
        label_map=label_map,
        iterations=head["iterations"],
        final_log_likelihood=head["final_log_likelihood"],
        silhouette=head["silhouette"],
    ), "iterations")
