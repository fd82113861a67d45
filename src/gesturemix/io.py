"""Versioned text formats: landmark videos, feature CSVs, trained models, plot data.

Every file is UTF-8 text, written beside its target and renamed onto it, so a
failed write leaves any previous file whole. All floats are serialized with 17
significant digits so every round trip is bit-exact. A reader checks only the
layout of its file; every range, shape and name rule is checked by the object
it builds, and `_checked` adds the file and line (or model field) to that
object's error.
"""

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import ClusterLabelMap
from .errors import DataError, ModelFormatError, NumericalError
from .gmm import EmConfig, MixtureParams
from .landmarks import COORD_DIM, LANDMARK_COUNT, FeatureMatrix, GestureVideo, NormalizationStats

VIDEO_MAGIC = "gesture-landmarks v1"
MODEL_MAGIC = "gesture-gmm-model v2"
FEATURE_CSV_HEADER = "lm,var_x,var_y,var_z,source_id,label"
PLOT_HEADER = "var_x,var_y,var_z,group"
MANIFEST_HEADER = "file,source_id,label"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DataError(f"non-numeric value {text!r} in {where}") from exc


def _parse_floats(cells: list[str], where) -> list[float]:
    """The cells as floats. `where()` names the line for the error and is
    called only when a cell does not parse."""
    try:
        return list(map(float, cells))
    except ValueError:
        place = where()
        return [_parse_float(c, place) for c in cells]  # raises on the first bad cell


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


# Row templates: each value written as _fmt writes it, one % per row.
_FRAME_ROW = ",".join(["%.17g"] * (LANDMARK_COUNT * COORD_DIM))
_VARIANCE_ROW = ",".join(["%.17g"] * COORD_DIM)


# ---------------------------------------------------------------------------
# Landmark video files


def write_video(video: GestureVideo, path) -> None:
    lines = [VIDEO_MAGIC, f"source_id={video.source_id}"]
    if video.label is not None:
        lines.append(f"label={video.label}")
    frames = video.frames.reshape(video.frame_count, -1).tolist()
    lines += [_FRAME_ROW % tuple(frame) for frame in frames]
    _write_lines(path, lines)


def read_video(path) -> GestureVideo:
    path = Path(path)
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
    values: list[float] = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != LANDMARK_COUNT * COORD_DIM:
            raise DataError(
                f"{path}:{lineno}: expected {LANDMARK_COUNT * COORD_DIM} values, got {len(cells)}"
            )
        values += _parse_floats(cells, lambda: f"{path}:{lineno}")
    frames = np.array(values).reshape(-1, LANDMARK_COUNT, COORD_DIM)
    # GestureVideo looked up when called, so a wrapper set on this module sees it
    return _checked(path, lambda: GestureVideo(frames=frames, source_id=source_id, label=label))


def read_video_dir(path) -> list[GestureVideo]:
    """All *.landmarks files under a directory, in sorted filename order."""
    path = Path(path)
    files = sorted(path.glob("*.landmarks"))
    if not files:
        raise DataError(f"no *.landmarks files in {path}")
    return [read_video(f) for f in files]


def write_manifest(entries: Sequence[tuple[str, str, str]], path) -> None:
    lines = [MANIFEST_HEADER]
    lines += [f"{fname},{source_id},{label}" for fname, source_id, label in entries]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# Feature CSV (21 rows per video)


def write_feature_csv(features: Sequence[FeatureMatrix], path) -> None:
    lines = [FEATURE_CSV_HEADER]
    for feat in features:
        label = feat.label if feat.label is not None else ""
        for lm, row in enumerate(feat.rows.tolist(), start=1):
            lines.append(f"{lm},{_VARIANCE_ROW % tuple(row)},{feat.source_id},{label}")
    _write_lines(path, lines)


# The lm column of a whole file: 1..21, once per video.
_LM_CYCLE = [str(lm) for lm in range(1, LANDMARK_COUNT + 1)]


def read_feature_csv(path) -> list[FeatureMatrix]:
    """The videos of a feature CSV. The layout is checked for the whole file at
    once (6 cells a row, lm = 1..21 per video, one source_id and label per
    video), then each value column is parsed in one pass."""
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
    commas = [line.count(",") for line in rows]
    if commas.count(5) != n:
        i = next(i for i, count in enumerate(commas) if count != 5)
        raise DataError(f"{path}: row {lineno[i]} has {commas[i] + 1} cells, expected 6")
    # every row holds 6 cells, so cell j of row i is cells[6 i + j]: one flat
    # list of strings, rather than a list per row, for the whole file
    cells = ",".join(rows).split(",")
    lm, source_ids, labels = cells[0::6], cells[4::6], cells[5::6]
    if lm != _LM_CYCLE * (n // LANDMARK_COUNT):
        i = next(i for i, cell in enumerate(lm) if cell != _LM_CYCLE[i % LANDMARK_COUNT])
        raise DataError(
            f"{path}: row {lineno[i]} has lm={lm[i]}, expected {i % LANDMARK_COUNT + 1}"
        )
    if any(
        column[offset::LANDMARK_COUNT] != column[::LANDMARK_COUNT]
        for column in (source_ids, labels) for offset in range(1, LANDMARK_COUNT)
    ):
        heads = [i - i % LANDMARK_COUNT for i in range(n)]
        i = next(
            i for i, head in enumerate(heads)
            if source_ids[i] != source_ids[head] or labels[i] != labels[head]
        )
        raise DataError(f"{path}: source_id or label changes mid-video at row {lineno[i]}")
    values = np.empty((n, COORD_DIM))
    try:
        for j in range(COORD_DIM):
            values[:, j] = list(map(float, cells[1 + j::6]))
    except ValueError:
        for i in range(n):  # raises on the file's first bad cell
            _parse_floats(cells[6 * i + 1:6 * i + 4], lambda: f"{path} row {lineno[i]}")
        raise  # not reached: some cell failed to parse above
    return [
        _checked(f"{path} row {lineno[start]}", lambda: FeatureMatrix(
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
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != COORD_DIM:
        raise DataError(f"plot rows must be (M, {COORD_DIM}), got {x.shape}")
    files = {path: list(groups) for path, groups in files.items()}
    for groups in files.values():
        if len(groups) != x.shape[0]:
            raise DataError(f"{x.shape[0]} rows vs {len(groups)} group entries")
    values = [_VARIANCE_ROW % tuple(row) for row in x.tolist()]
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


def _floats(text: str) -> np.ndarray:
    return np.array([float(c) for c in text.split(",")])


# How a value is written, by the parser that reads it back; the rest use str().
_WRITERS = {float: _fmt, _floats: lambda values: ",".join(_fmt(v) for v in np.ravel(values))}

# The model format, in file order: (key, its value in a ModelFile, parser).
# The header keys come once, the component keys once per component.
_HEADER_KEYS = (
    ("k", lambda m: m.config.k, int),
    ("covariance_mode", lambda m: m.config.covariance_mode, str),
    ("seed", lambda m: m.config.seed, int),
    ("tol", lambda m: m.config.tol, float),
    ("max_iters", lambda m: m.config.max_iters, int),
    ("reg_eps", lambda m: m.config.reg_eps, float),
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
    indices, the weight sum and the `end` sentinel; every range and shape check
    is made by the object the values build."""
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
    config = _checked(path, lambda: EmConfig(
        k=head["k"], covariance_mode=head["covariance_mode"], seed=head["seed"],
        tol=head["tol"], max_iters=head["max_iters"], reg_eps=head["reg_eps"],
    ), "config")
    weights = head["weights"]
    weight_sum = float(weights.sum())
    if abs(weight_sum - 1.0) > 1e-9:
        raise ModelFormatError(
            f"{path}: weights sum to {weight_sum!r}, expected 1 within 1e-9", field="weights"
        )
    if abs(weight_sum - 1.0) > 1e-12:
        weights = weights / weight_sum

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

    def stacked(key) -> list:
        return [c[key] for c in components]

    stats = _checked(path, lambda: NormalizationStats(
        mean=head["norm_mean"], std=head["norm_std"]
    ), "norm_mean/norm_std")
    params = _checked(path, lambda: MixtureParams(
        means=stacked("mean"),
        covs=np.array(stacked("cov")).reshape(config.k, COORD_DIM, COORD_DIM),
        weights=weights,
    ), "weights/components")
    label_map = _checked(path, lambda: ClusterLabelMap(
        labels=tuple(stacked("label")), confidence=tuple(stacked("confidence"))
    ), "components")
    return ModelFile(
        config=config,
        params=params,
        stats=stats,
        label_map=label_map,
        iterations=head["iterations"],
        final_log_likelihood=head["final_log_likelihood"],
        silhouette=head["silhouette"],
    )
