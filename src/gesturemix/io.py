"""Versioned text formats: landmark videos, feature CSVs, trained models, plot data.

All floats are serialized with 17 significant digits so every round trip is
bit-exact. Loading re-checks the invariants of whatever it constructs and
rejects anything out of contract with an error naming the offending field.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .classify import ClusterLabelMap
from .errors import DataError, ModelFormatError, NumericalError
from .gmm import MixtureParams
from .landmarks import COORD_DIM, LANDMARK_COUNT, FeatureMatrix, GestureVideo, NormalizationStats

VIDEO_MAGIC = "gesture-landmarks v1"
MODEL_MAGIC = "gesture-gmm-model v1"
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


# ---------------------------------------------------------------------------
# Landmark video files


def write_video(video: GestureVideo, path) -> None:
    lines = [VIDEO_MAGIC, f"source_id={video.source_id}"]
    if video.label is not None:
        lines.append(f"label={video.label}")
    for frame in video.frames:
        lines.append(",".join(_fmt(v) for v in frame.ravel()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_video(path) -> GestureVideo:
    path = Path(path)
    lines = path.read_text().splitlines()
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
    frames = []
    for lineno, line in enumerate(lines[body:], start=body + 1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != LANDMARK_COUNT * COORD_DIM:
            raise DataError(
                f"{path}:{lineno}: expected {LANDMARK_COUNT * COORD_DIM} values, got {len(cells)}"
            )
        values = [_parse_float(c, f"{path}:{lineno}") for c in cells]
        frames.append(np.array(values).reshape(LANDMARK_COUNT, COORD_DIM))
    if len(frames) < 2:
        raise DataError(f"{path}: video holds {len(frames)} frames, need at least 2")
    return GestureVideo(frames=np.stack(frames), source_id=source_id, label=label)


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
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Feature CSV (21 rows per video)


def write_feature_csv(features: Sequence[FeatureMatrix], path) -> None:
    lines = [FEATURE_CSV_HEADER]
    for feat in features:
        label = feat.label if feat.label is not None else ""
        for lm in range(LANDMARK_COUNT):
            vx, vy, vz = (_fmt(v) for v in feat.rows[lm])
            lines.append(f"{lm + 1},{vx},{vy},{vz},{feat.source_id},{label}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_csv(path) -> list[FeatureMatrix]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != FEATURE_CSV_HEADER:
        raise DataError(f"{path}: missing '{FEATURE_CSV_HEADER}' header")
    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) % LANDMARK_COUNT != 0:
        raise DataError(
            f"{path}: {len(rows)} data rows is not a multiple of {LANDMARK_COUNT}"
        )
    features = []
    for start in range(0, len(rows), LANDMARK_COUNT):
        block = rows[start:start + LANDMARK_COUNT]
        matrix = np.empty((LANDMARK_COUNT, COORD_DIM))
        source_id = None
        label: str | None = None
        for offset, line in enumerate(block):
            cells = line.split(",")
            if len(cells) != 6:
                raise DataError(f"{path}: row {start + offset + 2} has {len(cells)} cells, expected 6")
            lm = _parse_float(cells[0], f"{path} lm column")
            if int(lm) != offset + 1:
                raise DataError(
                    f"{path}: row {start + offset + 2} has lm={cells[0]}, expected {offset + 1}"
                )
            matrix[offset] = [_parse_float(c, f"{path} row {start + offset + 2}") for c in cells[1:4]]
            if source_id is None:
                source_id = cells[4]
                label = cells[5] if cells[5] else None
            elif cells[4] != source_id:
                raise DataError(
                    f"{path}: source_id changes mid-video at row {start + offset + 2}"
                )
        if np.any(np.isnan(matrix)):
            raise DataError(f"{path}: NaN feature value for {source_id!r}")
        features.append(FeatureMatrix(rows=matrix, source_id=source_id, label=label))
    return features


# ---------------------------------------------------------------------------
# Plot-data export (scatter of variance features by group)


def export_plot_data(rows, groups, path) -> None:
    """Columnar var_x,var_y,var_z,group file for external plotting tools."""
    x = np.asarray(rows, dtype=np.float64)
    groups = list(groups)
    if x.ndim != 2 or x.shape[1] != COORD_DIM:
        raise DataError(f"plot rows must be (M, {COORD_DIM}), got {x.shape}")
    if len(groups) != x.shape[0]:
        raise DataError(f"{x.shape[0]} rows vs {len(groups)} group entries")
    lines = [PLOT_HEADER]
    for row, group in zip(x, groups):
        vx, vy, vz = (_fmt(v) for v in row)
        lines.append(f"{vx},{vy},{vz},{group}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Trained model files


@dataclass(frozen=True)
class ModelFile:
    """Everything a classify/score run needs, plus training metadata."""

    covariance_mode: str
    params: MixtureParams
    stats: NormalizationStats
    label_map: ClusterLabelMap
    seed: int
    tol: float
    iterations: int
    final_log_likelihood: float
    silhouette: float


def save_model(model: ModelFile, path) -> None:
    lines = [
        MODEL_MAGIC,
        f"k={model.params.k}",
        f"covariance_mode={model.covariance_mode}",
        f"seed={model.seed}",
        f"tol={_fmt(model.tol)}",
        f"iterations={model.iterations}",
        f"final_log_likelihood={_fmt(model.final_log_likelihood)}",
        f"silhouette={_fmt(model.silhouette)}",
        "norm_mean=" + ",".join(_fmt(v) for v in model.stats.mean),
        "norm_std=" + ",".join(_fmt(v) for v in model.stats.std),
        "weights=" + ",".join(_fmt(v) for v in model.params.weights),
    ]
    for k, (mean, cov) in enumerate(zip(model.params.means, model.params.covs)):
        lines.append(f"component={k}")
        lines.append(f"label={model.label_map.labels[k]}")
        lines.append(f"confidence={_fmt(model.label_map.confidence[k])}")
        lines.append("mean=" + ",".join(_fmt(v) for v in mean))
        lines.append("cov=" + ",".join(_fmt(v) for v in cov.ravel()))
    lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n")


class _Cursor:
    def __init__(self, lines: list[str], path: Path):
        self.lines = lines
        self.pos = 0
        self.path = path

    def expect(self, key: str) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: file ends before '{key}'", field=key)
        line = self.lines[self.pos]
        self.pos += 1
        if not line.startswith(key + "="):
            raise ModelFormatError(
                f"{self.path}: expected '{key}=...', found {line!r}", field=key
            )
        return line[len(key) + 1:]


def _float_field(cursor: _Cursor, key: str) -> float:
    raw = cursor.expect(key)
    try:
        return float(raw)
    except ValueError as exc:
        raise ModelFormatError(f"{cursor.path}: bad float {raw!r}", field=key) from exc


def _vector_field(cursor: _Cursor, key: str, length: int) -> np.ndarray:
    raw = cursor.expect(key)
    cells = raw.split(",")
    if len(cells) != length:
        raise ModelFormatError(
            f"{cursor.path}: '{key}' holds {len(cells)} values, expected {length}", field=key
        )
    try:
        return np.array([float(c) for c in cells])
    except ValueError as exc:
        raise ModelFormatError(f"{cursor.path}: bad float in '{key}'", field=key) from exc


def load_model(path) -> ModelFile:
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(
            f"{path}: missing or unsupported version header (want '{MODEL_MAGIC}')",
            field="version",
        )
    cursor = _Cursor(lines[1:], path)

    raw_k = cursor.expect("k")
    try:
        k = int(raw_k)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad k {raw_k!r}", field="k") from exc
    if k < 1:
        raise ModelFormatError(f"{path}: k must be >= 1, got {k}", field="k")

    covariance_mode = cursor.expect("covariance_mode")
    if covariance_mode not in ("full", "diag"):
        raise ModelFormatError(
            f"{path}: unknown covariance_mode {covariance_mode!r}", field="covariance_mode"
        )
    raw_seed = cursor.expect("seed")
    try:
        seed = int(raw_seed)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad seed {raw_seed!r}", field="seed") from exc
    tol = _float_field(cursor, "tol")
    raw_iters = cursor.expect("iterations")
    try:
        iterations = int(raw_iters)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad iterations {raw_iters!r}", field="iterations") from exc
    final_ll = _float_field(cursor, "final_log_likelihood")
    sil = _float_field(cursor, "silhouette")

    mean = _vector_field(cursor, "norm_mean", COORD_DIM)
    std = _vector_field(cursor, "norm_std", COORD_DIM)
    if np.any(std <= 0):
        raise ModelFormatError(f"{path}: norm_std must be strictly positive", field="norm_std")
    stats = NormalizationStats(mean=mean, std=std)

    weights = _vector_field(cursor, "weights", k)
    if np.any(weights < 0) or np.any(weights > 1):
        raise ModelFormatError(f"{path}: weights must lie in [0, 1]", field="weights")
    weight_sum = float(weights.sum())
    if abs(weight_sum - 1.0) > 1e-9:
        raise ModelFormatError(
            f"{path}: weights sum to {weight_sum!r}, expected 1 within 1e-9", field="weights"
        )
    if abs(weight_sum - 1.0) > 1e-12:
        weights = weights / weight_sum

    means = np.empty((k, COORD_DIM))
    covs = np.empty((k, COORD_DIM, COORD_DIM))
    labels = []
    confidences = []
    for idx in range(k):
        raw_idx = cursor.expect("component")
        if raw_idx != str(idx):
            raise ModelFormatError(
                f"{path}: expected component {idx}, found {raw_idx!r}", field=f"component {idx}"
            )
        labels.append(cursor.expect("label"))
        conf = _float_field(cursor, "confidence")
        if not 0.0 <= conf <= 1.0:
            raise ModelFormatError(
                f"{path}: confidence {conf} outside [0, 1]", field=f"component {idx} confidence"
            )
        confidences.append(conf)
        means[idx] = _vector_field(cursor, "mean", COORD_DIM)
        covs[idx] = _vector_field(cursor, "cov", COORD_DIM * COORD_DIM).reshape(
            COORD_DIM, COORD_DIM
        )
    if cursor.pos >= len(cursor.lines) or cursor.lines[cursor.pos] != "end":
        raise ModelFormatError(f"{path}: missing 'end' sentinel", field="end")

    try:
        params = MixtureParams(means=means, covs=covs, weights=weights)
    except (NumericalError, DataError) as exc:
        raise ModelFormatError(f"{path}: {exc}", field="components") from exc
    label_map = ClusterLabelMap(labels=tuple(labels), confidence=tuple(confidences))
    return ModelFile(
        covariance_mode=covariance_mode,
        params=params,
        stats=stats,
        label_map=label_map,
        seed=seed,
        tol=tol,
        iterations=iterations,
        final_log_likelihood=final_ll,
        silhouette=sil,
    )
