"""Cluster-to-gesture labeling and per-landmark voting classification.

Each of a video's 21 feature rows casts one vote: the mixture component with
the maximum posterior for that row. The video is assigned the gesture whose
mapped components collect the most votes.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .gmm import MixtureParams, e_step
from .landmarks import LANDMARK_COUNT, FeatureMatrix, NormalizationStats, apply_normalization


@dataclass(frozen=True)
class ClusterLabelMap:
    """Learned correspondence between component indices and gesture names.

    `confidence[k]` is the fraction of training rows assigned to component k
    that carry its majority label; below 1.0 means the component is impure.
    """

    labels: tuple[str, ...]
    confidence: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.confidence):
            raise DataError("one confidence value per cluster label required")
        if len(self.labels) < 1:
            raise DataError("label map cannot be empty")
        if any(not (0.0 <= c <= 1.0) for c in self.confidence):
            raise DataError("confidences must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.labels)

    def label_for(self, cluster: int) -> str:
        return self.labels[cluster]

    @property
    def distinct_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.labels)))


@dataclass(frozen=True)
class ClassificationResult:
    """Votes of the 21 landmark rows and the winning gesture."""

    source_id: str
    votes: tuple[tuple[int, float], ...]
    counts: dict[str, int]
    winner: str
    margin: int


def vote(posteriors) -> tuple[int, float]:
    """Argmax over one posterior row; ties break toward the lowest index."""
    p = np.asarray(posteriors, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 1:
        raise DataError("posterior row must be a 1-d vector")
    idx = int(np.argmax(p))
    return idx, float(p[idx])


def build_label_map(
    train_features: Sequence[FeatureMatrix], params: MixtureParams
) -> ClusterLabelMap:
    """Majority label per component over the (normalized) training rows.

    Every training matrix must carry a label. A component that attracts no
    rows is degenerate and rejected.
    """
    if len(train_features) == 0:
        raise DataError("no training features")
    unlabeled = [f.source_id for f in train_features if f.label is None]
    if unlabeled:
        raise DataError(f"unlabeled training features: {unlabeled[:3]}")
    rows = np.vstack([f.rows for f in train_features])
    row_labels = [f.label for f in train_features for _ in range(LANDMARK_COUNT)]
    assignment = np.argmax(e_step(rows, params), axis=1)

    labels = []
    confidence = []
    for k in range(params.k):
        owned = [row_labels[i] for i in np.nonzero(assignment == k)[0]]
        if not owned:
            raise DataError(f"component {k} received no training rows; training degenerate")
        tally = Counter(owned)
        # deterministic tie rule: highest count, then lexicographically smallest
        best_count = max(tally.values())
        best_label = min(lbl for lbl, cnt in tally.items() if cnt == best_count)
        labels.append(best_label)
        confidence.append(tally[best_label] / len(owned))
    return ClusterLabelMap(labels=tuple(labels), confidence=tuple(confidence))


def classify_video(
    features: FeatureMatrix,
    params: MixtureParams,
    label_map: ClusterLabelMap,
    stats: NormalizationStats,
) -> ClassificationResult:
    """Normalize a raw feature matrix, vote all 21 rows, and pick the majority gesture.

    Vote-count ties between gestures break toward the lexicographically
    smallest label.
    """
    if label_map.k != params.k:
        raise DataError(f"label map has {label_map.k} entries for {params.k} components")
    if features.normalized:
        raise DataError("classify_video expects raw (un-normalized) features")
    normed = apply_normalization(features, stats)
    resp = e_step(normed.rows, params)
    votes = tuple(vote(resp[i]) for i in range(resp.shape[0]))

    counts = {label: 0 for label in label_map.distinct_labels}
    for cluster, _ in votes:
        counts[label_map.label_for(cluster)] += 1
    best = max(counts.values())
    winner = min(lbl for lbl, cnt in counts.items() if cnt == best)
    runner_up = max((cnt for lbl, cnt in counts.items() if lbl != winner), default=0)
    return ClassificationResult(
        source_id=features.source_id,
        votes=votes,
        counts=counts,
        winner=winner,
        margin=best - runner_up,
    )


def record_header(label_map: ClusterLabelMap) -> str:
    cols = ",".join(f"count_{lbl}" for lbl in label_map.distinct_labels)
    return f"source_id,winner,margin,{cols}"


def result_record(result: ClassificationResult, label_map: ClusterLabelMap) -> str:
    """One-line serialization: source_id,winner,margin,count_g1,...,count_gK."""
    counts = ",".join(str(result.counts[lbl]) for lbl in label_map.distinct_labels)
    return f"{result.source_id},{result.winner},{result.margin},{counts}"
