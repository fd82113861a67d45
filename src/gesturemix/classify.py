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
from .landmarks import FeatureMatrix, NormalizationStats, apply_normalization, check_names


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
        for label in self.labels:
            check_names(label=label)

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


def build_label_map(assignment, row_labels: Sequence[str], k: int) -> ClusterLabelMap:
    """Majority label per component over the training rows.

    `assignment[i]` is the component of training row i (the argmax of its
    responsibilities) and `row_labels[i]` its gesture. A component that owns no
    rows is degenerate and rejected.
    """
    assignment = np.asarray(assignment)
    if assignment.shape != (len(row_labels),):
        raise DataError(f"{assignment.shape} assignments for {len(row_labels)} row labels")
    labels = []
    confidence = []
    for comp in range(k):
        owned = [row_labels[i] for i in np.nonzero(assignment == comp)[0]]
        if not owned:
            raise DataError(f"component {comp} received no training rows; training degenerate")
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

    Each row votes for its maximum-posterior component, ties going to the
    lowest index. Vote-count ties between gestures break toward the
    lexicographically smallest label.
    """
    if label_map.k != params.k:
        raise DataError(f"label map has {label_map.k} entries for {params.k} components")
    resp = e_step(apply_normalization(features.rows, stats), params)
    votes = tuple(zip(np.argmax(resp, axis=1).tolist(), np.max(resp, axis=1).tolist()))

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
