"""Cluster-to-gesture labeling and per-landmark voting classification.

Each of a video's 21 feature rows casts one vote: the mixture component with
the maximum posterior for that row. The video is assigned the gesture whose
mapped components collect the most votes.
"""

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .gmm import MixtureParams, e_step
from .landmarks import (FeatureMatrix, NormalizationStats, apply_normalization, as_assignment,
                        as_sequence, check_each_name, check_numbers)


@dataclass(frozen=True)
class ClusterLabelMap:
    """Learned correspondence between component indices and gesture names.

    `confidence[k]` is the fraction of training rows assigned to component k
    that carry its majority label; below 1.0 means the component is impure.
    `distinct_labels`, the sorted set of labels, is computed once when the map
    is built.
    """

    labels: tuple[str, ...]
    confidence: tuple[float, ...]
    distinct_labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("labels", "confidence"):
            object.__setattr__(self, name, as_sequence(getattr(self, name), name))
        if len(self.labels) != len(self.confidence):
            raise DataError("one confidence value per cluster label required")
        if len(self.labels) < 1:
            raise DataError("label map cannot be empty")
        for c in self.confidence:
            check_numbers(float, confidence=c)
            if not 0.0 <= c <= 1.0:
                raise DataError("confidences must lie in [0, 1]")
        check_each_name(self.labels, "label")
        object.__setattr__(self, "distinct_labels", tuple(sorted(set(self.labels))))

    @property
    def k(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ClassificationResult:
    """Votes of the 21 landmark rows and the winning gesture."""

    source_id: str
    votes: tuple[tuple[int, float], ...]
    counts: dict[str, int]
    winner: str
    margin: int


def _majority(counts) -> str:
    """The label with the most votes, ties going to the lexicographically smallest."""
    best = max(counts.values())
    return min(lbl for lbl, cnt in counts.items() if cnt == best)


def build_label_map(assignment, row_labels: Sequence[str], k: int) -> ClusterLabelMap:
    """Majority label per component over the training rows.

    `assignment[i]` is the component of training row i (the argmax of its
    responsibilities) and `row_labels[i]` its gesture. A component that owns no
    rows is degenerate and rejected.
    """
    check_numbers(int, 1, k=k)
    assignment = as_assignment(assignment, len(row_labels))
    if not np.all((assignment >= 0) & (assignment < k)):
        raise DataError(f"assignment holds a component outside 0..{k - 1}")
    check_each_name(row_labels, "label")  # before any vote compares them
    labels = []
    confidence = []
    for comp in range(k):
        owned = [row_labels[i] for i in np.nonzero(assignment == comp)[0]]
        if not owned:
            raise DataError(f"component {comp} received no training rows; training degenerate")
        tally = Counter(owned)
        best_label = _majority(tally)
        labels.append(best_label)
        confidence.append(tally[best_label] / len(owned))
    return ClusterLabelMap(labels=labels, confidence=confidence)


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
    resp = e_step(apply_normalization(features.rows, stats), params).T  # (K, rows)
    clusters = resp.argmax(axis=0).tolist()
    votes = tuple(zip(clusters, np.maximum.reduce(resp, axis=0).tolist()))

    labels = label_map.labels
    counts = dict.fromkeys(label_map.distinct_labels, 0)
    for cluster in clusters:
        counts[labels[cluster]] += 1
    winner = _majority(counts)
    best = counts[winner]
    runner_up = max((cnt for lbl, cnt in counts.items() if lbl != winner), default=0)
    return ClassificationResult(
        source_id=features.source_id,
        votes=votes,
        counts=counts,
        winner=winner,
        margin=best - runner_up,
    )

