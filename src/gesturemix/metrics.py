"""Silhouette score for judging how well the mixture separated the gestures.

For point i with cluster mates C(i): a(i) is its mean Euclidean distance to
the other members of C(i), b(i) the smallest mean distance to any other
cluster, and s(i) = (b - a) / max(a, b) in [-1, 1]. Points in singleton
clusters (and points where a = b = 0) score 0. The overall score is the mean
of the per-point values.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Rows of the distance matrix held at once: memory grows with this times N,
# not with N squared.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class SilhouetteReport:
    overall: float
    per_point: np.ndarray
    clusters: np.ndarray
    per_cluster_mean: np.ndarray

    def to_text(self) -> str:
        lines = [f"silhouette_overall={self.overall:.17g}"]
        for cluster, mean in zip(self.clusters, self.per_cluster_mean):
            lines.append(f"silhouette_cluster_{int(cluster)}={mean:.17g}")
        return "\n".join(lines)


def silhouette(data, assignment) -> SilhouetteReport:
    """Silhouette report for a hard cluster assignment."""
    x = np.asarray(data, dtype=np.float64)
    labels = np.asarray(assignment)
    if x.ndim != 2:
        raise DataError("data must be an (N, d) array")
    n = x.shape[0]
    if labels.shape != (n,):
        raise DataError("one cluster index per data point required")
    if n < 3:
        raise DataError("silhouette needs at least 3 points")
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise DataError("silhouette needs at least 2 distinct clusters")

    members = {int(c): np.nonzero(labels == c)[0] for c in clusters}
    per_point = np.zeros(n)
    for start in range(0, n, _BLOCK_ROWS):
        diff = x[start:start + _BLOCK_ROWS, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
        for i in range(start, start + dist.shape[0]):
            own = int(labels[i])
            mates = members[own]
            if mates.size == 1:
                per_point[i] = 0.0  # singleton cluster convention
                continue
            row = dist[i - start]
            a = row[mates[mates != i]].mean()
            b = min(row[members[int(c)]].mean() for c in clusters if int(c) != own)
            denom = max(a, b)
            per_point[i] = 0.0 if denom == 0.0 else (b - a) / denom

    per_cluster_mean = np.array([per_point[members[int(c)]].mean() for c in clusters])
    return SilhouetteReport(
        overall=float(per_point.mean()),
        per_point=per_point,
        clusters=clusters,
        per_cluster_mean=per_cluster_mean,
    )
