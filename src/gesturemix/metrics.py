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

# Bytes of each of the two (B, N) buffers, the distance block and its scratch:
# B = this // (8 N) rows, within [8, 256]. Sized by bytes rather than rows, so
# the pair stays near cache size as N grows; memory grows with N, not N squared.
_BLOCK_BYTES = 2**20


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
    clusters, index = np.unique(labels, return_inverse=True)
    if clusters.size < 2:
        raise DataError("silhouette needs at least 2 distinct clusters")

    # Columns sorted by cluster, stably, so every cluster is one slice
    # [bounds[c], bounds[c + 1]) holding its members in their original order.
    order = np.argsort(index, kind="stable")
    counts = np.bincount(index)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    x_sorted = x[order]
    columns = [np.ascontiguousarray(x_sorted[:, j]) for j in range(x.shape[1])]
    block_rows = min(max(_BLOCK_BYTES // (8 * n), 8), 256)
    dist_buffer = np.empty((block_rows, n))
    square_buffer = np.empty((block_rows, n))
    scores = np.zeros(n)  # in sorted order
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        block = x_sorted[start:stop]
        dist, square = dist_buffer[:stop - start], square_buffer[:stop - start]
        # squared coordinate differences added x, then y, then z: the order a
        # sum over the last axis of a (B, N, 3) difference tensor adds them in
        np.square(np.subtract.outer(block[:, 0], columns[0], out=dist), out=dist)
        for j in range(1, len(columns)):
            dist += np.square(np.subtract.outer(block[:, j], columns[j], out=square), out=square)
        np.sqrt(dist, out=dist)
        # mean distance of every block row to every cluster; a row sum over a
        # cluster's slice adds the same values in the same order as mean() over
        # its gathered members, so a and b are bit-identical to the definition
        to_cluster = np.column_stack(
            [dist[:, lo:hi].sum(axis=1) / m for lo, hi, m in zip(bounds, bounds[1:], counts)]
        )
        for c, (lo, hi, m) in enumerate(zip(bounds, bounds[1:], counts)):
            first, last = max(lo, start), min(hi, stop)
            if first >= last or m == 1:
                continue  # no rows in this block, or the singleton convention (0)
            rows = slice(first - start, last - start)
            own = dist[rows, lo:hi]
            others = np.ones(own.shape, dtype=bool)
            others[np.arange(last - first), np.arange(first - lo, last - lo)] = False  # self columns
            a = own[others].reshape(last - first, m - 1).sum(axis=1) / (m - 1)
            b = np.delete(to_cluster[rows], c, axis=1).min(axis=1)
            denom = np.maximum(a, b)
            np.divide(b - a, denom, out=scores[first:last], where=denom != 0.0)

    per_point = np.empty(n)
    per_point[order] = scores
    per_cluster_mean = np.array([scores[lo:hi].mean() for lo, hi in zip(bounds, bounds[1:])])
    return SilhouetteReport(
        overall=float(per_point.mean()),
        per_point=per_point,
        clusters=clusters,
        per_cluster_mean=per_cluster_mean,
    )
