"""Silhouette score for judging how well the mixture separated the gestures.

For point i with cluster mates C(i): a(i) is its mean Euclidean distance to
the other members of C(i), b(i) the smallest mean distance to any other
cluster, and s(i) = (b - a) / max(a, b) in [-1, 1]. Points in singleton
clusters (and points where a = b = 0) score 0. The overall score is the mean
of the per-point values.

b(i) needs only the nearest other cluster in full: the mean distance from x_i
to cluster o lies between L = ||x_i - mu_o|| (Jensen's inequality) and L + r_o
(the triangle inequality), for o's centroid mu_o and mean radius r_o. A point
sums its own cluster, its candidate (the other cluster of least L + r_o) and
any cluster with L <= b + margin, b being the least mean summed. L is computed
on the data shifted to its minimum and scaled by 2**-e into [0, 1], 2**e
being the power of two above the widest span, so it cannot overflow and an
underflow moves it by under 1e-161 * 2**e. The margin, 1e-8 * 2**e plus 1e-150
for what underflowed squares change in a distance, is far above the rounding
of a centroid, L or a mean for clusters of under 10**7 points: no skipped
cluster holds a mean below b, and scaling by a power of two keeps the skips.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .landmarks import as_assignment, as_rows
from .parallel import fan_out

# Bytes of each of the two distance buffers, and of a block's (B, m) tile to
# its own cluster and B x K bounds: B = this // (8 max(K, largest m)) rows,
# within [8, 256]. Sized by bytes rather than rows, so a tile stays near cache
# size as N grows; wider tiles are scored a few rows at a time. Each process
# writes its own copy-on-write pair, of at least 8 rows of N: memory grows
# with N, not N squared, whatever K is.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class SilhouetteReport:
    overall: float
    per_point: np.ndarray
    clusters: np.ndarray
    per_cluster_mean: np.ndarray


def silhouette(data, assignment) -> SilhouetteReport:
    """Silhouette report for a hard cluster assignment.

    Data holding NaN or an infinite value is a DataError, and so is data too
    widely spread for its largest squared distance to be finite, so accepted
    data scores without a floating-point warning in any process.
    """
    x = as_rows(data)
    n = x.shape[0]
    labels = as_assignment(assignment, n)
    if n < 3:
        raise DataError("silhouette needs at least 3 points")
    clusters, index = np.unique(labels, return_inverse=True)
    if clusters.size < 2:
        raise DataError("silhouette needs at least 2 distinct clusters")
    # Rounding is monotone, so no squared distance exceeds the column spans'
    # squares added in distances' order; a finite bound keeps every
    # difference, square, sum, a, b and b - a there finite.
    with np.errstate(over="ignore"):
        span = x.max(axis=0) - x.min(axis=0)
        reach = sum(np.square(span))
    if not np.isfinite(reach):
        raise DataError("silhouette data spans too wide a range to square in double precision")

    # Columns sorted by cluster, stably, so every cluster is one slice
    # [bounds[c], bounds[c + 1]) holding its members in their original order.
    order = np.argsort(index, kind="stable")
    counts = np.bincount(index)
    k = counts.size
    bounds = np.concatenate(([0], np.cumsum(counts)))
    own = np.repeat(np.arange(k), counts)  # each sorted point's cluster
    x_sorted = x[order]

    e = np.frexp(span.max())[1]  # 2**e exceeds every span
    with np.errstate(under="ignore"):
        unit = np.ldexp(x_sorted - x.min(axis=0), -e)
        centroids = np.add.reduceat(unit, bounds[:-1]) / counts[:, None]
        spread = np.add.reduceat(np.linalg.norm(unit - centroids[own], axis=1), bounds[:-1])
        radii, margin = np.ldexp(spread / counts, e), np.ldexp(1e-8, e) + 1e-150

    def lower_bounds(rows):
        """(B, K) values of L for the sorted points rows, infinite at their own cluster."""
        with np.errstate(under="ignore"):
            square = sum(np.square(unit[rows, j, None] - centroids[:, j]) for j in range(x.shape[1]))
            lower = np.ldexp(np.sqrt(square), e)
        lower[np.arange(rows.size), own[rows]] = np.inf
        return lower

    block_rows = min(max(_BLOCK_BYTES // (8 * max(counts.max(), k)), 8), 256)
    capacity = max(_BLOCK_BYTES // 8, 8 * n)  # floats in each buffer
    chunks = np.split(np.arange(n), np.arange(capacity // k, n, capacity // k))
    candidate = np.concatenate([(lower_bounds(rows) + radii).argmin(axis=1) for rows in chunks])
    # each cluster's points ordered by candidate, so most blocks share one; a
    # singleton cluster has no block, so its score stays 0 by convention
    ranked = np.lexsort((candidate, own))
    blocks = [rows for lo, hi, m in zip(bounds, bounds[1:], counts) if m > 1
              for rows in np.split(ranked[lo:hi], np.arange(block_rows, m, block_rows))]
    # allocated before fan_out forks, so every process writes its own pair
    buffers = np.empty((2, capacity))

    def distances(points, cols):
        """(P, C) distances from the points to the sorted points cols."""
        targets = np.ascontiguousarray(x_sorted[cols].T)
        size = targets[0].size * len(points)
        dist, square = (buffer[:size].reshape(len(points), -1) for buffer in buffers)
        # squared coordinate differences added x, then y, then z: the order a
        # sum over the last axis of a (P, C, 3) difference tensor adds them in.
        # A smaller ufunc buffer keeps narrow tiles fast; sums keep numpy's.
        bufsize = np.setbufsize(1024)
        try:
            np.square(np.subtract.outer(points[:, 0], targets[0], out=dist), out=dist)
            for j in range(1, len(targets)):
                np.subtract.outer(points[:, j], targets[j], out=square)
                dist += np.square(square, out=square)
            np.sqrt(dist, out=dist)
        finally:
            np.setbufsize(bufsize)
        return dist

    def nearest(points, chosen):
        """Each point's least mean distance to the chosen clusters."""
        cols = np.flatnonzero(np.bincount(chosen, minlength=k)[own])
        edges = np.concatenate(([0], np.cumsum(counts[chosen])))
        step = capacity // max(cols.size, 1)
        least = np.empty(len(points))
        for start in range(0, len(points), step):
            dist = distances(points[start:start + step], cols)
            least[start:start + step] = np.min([np.add.reduce(dist[:, lo:hi], axis=1) / counts[o]
                                                for o, lo, hi in zip(chosen, edges, edges[1:])], axis=0)
        return least

    def score_block(rows):
        """The scores of the sorted points rows, all of one cluster."""
        c, points = own[rows[0]], x_sorted[rows]
        # a row sum over a cluster's members adds the same values in the same
        # order as mean() over its gathered members: a and b are bit-identical
        dist = distances(points, slice(bounds[c], bounds[c + 1]))
        not_self = np.ones(dist.shape, dtype=bool)
        not_self[np.arange(rows.size), rows - bounds[c]] = False
        a = dist[not_self].reshape(rows.size, -1).sum(axis=1) / (counts[c] - 1)
        chosen = np.unique(candidate[rows])
        b = nearest(points, chosen)
        if chosen.size < k - 1:
            near = lower_bounds(rows) <= (b + margin)[:, None]
            near[:, chosen] = False
            some = near.any(axis=1)
            b[some] = np.minimum(b[some], nearest(points[some], np.flatnonzero(near.any(axis=0))))
        denom = np.maximum(a, b)
        return np.divide(b - a, denom, out=np.zeros(rows.size), where=denom != 0.0)

    # Each process takes every w-th block, so clusters of unequal size still
    # balance; a block is scored from the same values in the same order in
    # whichever process runs it.
    scores = np.zeros(n)  # in sorted order
    for rows, block_scores in zip(blocks, fan_out(score_block, blocks)):
        scores[rows] = block_scores

    per_point = np.empty(n)
    per_point[order] = scores
    per_cluster_mean = np.array([scores[lo:hi].mean() for lo, hi in zip(bounds, bounds[1:])])
    return SilhouetteReport(
        overall=float(per_point.mean()),
        per_point=per_point,
        clusters=clusters,
        per_cluster_mean=per_cluster_mean,
    )
