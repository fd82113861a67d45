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
from .landmarks import as_assignment, as_rows
from .parallel import fan_out

# Bytes of each of the two (B, N) buffers, the distance block and its scratch:
# B = this // (8 N) rows, within [8, 256]. Sized by bytes rather than rows, so
# the pair stays near cache size as N grows. Each process writes its own
# copy-on-write pair, so memory is about 2 MiB per process: it grows with N,
# not N squared.
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
    # squares added in score_block's order; a finite bound keeps every
    # difference, square, sum, a, b and b - a there finite.
    with np.errstate(over="ignore"):
        reach = sum(np.square(x.max(axis=0) - x.min(axis=0)))
    if not np.isfinite(reach):
        raise DataError("silhouette data spans too wide a range to square in double precision")

    # Columns sorted by cluster, stably, so every cluster is one slice
    # [bounds[c], bounds[c + 1]) holding its members in their original order.
    order = np.argsort(index, kind="stable")
    counts = np.bincount(index)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    x_sorted = x[order]
    columns = [np.ascontiguousarray(x_sorted[:, j]) for j in range(x.shape[1])]
    block_rows = min(max(_BLOCK_BYTES // (8 * n), 8), 256)
    scores = np.zeros(n)  # in sorted order
    slices = list(zip(bounds, bounds[1:], counts))
    # every block lies inside one cluster c; a singleton cluster has none, so
    # its score stays 0 by the singleton convention
    blocks = [
        (c, start)
        for c, (lo, hi, m) in enumerate(slices) if m > 1
        for start in range(lo, hi, block_rows)
    ]

    # allocated before fan_out forks, so every process writes its own pair
    dist_buffer = np.empty((block_rows, n))
    square_buffer = np.empty((block_rows, n))

    def score_block(task):
        """The scores of block (c, start): sorted rows start up to its end."""
        c, start = task
        lo, hi, m = slices[c]
        stop = min(start + block_rows, hi)
        block = x_sorted[start:stop]
        dist, square = dist_buffer[:stop - start], square_buffer[:stop - start]
        # squared coordinate differences added x, then y, then z: the order a
        # sum over the last axis of a (B, N, 3) difference tensor adds them in
        np.square(np.subtract.outer(block[:, 0], columns[0], out=dist), out=dist)
        for j in range(1, len(columns)):
            np.subtract.outer(block[:, j], columns[j], out=square)
            dist += np.square(square, out=square)
        np.sqrt(dist, out=dist)
        # a row sum over a cluster's slice adds the same values in the same
        # order as mean() over its gathered members, so a and b are
        # bit-identical to the definition
        b = np.min([
            dist[:, o_lo:o_hi].sum(axis=1) / o_m
            for o, (o_lo, o_hi, o_m) in enumerate(slices) if o != c
        ], axis=0)
        own = dist[:, lo:hi]
        not_self = np.ones(own.shape, dtype=bool)
        not_self[np.arange(stop - start), np.arange(start - lo, stop - lo)] = False
        a = own[not_self].reshape(stop - start, m - 1).sum(axis=1) / (m - 1)
        denom = np.maximum(a, b)
        return np.divide(b - a, denom, out=np.zeros(stop - start), where=denom != 0.0)

    # Each process takes every w-th block, so clusters of unequal size still
    # balance; a block is scored from the same values in the same order in
    # whichever process runs it.
    for (_, start), block_scores in zip(blocks, fan_out(score_block, blocks)):
        scores[start:start + block_scores.size] = block_scores

    per_point = np.empty(n)
    per_point[order] = scores
    per_cluster_mean = np.array([scores[lo:hi].mean() for lo, hi, _ in slices])
    return SilhouetteReport(
        overall=float(per_point.mean()),
        per_point=per_point,
        clusters=clusters,
        per_cluster_mean=per_cluster_mean,
    )
