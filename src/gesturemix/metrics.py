"""Silhouette score for judging how well the mixture separated the gestures.

For point i with cluster mates C(i): a(i) is its mean Euclidean distance to
the other members of C(i), b(i) the smallest mean distance to any other
cluster, and s(i) = (b - a) / max(a, b) in [-1, 1]. Points in singleton
clusters (and points where a = b = 0) score 0. The overall score is the mean
of the per-point values.
"""

import contextvars
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Bytes of each of the two (B, N) buffers, the distance block and its scratch:
# B = this // (8 N) rows, within [8, 256]. Sized by bytes rather than rows, so
# the pair stays near cache size as N grows. Every thread has its own pair, so
# memory is about 2 MiB per thread: it grows with N, not N squared.
_BLOCK_BYTES = 2**20


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    scores = np.zeros(n)  # in sorted order
    slices = list(zip(bounds, bounds[1:], counts))
    # every block lies inside one cluster c; a singleton cluster has none, so
    # its score stays 0 by the singleton convention
    blocks = [
        (c, start)
        for c, (lo, hi, m) in enumerate(slices) if m > 1
        for start in range(lo, hi, block_rows)
    ]

    def score_blocks(share):
        """Fill scores[start:stop] for every block in the share, in two buffers
        of this thread's own."""
        dist_buffer = np.empty((block_rows, n))
        square_buffer = np.empty((block_rows, n))
        for c, start in share:
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
            np.divide(b - a, denom, out=scores[start:stop], where=denom != 0.0)

    # The calling thread and one worker per further usable CPU each take every
    # w-th block, so clusters of unequal size still balance. numpy releases the
    # GIL inside each ufunc on a buffer, so the distance builds overlap. A block
    # is scored from the same values in the same order whichever thread runs it,
    # and the threads write disjoint slices of scores. Each worker runs in a copy
    # of the caller's context, so the caller's np.errstate holds there too.
    # imported here: concurrent.futures (with the logging it loads) adds about
    # 9 ms to every start of the CLI, and only train and score need it
    from concurrent.futures import ThreadPoolExecutor

    w = max(min(_usable_cpus(), len(blocks)), 1)
    with ThreadPoolExecutor(max_workers=max(w - 1, 1)) as pool:  # joined on exit
        workers = [
            pool.submit(contextvars.copy_context().run, score_blocks, blocks[i::w])
            for i in range(1, w)
        ]
        score_blocks(blocks[0::w])
        for worker in workers:
            worker.result()  # re-raises a worker's error here

    per_point = np.empty(n)
    per_point[order] = scores
    per_cluster_mean = np.array([scores[lo:hi].mean() for lo, hi, _ in slices])
    return SilhouetteReport(
        overall=float(per_point.mean()),
        per_point=per_point,
        clusters=clusters,
        per_cluster_mean=per_cluster_mean,
    )
