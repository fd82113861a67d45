"""Independent reference implementations used to cross-check the package.

These deliberately follow textbook definitions with plain loops and no
numerical shortcuts; they are the other side of every dual-route check.
"""

from collections import Counter

import numpy as np


def direct_density(x, mean, cov):
    """Multivariate normal density evaluated straight from the formula."""
    d = len(mean)
    diff = np.asarray(x, dtype=float) - mean
    norm = np.sqrt((2 * np.pi) ** d * np.linalg.det(cov))
    return float(np.exp(-0.5 * diff @ np.linalg.inv(cov) @ diff) / norm)


def brute_force_silhouette(data, assignment):
    """Textbook per-point silhouette, explicit loops over points and clusters."""
    data = np.asarray(data, dtype=float)
    assignment = np.asarray(assignment)
    n = len(data)
    scores = []
    for i in range(n):
        own = assignment[i]
        same = [j for j in range(n) if assignment[j] == own and j != i]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean(np.array([np.sqrt(np.sum((data[i] - data[j]) ** 2)) for j in same]))
        b = np.inf
        for other in set(assignment.tolist()) - {own}:
            members = [j for j in range(n) if assignment[j] == other]
            d = np.mean(np.array([np.sqrt(np.sum((data[i] - data[j]) ** 2)) for j in members]))
            b = min(b, d)
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return scores


def per_point_silhouette(data, assignment, block_rows=256):
    """The silhouette point by point, as the package first computed it.

    Distances come from a (B, N, d) difference tensor, `block_rows` rows at a
    time; each point's a and b are means over its gathered cluster members.
    Returns (per_point, clusters, per_cluster_mean); the overall score is
    per_point.mean().
    """
    x = np.asarray(data, dtype=np.float64)
    labels = np.asarray(assignment)
    n = len(x)
    clusters = np.unique(labels)
    members = {int(c): np.nonzero(labels == c)[0] for c in clusters}
    per_point = np.zeros(n)
    for start in range(0, n, block_rows):
        diff = x[start:start + block_rows, None, :] - x[None, :, :]
        dist = np.sqrt(np.sum(np.square(diff, out=diff), axis=2))
        for i in range(start, start + dist.shape[0]):
            own = int(labels[i])
            mates = members[own]
            if mates.size == 1:
                continue  # singleton cluster: 0
            row = dist[i - start]
            a = row[mates[mates != i]].mean()
            b = min(row[members[int(c)]].mean() for c in clusters if int(c) != own)
            denom = max(a, b)
            per_point[i] = 0.0 if denom == 0.0 else (b - a) / denom
    per_cluster_mean = np.array([per_point[members[int(c)]].mean() for c in clusters])
    return per_point, clusters, per_cluster_mean


def kmeans_plus_plus(x, k, rng):
    """k-means++ seeding point by point: the first mean is a uniform draw, and
    each next one is drawn with probability proportional to a point's squared
    distance from the nearest mean chosen so far (uniformly when every distance
    is 0). Makes the package's calls on `rng`: integers(n), then choice(n, p=...)."""
    rows = np.asarray(x, dtype=np.float64).tolist()
    n = len(rows)
    chosen = [rows[rng.integers(n)]]
    while len(chosen) < k:
        dist_sq = [
            min(sum((a - b) * (a - b) for a, b in zip(row, mean)) for mean in chosen)
            for row in rows
        ]
        total = sum(dist_sq)
        index = rng.choice(n, p=np.array(dist_sq) / total) if total > 0 else rng.integers(n)
        chosen.append(rows[index])
    return np.array(chosen)


def population_variance(frames):
    """Per-landmark population variance of (F, 21, 3) frames as numpy defines
    it: np.var over the frame axis."""
    return np.var(np.asarray(frames, dtype=np.float64), axis=0)


def template_floats(rows):
    """An (R, C) float array as the text writers made it with one "%.17g" row
    template per row, joined by newlines and filled by a single %."""
    rows = np.asarray(rows, dtype=np.float64)
    r, c = rows.shape
    return "\n".join([",".join(["%.17g"] * c)] * r) % tuple(rows.ravel().tolist())


def tally_decision(posteriors, labels):
    """A video's decision counted by hand from its (rows, K) posteriors.

    Each row votes for its first maximal component; the label with the most
    votes wins, ties going to the smallest label, and the margin is the
    winner's count minus the best other label's (0 when there is none).
    Returns (votes, counts, winner, margin) with counts over the sorted labels.
    """
    votes = []
    for row in np.asarray(posteriors).tolist():
        best = max(row)
        votes.append((row.index(best), best))
    tally = Counter(labels[component] for component, _ in votes)
    counts = {label: tally[label] for label in sorted(set(labels))}
    winner = sorted(counts, key=lambda label: (-counts[label], label))[0]
    runner_up = max((n for label, n in counts.items() if label != winner), default=0)
    return votes, counts, winner, counts[winner] - runner_up
