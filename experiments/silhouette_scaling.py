"""Silhouette time and memory over rows N and clusters K, as one JSON table.

Usage: PYTHONPATH=src python experiments/silhouette_scaling.py > table.json

Each case is seeded blobs: K centres drawn uniformly from a cube whose side
grows as K^(1/3), so the blobs stay about as far apart as K grows, and N
points split evenly among them with unit normal spread. Each case runs at 1
and 2 processes, set through the CPU affinity the fan-out reads; it reports
the median wall time of 3 calls after one warm-up call, and the tracemalloc
peak of one further call. Needs only numpy and the standard library, and a
machine with at least 2 CPUs.
"""

import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from gesturemix import silhouette

SIZES = (1680, 4200, 16800)
RUNS = 3


def blobs(n, k, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-10.0, 10.0, size=(k, 3)) * k ** (1 / 3)
    assignment = rng.permutation(np.arange(n) % k)
    return centres[assignment] + rng.normal(size=(n, 3)), assignment


def measure(data, assignment):
    silhouette(data, assignment)
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        silhouette(data, assignment)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        silhouette(data, assignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak / 2**20


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        print("needs at least 2 usable CPUs", file=sys.stderr)
        return 1
    rows = []
    try:
        for n in SIZES:
            for k in (2, 4, 16, n // 4):
                data, assignment = blobs(n, k)
                for processes in (1, 2):
                    os.sched_setaffinity(0, cpus[:processes])
                    median_s, peak_mib = measure(data, assignment)
                    rows.append({"n": n, "k": k, "processes": processes,
                                 "median_s": round(median_s, 4), "peak_mib": round(peak_mib, 2)})
                    print(rows[-1], file=sys.stderr, flush=True)
    finally:
        os.sched_setaffinity(0, cpus)
    json.dump({"numpy": np.__version__, "runs": RUNS, "rows": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
