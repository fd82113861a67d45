"""`train` on corpora of G synthetic gestures, as one JSON table.

Usage: PYTHONPATH=src python experiments/gesture_count.py > table.json

Each draw picks G distinct profiles from the 27 whose axis amplitudes each
take one of AMP_SMALL, AMP_MID and AMP_LARGE, with NOISE_STD jitter, named
g00, g01, ... in draw order. It trains on 20 videos per gesture (corpus seed
= draw) through `gesturemix train` with its defaults (K = G, seed 0) and
classifies 20 held-out videos per gesture (corpus seed = 100 + draw) with the
model written. Per draw it records the exit code, the labels that own a
component, the held-out accuracy and the sha256 of `model.gmm` (both null when
no model was written), the EM iterations, the log-likelihood gained over the
last 100 of them (null below 100), the seconds spent in `fit`, whether the
restart screen ran and which start was kept. `fit` and `build_label_map` are
wrapped where the CLI looks them up, so the script runs unchanged on any
version of the package whose CLI calls them by those names. Needs only numpy
and the standard library.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from gesturemix import GestureProfile, cli, compute_variances, generate_dataset
from gesturemix.io import write_feature_csv
from gesturemix.synth import AMP_LARGE, AMP_MID, AMP_SMALL, NOISE_STD

TRIPLES = tuple(itertools.product((AMP_SMALL, AMP_MID, AMP_LARGE), repeat=3))
DRAWS = {4: 3, 8: 3, 12: 3, 16: 3, 27: 1}
VIDEOS, FRAMES = 20, 150


def draw_profiles(g, draw):
    """G of the 27 amplitude triples, chosen by a generator seeded (g, draw)."""
    chosen = np.random.default_rng([g, draw]).choice(len(TRIPLES), size=g, replace=False)
    return [GestureProfile(name=f"g{i:02d}", axis_amplitudes=TRIPLES[j], noise_std=NOISE_STD)
            for i, j in enumerate(chosen)]


def write_corpus(profiles, seed, path):
    """The corpus's feature CSV, in the row order `train` reads a video directory in."""
    videos = sorted(generate_dataset(profiles, videos_per_profile=VIDEOS, frames=FRAMES, seed=seed),
                    key=lambda v: v.source_id)
    write_feature_csv([compute_variances(v) for v in videos], path)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


@contextlib.contextmanager
def captured(seen):
    """Record what `train`'s fit and label map return, and the fit's seconds."""
    fit, build_label_map = cli.fit, cli.build_label_map

    def timed_fit(*args, **kwargs):
        start = time.perf_counter()
        seen["fit"] = fit(*args, **kwargs)
        seen["fit_s"] = time.perf_counter() - start
        return seen["fit"]

    def kept_label_map(*args, **kwargs):
        seen["label_map"] = build_label_map(*args, **kwargs)
        return seen["label_map"]

    cli.fit, cli.build_label_map = timed_fit, kept_label_map
    try:
        yield
    finally:
        cli.fit, cli.build_label_map = fit, build_label_map


def measure(g, draw, work):
    profiles = draw_profiles(g, draw)
    train_csv, held_out_csv, model = work / "train.csv", work / "held_out.csv", work / "model"
    write_corpus(profiles, draw, train_csv)
    write_corpus(profiles, 100 + draw, held_out_csv)
    seen = {}
    with captured(seen):
        code, _ = run_cli("train", "--input", str(train_csv), "--output", str(model))
    accuracy = model_sha256 = None
    if code == 0:
        model_sha256 = hashlib.sha256((model / "model.gmm").read_bytes()).hexdigest()
        _, stdout = run_cli("classify", "--model", str(model / "model.gmm"), "--input", str(held_out_csv))
        (line,) = [line for line in stdout.splitlines() if line.startswith("accuracy=")]
        accuracy = float(line.split()[0].split("=")[1])
    trace = seen["fit"][2]
    lls = trace.log_likelihoods
    return {
        "g": g, "draw": draw, "exit_code": code,
        "labels_owned": len(set(seen["label_map"].labels)) if "label_map" in seen else None,
        "held_out_accuracy": accuracy, "model_sha256": model_sha256,
        "iterations": trace.n_iters,
        "ll_gain_last_100": lls[-1] - lls[-101] if trace.n_iters >= 100 else None,
        "fit_s": round(seen["fit_s"], 4),
        "screened": bool(trace.screened), "start_kept": trace.start,
    }


def main() -> int:
    rows = []
    for g, draws in DRAWS.items():
        for draw in range(draws):
            with tempfile.TemporaryDirectory() as work:
                rows.append(measure(g, draw, Path(work)))
            print(rows[-1], file=sys.stderr, flush=True)
    json.dump({"numpy": np.__version__, "videos_per_gesture": VIDEOS, "rows": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
