"""`train` on corpora of G synthetic gestures, as one JSON table.

Usage: PYTHONPATH=src python experiments/gesture_count.py > table.json

Each draw picks G distinct profiles from the 27 whose axis amplitudes each
take one of AMP_SMALL, AMP_MID and AMP_LARGE, with NOISE_STD jitter, named
g00, g01, ... in draw order. It trains on 20 videos per gesture (corpus seed
= draw) through `gesturemix train` with its defaults (K = G, seed 0) and
classifies 20 held-out videos per gesture (corpus seed = 100 + draw) with the
model written. The last row is the default corpus (`synth --seed 0`'s four
profiles, held out at seed 100). Per draw it records the exit code, the labels
that own a component, the held-out accuracy and the sha256 of `model.gmm` (both
null when no model was written), the EM iterations, the log-likelihood gained
over the last 100 of them (null below 100), the seconds spent in `fit`, whether
the restart screen ran and which start was kept.

Each draw is trained a second time with a per-point tolerance, |dL| / N below
PER_POINT_TOL for N training rows, which is `--tol` = PER_POINT_TOL * N. Under
`per_point_tol` the row records that run's exit code, iterations, fit seconds
and held-out accuracy, and whether its `model.gmm` has the first run's sha256.

`fit` and `build_label_map` are wrapped where the CLI looks them up, so the
script runs unchanged on any version of the package whose CLI calls them by
those names. Needs only numpy and the standard library.
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

from gesturemix import GestureProfile, cli, compute_variances, default_profiles, generate_dataset
from gesturemix.io import write_feature_csv
from gesturemix.synth import AMP_LARGE, AMP_MID, AMP_SMALL, NOISE_STD

TRIPLES = tuple(itertools.product((AMP_SMALL, AMP_MID, AMP_LARGE), repeat=3))
DRAWS = {4: 3, 8: 3, 12: 3, 16: 3, 27: 1}
VIDEOS, FRAMES = 20, 150
PER_POINT_TOL = 1e-6


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


def train(train_csv, held_out_csv, model, *flags):
    """`train` with `flags`, then `classify` on the held-out corpus: (row, what was seen)."""
    seen = {}
    with captured(seen):
        code, _ = run_cli("train", "--input", str(train_csv), "--output", str(model), *flags)
    accuracy = model_sha256 = None
    if code == 0:
        model_sha256 = hashlib.sha256((model / "model.gmm").read_bytes()).hexdigest()
        _, stdout = run_cli("classify", "--model", str(model / "model.gmm"), "--input", str(held_out_csv))
        (line,) = [line for line in stdout.splitlines() if line.startswith("accuracy=")]
        accuracy = float(line.split()[0].split("=")[1])
    return {"exit_code": code, "held_out_accuracy": accuracy, "model_sha256": model_sha256,
            "iterations": seen["fit"][2].n_iters, "fit_s": round(seen["fit_s"], 4)}, seen


def measure(g, draw, profiles, seed, work):
    train_csv, held_out_csv = work / "train.csv", work / "held_out.csv"
    write_corpus(profiles, seed, train_csv)
    write_corpus(profiles, 100 + seed, held_out_csv)
    first, seen = train(train_csv, held_out_csv, work / "model")
    trace = seen["fit"][2]
    lls = trace.log_likelihoods
    tol = PER_POINT_TOL * seen["fit"][1].shape[0]  # the training rows: one responsibility row each
    per_point, _ = train(train_csv, held_out_csv, work / "per-point", "--tol", repr(tol))
    sha = per_point.pop("model_sha256")
    return {
        "g": g, "draw": draw, "exit_code": first["exit_code"],
        "labels_owned": len(set(seen["label_map"].labels)) if "label_map" in seen else None,
        "held_out_accuracy": first["held_out_accuracy"], "model_sha256": first["model_sha256"],
        "iterations": trace.n_iters,
        "ll_gain_last_100": lls[-1] - lls[-101] if trace.n_iters >= 100 else None,
        "fit_s": first["fit_s"],
        "screened": bool(trace.screened), "start_kept": trace.start,
        "per_point_tol": {"tol": tol, **per_point,
                          "same_model": None if sha is None else sha == first["model_sha256"]},
    }


def main() -> int:
    corpora = [(g, draw, draw_profiles(g, draw), draw) for g, draws in DRAWS.items() for draw in range(draws)]
    corpora.append((len(default_profiles()), "default", default_profiles(), 0))
    rows = []
    for corpus in corpora:
        with tempfile.TemporaryDirectory() as work:
            rows.append(measure(*corpus, Path(work)))
        print(rows[-1], file=sys.stderr, flush=True)
    json.dump({"numpy": np.__version__, "videos_per_gesture": VIDEOS, "per_point_tol": PER_POINT_TOL,
               "rows": rows}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
