"""Command-line pipeline: synth -> train -> classify / score.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Everything printed to stdout is deterministic for fixed flags and seed;
wall-clock timing goes to stderr.
"""

import argparse
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classify import build_label_map, classify_video, record_header, result_record
from .errors import DataError, NumericalError
from .gmm import COVARIANCE_MODES, EmConfig, e_step, fit
from .io import (
    ModelFile,
    load_model,
    read_feature_csv,
    read_video_dir,
    save_model,
    export_plot_data,
    write_manifest,
    write_video,
)
from .landmarks import LANDMARK_COUNT, apply_normalization, compute_variances, fit_normalization
from .metrics import silhouette
from .synth import default_profiles, generate_dataset

# Robot integration stub: the action string announced for each recognized
# gesture. A real deployment would hand these to the manipulator driver.
GESTURE_ACTIONS = {
    "wave": "initialize-gripper",
    "pick": "pick-object",
    "stack": "stack-object-on-box",
    "push": "push-object",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage -> 1
        raise UsageError(message)


def _action_for(label: str) -> str:
    return GESTURE_ACTIONS.get(label, f"execute-task:{label}")


def _ingest_features(path: Path):
    """Features from a video directory or a feature CSV; returns (features, frames).

    The input must hold at least one video, each under its own source_id.
    """
    if path.is_dir():
        videos = read_video_dir(path)
        # an overflowing variance is reported by compute_variances as a data
        # error, so numpy's own warning would only repeat it
        with np.errstate(over="ignore"):
            features = [compute_variances(v) for v in videos]
        total_frames = sum(v.frame_count for v in videos)
    elif path.is_file():
        features, total_frames = read_feature_csv(path), None
    else:
        raise DataError(f"input {path} is neither a directory nor a file")
    if not features:
        raise DataError(f"{path}: no feature rows")
    repeated = [sid for sid, n in Counter(f.source_id for f in features).items() if n > 1]
    if repeated:
        raise DataError(f"{path}: source_id {repeated[0]!r} appears more than once")
    return features, total_frames


def cmd_synth(args) -> int:
    if args.frames < 2:
        raise UsageError("--frames must be at least 2")
    if args.videos_per_profile < 1:
        raise UsageError("--videos-per-profile must be at least 1")
    if args.seed < 0:  # numpy's generators take no negative seed
        raise UsageError("--seed must be non-negative")
    out = Path(args.output)
    videos = generate_dataset(
        default_profiles(),
        videos_per_profile=args.videos_per_profile,
        frames=args.frames,
        seed=args.seed,
    )
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for video in videos:
        fname = f"{video.source_id}.landmarks"
        write_video(video, out / fname)
        entries.append((fname, video.source_id, video.label))
    write_manifest(entries, out / "manifest.csv")
    print(f"videos={len(videos)}")
    print(f"output={args.output}")
    return 0


def cmd_train(args) -> int:
    try:
        # without --k the label count sets k once the input is read
        config = EmConfig(
            k=1 if args.k is None else args.k,
            max_iters=args.max_iters,
            tol=args.tol,
            reg_eps=args.reg_eps,
            seed=args.seed,
            covariance_mode=args.cov_mode,
        )
    except DataError as exc:
        raise UsageError(str(exc)) from exc

    features, _ = _ingest_features(Path(args.input))
    unlabeled = [f.source_id for f in features if f.label is None]
    if unlabeled:
        raise DataError(f"training data must be labeled; missing on {unlabeled[:3]}")
    distinct = sorted({f.label for f in features})
    if args.k is None:
        config = replace(config, k=len(distinct))
    elif args.k != len(distinct):
        print(
            f"warning: --k {args.k} differs from {len(distinct)} distinct labels; proceeding",
            file=sys.stderr,
        )

    raw_rows = np.vstack([f.rows for f in features])
    row_labels = [f.label for f in features for _ in range(LANDMARK_COUNT)]
    stats = fit_normalization(raw_rows)
    data = apply_normalization(raw_rows, stats)
    params, resp, trace = fit(data, config)
    assignment = np.argmax(resp, axis=1)
    label_map = build_label_map(assignment, row_labels, params.k)
    # An unconverged fit and, with fewer components than labels, an uncovered
    # label still exit 0 with unchanged stdout; stderr says what is wrong.
    if not trace.converged:
        last_change = trace.log_likelihoods[-1] - trace.log_likelihoods[-2]
        print(
            f"warning: EM stopped at --max-iters {config.max_iters} without converging "
            f"(last log-likelihood change {last_change:.3g}, --tol {config.tol:g})",
            file=sys.stderr,
        )
    if trace.screened:
        print(
            "note: EM start 0 had not converged within its screen; starts 0-"
            f"{len(trace.screened) - 1} scored "
            f"{', '.join(f'{ll:.6g}' for ll in trace.screened)}; kept start {trace.start}",
            file=sys.stderr,
        )
    unowned = sorted(set(distinct) - set(label_map.labels))
    if unowned and config.k >= len(distinct):
        raise NumericalError(
            f"no component is labelled {', '.join(unowned)} "
            f"(k={config.k} for {len(distinct)} training labels); no model written"
        )
    if unowned:
        print(
            f"warning: no component is labelled {', '.join(unowned)}; "
            "classify can never return these gestures",
            file=sys.stderr,
        )
    report = silhouette(data, assignment)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    model = ModelFile(
        config=config,
        params=params,
        stats=stats,
        label_map=label_map,
        iterations=trace.n_iters,
        final_log_likelihood=trace.log_likelihoods[-1],
        silhouette=report.overall,
    )
    model_path = out / "model.gmm"
    save_model(model, model_path)

    export_plot_data(raw_rows, {
        out / "train_plot_before.csv": row_labels,
        out / "train_plot_after.csv": [label_map.labels[a] for a in assignment],
    })

    print(f"iterations={trace.n_iters}")
    print(f"converged={str(trace.converged).lower()}")
    print(f"log_likelihood={trace.log_likelihoods[-1]:.17g}")
    print(f"silhouette={report.overall:.17g}")
    print(f"model={model_path.name}")
    return 0


def cmd_classify(args) -> int:
    model = load_model(args.model)
    start = time.perf_counter()
    features, total_frames = _ingest_features(Path(args.input))
    results = [
        classify_video(f, model.params, model.label_map, model.stats) for f in features
    ]
    elapsed = time.perf_counter() - start

    print(record_header(model.label_map))
    for result in results:
        print(result_record(result, model.label_map))

    if all(f.label is not None for f in features):
        correct = sum(r.winner == f.label for r, f in zip(results, features))
        print(f"accuracy={correct / len(results):.4f} correct={correct} total={len(results)}")
    for result in results:
        print(f"action {result.source_id} {_action_for(result.winner)}")

    print(f"seconds_total={elapsed:.6f}", file=sys.stderr)
    if total_frames:
        print(f"seconds_per_frame={elapsed / total_frames:.9f}", file=sys.stderr)
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    features, _ = _ingest_features(Path(args.input))
    data = apply_normalization(np.vstack([f.rows for f in features]), model.stats)
    assignment = np.argmax(e_step(data, model.params), axis=1)
    report = silhouette(data, assignment)
    print(report.to_text())
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gesturemix", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic gesture corpus")
    p_synth.add_argument("--output", default="gesture-data", help="output directory")
    p_synth.add_argument("--videos-per-profile", type=int, default=20)
    p_synth.add_argument("--frames", type=int, default=150)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="fit the mixture model on labeled data")
    p_train.add_argument("--input", required=True, help="video directory or feature CSV")
    p_train.add_argument("--output", default=".", help="directory for model + plot exports")
    p_train.add_argument("--k", type=int, default=None, help="components; defaults to #labels")
    p_train.add_argument("--seed", type=int, default=EmConfig.seed)
    p_train.add_argument("--tol", type=float, default=EmConfig.tol)
    p_train.add_argument("--max-iters", type=int, default=EmConfig.max_iters)
    p_train.add_argument("--reg-eps", type=float, default=EmConfig.reg_eps)
    p_train.add_argument("--cov-mode", choices=COVARIANCE_MODES, default=EmConfig.covariance_mode)
    p_train.set_defaults(func=cmd_train)

    p_classify = sub.add_parser("classify", help="classify videos with a trained model")
    p_classify.add_argument("--model", required=True)
    p_classify.add_argument("--input", required=True, help="video directory or feature CSV")
    p_classify.set_defaults(func=cmd_classify)

    p_score = sub.add_parser("score", help="silhouette score of a model on a dataset")
    p_score.add_argument("--model", required=True)
    p_score.add_argument("--input", required=True, help="video directory or feature CSV")
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
