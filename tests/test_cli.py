import ast
import contextlib
import inspect
import io
import itertools
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemix import cli
from gesturemix.cli import main
from gesturemix import (
    ClusterLabelMap,
    EmConfig,
    FeatureMatrix,
    GestureProfile,
    GestureVideo,
    MixtureParams,
    NormalizationStats,
    apply_normalization,
    compute_variances,
    default_profiles,
    e_step,
    generate_dataset,
    silhouette,
)
from gesturemix.io import (ModelFile, load_model, read_video_dir, save_model, write_feature_csv,
                           write_video)
from gesturemix.synth import AMP_LARGE, AMP_MID, AMP_SMALL, NOISE_STD, PROFILE_AMPLITUDES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_corpus(path, videos_per_profile=5, frames=150, seed=9):
    path.mkdir(parents=True, exist_ok=True)
    videos = generate_dataset(
        default_profiles(), videos_per_profile=videos_per_profile, frames=frames, seed=seed
    )
    for video in videos:
        write_video(video, path / f"{video.source_id}.landmarks")
    return videos


@pytest.fixture(params=["in-process", "subprocess"])
def cli_run(request, capsys, cli_env):
    """Run the CLI in the test's process, where any warning is an error, or as
    ``python -m gesturemix.cli`` under cli_env; returns (code, stdout, stderr)."""
    if request.param == "in-process":
        return lambda *argv: run(capsys, *argv)

    def in_child(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "gesturemix.cli", *argv],
            env=cli_env, capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    return in_child


def small_features(scaled=0, by=1.0):
    """Variance rows of 12 small videos, 3 per gesture; video `scaled`'s times `by`."""
    videos = generate_dataset(default_profiles(), videos_per_profile=3, frames=40, seed=2)
    features = [compute_variances(v) for v in videos]
    features[scaled] = replace(features[scaled], rows=features[scaled].rows * by)
    return features


def hand_model(path, labels, centres):
    """Save a model of tight components, labelled in order, one at each centre
    (c, c, c) of a feature space that its identity stats leave as it is."""
    k = len(labels)
    params = MixtureParams(
        means=[[c] * 3 for c in centres], covs=[0.05**2 * np.eye(3)] * k, weights=[1 / k] * k
    )
    save_model(ModelFile(
        config=EmConfig(k=k),
        params=params,
        stats=NormalizationStats(mean=np.zeros(3), std=np.ones(3)),
        label_map=ClusterLabelMap(labels=labels, confidence=(1.0,) * k),
        iterations=1,
        final_log_likelihood=0.0,
        silhouette=0.0,
    ), path)
    return str(path)


def constant_csv(path, *videos):
    """A feature CSV of (source_id, value, label) videos whose 21 rows all hold value."""
    write_feature_csv([
        FeatureMatrix(rows=np.full((21, 3), value), source_id=sid, label=label)
        for sid, value, label in videos
    ], path)
    return str(path)


@pytest.fixture()
def trained_dir(tmp_path, capsys):
    data = tmp_path / "data"
    make_corpus(data)
    out = tmp_path / "model"
    code, _, _ = run(capsys, "train", "--input", str(data), "--output", str(out), "--seed", "0")
    assert code == 0
    return data, out


class TestSynth:
    def test_minimal_corpus(self, tmp_path, capsys):
        out = tmp_path / "mini"
        code, stdout, _ = run(
            capsys, "synth", "--output", str(out),
            "--videos-per-profile", "1", "--frames", "2", "--seed", "3",
        )
        assert code == 0
        assert "videos=4" in stdout
        assert len(list(out.glob("*.landmarks"))) == 4
        assert (out / "manifest.csv").exists()

    def test_manifest_lists_every_file(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, _ = run(
            capsys, "synth", "--output", str(out),
            "--videos-per-profile", "2", "--frames", "5",
        )
        assert code == 0
        lines = (out / "manifest.csv").read_text().splitlines()
        assert lines[0] == "file,source_id,label"
        assert len(lines) - 1 == 8
        for line in lines[1:]:
            fname, _, label = line.split(",")
            assert (out / fname).exists()
            assert label in {"wave", "pick", "stack", "push"}

    @pytest.mark.parametrize(("flag", "value", "message"), [
        ("--frames", "1", "frames must be at least 2"),
        ("--videos-per-profile", "0", "videos_per_profile must be at least 1"),
        ("--seed", "-1", "seed must be at least 0"),
    ])
    def test_flag_out_of_bounds_is_usage_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "never"
        code, stdout, stderr = run(capsys, "synth", "--output", str(out), flag, value)
        assert code == 1
        assert stdout == ""
        assert stderr == f"usage error: {message}\n"
        assert not out.exists()

    def test_impossible_allocation_is_data_error(self, tmp_path, capsys):
        # numpy refuses a 7 TiB array before touching memory
        out = tmp_path / "never"
        code, stdout, stderr = run(
            capsys, "synth", "--output", str(out), "--frames", "1000000000000"
        )
        assert code == 2
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert line.startswith("data error: Unable to allocate")
        assert not out.exists()


class TestTrain:
    def test_train_reports_and_writes_model(self, tmp_path, capsys):
        data = tmp_path / "data"
        make_corpus(data)
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "train", "--input", str(data), "--output", str(out))
        assert code == 0
        assert "iterations=" in stdout
        assert "log_likelihood=" in stdout
        assert "silhouette=" in stdout
        assert (out / "model.gmm").exists()
        assert (out / "train_plot_before.csv").exists()
        assert (out / "train_plot_after.csv").exists()

    def test_explicit_k_mismatch_warns_but_proceeds(self, tmp_path, capsys):
        data = tmp_path / "data"
        make_corpus(data)
        out = tmp_path / "out"
        code, _, stderr = run(
            capsys, "train", "--input", str(data), "--output", str(out), "--k", "5"
        )
        assert code == 0
        assert "warning: --k 5 differs from 4 distinct labels; proceeding\n" in stderr
        assert (out / "model.gmm").exists()

    def test_labelled_fit_writes_nothing_to_stderr(self, tmp_path, capsys):
        # the labels' start converges after 165 iterations, past a screen's 30, in one run
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        code, stdout, stderr = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(tmp_path / "o")
        )
        assert code == 0
        assert stderr == ""
        assert stdout.startswith("iterations=165\nconverged=true\n")

    def test_screened_fit_writes_one_note(self, tmp_path, capsys):
        # with --k 5 start 0 is k-means++ and has not converged after the screen's
        # 30 iterations; it wins the screen and converges after 86
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out), "--k", "5"
        )
        assert code == 0
        warning, note = stderr.splitlines()
        assert warning == "warning: --k 5 differs from 4 distinct labels; proceeding"
        assert note.startswith("note: EM start 0 had not converged within its screen; starts 0-3 scored ")
        assert note.endswith("; kept start 0")
        assert stdout.startswith("iterations=86\nconverged=true\n")

    def test_unconverged_fit_warns_on_stderr_only(self, tmp_path, capsys):
        make_corpus(tmp_path / "data")  # one iteration already gives every label a component
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out),
            "--max-iters", "1",
        )
        assert code == 0
        keys = [line.split("=", 1)[0] for line in stdout.splitlines()]
        assert keys == ["iterations", "converged", "log_likelihood", "silhouette", "model"]
        assert stdout.startswith("iterations=1\nconverged=false\n")
        assert stderr.startswith("warning: EM stopped at --max-iters 1 without converging")
        assert load_model(out / "model.gmm").iterations == 1

    def test_label_without_component_is_named_on_stderr(self, tmp_path, capsys):
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out), "--k", "2"
        )
        assert code == 0
        assert "warning" not in stdout
        labels = load_model(out / "model.gmm").label_map.labels
        unowned = sorted({"wave", "pick", "stack", "push"} - set(labels))
        assert len(unowned) >= 2  # two components cannot carry four labels
        assert f"warning: no component is labelled {', '.join(unowned)};" in stderr

    def test_uncovered_label_with_enough_components_is_numerical_failure(
        self, tmp_path, capsys, monkeypatch
    ):
        videos = make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        # per label, the components of its two videos (in file order): the
        # stack videos join the wave and pick majorities, push takes two
        plan = {"wave": [0, 0], "pick": [1, 1], "stack": [0, 1], "push": [2, 3]}
        assignment = []
        for video in sorted(videos, key=lambda v: v.source_id):
            assignment += [plan[video.label].pop(0)] * 21
        fit = cli.fit

        def collapsed_fit(data, config, labels):
            params, _, trace = fit(data, config, labels)
            return params, np.eye(config.k)[assignment], trace

        monkeypatch.setattr(cli, "fit", collapsed_fit)
        out = tmp_path / "o"
        code, stdout, stderr = run(capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out))
        assert code == 3
        assert stdout == ""
        # only a written model gets warnings or the screening note
        assert stderr == (
            "numerical failure: no component is labelled stack "
            "(k=4 for 4 training labels); no model written\n"
        )
        assert not out.exists()  # no model.gmm, no plot export

    def test_seed_3_corpus_trains_every_label(self, tmp_path, capsys):
        # a k-means++ start 0 collapses here (two components labelled wave, none
        # stack); the labels' start finds one component per gesture unscreened
        videos = generate_dataset(default_profiles(), videos_per_profile=50, frames=150, seed=3)
        videos.sort(key=lambda v: v.source_id)  # the row order of the video directory
        csv = tmp_path / "features.csv"
        write_feature_csv([compute_variances(v) for v in videos], csv)
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(csv), "--output", str(out), "--k", "4", "--seed", "0"
        )
        assert code == 0
        assert "converged=true" in stdout
        assert stderr == ""  # no warning and no screening note
        assert sorted(load_model(out / "model.gmm").label_map.labels) == [
            "pick", "push", "stack", "wave"
        ]

    def test_eight_gestures_each_own_a_component(self, tmp_path, capsys):
        # eight of the 27 profiles whose axis amplitudes each take AMP_SMALL, AMP_MID
        # or AMP_LARGE; a k-means++ start 0 leaves g07 without a component here
        triples = list(itertools.product((AMP_SMALL, AMP_MID, AMP_LARGE), repeat=3))
        chosen = np.random.default_rng([8, 0]).choice(len(triples), size=8, replace=False)
        profiles = [GestureProfile(name=f"g{i:02d}", axis_amplitudes=triples[j], noise_std=NOISE_STD)
                    for i, j in enumerate(chosen)]
        for name, seed in (("train", 0), ("held_out", 100)):
            videos = generate_dataset(profiles, videos_per_profile=20, frames=150, seed=seed)
            videos.sort(key=lambda v: v.source_id)
            write_feature_csv([compute_variances(v) for v in videos], tmp_path / f"{name}.csv")
        out = tmp_path / "o"
        code, _, stderr = run(capsys, "train", "--input", str(tmp_path / "train.csv"), "--output", str(out))
        assert code == 0, stderr
        assert stderr == ""  # one run from the labels' start: no screening note
        assert sorted(load_model(out / "model.gmm").label_map.labels) == [p.name for p in profiles]
        code, stdout, _ = run(
            capsys, "classify", "--model", str(out / "model.gmm"), "--input", str(tmp_path / "held_out.csv")
        )
        (accuracy,) = re.findall(r"^accuracy=(\S+) ", stdout, re.M)
        assert code == 0 and float(accuracy) >= 0.94

    @pytest.mark.parametrize("module", ["gesturemix.cli", "gesturemix"])
    def test_overflowing_variance_is_data_error_without_numpy_warning(
        self, tmp_path, cli_env, module
    ):
        data = tmp_path / "data"
        data.mkdir()
        frames = np.random.default_rng(0).random((5, 21, 3))
        for name, scale in (("v0", 1e200), ("v1", 1.0)):
            video = GestureVideo(frames=frames * scale, source_id=name, label=name)
            write_video(video, data / f"{name}.landmarks")
        done = subprocess.run(
            [sys.executable, "-m", module, "train", "--input", str(data),
             "--output", str(tmp_path / "o")],
            env=cli_env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "data error: landmark variance overflows in 'v0': "
            "coordinates are too large to square in double precision\n"
        )

    def test_k_of_1_is_usage_error(self, tmp_path, cli_run):
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        out = tmp_path / "o"
        code, stdout, stderr = cli_run(
            "train", "--input", str(tmp_path / "data"), "--output", str(out), "--k", "1"
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "usage error: --k must be at least 2\n"
        assert not (out / "model.gmm").exists()

    def test_one_label_is_data_error_before_fit(self, tmp_path, cli_run, monkeypatch):
        videos = generate_dataset(default_profiles()[:1], videos_per_profile=3, frames=20, seed=2)
        csv = tmp_path / "one-label.csv"
        write_feature_csv([compute_variances(v) for v in videos], csv)
        monkeypatch.setattr(cli, "fit", None)  # the in-process run fails if fit is called
        out = tmp_path / "o"
        code, stdout, stderr = cli_run("train", "--input", str(csv), "--output", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr == (
            "data error: training data has one label, 'wave'; train needs at least 2\n"
        )
        assert not (out / "model.gmm").exists()

    def test_unlabeled_training_data_rejected(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=2)
        feats = []
        for video in videos:
            feat = compute_variances(video)
            feats.append(type(feat)(rows=feat.rows, source_id=feat.source_id, label=None))
        csv = tmp_path / "features.csv"
        write_feature_csv(feats, csv)
        code, stdout, stderr = run(
            capsys, "train", "--input", str(csv), "--output", str(tmp_path / "o")
        )
        assert (code, stdout) == (2, "")
        missing = [f.source_id for f in feats[:3]]
        assert stderr == f"data error: training data must be labeled; missing on {missing}\n"

    def test_empty_input_dir_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, stderr = run(capsys, "train", "--input", str(empty), "--output", str(tmp_path / "o"))
        assert code == 2

    def test_more_components_than_rows_rejected(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=1, frames=10, seed=1)
        csv = tmp_path / "f.csv"
        write_feature_csv([compute_variances(videos[0])], csv)
        # at K = 10**12 the fit's (K, d, N) work arrays would exceed any address space
        for k in ("22", "1000000000000"):
            out = tmp_path / f"o{k}"
            code, stdout, stderr = run(
                capsys, "train", "--input", str(csv), "--output", str(out), "--k", k
            )
            assert code == 2
            assert stdout == ""
            # the --k mismatch warning waits for a fit that accepts K, so it is absent
            assert stderr == f"data error: need at least k={k} data points, got 21\n"
            assert not out.exists()

    def test_missing_input_flag_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--output", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--k", "0"), ("--tol", "0"), ("--max-iters", "0"), ("--reg-eps", "-1"),
            ("--seed", "-1"), ("--tol", "inf"), ("--reg-eps", "inf"),
        ],
    )
    def test_bad_em_flag_is_usage_error_before_input_is_read(self, tmp_path, capsys, flag, value):
        missing = tmp_path / "no-such-input"
        code, _, stderr = run(
            capsys, "train", "--input", str(missing), "--output", str(tmp_path / "o"), flag, value
        )
        assert code == 1
        assert stderr.startswith("usage error:")
        assert not (tmp_path / "o").exists()

    def test_em_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--input", "data"])
        flags = EmConfig(**{**{f.name: getattr(args, f.name) for f in fields(EmConfig)}, "k": 1})
        assert flags == EmConfig(k=1)

    def test_synth_flag_defaults_are_the_generator_defaults(self):
        # README: synth's defaults reproduce the reference experiment
        args = cli.build_parser().parse_args(["synth"])
        defaults = inspect.signature(generate_dataset).parameters
        for name in ("videos_per_profile", "frames", "seed"):
            assert getattr(args, name) == defaults[name].default

    def test_repeated_source_id_rejected_in_videos(self, tmp_path, capsys):
        data = tmp_path / "data"
        videos = make_corpus(data, videos_per_profile=1, frames=20)
        write_video(videos[0], data / "copy.landmarks")
        code, _, stderr = run(capsys, "train", "--input", str(data), "--output", str(tmp_path / "o"))
        assert code == 2
        assert repr(videos[0].source_id) in stderr

    def test_repeated_source_id_rejected_in_feature_csv(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=1, frames=20, seed=2)
        feats = [compute_variances(v) for v in videos]
        csv = tmp_path / "features.csv"
        write_feature_csv(feats + feats[:1], csv)
        code, _, stderr = run(capsys, "train", "--input", str(csv), "--output", str(tmp_path / "o"))
        assert code == 2
        assert "more than once" in stderr

    def test_covariance_collapse_is_numerical_failure(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("a", "b"):  # constant frames: every variance is 0
            video = GestureVideo(frames=np.zeros((5, 21, 3)), source_id=name, label=name)
            write_video(video, data / f"{name}.landmarks")
        out = tmp_path / "o"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(data), "--output", str(out), "--reg-eps", "0"
        )
        assert code == 3
        assert stderr.startswith("numerical failure: ")
        assert stdout == ""
        assert not (out / "model.gmm").exists()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code, stdout, stderr = run(
            capsys, "train", "--input", str(missing), "--output", str(tmp_path / "o")
        )
        assert code == 2
        assert stdout == ""
        assert f"input {missing} is neither a directory nor a file" in stderr

    def test_non_utf8_video_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        videos = make_corpus(data, videos_per_profile=1)
        bad = data / f"{videos[0].source_id}.landmarks"
        bad.write_bytes(bad.read_bytes() + b"\xff\xfe")
        code, stdout, stderr = run(
            capsys, "train", "--input", str(data), "--output", str(tmp_path / "o")
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"data error: {bad}: not UTF-8 text")


class TestClassify:
    def test_records_accuracy_and_actions(self, tmp_path, capsys, trained_dir):
        data, out = trained_dir
        held = tmp_path / "held"
        held.mkdir()
        videos = generate_dataset(default_profiles(), videos_per_profile=2, frames=30, seed=123)
        for video in videos:
            write_video(video, held / f"{video.source_id}.landmarks")
        code, stdout, stderr = run(
            capsys, "classify", "--model", str(out / "model.gmm"), "--input", str(held)
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "source_id,winner,margin,count_pick,count_push,count_stack,count_wave"
        records = [l for l in lines if l and not l.startswith(("accuracy", "action", "source_id"))]
        assert len(records) == 8
        for record in records:
            counts = [int(c) for c in record.split(",")[3:]]
            assert sum(counts) == 21
        assert any(l.startswith("accuracy=") for l in lines)
        assert sum(1 for l in lines if l.startswith("action ")) == 8
        assert "initialize-gripper" in stdout  # the wave action stub
        assert "seconds_per_frame=" in stderr

    def test_training_set_classifies_perfectly(self, capsys, trained_dir):
        data, out = trained_dir
        code, stdout, _ = run(
            capsys, "classify", "--model", str(out / "model.gmm"), "--input", str(data)
        )
        assert code == 0
        assert "accuracy=1.0000 correct=20 total=20" in stdout

    def test_exact_records_accuracy_and_actions(self, tmp_path, capsys):
        model = hand_model(tmp_path / "m.gmm", ("wave", "pick"), (0.2, 5.0))
        csv = constant_csv(tmp_path / "f.csv", ("vid-7", 0.2, "wave"), ("vid-8", 5.0, "pick"))
        code, stdout, _ = run(capsys, "classify", "--model", model, "--input", csv)
        assert code == 0
        assert stdout == (
            "source_id,winner,margin,count_pick,count_wave\n"
            "vid-7,wave,21,0,21\n"
            "vid-8,pick,21,21,0\n"
            "accuracy=1.0000 correct=2 total=2\n"
            "action vid-7 initialize-gripper\n"
            "action vid-8 pick-object\n"
        )

    def test_gesture_without_a_robot_action_executes_its_task(self, tmp_path, capsys):
        model = hand_model(tmp_path / "m.gmm", ("wave", "nod"), (0.2, 5.0))
        csv = constant_csv(tmp_path / "f.csv", ("vid-9", 5.0, None))
        code, stdout, _ = run(capsys, "classify", "--model", model, "--input", csv)
        assert code == 0
        assert stdout == (
            "source_id,winner,margin,count_nod,count_wave\n"
            "vid-9,nod,21,21,0\n"
            "action vid-9 execute-task:nod\n"
        )

    def test_timing_covers_ingest(self, capsys, monkeypatch, trained_dir):
        data, out = trained_dir
        ingest = cli._ingest_features

        def slow_ingest(path):
            time.sleep(0.05)
            return ingest(path)

        monkeypatch.setattr(cli, "_ingest_features", slow_ingest)
        code, stdout, stderr = run(
            capsys, "classify", "--model", str(out / "model.gmm"), "--input", str(data)
        )
        assert code == 0
        assert "seconds_" not in stdout
        (line,) = [l for l in stderr.splitlines() if l.startswith("seconds_total=")]
        assert float(line.split("=", 1)[1]) >= 0.05

    def test_nan_weight_model_is_data_error(self, capsys, trained_dir):
        data, out = trained_dir
        model = out / "model.gmm"
        lines = model.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("weights="))
        lines[at] = "weights=nan," + lines[at].split(",", 1)[1]
        model.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(capsys, "classify", "--model", str(model), "--input", str(data))
        assert code == 2
        assert stdout == ""
        assert "field: weights" in stderr

    def test_missing_model_file_is_data_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "classify", "--model", str(tmp_path / "nope.gmm"), "--input", str(tmp_path)
        )
        assert code == 2


class TestScore:
    def test_score_prints_report(self, capsys, trained_dir):
        data, out = trained_dir
        code, stdout, _ = run(
            capsys, "score", "--model", str(out / "model.gmm"), "--input", str(data)
        )
        assert code == 0
        model = load_model(out / "model.gmm")
        x = apply_normalization(
            np.vstack([compute_variances(v).rows for v in read_video_dir(data)]), model.stats
        )
        report = silhouette(x, np.argmax(e_step(x, model.params), axis=1))
        assert -1.0 <= report.overall <= 1.0
        assert stdout.splitlines() == [f"silhouette_overall={report.overall:.17g}"] + [
            f"silhouette_cluster_{c}={mean:.17g}"
            for c, mean in zip(report.clusters.tolist(), report.per_cluster_mean.tolist())
        ]

    def test_clusters_keep_their_component_ids(self, tmp_path, capsys):
        # no row falls near the middle component, so the clusters are 0 and 2
        model = hand_model(tmp_path / "m.gmm", ("wave", "push", "pick"), (0.2, 2.5, 5.0))
        csv = constant_csv(tmp_path / "f.csv", ("a", 0.2, None), ("b", 5.0, None))
        code, stdout, _ = run(capsys, "score", "--model", model, "--input", csv)
        assert code == 0
        assert stdout == "silhouette_overall=1\nsilhouette_cluster_0=1\nsilhouette_cluster_2=1\n"

    def test_single_cluster_assignment_fails(self, tmp_path, capsys, trained_dir):
        _, out = trained_dir
        # identical feature matrices: every row must land in the same cluster
        videos = generate_dataset(default_profiles()[:1], videos_per_profile=1, frames=150, seed=4)
        rows = compute_variances(videos[0]).rows
        csv = tmp_path / "one.csv"
        write_feature_csv([FeatureMatrix(rows=rows, source_id=f"copy{i}") for i in range(3)], csv)
        code, _, stderr = run(
            capsys, "score", "--model", str(out / "model.gmm"), "--input", str(csv)
        )
        assert code == 2
        assert "2 distinct clusters" in stderr


@pytest.mark.parametrize("command", ["classify", "score"])
def test_vanished_density_is_numerical_failure_without_numpy_warning(
    tmp_path, cli_env, trained_dir, command
):
    # coordinates scaled by 1e140 square to overflow in the E-step
    data, out = trained_dir
    path = sorted(data.glob("*.landmarks"))[0]
    video = read_video_dir(data)[0]
    write_video(replace(video, frames=video.frames * 1e140), path)
    done = subprocess.run(
        [sys.executable, "-m", "gesturemix.cli", command, "--model", str(out / "model.gmm"),
         "--input", str(data)],
        env=cli_env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "numerical failure: mixture density vanished for some data point\n"


class TestOverflowingInput:
    """Input whose statistics overflow is a data error: exit 2, one stderr line and
    no numpy warning, which would be an error here."""

    @pytest.fixture()
    def csv(self, tmp_path):
        """small_features() with the first video's x variances set to 1e308."""
        features = small_features()
        features[0] = replace(features[0], rows=np.full((21, 3), [1e308, 1.0, 1.0]))
        write_feature_csv(features, tmp_path / "f.csv")
        return str(tmp_path / "f.csv")

    def test_train_on_a_variance_of_1e308(self, tmp_path, cli_run, csv):
        out = tmp_path / "o"
        code, stdout, stderr = cli_run("train", "--input", csv, "--output", str(out))
        assert (code, stdout, stderr) == (2, "", "data error: non-finite normalization stats\n")
        assert not out.exists()

    def test_score_on_a_variance_of_1e308(self, cli_run, csv, trained_dir):
        model = str(trained_dir[1] / "model.gmm")
        code, stdout, stderr = cli_run("score", "--model", model, "--input", csv)
        assert (code, stdout, stderr) == (2, "", "data error: non-finite data point\n")

    def test_train_on_coordinates_scaled_by_1e150(self, tmp_path, cli_run):
        # each variance stays finite, but squaring them in the column std overflows
        data, out = tmp_path / "data", tmp_path / "o"
        videos = make_corpus(data, videos_per_profile=2, frames=20)
        path = data / f"{videos[0].source_id}.landmarks"
        write_video(replace(videos[0], frames=videos[0].frames * 1e150), path)
        code, stdout, stderr = cli_run("train", "--input", str(data), "--output", str(out))
        assert (code, stdout, stderr) == (2, "", "data error: non-finite normalization stats\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A model trained on small_features(), which it classifies."""
    out = tmp_path_factory.mktemp("small-model")
    write_feature_csv(small_features(), out / "f.csv")
    assert main(["train", "--input", str(out / "f.csv"), "--output", str(out)]) == 0
    return out / "model.gmm"


@settings(max_examples=20)
@given(video=st.integers(0, 11), exponent=st.integers(-300, 308))
def test_one_video_scaled_by_a_power_of_ten_ends_cleanly(small_model, video, exponent):
    directory = small_model.parent / "scaled"
    directory.mkdir(exist_ok=True)
    write_feature_csv(small_features(video, 10.0**exponent), directory / "f.csv")
    inputs = ["--input", str(directory / "f.csv")]
    for argv in (
        ["train", *inputs, "--output", str(directory)],
        ["classify", "--model", str(small_model), *inputs],
        ["score", "--model", str(small_model), *inputs],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)  # a numpy warning would raise here
        assert code in (0, 2, 3)
        if code:
            assert stdout.getvalue() == ""
            assert len(stderr.getvalue().splitlines()) == 1
        else:
            assert "nan" not in stdout.getvalue()


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, stdout, stderr = run(capsys)
        assert code == 1
        assert stdout == ""
        assert stderr == "usage error: the following arguments are required: command\n"

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "synth", "--bogus")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "dance")
        assert code == 1


@pytest.mark.parametrize("command", ["train", "classify", "score"])
def test_input_without_videos_is_data_error(tmp_path, capsys, trained_dir, command):
    csv = tmp_path / "header-only.csv"
    write_feature_csv([], csv)
    _, out = trained_dir
    if command == "train":
        where = ["--output", str(tmp_path / "o")]
    else:
        where = ["--model", str(out / "model.gmm")]
    code, stdout, stderr = run(capsys, command, "--input", str(csv), *where)
    assert code == 2
    assert stdout == ""
    assert "no feature rows" in stderr


# Modules the CLI loads only when it needs them: scipy never, as it is no
# dependency; numpy.random once synth or train first draws; concurrent.futures
# and multiprocessing never, as landmark files and silhouette blocks are shared
# out by os.fork and pickle, so no command needs a thread pool, and
# multiprocessing would add its own start-up cost.
WATCHED_MODULES = ("scipy", "numpy.random", "concurrent.futures", "multiprocessing")


def _loaded_by_cli(env, *argvs) -> dict[str, bool]:
    """Which watched modules are loaded once gesturemix.cli is imported and has
    run each of the argument lists, all of which must succeed."""
    code = (
        f"import sys, gesturemix.cli\n"
        f"assert all(gesturemix.cli.main(argv) == 0 for argv in {list(argvs)!r})\n"
        f"print({{m: m in sys.modules for m in {WATCHED_MODULES!r}}})"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_cli_loads_only_the_modules_its_commands_use(tmp_path, cli_env):
    data = str(tmp_path / "data")
    synth = ["synth", "--output", data, "--videos-per-profile", "3", "--frames", "40"]
    train = ["train", "--input", data, "--output", str(tmp_path / "model")]
    none = dict.fromkeys(WATCHED_MODULES, False)
    assert _loaded_by_cli(cli_env) == none
    assert _loaded_by_cli(cli_env, synth, train) == {**none, "numpy.random": True}


PACKAGE_MODULES = sorted(Path(cli.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("benchmarks/test_*.py"))


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda path: path.name)
def test_package_imports_only_numpy_and_the_standard_library_and_uses_them(module):
    """numpy is the only runtime dependency, and no module keeps a dead import;
    __init__.py imports to re-export."""
    tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
            bound.update(alias.asname or root for alias, root in zip(node.names, roots))
        else:
            roots = [node.module.split(".")[0]] if node.level == 0 else []
            bound.update(alias.asname or alias.name for alias in node.names)
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, (
                f"{module.name}:{node.lineno} imports {root!r}"
            )
    if module.name != "__init__.py":
        unused = sorted(bound - used)
        assert not unused, f"{module.name} imports {unused} and does not use them"


def test_every_private_module_level_name_is_used():
    """A module-level name starting with _ is referenced somewhere in the package,
    so a helper left behind by a deletion is found."""
    assert PACKAGE_MODULES
    defined, used = set(), set()
    for module in PACKAGE_MODULES:
        tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert private
    assert sorted(private - used) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_test_module_or_class_defines_a_name_twice(path):
    """Python keeps only the last definition of a name in a module or class
    body, so a test pasted twice, or one shadowed by a helper, would be lost
    without a failure."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    scopes = [(path.name, tree.body)] + [
        (f"{path.name}::{node.name}", node.body)
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    repeated = []
    for scope, body in scopes:
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = []
            repeated += [f"{scope}::{name}" for name in names if name in seen]
            seen.update(names)
    assert repeated == []


def _names_taken_from_gesturemix(tree) -> set[str]:
    """The names a script takes from gesturemix: each one it imports from a
    gesturemix module, and each attribute it reads of a gesturemix module it
    holds (`gio.read_feature_csv`, `gesturemix.io.load_model`), so a helper of
    its own that shares a package function's name is not counted."""
    modules, names = {}, set()  # the script's name for each gesturemix module it holds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "gesturemix":
                    bound = alias.name if alias.asname else "gesturemix"
                    modules[alias.asname or bound] = import_module(bound)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gesturemix":
            for alias in node.names:
                names.add(alias.name)
                held = getattr(import_module(node.module), alias.name, None)
                if inspect.ismodule(held):
                    modules[alias.asname or alias.name] = held
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts, value = [], node.value
        while isinstance(value, ast.Attribute):
            parts.insert(0, value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in modules:
            held = modules[value.id]
            for part in parts:
                held = getattr(held, part, None)
            if inspect.ismodule(held):
                names.add(node.attr)
    return names


def test_every_public_module_level_name_is_used_outside_the_tests():
    """A public module-level function or class is named in a package module
    (its own included, but not the re-exports of __init__), taken from
    gesturemix by a benchmark script (benchmarks/*.py other than the
    benchmark's own tests, benchmarks/test_*.py), or named in README.md, so no
    public path is one that only the tests reach."""
    modules = [p for p in PACKAGE_MODULES if p.name != "__init__.py"]
    benchmarks = [p for p in (ROOT / "benchmarks").glob("*.py") if not p.name.startswith("test_")]
    public, used = set(), set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        public.update(
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for path in sorted(benchmarks):
        used |= _names_taken_from_gesturemix(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert public
    assert sorted(public - used) == []


def test_one_robot_action_per_gesture_profile():
    # the paper assigns each robot task its own gesture; a profile without an
    # action would announce execute-task:<name>
    assert cli.GESTURE_ACTIONS.keys() == PROFILE_AMPLITUDES.keys()
    assert len(set(cli.GESTURE_ACTIONS.values())) == len(cli.GESTURE_ACTIONS)
