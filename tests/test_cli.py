import subprocess
import sys
import time

import numpy as np
import pytest

from gesturemix import cli
from gesturemix.cli import main
from gesturemix import (
    EmConfig,
    FeatureMatrix,
    GestureVideo,
    compute_variances,
    default_profiles,
    generate_dataset,
)
from gesturemix.gmm import COVARIANCE_MODES
from gesturemix.io import load_model, write_feature_csv, write_video


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

    def test_same_seed_is_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "synth", "--output", str(out),
                "--videos-per-profile", "2", "--frames", "10", "--seed", "42",
            )
            assert code == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_frames_flag_touches_nothing(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, _, stderr = run(capsys, "synth", "--output", str(out), "--frames", "1")
        assert code == 1
        assert "frames" in stderr
        assert not out.exists()

    def test_negative_seed_is_usage_error_before_anything_is_written(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, stdout, stderr = run(capsys, "synth", "--output", str(out), "--seed", "-1")
        assert code == 1
        assert stderr.startswith("usage error:") and "--seed" in stderr
        assert stdout == ""
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

    def test_train_from_feature_csv(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=3, frames=30, seed=2)
        csv = tmp_path / "features.csv"
        write_feature_csv([compute_variances(v) for v in videos], csv)
        out = tmp_path / "out"
        code, stdout, _ = run(capsys, "train", "--input", str(csv), "--output", str(out))
        assert code == 0
        assert (out / "model.gmm").exists()

    def test_explicit_k_mismatch_warns_but_proceeds(self, tmp_path, capsys):
        data = tmp_path / "data"
        make_corpus(data)
        out = tmp_path / "out"
        code, _, stderr = run(
            capsys, "train", "--input", str(data), "--output", str(out), "--k", "5"
        )
        assert code == 0
        assert "warning" in stderr
        assert (out / "model.gmm").exists()

    def test_fit_converged_within_the_screen_writes_nothing_to_stderr(self, tmp_path, capsys):
        make_corpus(tmp_path / "data")  # start 0 converges in 14 iterations
        code, _, stderr = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(tmp_path / "o")
        )
        assert code == 0
        assert stderr == ""

    def test_screened_fit_writes_one_note_and_no_warning(self, tmp_path, capsys):
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)  # 67 iterations
        out = tmp_path / "o"
        code, stdout, stderr = run(capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out))
        assert code == 0
        (note,) = stderr.splitlines()
        assert note.startswith("note: EM start 0 had not converged within its screen; starts 0-3 scored ")
        assert note.endswith("; kept start 0")
        assert stdout.startswith("iterations=67\nconverged=true\n")

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

        def collapsed_fit(data, config):
            params, _, trace = fit(data, config)
            return params, np.eye(config.k)[assignment], trace

        monkeypatch.setattr(cli, "fit", collapsed_fit)
        out = tmp_path / "o"
        code, stdout, stderr = run(capsys, "train", "--input", str(tmp_path / "data"), "--output", str(out))
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines()[-1] == (
            "numerical failure: no component is labelled stack "
            "(k=4 for 4 training labels); no model written"
        )
        assert not out.exists()  # no model.gmm, no plot export

    def test_seed_3_corpus_trains_every_label(self, tmp_path, capsys):
        # start 0 collapses here (two components labelled wave, none stack);
        # a screened restart finds one component per gesture
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
        assert "warning" not in stderr
        assert stderr.startswith("note: EM start 0 had not converged")
        assert sorted(load_model(out / "model.gmm").label_map.labels) == [
            "pick", "push", "stack", "wave"
        ]

    def test_overflowing_variance_is_data_error_without_numpy_warning(self, tmp_path, cli_env):
        data = tmp_path / "data"
        data.mkdir()
        frames = np.random.default_rng(0).random((5, 21, 3))
        for name, scale in (("v0", 1e200), ("v1", 1.0)):
            video = GestureVideo(frames=frames * scale, source_id=name, label=name)
            write_video(video, data / f"{name}.landmarks")
        done = subprocess.run(
            [sys.executable, "-m", "gesturemix.cli", "train", "--input", str(data),
             "--output", str(tmp_path / "o")],
            env=cli_env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "data error: landmark variance overflows in 'v0': "
            "coordinates are too large to square in double precision\n"
        )

    def test_unlabeled_training_data_rejected(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=2)
        feats = []
        for video in videos:
            feat = compute_variances(video)
            feats.append(type(feat)(rows=feat.rows, source_id=feat.source_id, label=None))
        csv = tmp_path / "features.csv"
        write_feature_csv(feats, csv)
        code, _, stderr = run(capsys, "train", "--input", str(csv), "--output", str(tmp_path / "o"))
        assert code == 2
        assert "label" in stderr

    def test_empty_input_dir_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, stderr = run(capsys, "train", "--input", str(empty), "--output", str(tmp_path / "o"))
        assert code == 2

    def test_more_components_than_rows_rejected(self, tmp_path, capsys):
        videos = generate_dataset(default_profiles(), videos_per_profile=1, frames=10, seed=1)
        csv = tmp_path / "f.csv"
        write_feature_csv([compute_variances(videos[0])], csv)
        code, _, stderr = run(
            capsys, "train", "--input", str(csv), "--output", str(tmp_path / "o"), "--k", "22"
        )
        assert code == 2

    def test_missing_input_flag_is_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--output", str(tmp_path / "o"))
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--k", "0"), ("--tol", "0"), ("--max-iters", "0"), ("--reg-eps", "-1"),
            ("--seed", "-1"),
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
        flags = EmConfig(
            k=1, max_iters=args.max_iters, tol=args.tol, reg_eps=args.reg_eps,
            seed=args.seed, covariance_mode=args.cov_mode,
        )
        assert flags == EmConfig(k=1)

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_every_covariance_mode_trains(self, tmp_path, capsys, mode):
        make_corpus(tmp_path / "data", videos_per_profile=2, frames=20)
        code, _, _ = run(
            capsys, "train", "--input", str(tmp_path / "data"), "--output", str(tmp_path / "o"),
            "--cov-mode", mode,
        )
        assert code == 0
        assert f"covariance_mode={mode}" in (tmp_path / "o" / "model.gmm").read_text()

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

    def test_classify_accepts_feature_csv(self, tmp_path, capsys, trained_dir):
        _, out = trained_dir
        videos = generate_dataset(default_profiles(), videos_per_profile=1, frames=30, seed=55)
        csv = tmp_path / "held.csv"
        write_feature_csv([compute_variances(v) for v in videos], csv)
        code, stdout, _ = run(
            capsys, "classify", "--model", str(out / "model.gmm"), "--input", str(csv)
        )
        assert code == 0
        assert "accuracy=" in stdout

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
        assert stdout.startswith("silhouette_overall=")
        assert "silhouette_cluster_" in stdout
        overall = float(stdout.splitlines()[0].split("=")[1])
        assert -1.0 <= overall <= 1.0

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


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

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


def _loaded_by_cli_import(module, env) -> bool:
    code = f'import sys, gesturemix.cli; print({module!r} in sys.modules)'
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy(cli_env):
    assert not _loaded_by_cli_import("scipy", cli_env)


def test_cli_import_does_not_load_concurrent_futures(cli_env):
    # silhouette imports it when it runs; at import it would cost every command
    assert not _loaded_by_cli_import("concurrent.futures", cli_env)
