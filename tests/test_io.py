from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gesturemix import (
    DataError,
    EmConfig,
    ModelFormatError,
    apply_normalization,
    build_label_map,
    classify_video,
    compute_variances,
    default_profiles,
    fit,
    fit_normalization,
    generate_dataset,
    generate_video,
    result_record,
)
from gesturemix.io import (
    FEATURE_CSV_HEADER,
    ModelFile,
    export_plot_data,
    load_model,
    read_feature_csv,
    read_video,
    read_video_dir,
    save_model,
    write_feature_csv,
    write_video,
)


@pytest.fixture(scope="module")
def trained():
    """Small trained model over a 12-video corpus."""
    videos = generate_dataset(default_profiles(), videos_per_profile=3, frames=40, seed=9)
    features = [compute_variances(v) for v in videos]
    raw_rows = np.vstack([f.rows for f in features])
    stats = fit_normalization(raw_rows)
    params, resp, trace = fit(apply_normalization(raw_rows, stats), EmConfig(k=4, seed=0))
    row_labels = [f.label for f in features for _ in range(21)]
    label_map = build_label_map(np.argmax(resp, axis=1), row_labels, params.k)
    model = ModelFile(
        covariance_mode="full",
        params=params,
        stats=stats,
        label_map=label_map,
        seed=0,
        tol=1e-6,
        iterations=trace.n_iters,
        final_log_likelihood=trace.log_likelihoods[-1],
        silhouette=0.5,
    )
    return model, features, resp


class TestVideoFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        video = generate_video(default_profiles()[0], frames=17, seed=3, source_id="rt")
        path = tmp_path / "v.landmarks"
        write_video(video, path)
        back = read_video(path)
        assert back.source_id == "rt"
        assert back.label == "wave"
        assert np.array_equal(back.frames, video.frames)

    def test_label_line_is_optional(self, tmp_path):
        from gesturemix import GestureVideo

        video = GestureVideo(frames=np.random.default_rng(0).random((3, 21, 3)), source_id="u")
        path = tmp_path / "u.landmarks"
        write_video(video, path)
        back = read_video(path)
        assert back.label is None
        assert np.array_equal(back.frames, video.frames)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.landmarks"
        path.write_text("not-a-video\nsource_id=x\n")
        with pytest.raises(DataError, match="header"):
            read_video(path)

    def test_wrong_cell_count_rejected(self, tmp_path):
        path = tmp_path / "bad.landmarks"
        path.write_text("gesture-landmarks v1\nsource_id=x\n1.0,2.0,3.0\n1,2,3\n")
        with pytest.raises(DataError, match="63"):
            read_video(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        row = ",".join(["0.0"] * 62 + ["abc"])
        path = tmp_path / "bad.landmarks"
        path.write_text(f"gesture-landmarks v1\nsource_id=x\n{row}\n{row}\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_video(path)

    def test_directory_reader_sorts_by_filename(self, tmp_path):
        for name in ("b", "a", "c"):
            write_video(
                generate_video(default_profiles()[0], frames=5, seed=ord(name), source_id=name),
                tmp_path / f"{name}.landmarks",
            )
        videos = read_video_dir(tmp_path)
        assert [v.source_id for v in videos] == ["a", "b", "c"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no .*landmarks"):
            read_video_dir(tmp_path)


class TestFeatureCsv:
    def test_80_videos_make_1680_rows(self, tmp_path):
        videos = generate_dataset(default_profiles(), videos_per_profile=20, frames=10, seed=0)
        features = [compute_variances(v) for v in videos]
        path = tmp_path / "features.csv"
        write_feature_csv(features, path)
        lines = path.read_text().splitlines()
        assert lines[0] == FEATURE_CSV_HEADER
        assert len(lines) - 1 == 1680

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        from gesturemix import FeatureMatrix

        features = [
            FeatureMatrix(rows=rng.random((21, 3)), source_id=f"v{i}",
                          label="wave" if i % 2 else None)
            for i in range(5)
        ]
        path = tmp_path / "f.csv"
        write_feature_csv(features, path)
        back = read_feature_csv(path)
        assert len(back) == 5
        for orig, loaded in zip(features, back):
            assert np.array_equal(orig.rows, loaded.rows)
            assert loaded.source_id == orig.source_id
            assert loaded.label == orig.label

    def test_empty_list_round_trips(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_feature_csv([], path)
        assert path.read_text() == FEATURE_CSV_HEADER + "\n"
        assert read_feature_csv(path) == []

    def test_row_count_must_be_multiple_of_21(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [FEATURE_CSV_HEADER, "1,0.0,0.0,0.0,v0,wave"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="multiple of 21"):
            read_feature_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,oops,0.0,v0,wave" for i in range(21)]
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_feature_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,nan,0.0,v0,wave" for i in range(21)]
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError, match="NaN"):
            read_feature_csv(path)

    def test_fractional_landmark_number_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,0.0,0.0,v0,wave" for i in range(21)]
        rows[0] = "1.5,0.0,0.0,0.0,v0,wave"
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError, match="lm=1.5"):
            read_feature_csv(path)

    def test_source_id_change_mid_block_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,0.0,0.0,v{i // 20},wave" for i in range(21)]
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError, match="source_id"):
            read_feature_csv(path)


class TestModelFiles:
    def test_numeric_round_trip_is_bit_exact(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        back = load_model(path)
        assert back.params.k == model.params.k
        assert back.covariance_mode == model.covariance_mode
        assert np.array_equal(back.stats.mean, model.stats.mean)
        assert np.array_equal(back.stats.std, model.stats.std)
        assert np.array_equal(back.params.weights, model.params.weights)
        assert np.array_equal(back.params.means, model.params.means)
        assert np.array_equal(back.params.covs, model.params.covs)
        assert back.label_map.labels == model.label_map.labels
        assert back.label_map.confidence == model.label_map.confidence
        assert back.tol == model.tol
        assert back.final_log_likelihood == model.final_log_likelihood
        assert back.silhouette == model.silhouette

    def test_reloaded_model_classifies_identically(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        back = load_model(path)
        videos = generate_dataset(default_profiles(), videos_per_profile=5, frames=30, seed=77)
        for video in videos:
            feat = compute_variances(video)
            a = classify_video(feat, model.params, model.label_map, model.stats)
            b = classify_video(feat, back.params, back.label_map, back.stats)
            assert result_record(a, model.label_map) == result_record(b, back.label_map)

    def test_truncated_file_names_missing_section(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        text = path.read_text().splitlines()
        truncated = tmp_path / "t.gmm"
        truncated.write_text("\n".join(text[: len(text) // 2]) + "\n")
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(truncated)
        assert excinfo.value.field is not None

    def test_bad_weight_sum_rejected(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        lines = path.read_text().splitlines()
        edited = []
        for line in lines:
            if line.startswith("weights="):
                edited.append("weights=" + ",".join(["0.2"] * 4))  # sums to 0.8
            else:
                edited.append(line)
        bad = tmp_path / "bad.gmm"
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(ModelFormatError, match="weights"):
            load_model(bad)

    def test_version_mismatch_rejected(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "gesture-gmm-model v2"
        bad = tmp_path / "bad.gmm"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(bad)

    def test_negative_std_rejected(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        lines = path.read_text().splitlines()
        edited = [
            "norm_std=1.0,-1.0,1.0" if line.startswith("norm_std=") else line for line in lines
        ]
        bad = tmp_path / "bad.gmm"
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(ModelFormatError, match="norm_std"):
            load_model(bad)

    def test_broken_covariance_rejected(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        lines = path.read_text().splitlines()
        hit = False
        edited = []
        for line in lines:
            if line.startswith("cov=") and not hit:
                values = [float(v) for v in line[len("cov="):].split(",")]
                values[0] = -abs(values[0]) - 1.0  # negative variance: not PD
                edited.append("cov=" + ",".join(f"{v:.17g}" for v in values))
                hit = True
            else:
                edited.append(line)
        bad = tmp_path / "bad.gmm"
        bad.write_text("\n".join(edited) + "\n")
        with pytest.raises(ModelFormatError, match="component 0"):
            load_model(bad)

    def test_broken_covariance_error_names_its_component(self, tmp_path, trained):
        # the factorization runs on all components at once; the error must
        # still point at the one that failed
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        lines = path.read_text().splitlines()
        at = lines.index("component=2") + 4
        assert lines[at].startswith("cov=")
        lines[at] = "cov=" + ",".join(["1", "0", "0", "0", "-1", "0", "0", "0", "1"])
        bad = tmp_path / "bad.gmm"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="component 2"):
            load_model(bad)


    def test_failed_save_keeps_previous_model(self, tmp_path, trained, monkeypatch):
        model, _, _ = trained
        path = tmp_path / "model.gmm"
        save_model(model, path)
        before = path.read_bytes()

        def write_half_then_fail(self, text):
            with open(self, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(replace(model, seed=7), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.gmm"]


class TestPlotExport:
    def test_row_and_group_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.random((84, 3))
        groups = ["wave", "pick", "stack", "push"] * 21
        path = tmp_path / "plot.csv"
        export_plot_data(rows, groups, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "var_x,var_y,var_z,group"
        assert len(lines) - 1 == 84
        assert len({line.rsplit(",", 1)[1] for line in lines[1:]}) == 4

    def test_empty_export(self, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data(np.zeros((0, 3)), [], path)
        assert path.read_text() == "var_x,var_y,var_z,group\n"

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            export_plot_data(np.zeros((4, 3)), ["a"], tmp_path / "p.csv")

    def test_exports_cross_check_with_classifier(self, tmp_path, trained):
        # confusion derived from the before/after exports must equal the
        # accuracy measured by classify_video on the same corpus
        model, features, resp = trained
        rows = np.vstack([f.rows for f in features])
        truth_groups = [f.label for f in features for _ in range(21)]
        assignment = np.argmax(resp, axis=1)
        mapped = [model.label_map.label_for(a) for a in assignment]
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        export_plot_data(rows, truth_groups, before)
        export_plot_data(rows, mapped, after)

        truth = [line.rsplit(",", 1)[1] for line in before.read_text().splitlines()[1:]]
        voted = [line.rsplit(",", 1)[1] for line in after.read_text().splitlines()[1:]]
        export_hits = 0
        for v, feat in enumerate(features):
            block = voted[21 * v: 21 * (v + 1)]
            winner = min(
                sorted(set(block)), key=lambda lbl: (-block.count(lbl), lbl)
            )
            export_hits += winner == truth[21 * v]
        classify_hits = sum(
            classify_video(f, model.params, model.label_map, model.stats).winner == f.label
            for f in features
        )
        assert export_hits == classify_hits
