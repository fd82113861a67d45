from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gesturemix import (
    ClusterLabelMap,
    DataError,
    EmConfig,
    FeatureMatrix,
    GestureVideo,
    MixtureParams,
    ModelFormatError,
    NormalizationStats,
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
from gesturemix.gmm import COVARIANCE_MODES
from gesturemix.landmarks import _NAME_BREAKERS
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
    write_manifest,
    write_video,
)


@pytest.fixture(scope="module")
def trained():
    """Small trained model over a 12-video corpus."""
    videos = generate_dataset(default_profiles(), videos_per_profile=3, frames=40, seed=9)
    features = [compute_variances(v) for v in videos]
    raw_rows = np.vstack([f.rows for f in features])
    stats = fit_normalization(raw_rows)
    config = EmConfig(k=4, seed=0)
    params, resp, trace = fit(apply_normalization(raw_rows, stats), config)
    row_labels = [f.label for f in features for _ in range(21)]
    label_map = build_label_map(np.argmax(resp, axis=1), row_labels, params.k)
    model = ModelFile(
        config=config,
        params=params,
        stats=stats,
        label_map=label_map,
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
        good = ",".join(["0.0"] * 63)
        bad = ",".join(["0.0"] * 60 + ["1e", "0.0", "abc"])
        path = tmp_path / "bad.landmarks"
        path.write_text(f"gesture-landmarks v1\nsource_id=x\n{good}\n{bad}\n{bad}\n")
        with pytest.raises(DataError, match="non-numeric") as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"non-numeric value '1e' in {path}:4"

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        good = ",".join(["0.5"] * 63)
        path = tmp_path / "gap.landmarks"
        path.write_text(f"gesture-landmarks v1\nsource_id=x\n{good}\n\n{good}\n\n1,2\n")
        with pytest.raises(DataError) as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"{path}:7: expected 63 values, got 2"
        path.write_text(f"gesture-landmarks v1\nsource_id=x\n{good}\n\n{good}\n")
        assert read_video(path).frame_count == 2

    def test_one_frame_video_names_the_file(self, tmp_path):
        path = tmp_path / "short.landmarks"
        path.write_text("gesture-landmarks v1\nsource_id=x\n" + ",".join(["0.5"] * 63) + "\n")
        with pytest.raises(DataError) as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"{path}: a gesture video needs at least 2 frames"

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_coordinate_names_the_file(self, tmp_path, cell):
        good = ",".join(["0.5"] * 63)
        path = tmp_path / "inf.landmarks"
        path.write_text(f"gesture-landmarks v1\nsource_id=x\n{good}\n{cell},{good[4:]}\n")
        with pytest.raises(DataError) as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"{path}: non-finite landmark coordinate in 'x'"

    @pytest.mark.parametrize("key, value", [("source_id", "v"), ("label", "wave")])
    def test_empty_name_names_the_file(self, tmp_path, key, value):
        path = tmp_path / "v.landmarks"
        write_video(generate_video(default_profiles()[0], frames=3, seed=1, source_id="v"), path)
        path.write_text(path.read_text().replace(f"\n{key}={value}\n", f"\n{key}=\n"))
        with pytest.raises(DataError) as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"{path}: {key} is empty"

    def test_golden_bytes(self, tmp_path):
        from gesturemix import GestureVideo

        frames = np.full((2, 21, 3), 0.1)
        frames[0, -1] = [1 / 3, -0.0, 1e-300]
        frames[1] = 2.5
        frames[1, -1] = [123456789.125, -7.0, 5e-324]
        path = tmp_path / "g.landmarks"
        write_video(GestureVideo(frames=frames, source_id="g1", label="wave"), path)
        assert path.read_text() == (
            "gesture-landmarks v1\nsource_id=g1\nlabel=wave\n"
            + ",".join(["0.10000000000000001"] * 60 + ["0.33333333333333331", "-0", "1e-300"])
            + "\n"
            + ",".join(["2.5"] * 60 + ["123456789.125", "-7", "4.9406564584124654e-324"])
            + "\n"
        )

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

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "v.landmarks"
        path.write_bytes(SMALL_VIDEO_TEXT.encode() + b"\xff\xfe")
        with pytest.raises(DataError) as excinfo:
            read_video(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text (byte {len(SMALL_VIDEO_TEXT)})"


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

    def test_golden_bytes(self, tmp_path):
        from gesturemix import FeatureMatrix

        rows = np.full((21, 3), 0.1)
        rows[0] = [1 / 3, -0.0, 1e-300]
        rows[20] = [123456789.125, 7.0, 5e-324]
        features = [
            FeatureMatrix(rows=rows, source_id="v1", label="wave"),
            FeatureMatrix(rows=np.full((21, 3), 2.5), source_id="v2"),
        ]
        path = tmp_path / "g.csv"
        write_feature_csv(features, path)
        tenth = "0.10000000000000001"
        expected = [FEATURE_CSV_HEADER, "1,0.33333333333333331,-0,1e-300,v1,wave"]
        expected += [f"{lm},{tenth},{tenth},{tenth},v1,wave" for lm in range(2, 21)]
        expected += ["21,123456789.125,7,4.9406564584124654e-324,v1,wave"]
        expected += [f"{lm},2.5,2.5,2.5,v2," for lm in range(1, 22)]
        assert path.read_text() == "\n".join(expected) + "\n"

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
        with pytest.raises(DataError, match="non-numeric") as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"non-numeric value 'oops' in {path} row 2"

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

    def test_label_change_mid_block_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,0.0,0.0,v0,{'wave' if i < 10 else 'push'}" for i in range(21)]
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError) as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"{path}: source_id or label changes mid-video at row 12"

    @pytest.mark.parametrize("cells", [5, 7])
    def test_wrong_cell_count_rejected(self, tmp_path, cells):
        path = tmp_path / "bad.csv"
        rows = [f"{i + 1},0.0,0.0,0.0,v0,wave" for i in range(21)]
        rows[3] = ",".join(rows[3].split(",")[:cells] + ["x"] * (cells - 6))
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError) as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"{path}: row 5 has {cells} cells, expected 6"

    @pytest.mark.parametrize("cell, message", [
        ("inf", "NaN or infinite feature value"),
        ("1e999", "NaN or infinite feature value"),
        ("-1", "negative variance"),
    ])
    def test_out_of_range_variance_names_file_and_row(self, tmp_path, cell, message):
        path = tmp_path / "bad.csv"
        rows = [f"{i % 21 + 1},0.0,0.0,0.0,v{i // 21},wave" for i in range(42)]
        rows[30] = f"10,0.0,{cell},0.0,v1,wave"
        path.write_text("\n".join([FEATURE_CSV_HEADER] + rows) + "\n")
        with pytest.raises(DataError) as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"{path} row 23: {message} in 'v1'"

    def test_rows_are_numbered_by_physical_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        rows = [f"{i + 1},0.0,0.0,0.0,v0,wave" for i in range(21)]
        rows[10] = "11,0.0,oops,0.0,v0,wave"
        path.write_text("\n".join([FEATURE_CSV_HEADER, "", ""] + rows) + "\n")
        with pytest.raises(DataError) as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"non-numeric value 'oops' in {path} row 14"

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(SMALL_CSV_TEXT.encode() + b"\xff\xfe")
        with pytest.raises(DataError) as excinfo:
            read_feature_csv(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text (byte {len(SMALL_CSV_TEXT)})"


class TestModelFiles:
    def test_numeric_round_trip_is_bit_exact(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        back = load_model(path)
        assert back.params.k == model.params.k
        assert back.config == model.config
        assert np.array_equal(back.stats.mean, model.stats.mean)
        assert np.array_equal(back.stats.std, model.stats.std)
        assert np.array_equal(back.params.weights, model.params.weights)
        assert np.array_equal(back.params.means, model.params.means)
        assert np.array_equal(back.params.covs, model.params.covs)
        assert back.label_map.labels == model.label_map.labels
        assert back.label_map.confidence == model.label_map.confidence
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

    def test_non_utf8_byte_is_a_format_error_naming_the_file(self, tmp_path, trained):
        model, _, _ = trained
        path = tmp_path / "m.gmm"
        save_model(model, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: not UTF-8 text (byte {size})"

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
        lines[0] = "gesture-gmm-model v1"
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


# A small fixed model and the exact v2 text it is saved as.
SMALL_MODEL = ModelFile(
    config=EmConfig(k=2),
    params=MixtureParams(
        means=[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
        covs=[np.eye(3), np.diag([2.0, 3.0, 4.0])],
        weights=[0.25, 0.75],
    ),
    stats=NormalizationStats(mean=np.array([0.1, 0.2, 0.3]), std=np.array([1.0, 2.0, 4.0])),
    label_map=ClusterLabelMap(labels=("wave", "pick"), confidence=(1.0, 0.5)),
    iterations=7,
    final_log_likelihood=-12.5,
    silhouette=0.625,
)
SMALL_MODEL_TEXT = """\
gesture-gmm-model v2
k=2
covariance_mode=full
seed=0
tol=9.9999999999999995e-07
max_iters=500
reg_eps=9.9999999999999995e-07
iterations=7
final_log_likelihood=-12.5
silhouette=0.625
norm_mean=0.10000000000000001,0.20000000000000001,0.29999999999999999
norm_std=1,2,4
weights=0.25,0.75
component=0
label=wave
confidence=1
mean=0,0,0
cov=1,0,0,0,1,0,0,0,1
component=1
label=pick
confidence=0.5
mean=1,2,3
cov=2,0,0,0,3,0,0,0,4
end
"""


@pytest.fixture(scope="module")
def scratch_model_path(tmp_path_factory):
    """One file that each generated example overwrites."""
    return tmp_path_factory.mktemp("models") / "model.gmm"


@st.composite
def one_line_mutations(draw):
    """SMALL_MODEL_TEXT with one line's value or cell replaced, or one line deleted or doubled."""
    lines = SMALL_MODEL_TEXT.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("value", "cell", "delete", "duplicate")))
    if kind == "delete":
        del lines[at]
    elif kind == "duplicate":
        lines.insert(at, lines[at])
    else:
        token = draw(st.sampled_from(("nan", "inf", "-inf", "x", "")))
        key, sep, value = lines[at].partition("=")
        if kind == "cell" and sep:
            cells = value.split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = token
            token = ",".join(cells)
        lines[at] = f"{key}={token}" if sep else token
    return "\n".join(lines) + "\n"


floats_01 = st.floats(min_value=0.0, max_value=1.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def model_files(draw):
    """Any ModelFile the constructors accept: SPD covariances, normalized weights, free text."""
    k = draw(st.integers(1, 4))
    config = EmConfig(
        k=k,
        max_iters=draw(st.integers(1, 10**9)),
        tol=draw(st.floats(min_value=0.0, exclude_min=True)),
        reg_eps=draw(st.floats(min_value=0.0)),
        seed=draw(st.integers(0, 2**70)),
        covariance_mode=draw(st.sampled_from(COVARIANCE_MODES)),
    )
    vectors = st.lists(finite, min_size=3, max_size=3)
    factors = np.array(draw(st.lists(
        st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9), min_size=k, max_size=k
    ))).reshape(k, 3, 3)
    covs = factors @ factors.transpose(0, 2, 1) + np.eye(3)
    raw_weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    try:
        return ModelFile(
            config=config,
            params=MixtureParams(
                means=draw(st.lists(vectors, min_size=k, max_size=k)),
                covs=(covs + covs.transpose(0, 2, 1)) / 2,
                weights=raw_weights / raw_weights.sum(),
            ),
            stats=NormalizationStats(
                mean=np.array(draw(vectors)),
                std=np.array(draw(st.lists(
                    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                    min_size=3, max_size=3,
                ))),
            ),
            label_map=ClusterLabelMap(
                labels=tuple(draw(st.lists(st.text(min_size=1), min_size=k, max_size=k))),
                confidence=tuple(draw(st.lists(floats_01, min_size=k, max_size=k))),
            ),
            iterations=draw(st.integers(0, 10**9)),
            final_log_likelihood=draw(st.floats()),
            silhouette=draw(st.floats()),
        )
    except DataError:  # a label the text formats cannot hold
        reject()


class TestModelFormat:
    def test_small_model_golden_bytes(self, tmp_path):
        path = tmp_path / "m.gmm"
        save_model(SMALL_MODEL, path)
        assert path.read_text() == SMALL_MODEL_TEXT

    def test_nan_weight_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.gmm"
        path.write_text(SMALL_MODEL_TEXT.replace("weights=0.25,0.75", "weights=nan,0.75"))
        with pytest.raises(ModelFormatError, match="weights") as excinfo:
            load_model(path)
        assert "weights" in excinfo.value.field

    def test_non_finite_norm_std_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.gmm"
        path.write_text(SMALL_MODEL_TEXT.replace("norm_std=1,", "norm_std=nan,"))
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert "norm_std" in excinfo.value.field

    def test_k_disagreeing_with_the_mixture_rejected(self):
        with pytest.raises(DataError, match="k=3"):
            replace(SMALL_MODEL, config=EmConfig(k=3))

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=one_line_mutations())
    def test_one_line_mutation_loads_or_is_a_format_error(self, text, scratch_model_path):
        scratch_model_path.write_text(text)
        try:
            load_model(scratch_model_path)
        except ModelFormatError:
            pass

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(model=model_files())
    def test_save_load_save_is_byte_identical(self, model, scratch_model_path):
        save_model(model, scratch_model_path)
        first = scratch_model_path.read_bytes()
        save_model(load_model(scratch_model_path), scratch_model_path)
        assert scratch_model_path.read_bytes() == first


SMALL_VIDEO_TEXT = "\n".join(
    ["gesture-landmarks v1", "source_id=v1", "label=wave"]
    + [",".join([f"{frame}.5"] * 63) for frame in range(3)]
) + "\n"

SMALL_CSV_TEXT = "\n".join([FEATURE_CSV_HEADER] + [
    f"{lm},0.5,1.5,2.5,{source_id},{label}"
    for source_id, label in (("v1", "wave"), ("v2", "push"))
    for lm in range(1, 22)
]) + "\n"


@st.composite
def reader_mutations(draw, text):
    """`text` with one numeric cell or one name replaced, or one line deleted,
    doubled or preceded by a blank line."""
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(("cell", "name", "delete", "duplicate", "blank")))
    if kind == "delete":
        del lines[at]
    elif kind in ("duplicate", "blank"):
        lines.insert(at, lines[at] if kind == "duplicate" else "")
    elif kind == "cell":
        cells = lines[at].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(
            st.sampled_from(("nan", "inf", "-inf", "-1", "1e999", "x", ""))
        )
        lines[at] = ",".join(cells)
    else:  # a video's source_id=/label= value, or a CSV row's source_id or label cell
        named = [i for i, line in enumerate(lines) if "=" in line or line.count(",") == 5]
        at = draw(st.sampled_from(named))
        name = draw(st.sampled_from(("", "v2", "push", "x")))
        key, sep, _ = lines[at].partition("=")
        if sep:
            lines[at] = f"{key}={name}"
        else:
            cells = lines[at].split(",")
            cells[draw(st.sampled_from((4, 5)))] = name
            lines[at] = ",".join(cells)
    return "\n".join(lines) + "\n"


# Names as the text formats can hold them: no comma, no line break.
names = st.text(
    st.characters(codec="utf-8", exclude_characters=_NAME_BREAKERS), min_size=1, max_size=8
)
coordinates = st.one_of(
    st.sampled_from((-0.0, 5e-324, -5e-324, 2.2e-308, 1.7e308, -1.7e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)


gesture_videos = st.builds(
    GestureVideo,
    frames=hnp.arrays(np.float64, st.tuples(st.integers(2, 5), st.just(21), st.just(3)),
                      elements=coordinates),
    source_id=names,
    label=st.none() | names,
)


@st.composite
def feature_matrix_lists(draw):
    variances = st.floats(min_value=-0.0, allow_infinity=False)
    return [
        FeatureMatrix(
            rows=draw(hnp.arrays(np.float64, (21, 3), elements=variances)),
            source_id=source_id,
            label=draw(st.none() | names),
        )
        for source_id in draw(st.lists(names, max_size=3, unique=True))
    ]


@pytest.fixture(scope="module")
def example_dir(tmp_path_factory):
    """One directory whose files each generated example overwrites."""
    return tmp_path_factory.mktemp("readers")


def loads_or_names_the_file(read, path, text):
    path.write_text(text)
    try:
        read(path)
    except DataError as exc:
        assert str(path) in str(exc)


class TestReaderContract:
    """A reader either loads its input or raises a DataError naming the file."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=reader_mutations(SMALL_VIDEO_TEXT))
    def test_mutated_video_loads_or_names_the_file(self, text, example_dir):
        loads_or_names_the_file(read_video, example_dir / "m.landmarks", text)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=reader_mutations(SMALL_CSV_TEXT))
    def test_mutated_feature_csv_loads_or_names_the_file(self, text, example_dir):
        loads_or_names_the_file(read_feature_csv, example_dir / "m.csv", text)

    def test_unmutated_inputs_load(self, example_dir):
        (example_dir / "v.landmarks").write_text(SMALL_VIDEO_TEXT)
        assert read_video(example_dir / "v.landmarks").frame_count == 3
        (example_dir / "f.csv").write_text(SMALL_CSV_TEXT)
        assert [f.label for f in read_feature_csv(example_dir / "f.csv")] == ["wave", "push"]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(video=gesture_videos)
    def test_video_round_trip_is_bit_exact(self, video, example_dir):
        path = example_dir / "rt.landmarks"
        write_video(video, path)
        first = path.read_bytes()
        back = read_video(path)
        assert back.frames.tobytes() == video.frames.tobytes()
        assert (back.source_id, back.label) == (video.source_id, video.label)
        write_video(back, path)
        assert path.read_bytes() == first

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(features=feature_matrix_lists())
    def test_feature_csv_round_trip_is_bit_exact(self, features, example_dir):
        path = example_dir / "rt.csv"
        write_feature_csv(features, path)
        first = path.read_bytes()
        back = read_feature_csv(path)
        assert [f.rows.tobytes() for f in back] == [f.rows.tobytes() for f in features]
        assert [(f.source_id, f.label) for f in back] == [(f.source_id, f.label) for f in features]
        write_feature_csv(back, path)
        assert path.read_bytes() == first


class TestPlotExport:
    def test_row_and_group_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.random((84, 3))
        groups = ["wave", "pick", "stack", "push"] * 21
        path = tmp_path / "plot.csv"
        export_plot_data(rows, {path: groups})
        lines = path.read_text().splitlines()
        assert lines[0] == "var_x,var_y,var_z,group"
        assert len(lines) - 1 == 84
        assert len({line.rsplit(",", 1)[1] for line in lines[1:]}) == 4

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data([[1 / 3, -0.0, 1e-300], [2.5, 7.0, 5e-324]], {path: ["wave", "push"]})
        assert path.read_text() == (
            "var_x,var_y,var_z,group\n"
            "0.33333333333333331,-0,1e-300,wave\n"
            "2.5,7,4.9406564584124654e-324,push\n"
        )

    def test_empty_export(self, tmp_path):
        path = tmp_path / "plot.csv"
        export_plot_data(np.zeros((0, 3)), {path: []})
        assert path.read_text() == "var_x,var_y,var_z,group\n"

    def test_length_mismatch_rejected(self, tmp_path):
        # checked for every file before any is written
        files = {tmp_path / "a.csv": ["a"] * 4, tmp_path / "b.csv": ["b"] * 3}
        with pytest.raises(DataError, match="4 rows vs 3 group entries"):
            export_plot_data(np.zeros((4, 3)), files)
        assert list(tmp_path.iterdir()) == []

    def test_each_file_holds_the_same_rows_under_its_own_groups(self, tmp_path):
        rows = [[1 / 3, -0.0, 1e-300], [2.5, 7.0, 5e-324]]
        together = {tmp_path / "before.csv": ["wave", "push"], tmp_path / "after.csv": ["x", "y"]}
        export_plot_data(rows, together)
        for path, groups in together.items():
            alone = tmp_path / f"alone-{path.name}"
            export_plot_data(rows, {alone: groups})
            assert path.read_bytes() == alone.read_bytes()

    def test_exports_cross_check_with_classifier(self, tmp_path, trained):
        # confusion derived from the before/after exports must equal the
        # accuracy measured by classify_video on the same corpus
        model, features, resp = trained
        rows = np.vstack([f.rows for f in features])
        truth_groups = [f.label for f in features for _ in range(21)]
        assignment = np.argmax(resp, axis=1)
        mapped = [model.label_map.labels[a] for a in assignment]
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        export_plot_data(rows, {before: truth_groups, after: mapped})

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


# Each writer with two versions of a small input, 0 and 1, that write different bytes.
WRITERS = {
    "write_video": lambda path, v: write_video(
        GestureVideo(frames=np.full((2, 21, 3), float(v)), source_id="v"), path
    ),
    "write_manifest": lambda path, v: write_manifest([("v.landmarks", f"v{v}", "wave")], path),
    "write_feature_csv": lambda path, v: write_feature_csv(
        [FeatureMatrix(rows=np.full((21, 3), float(v)), source_id="v")], path
    ),
    "export_plot_data": lambda path, v: export_plot_data(
        np.full((2, 3), float(v)), {path: ["a", "b"]}
    ),
    "save_model": lambda path, v: save_model(replace(SMALL_MODEL, iterations=7 + v), path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out.txt"
    WRITERS[writer](path, 0)
    before = path.read_bytes()

    def write_half_then_fail(self, text, encoding=None):
        with open(self, "w", encoding=encoding) as handle:
            handle.write(text[: len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path, 1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
