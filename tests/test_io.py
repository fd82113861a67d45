import os
import threading
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import assert_no_child_left
from oracles import template_floats
from gesturemix import (
    ClusterLabelMap,
    DataError,
    EmConfig,
    FeatureMatrix,
    GestureVideo,
    MixtureParams,
    ModelFormatError,
    NormalizationStats,
    classify_video,
    default_profiles,
    generate_dataset,
    generate_video,
)
from gesturemix import cli
from gesturemix import io as gio
from gesturemix.landmarks import _NAME_BREAKERS
from gesturemix.io import (
    FEATURE_CSV_HEADER,
    ModelFile,
    export_plot_data,
    load_model,
    read_feature_csv,
    read_video_dir,
    save_model,
    write_feature_csv,
    write_manifest,
    write_video,
)


# One frame of a landmark file body.
FRAME_ROW = ",".join(["0.5"] * 63)

# A small file of each text format, as its exact text; save_model writes
# SMALL_MODEL as SMALL_MODEL_TEXT.
SMALL_VIDEO_TEXT = "\n".join(
    ["gesture-landmarks v1", "source_id=v1", "label=wave"]
    + [",".join([f"{frame}.5"] * 63) for frame in range(3)]
) + "\n"

SMALL_CSV_TEXT = "\n".join([FEATURE_CSV_HEADER] + [
    f"{lm},0.5,1.5,2.5,{source_id},{label}"
    for source_id, label in (("v1", "wave"), ("v2", "push"))
    for lm in range(1, 22)
]) + "\n"

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
gesture-gmm-model v3
k=2
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


def write_file(path, content):
    """Write `content` to `path`: a str as UTF-8 text, bytes as they are."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


def video_text(*rows, names="source_id=x\n"):
    """A landmark file of the given name lines and body lines."""
    return "gesture-landmarks v1\n" + names + "".join(f"{row}\n" for row in rows)


# Each malformed landmark file (None: no file at all) and the exact error
# read_video_dir raises for it, naming the file as {path} or its directory as {dir}.
VIDEO_ERRORS = [
    pytest.param(None, "no *.landmarks files in {dir}", id="no-file"),
    pytest.param("not-a-video\nsource_id=x\n", "{path}: missing 'gesture-landmarks v1' header",
                 id="header"),
    pytest.param(video_text(FRAME_ROW, FRAME_ROW, names="label=wave\n"),
                 "{path}: missing source_id line", id="source-id-line"),
    pytest.param(video_text(FRAME_ROW, *[",".join(["0.0"] * 60 + ["1e", "0.0", "abc"])] * 2),
                 "non-numeric value '1e' in {path}:4", id="number"),
    # blank lines are skipped but counted
    pytest.param(video_text(FRAME_ROW, "", FRAME_ROW, "", "1,2"),
                 "{path}:7: expected 63 values, got 2", id="cells-after-blank-lines"),
    pytest.param(video_text(FRAME_ROW), "{path}: a gesture video needs at least 2 frames",
                 id="one-frame"),
    *[
        pytest.param(video_text(FRAME_ROW, f"{cell},{FRAME_ROW[len('0.5,'):]}"),
                     "{path}: non-finite landmark coordinate in 'x'", id=cell)
        for cell in ("inf", "-inf", "nan", "1e999")
    ],
    pytest.param(video_text(FRAME_ROW, FRAME_ROW, names="source_id=\nlabel=wave\n"),
                 "{path}: source_id is empty", id="empty-source-id"),
    pytest.param(video_text(FRAME_ROW, FRAME_ROW, names="source_id=v\nlabel=\n"),
                 "{path}: label is empty", id="empty-label"),
    pytest.param(SMALL_VIDEO_TEXT.encode() + b"\xff\xfe",
                 f"{{path}}: not UTF-8 text (byte {len(SMALL_VIDEO_TEXT)})", id="utf-8"),
]


def raw_floats(seed, rows, cols):
    """(rows, cols) float64 values from raw 64-bit patterns. Each is any
    pattern at all, one whose exponent lies in or just around [1e-4, 1e16),
    where the float kernel makes the digits itself, or a short decimal (an
    integer, or one with trailing zeros to strip) by equal chance."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(rows, cols), dtype=np.uint64)
    exponent = rng.integers(1005, 1080, size=(rows, cols), dtype=np.uint64) << np.uint64(52)
    kind = rng.integers(0, 3, size=(rows, cols))
    bits = np.where(kind == 1, bits & np.uint64(2**63 + 2**52 - 1) | exponent, bits)
    short = rng.integers(-10**6, 10**6, size=(rows, cols)) / 10.0 ** rng.integers(0, 8, size=(rows, cols))
    return np.where(kind == 2, short, bits.view(np.float64))


# Values at the edges of the float kernel's fast range, of its rounding and of
# its layout. The powers of ten's predecessors are where log10 rounds up.
FLOAT_EDGES = [
    1e-4, np.nextafter(1e-4, 0), 9999999999999998.0, 1e16, 2.0**53, 2.0**53 + 2,
    0.1 + 0.2, 1 / 3, 0.5, 1.0, 123456789.125,
    # exact ties at the 17th digit (N = ...2.5, ...7.5, ...12.5) go to the even neighbour
    1000000000000000.25, 1000000000000000.75, 100000000000000.125,
    -0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf,
    *[np.nextafter(10.0**k, 0) for k in range(-3, 17)],
]


class TestFloatText:
    @pytest.mark.parametrize("value", FLOAT_EDGES, ids=repr)
    def test_edge_value_is_written_as_the_template_writes_it(self, value):
        for x in (value, -value):
            assert gio._format_floats([[x]]) == "%.17g" % x

    @settings(max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(0, 3 * gio._CHUNK))
    @example(0, 1, 0)  # no rows
    @example(0, 1, gio._CHUNK + 1)  # one column over two chunks
    @example(0, 63, 3 * gio._CHUNK)  # landmark rows over several chunks
    def test_kernel_is_the_template(self, seed, cols, values):
        rows = raw_floats(seed, values // cols, cols)
        # compared row by row, so a failure names its first bad row quickly
        assert gio._format_floats(rows).split("\n") == template_floats(rows).split("\n")


class TestVideoFiles:
    @pytest.mark.parametrize("content, error", VIDEO_ERRORS)
    def test_malformed_file_is_a_data_error(self, tmp_path, content, error):
        path = tmp_path / "v.landmarks"
        if content is not None:
            write_file(path, content)
        assert read_error(read_video_dir, tmp_path) == error.format(path=path, dir=tmp_path)

    def test_golden_bytes(self, tmp_path):
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


def feature_csv(edits=None, videos=1, blank_lines=0):
    """A feature CSV of `videos` all-zero videos v0, v1, ... labelled wave, row i
    replaced by edits[i], with `blank_lines` blank lines after the header."""
    rows = [f"{i % 21 + 1},0.0,0.0,0.0,v{i // 21},wave" for i in range(21 * videos)]
    for i, row in (edits or {}).items():
        rows[i] = row
    return "\n".join([FEATURE_CSV_HEADER] + [""] * blank_lines + rows) + "\n"


# Each malformed feature CSV and the exact error read_feature_csv raises for it.
CSV_ERRORS = [
    pytest.param("lm,x\n", f"{{path}}: missing '{FEATURE_CSV_HEADER}' header", id="header"),
    pytest.param(f"{FEATURE_CSV_HEADER}\n1,0.0,0.0,0.0,v0,wave\n",
                 "{path}: 1 data rows is not a multiple of 21", id="row-count"),
    pytest.param(feature_csv({0: "1,0.0,oops,0.0,v0,wave"}),
                 "non-numeric value 'oops' in {path}:2", id="number"),
    pytest.param(feature_csv({10: "11,0.0,oops,0.0,v0,wave"}, blank_lines=2),
                 "non-numeric value 'oops' in {path}:14", id="lines-numbered-with-blanks"),
    pytest.param(feature_csv({0: "1,0.0,nan,0.0,v0,wave"}),
                 "{path}:2: NaN or infinite feature value in 'v0'", id="nan"),
    *[
        pytest.param(feature_csv({30: f"10,0.0,{cell},0.0,v1,wave"}, videos=2),
                     f"{{path}}:23: {message} in 'v1'", id=cell)
        for cell, message in (
            ("inf", "NaN or infinite feature value"),
            ("1e999", "NaN or infinite feature value"),
            ("-1", "negative variance"),
        )
    ],
    pytest.param(feature_csv({0: "1.5,0.0,0.0,0.0,v0,wave"}), "{path}:2: lm=1.5, expected 1",
                 id="fractional-lm"),
    pytest.param(feature_csv({20: "21,0.0,0.0,0.0,v1,wave"}),
                 "{path}:22: source_id or label changes mid-video", id="source-id-change"),
    pytest.param(feature_csv({i: f"{i + 1},0.0,0.0,0.0,v0,push" for i in range(10, 21)}),
                 "{path}:12: source_id or label changes mid-video", id="label-change"),
    pytest.param(feature_csv({3: "4,0.0,0.0,0.0,v0"}), "{path}:5: expected 6 values, got 5",
                 id="5-cells"),
    pytest.param(feature_csv({3: "4,0.0,0.0,0.0,v0,wave,x"}),
                 "{path}:5: expected 6 values, got 7", id="7-cells"),
    # a 7-cell row then a 5-cell one: the file's cells still line up in sixes
    pytest.param(feature_csv({2: "3,0.0,0.0,0.0,v0,wave,4", 3: "0.0,0.0,0.0,v0,wave"}),
                 "{path}:4: expected 6 values, got 7", id="misplaced-line-break"),
    # each of these files breaks two rules; the one reported is on the earlier line
    pytest.param(feature_csv({1: "2,0.0,x,0.0,v0,wave", 8: "9,0.0,0.0,v0,wave"}),
                 "non-numeric value 'x' in {path}:3", id="number-before-cell-count"),
    pytest.param(feature_csv({4: "5,0.0,0.0,0.0,v0,push", 18: "7,0.0,0.0,0.0,v0,wave"}),
                 "{path}:6: source_id or label changes mid-video", id="names-before-lm"),
    pytest.param(feature_csv({2: "4,0.0,0.0,0.0,v0,wave", 3: "4,0.0,0.0,0.0,v1,wave"}),
                 "{path}:4: lm=4, expected 3", id="lm-before-names"),
    # a feature matrix's checks come after the whole file's layout and numbers
    pytest.param(feature_csv({3: "4,0.0,-1,0.0,v0,wave", 30: "10,0.0,oops,0.0,v1,wave"}, 2),
                 "non-numeric value 'oops' in {path}:32", id="number-before-matrix"),
    pytest.param(feature_csv({3: "4,0.0,-1,0.0,v0,wave", 30: "10,0.0,0.5,0.0,v1,wave"}, 2),
                 "{path}:2: negative variance in 'v0'", id="matrix"),
    pytest.param(SMALL_CSV_TEXT.encode() + b"\xff\xfe",
                 f"{{path}}: not UTF-8 text (byte {len(SMALL_CSV_TEXT)})", id="utf-8"),
]


class TestFeatureCsv:
    @pytest.mark.parametrize("content, error", CSV_ERRORS)
    def test_malformed_file_is_a_data_error(self, tmp_path, content, error):
        path = tmp_path / "bad.csv"
        write_file(path, content)
        assert read_error(read_feature_csv, path) == error.format(path=path)

    def test_golden_bytes(self, tmp_path):
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

    @pytest.mark.parametrize("fault, expected", [
        ("cells", "{path}:{line}: expected {count} values, got {got}"),
        ("number", "non-numeric value 'x' in {path}:{line}"),
    ], ids=["cells", "number"])
    def test_both_readers_name_a_fault_alike(self, tmp_path, fault, expected):
        # the same fault on line 5 of a landmark file and of a feature CSV
        videos, csv = tmp_path / "videos", tmp_path / "bad.csv"
        videos.mkdir()
        frame = ["0.5"] * 63
        bad_frame = frame[:-1] if fault == "cells" else frame[:-1] + ["x"]
        video = write_body(videos, [",".join(frame), ",".join(bad_frame)])
        csv.write_text(feature_csv({3: "4,0.0,0.0,v0,wave" if fault == "cells"
                                    else "4,0.0,0.0,x,v0,wave"}))
        assert read_error(read_video_dir, videos) == expected.format(
            path=video, line=5, count=63, got=62
        )
        assert read_error(read_feature_csv, csv) == expected.format(
            path=csv, line=5, count=6, got=5
        )


def model_text(old, new):
    """SMALL_MODEL_TEXT with its line `old` replaced by `new`."""
    assert f"\n{old}\n" in SMALL_MODEL_TEXT
    return SMALL_MODEL_TEXT.replace(f"\n{old}\n", f"\n{new}\n")


# Each malformed model file, the exact error load_model raises for it and the
# field that error names.
MODEL_ERRORS = [
    # a v2 file: its settings rows held covariance_mode, which v3 dropped
    pytest.param(SMALL_MODEL_TEXT.replace(" v3\nk=2\n", " v2\nk=2\ncovariance_mode=full\n"),
                 "{path}: missing or unsupported version header (want 'gesture-gmm-model v3') "
                 "(field: version)", "version", id="version"),
    pytest.param("\n".join(SMALL_MODEL_TEXT.splitlines()[:11]) + "\n",
                 "{path}: file ends before 'weights' (field: weights)", "weights", id="truncated"),
    pytest.param(SMALL_MODEL_TEXT.encode() + b"\xff\xfe",
                 f"{{path}}: not UTF-8 text (byte {len(SMALL_MODEL_TEXT)})", None, id="utf-8"),
    *[
        pytest.param(model_text(f"{key}=9.9999999999999995e-07", f"{key}=inf"),
                     f"{{path}}: {message} (field: config)", "config", id=key)
        for key, message in (
            ("tol", "tol must be positive and finite"),
            ("reg_eps", "reg_eps must be non-negative and finite"),
        )
    ],
    pytest.param(model_text("iterations=7", "iterations=-1"),
                 "{path}: iterations must be at least 0 (field: iterations)", "iterations",
                 id="negative-iterations"),
    pytest.param(model_text("norm_std=1,2,4", "norm_std=1,-1,4"),
                 "{path}: normalization stds must be strictly positive (field: norm_mean/norm_std)",
                 "norm_mean/norm_std", id="negative-std"),
    pytest.param(model_text("norm_std=1,2,4", "norm_std=nan,2,4"),
                 "{path}: non-finite normalization stats (field: norm_mean/norm_std)",
                 "norm_mean/norm_std", id="nan-std"),
    pytest.param(model_text("weights=0.25,0.75", "weights=0.25,0.55"),
                 "{path}: mixing weights sum to 0.8, expected 1 within 1e-12 "
                 "(field: weights/components)", "weights/components", id="weight-sum"),
    pytest.param(model_text("weights=0.25,0.75", "weights=0.25,0.75000000005"),
                 "{path}: mixing weights sum to 1.00000000005, expected 1 within 1e-12 "
                 "(field: weights/components)", "weights/components", id="weights-off-by-5e-11"),
    pytest.param(model_text("weights=0.25,0.75", "weights=nan,0.75"),
                 "{path}: mixing weights must lie in [0, 1] (field: weights/components)",
                 "weights/components", id="nan-weight"),
    # the factorization runs on all components at once; the error names the one that failed
    *[
        pytest.param(model_text(cov, "cov=1,0,0,0,-1,0,0,0,1"),
                     f"{{path}}: component {i} covariance is not positive-definite "
                     "(field: weights/components)", "weights/components", id=f"cov-{i}")
        for i, cov in enumerate(("cov=1,0,0,0,1,0,0,0,1", "cov=2,0,0,0,3,0,0,0,4"))
    ],
    *[
        pytest.param(SMALL_MODEL_TEXT + tail,
                     "{path}: content after the 'end' sentinel (field: end)", "end",
                     id=f"after-end-{n}")
        for n, tail in enumerate(("k=9\ngarbage\n", "end\n", "\n\ncomponent=2\n"))
    ],
]


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
        token = draw(st.sampled_from(("nan", "inf", "-inf", "x", "", "-1")))
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
        tol=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        reg_eps=draw(st.floats(min_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**70)),
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
    @pytest.mark.parametrize("content, error, field", MODEL_ERRORS)
    def test_malformed_file_is_a_format_error(self, tmp_path, content, error, field):
        path = tmp_path / "m.gmm"
        write_file(path, content)
        with pytest.raises(ModelFormatError) as excinfo:
            load_model(path)
        assert (str(excinfo.value), excinfo.value.field) == (error.format(path=path), field)

    def test_small_model_golden_bytes(self, tmp_path):
        path = tmp_path / "m.gmm"
        save_model(SMALL_MODEL, path)
        assert path.read_text() == SMALL_MODEL_TEXT

    def test_weights_within_1e_12_load_exactly_as_written(self, tmp_path):
        # 0.7500000000001 as the writer spells it, in 17 significant digits
        line = "weights=0.25,0.75000000000010003"
        path = tmp_path / "m.gmm"
        path.write_text(SMALL_MODEL_TEXT.replace("weights=0.25,0.75", line))
        model = load_model(path)
        assert model.params.weights.tobytes() == np.array([0.25, 0.7500000000001]).tobytes()
        save_model(model, path)
        assert line in path.read_text().splitlines()

    def test_blank_lines_after_end_load(self, tmp_path):
        path = tmp_path / "m.gmm"
        path.write_text(SMALL_MODEL_TEXT + "\n  \n")
        save_model(load_model(path), path)
        assert path.read_text() == SMALL_MODEL_TEXT

    def test_k_disagreeing_with_the_mixture_rejected(self):
        with pytest.raises(DataError, match="k=3"):
            replace(SMALL_MODEL, config=EmConfig(k=3))

    @pytest.mark.parametrize("iterations", [2.5, -1, None, True])
    def test_iterations_not_a_non_negative_integer_rejected(self, iterations):
        # load_model would refuse what save_model wrote for any of these
        with pytest.raises(DataError, match="^iterations must be"):
            replace(SMALL_MODEL, iterations=iterations)

    @pytest.mark.parametrize("value", [None, "x", True])
    @pytest.mark.parametrize("field", ["final_log_likelihood", "silhouette"])
    def test_outcome_that_is_not_a_real_number_rejected(self, field, value):
        # save_model could not format any of these
        with pytest.raises(DataError, match=f"^{field} must be a real number"):
            replace(SMALL_MODEL, **{field: value})

    @settings(max_examples=300)
    @given(text=one_line_mutations())
    def test_one_line_mutation_loads_or_is_a_format_error(self, text, scratch_model_path):
        scratch_model_path.write_text(text)
        try:
            load_model(scratch_model_path)
        except ModelFormatError:
            pass

    @settings(max_examples=150)
    @given(model=model_files())
    def test_save_load_save_is_byte_identical(self, model, scratch_model_path):
        save_model(model, scratch_model_path)
        first = scratch_model_path.read_bytes()
        save_model(load_model(scratch_model_path), scratch_model_path)
        assert scratch_model_path.read_bytes() == first


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
    """One directory whose files each generated example overwrites. Its one
    landmark file is always v.landmarks, so read_video_dir reads it alone."""
    return tmp_path_factory.mktemp("readers")


def loads_or_names_the_file(read, path, text):
    path.write_text(text)
    try:
        read()
    except DataError as exc:
        assert str(path) in str(exc)


class TestReaderContract:
    """A reader either loads its input or raises a DataError naming the file."""

    @settings(max_examples=300)
    @given(text=reader_mutations(SMALL_VIDEO_TEXT))
    def test_mutated_video_loads_or_names_the_file(self, text, example_dir):
        path = example_dir / "v.landmarks"
        loads_or_names_the_file(lambda: read_video_dir(example_dir), path, text)

    @settings(max_examples=300)
    @given(text=reader_mutations(SMALL_CSV_TEXT))
    def test_mutated_feature_csv_loads_or_names_the_file(self, text, example_dir):
        path = example_dir / "m.csv"
        loads_or_names_the_file(lambda: read_feature_csv(path), path, text)

    def test_unmutated_inputs_load(self, example_dir):
        (example_dir / "v.landmarks").write_text(SMALL_VIDEO_TEXT)
        assert read_video_dir(example_dir)[0].frame_count == 3
        (example_dir / "f.csv").write_text(SMALL_CSV_TEXT)
        assert [f.label for f in read_feature_csv(example_dir / "f.csv")] == ["wave", "push"]

    @settings(max_examples=200)
    @given(video=gesture_videos)
    def test_video_round_trip_is_bit_exact(self, video, example_dir):
        path = example_dir / "v.landmarks"
        write_video(video, path)
        first = path.read_bytes()
        (back,) = read_video_dir(example_dir)
        assert back.frames.tobytes() == video.frames.tobytes()
        assert (back.source_id, back.label) == (video.source_id, video.label)
        write_video(back, path)
        assert path.read_bytes() == first

    @settings(max_examples=200)
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


def body_with(cell: str, last: bool = False) -> list[str]:
    """Two frames, the second starting with `cell`, or ending with it."""
    rest = ",".join(["0.5"] * 62)
    return [FRAME_ROW, f"{rest},{cell}" if last else f"{cell},{rest}"]


def write_body(directory, rows: list[str]) -> Path:
    """A landmark file with a label line, so its body starts on line 4."""
    path = directory / "v.landmarks"
    path.write_text("gesture-landmarks v1\nsource_id=v\nlabel=wave\n" + "".join(
        f"{row}\n" for row in rows
    ))
    return path


def parse_outcome(path):
    """What _parse_video makes of a file: its parts with the frames' exact
    bytes, or the text of its DataError."""
    try:
        source_id, label, frames = gio._parse_video(path)
    except DataError as exc:
        return str(exc)
    return source_id, label, frames.dtype, frames.shape, frames.tobytes()


def line_loop_outcome(path):
    """parse_outcome with numpy's reader refusing every body, so _parse_video
    parses it line by line."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        return parse_outcome(path)


# Cells the two parsers might disagree on: what float() takes and numpy
# refuses, what numpy strips and float() refuses, comments, quotes, NULs and
# non-finite values.
TRICKY_CELLS = (
    "1_0", "\u0661.5", "\xa00.5\xa0", "\x1f0.5", "0.5\x1f", "0.5#x", "0x1p3", "", '"0.5"',
    "0.5\x00", "inf", "-Infinity", "+NaN", "1e999", " ", "\t1e-3 ", "nan(1)", "1e", "-0",
)


@st.composite
def video_bodies(draw):
    """Up to three frame lines, most of 63 cells, a few of their cells replaced
    by a drawn float, a tricky cell or arbitrary text, with blank or
    whitespace-only lines between them."""
    cells = st.one_of(
        coordinates.map(repr),
        st.sampled_from(TRICKY_CELLS),
        st.text(st.characters(codec="utf-8"), max_size=4),
    )
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        count = draw(st.sampled_from((63,) * 12 + (62, 64)))
        row = [repr(i / 7) for i in range(count)]
        for _ in range(draw(st.sampled_from((0, 1, 1, 2, 3)))):
            at = draw(st.sampled_from((0, count - 1)) | st.integers(0, count - 1))
            row[at] = draw(cells)
        rows.append(",".join(row))
        rows += draw(st.lists(st.sampled_from(("", " ", "\t", "\xa0")), max_size=1))
    return rows


class TestFastReadIsTheLineLoop:
    """numpy's reader parses a landmark body exactly as the line loop would:
    the same frames, bit for bit, or the same DataError."""

    @settings(max_examples=300)
    @given(rows=video_bodies())
    def test_generated_bodies(self, rows, example_dir):
        path = write_body(example_dir, rows)
        assert parse_outcome(path) == line_loop_outcome(path)

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661.5", 1.5), ("\xa00.5\xa0", 0.5)])
    def test_what_float_takes_and_numpy_refuses_is_read(self, cell, value, example_dir):
        path = write_body(example_dir, body_with(cell))
        assert parse_outcome(path) == line_loop_outcome(path)
        assert read_video_dir(example_dir)[0].frames[1, 0, 0] == value

    @pytest.mark.parametrize("last", [False, True], ids=["first", "last"])
    @pytest.mark.parametrize(
        "cell", ["0.5#x", "0x1p3", "", '"0.5"', "0.5\x00", "\x1f0.5", "0.5\x1f"]
    )
    def test_what_float_refuses_names_the_line(self, cell, last, example_dir):
        path = write_body(example_dir, body_with(cell, last))
        expected = f"non-numeric value {cell!r} in {path}:5"
        assert parse_outcome(path) == line_loop_outcome(path) == expected

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "+NaN", "1e999"])
    def test_non_finite_is_parsed_then_rejected(self, cell, example_dir):
        path = write_body(example_dir, body_with(cell))
        assert parse_outcome(path) == line_loop_outcome(path)
        frames = gio._parse_video(path)[2]
        assert np.array_equal(frames[1, 0, 0], float(cell), equal_nan=True)
        assert read_error(read_video_dir, example_dir) == f"{path}: non-finite landmark coordinate in 'v'"

    @pytest.mark.parametrize("rows, outcome", [
        ([" ", FRAME_ROW, "", "\t", FRAME_ROW, "\xa0"], (2, 21, 3)),
        ([FRAME_ROW], (1, 21, 3)),
        ([], (0, 21, 3)),
        ([FRAME_ROW[len("0.5,"):]] * 2, "{path}:4: expected 63 values, got 62"),
    ], ids=["whitespace-lines", "one-frame", "no-frames", "62-cells"])
    def test_layouts(self, rows, outcome, example_dir):
        path = write_body(example_dir, rows)
        parsed = parse_outcome(path)
        assert parsed == line_loop_outcome(path)
        if isinstance(outcome, str):
            assert parsed == outcome.format(path=path)
        else:
            assert parsed[3] == outcome

    def test_a_written_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        # the line loop calls _parse_floats for every line it reads
        video = generate_dataset(default_profiles(), videos_per_profile=1, seed=0)[0]
        write_video(video, tmp_path / "v.landmarks")

        def refuse(cells, where):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(gio, "_parse_floats", refuse)
        assert read_video_dir(tmp_path)[0].frames.tobytes() == video.frames.tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, tmp_path, bad):
        with pytest.raises(DataError, match="^non-finite data point$"):
            export_plot_data([[0.0, bad, 0.0]], {tmp_path / "a.csv": ["a"]})
        assert list(tmp_path.iterdir()) == []

    def test_length_mismatch_rejected(self, tmp_path):
        # checked for every file before any is written
        files = {tmp_path / "a.csv": ["a"] * 4, tmp_path / "b.csv": ["b"] * 3}
        with pytest.raises(DataError, match="4 rows vs 3 group entries"):
            export_plot_data(np.zeros((4, 3)), files)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("groups, error", [
        (["a,b", "x\ny"], "^group 'a,b' holds a comma or line break$"),
        ("ab", "^groups must be a sequence, got 'ab'$"),
        ([["a"], ["b"]], r"^group must be a string, got \['a'\]$"),
    ], ids=["comma", "whole string", "unhashable"])
    def test_group_the_file_cannot_hold_rejected(self, tmp_path, groups, error):
        # checked for every file before any is written
        files = {tmp_path / "a.csv": ["a", "b"], tmp_path / "b.csv": groups}
        with pytest.raises(DataError, match=error):
            export_plot_data(np.zeros((2, 3)), files)
        assert list(tmp_path.iterdir()) == []

    def test_each_file_holds_the_same_rows_under_its_own_groups(self, tmp_path):
        rows = [[1 / 3, -0.0, 1e-300], [2.5, 7.0, 5e-324]]
        together = {tmp_path / "before.csv": ["wave", "push"], tmp_path / "after.csv": ["x", "y"]}
        export_plot_data(rows, together)
        for path, groups in together.items():
            alone = tmp_path / f"alone-{path.name}"
            export_plot_data(rows, {alone: groups})
            assert path.read_bytes() == alone.read_bytes()

    def test_exports_cross_check_with_classifier(self, tmp_path, default_experiment):
        # confusion derived from the before/after exports must equal the
        # accuracy measured by classify_video on the same corpus
        model, features = default_experiment["model"], default_experiment["features"]
        assignment = default_experiment["assignment"]
        rows = np.vstack([f.rows for f in features])
        truth_groups = [f.label for f in features for _ in range(21)]
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


@pytest.mark.parametrize("entry", [("b.landmarks", "b", None), ("b,c.landmarks", "b,c", "wave")])
def test_manifest_entry_the_file_cannot_hold_rejected(tmp_path, entry):
    path = tmp_path / "manifest.csv"
    with pytest.raises(DataError, match="must be a string|comma or line break"):
        write_manifest([("a.landmarks", "a", "wave"), entry], path)
    assert list(tmp_path.iterdir()) == []


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


# ---------------------------------------------------------------------------
# Landmark files shared out between processes


@pytest.fixture()
def corpus(tmp_path):
    """Eight small video files, in sorted (read) order."""
    directory = tmp_path / "corpus"
    directory.mkdir()
    for video in generate_dataset(default_profiles(), videos_per_profile=2, frames=12, seed=4):
        write_video(video, directory / f"{video.source_id}.landmarks")
    return sorted(directory.iterdir())


def read_error(read, *args) -> str:
    with pytest.raises(DataError) as info:
        read(*args)
    return str(info.value)


class TestFanOut:
    def test_read_video_dir_is_the_serial_read(self, corpus, cpus, processes, forks):
        cpus(1)
        serial = read_video_dir(corpus[0].parent)
        cpus(processes)
        videos = read_video_dir(corpus[0].parent)
        assert len(forks) == processes - 1
        assert [(v.source_id, v.label) for v in videos] == [(v.source_id, v.label) for v in serial]
        for video, expected in zip(videos, serial):
            assert video.frames.dtype == expected.frames.dtype
            assert video.frames.tobytes() == expected.frames.tobytes()
        assert_no_child_left()

    def test_synth_train_and_score_write_the_serial_bytes(
        self, tmp_path, capsys, cpus, processes, forks
    ):
        # synth writes videos, train and score read them and share out their
        # silhouette blocks: five fan-outs, each forking processes - 1 children
        def pipeline(out, count):
            cpus(count)
            data, model = out / "data", out / "model"
            argv = ["synth", "--output", str(data), "--seed", "0", "--videos-per-profile", "3"]
            assert cli.main([*argv, "--frames", "40"]) == 0
            capsys.readouterr()
            assert cli.main(["train", "--input", str(data), "--output", str(model)]) == 0
            train = capsys.readouterr().out
            assert cli.main(["score", "--model", str(model / "model.gmm"), "--input", str(data)]) == 0
            score = capsys.readouterr().out
            files = {p.name: p.read_bytes() for d in (data, model) for p in d.iterdir()}
            return files, train, score

        serial = pipeline(tmp_path / "serial", 1)
        shared = pipeline(tmp_path / "shared", processes)
        assert len(forks) == 5 * (processes - 1)
        # 12 videos, the manifest, the model and the two plot exports
        assert len(shared[0]) == 16
        assert shared == serial
        assert_no_child_left()

    def test_first_error_in_file_order_is_raised(self, corpus, cpus, processes, forks):
        # file 1 is in the first child's share, file 6 in the caller's share
        for index in (1, 6):
            corpus[index].write_text(corpus[index].read_text().replace(",", ";", 1))
        cpus(1)
        expected = read_error(read_video_dir, corpus[0].parent)
        assert expected.startswith(f"{corpus[1]}:4: expected 63 values, got 62")
        cpus(processes)
        assert read_error(read_video_dir, corpus[0].parent) == expected
        assert len(forks) == processes - 1
        assert_no_child_left()

    def test_a_bad_video_before_a_bad_layout_is_reported_first(self, corpus, processes):
        # file 0 parses but holds one frame; file 1, parsed elsewhere, does not parse
        lines = corpus[0].read_text().splitlines()
        corpus[0].write_text("\n".join(lines[:4]) + "\n")
        corpus[1].write_text("not a landmarks file\n")
        assert read_error(read_video_dir, corpus[0].parent) == (
            f"{corpus[0]}: a gesture video needs at least 2 frames"
        )
        assert_no_child_left()

    @pytest.mark.parametrize("processes", [2, 3], indirect=True)
    def test_a_child_that_dies_is_a_data_error(self, tmp_path, capsys, corpus, monkeypatch, processes):
        caller, parse = os.getpid(), gio._parse_video

        def dies_on_file_1(path):
            if path == corpus[1] and os.getpid() != caller:
                os._exit(1)
            return parse(path)

        monkeypatch.setattr(gio, "_parse_video", dies_on_file_1)
        argv = ["train", "--input", str(corpus[0].parent), "--output", str(tmp_path / "model")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("data error: worker process ")
        assert line.endswith("ended without answering: Ran out of input")
        assert_no_child_left()

    def test_serial_without_fork(self, corpus, monkeypatch, cpus):
        cpus(3)
        monkeypatch.delattr(os, "fork")
        assert len(read_video_dir(corpus[0].parent)) == len(corpus)

    def test_serial_while_another_thread_runs(self, corpus, cpus, forks):
        cpus(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert len(read_video_dir(corpus[0].parent)) == len(corpus)
        finally:
            release.set()
            thread.join()
        assert forks == []
