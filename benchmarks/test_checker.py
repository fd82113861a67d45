"""Tests of the benchmark's checker: brute-force loops on small inputs, and
rejection of corrupted program output.

    python3 -m pytest -q benchmarks/test_checker.py
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402


def _random_mixture(rng, k=3, d=3):
    means = rng.normal(size=(k, d))
    covs = []
    for _ in range(k):
        a = rng.normal(size=(d, d))
        covs.append(a @ a.T + 0.5 * np.eye(d))
    weights = rng.uniform(0.2, 1.0, size=k)
    return weights / weights.sum(), means, np.array(covs)


def _loop_log_gaussian(x, mean, cov):
    inv = np.linalg.inv(cov)
    d = len(mean)
    quad = 0.0
    for i in range(d):
        for j in range(d):
            quad += (x[i] - mean[i]) * inv[i, j] * (x[j] - mean[j])
    return -0.5 * (d * math.log(2 * math.pi) + math.log(np.linalg.det(cov)) + quad)


def _loop_silhouette(x, assignment):
    n = len(x)
    scores = []
    for i in range(n):
        dist = {}
        for j in range(n):
            if j != i:
                dist.setdefault(assignment[j], []).append(math.sqrt(sum((x[i] - x[j]) ** 2)))
        if assignment[i] not in dist:  # singleton cluster
            scores.append(0.0)
            continue
        a = sum(dist[assignment[i]]) / len(dist[assignment[i]])
        b = min(sum(v) / len(v) for c, v in dist.items() if c != assignment[i])
        scores.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    per_cluster = {int(c): float(np.mean([s for s, a in zip(scores, assignment) if a == c])) for c in set(assignment)}
    return float(np.mean(scores)), per_cluster


def test_log_gaussian_matches_loops():
    rng = np.random.default_rng(1)
    weights, means, covs = _random_mixture(rng)
    x = rng.normal(size=(7, 3))
    got = checker.log_gaussian(x, means[0], covs[0])
    want = [_loop_log_gaussian(row, means[0], covs[0]) for row in x]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_log_likelihood_matches_loops():
    rng = np.random.default_rng(2)
    weights, means, covs = _random_mixture(rng)
    x = rng.normal(size=(9, 3))
    want = sum(
        math.log(sum(w * math.exp(_loop_log_gaussian(row, m, c)) for w, m, c in zip(weights, means, covs)))
        for row in x
    )
    assert checker.log_likelihood(x, weights, means, covs) == pytest.approx(want, rel=1e-12)


def test_variances_match_loops():
    frames = np.random.default_rng(3).normal(size=(5, 21, 3))
    got = checker.variances(frames)
    for lm in range(21):
        for axis in range(3):
            col = frames[:, lm, axis]
            mean = sum(col) / len(col)
            assert got[lm, axis] == pytest.approx(sum((v - mean) ** 2 for v in col) / len(col), rel=1e-12)


def test_votes_tie_to_lowest_component_then_smallest_label():
    cov = np.eye(3)
    means = np.zeros((2, 3))
    votes = checker.component_votes(np.ones((21, 3)), np.array([0.5, 0.5]), means, np.array([cov, cov]))
    assert votes.tolist() == [0] * 21
    # 10 rows for component 0 ("wave"), 10 for 1 ("pick"), 1 for 2 ("wave")
    comp = np.array([0] * 10 + [1] * 10 + [2])
    [(counts, winner, margin)] = checker.video_votes(comp, ["wave", "pick", "wave"])
    assert (counts, winner, margin) == ({"pick": 10, "wave": 11}, "wave", 1)
    [(counts, winner, margin)] = checker.video_votes(comp, ["wave", "pick", "stack"])
    assert (counts, winner, margin) == ({"pick": 10, "stack": 1, "wave": 10}, "pick", 0)


def test_label_map_majority_ties_and_empty_components():
    votes = np.array([0, 0, 0, 1, 1, 1, 1])
    labels = ["a", "b", "b", "d", "c", "c", "d"]
    got_labels, confidence = checker.label_map(votes, labels, 3)
    assert got_labels == ["b", "c", None]
    assert confidence == [pytest.approx(2 / 3), 0.5, 0.0]


@pytest.mark.parametrize("chunk", [1, 3, 7, 100])
def test_silhouette_matches_loops(chunk):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(23, 3))
    assignment = rng.integers(0, 3, size=23)
    assignment[5] = 7  # a singleton cluster scores 0
    overall, per_cluster = checker.silhouette(x, assignment, chunk=chunk)
    want_overall, want_per_cluster = _loop_silhouette(x, assignment.tolist())
    assert overall == pytest.approx(want_overall, abs=1e-14)
    assert per_cluster.keys() == want_per_cluster.keys()
    for c, v in want_per_cluster.items():
        assert per_cluster[c] == pytest.approx(v, abs=1e-14)


def test_synth_variance_property():
    from gesturemix.synth import NOISE_STD, PROFILE_AMPLITUDES, default_profiles, generate_dataset

    videos = generate_dataset(default_profiles(), videos_per_profile=20, frames=150, seed=0)
    by_label = {}
    for v in videos:
        by_label.setdefault(v.label, []).append(v.frames)
    assert checker.synth_variance_problems(by_label, PROFILE_AMPLITUDES, NOISE_STD) == []
    wrong = {k: 2 * np.asarray(a) for k, a in PROFILE_AMPLITUDES.items()}
    assert len(checker.synth_variance_problems(by_label, wrong, NOISE_STD)) == 4 * 3


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A real synth -> train -> classify -> score run on a small corpus."""
    from gesturemix import cli

    d = tmp_path_factory.mktemp("tiny")
    outputs = {}
    for argv in (
        ["synth", "--output", str(d / "data"), "--videos-per-profile", "5", "--frames", "40", "--seed", "0"],
        ["train", "--input", str(d / "data"), "--output", str(d / "model"), "--seed", "0"],
        ["classify", "--model", str(d / "model" / "model.gmm"), "--input", str(d / "data")],
        ["score", "--model", str(d / "model" / "model.gmm"), "--input", str(d / "data")],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        outputs[argv[0]] = out.getvalue()
    files = sorted((d / "data").glob("*.landmarks"))
    parsed = [checker.parse_video(f) for f in files]
    raw_rows = checker.variances(np.array([p[2] for p in parsed])).reshape(-1, 3)
    model = checker.parse_model(d / "model" / "model.gmm")
    return {
        "outputs": outputs,
        "model": model,
        "expected": checker.recompute(model, raw_rows),
        "raw_rows": raw_rows,
        "ids": [p[0] for p in parsed],
        "labels": [p[1] for p in parsed],
        "actions": dict(cli.GESTURE_ACTIONS),
    }


def _check_all(run, train=None, classify=None, score=None):
    out = run["outputs"]
    row_labels = np.repeat(run["labels"], 21)
    problems, _ = checker.check_train(train or out["train"], run["model"], run["expected"], run["raw_rows"], row_labels)
    problems += checker.check_classify(
        classify or out["classify"], run["model"], run["expected"], run["ids"], run["labels"], run["actions"]
    )
    return problems + checker.check_score(score or out["score"], run["expected"])


def test_real_outputs_pass(tiny_run):
    assert _check_all(tiny_run) == []


def test_flipped_vote_is_rejected(tiny_run):
    lines = tiny_run["outputs"]["classify"].splitlines()
    cells = lines[1].split(",")
    top = max(range(3, len(cells)), key=lambda i: int(cells[i]))
    other = 3 if top != 3 else 4
    cells[top], cells[other] = str(int(cells[top]) - 1), str(int(cells[other]) + 1)
    lines[1] = ",".join(cells)
    problems = _check_all(tiny_run, classify="\n".join(lines) + "\n")
    assert len(problems) == 1 and problems[0].startswith(f"classify {cells[0]}: record")


def test_perturbed_silhouette_is_rejected(tiny_run):
    kv = checker.parse_kv(tiny_run["outputs"]["score"])
    value = float(kv["silhouette_overall"])
    text = tiny_run["outputs"]["score"].replace(f"silhouette_overall={kv['silhouette_overall']}",
                                                f"silhouette_overall={value + 1e-9!r}")
    problems = _check_all(tiny_run, score=text)
    assert len(problems) == 1 and problems[0].startswith("score: silhouette_overall=")


def test_perturbed_log_likelihood_is_rejected(tiny_run):
    kv = checker.parse_kv(tiny_run["outputs"]["train"])
    value = float(kv["log_likelihood"])
    text = tiny_run["outputs"]["train"].replace(f"log_likelihood={kv['log_likelihood']}",
                                                f"log_likelihood={value * (1 + 1e-8)!r}")
    problems = _check_all(tiny_run, train=text)
    assert any(p.startswith("train: log_likelihood=") for p in problems)


def test_wrong_action_is_rejected(tiny_run):
    text = tiny_run["outputs"]["classify"].replace("pick-object", "push-object", 1)
    assert any("action lines" in p for p in _check_all(tiny_run, classify=text))
