"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from gesturemix import (
    EmConfig,
    MixtureParams,
    apply_normalization,
    build_label_map,
    classify_video,
    compute_variances,
    default_profiles,
    fit,
    fit_normalization,
    generate_dataset,
    log_likelihood,
    result_record,
    silhouette,
)
from gesturemix.io import ModelFile, load_model, save_model, write_feature_csv
from oracles import brute_force_silhouette

# Frozen after the one-off calibration run of the default corpus
# (seed 0, 80 videos x 150 frames, k=4, tol 1e-6, reg 1e-6).
CALIBRATED_SILHOUETTE = 0.63481518184441477

RECOVERY_MEANS = np.array(
    [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _blobby_data(rng, n, k):
    means = rng.normal(scale=4.0, size=(k, 3))
    assign = rng.integers(0, k, size=n)
    return means[assign] + rng.normal(scale=0.5, size=(n, 3))


def _separated_instance(seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(loc=m, scale=0.2, size=(100, 3)) for m in RECOVERY_MEANS])


def _with_means(params, means):
    return MixtureParams(means=means, covs=params.covs, weights=params.weights)


@pytest.fixture(scope="module")
def default_run():
    """Default experiment: 80-video synthetic corpus trained with seed 0."""
    start = time.perf_counter()
    videos = generate_dataset(default_profiles(), videos_per_profile=20, frames=150, seed=0)
    features = [compute_variances(v) for v in videos]
    raw_rows = np.vstack([f.rows for f in features])
    stats = fit_normalization(raw_rows)
    data = apply_normalization(raw_rows, stats)
    config = EmConfig(k=4, seed=0)
    params, resp, trace = fit(data, config)
    assignment = np.argmax(resp, axis=1)
    label_map = build_label_map(assignment, [f.label for f in features for _ in range(21)], 4)
    report = silhouette(data, assignment)
    train_seconds = time.perf_counter() - start
    model = ModelFile(
        config=config,
        params=params,
        stats=stats,
        label_map=label_map,
        iterations=trace.n_iters,
        final_log_likelihood=trace.log_likelihoods[-1],
        silhouette=report.overall,
    )
    return {
        "videos": videos,
        "features": features,
        "stats": stats,
        "params": params,
        "label_map": label_map,
        "report": report,
        "train_seconds": train_seconds,
        "model": model,
    }


def test_criterion_01_em_monotonicity():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = np.inf
    for trial in range(200):
        n = int(rng.integers(50, 2001))
        k = int(rng.integers(1, 7))
        x = _blobby_data(rng, n, k)
        _, _, trace = fit(x, EmConfig(k=k, seed=trial))
        diffs = np.diff(trace.log_likelihoods)
        if diffs.size:
            worst = min(worst, float(diffs.min()))
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-9 and elapsed < 60.0
    _report(1, "em-monotonicity", ok, f"worst step {worst:.3e}, {elapsed:.1f}s for 200 fits")


def test_criterion_02_mstep_stationarity():
    worst_grad = 0.0
    worst_gain = -np.inf
    h = 1e-5
    for seed in range(20):
        x = _separated_instance(seed)
        params, _, _ = fit(x, EmConfig(k=4, seed=seed, tol=1e-12, max_iters=3000, reg_eps=0.0))
        base = log_likelihood(x, params)
        means = params.means
        for kc in range(4):
            for c in range(3):
                up, dn = means.copy(), means.copy()
                up[kc, c] += h
                dn[kc, c] -= h
                grad = (
                    log_likelihood(x, _with_means(params, up))
                    - log_likelihood(x, _with_means(params, dn))
                ) / (2 * h)
                worst_grad = max(worst_grad, abs(grad))
        rng = np.random.default_rng(seed)
        directions = [
            np.eye(4)[i] - np.eye(4)[j] for i in range(4) for j in range(4) if i != j
        ]
        for _ in range(10):
            d = rng.normal(size=4)
            d -= d.mean()
            directions.append(d)
        for direction in directions:
            direction = direction / np.linalg.norm(direction)
            perturbed = params.weights + 1e-4 * direction
            if np.any(perturbed < 0):
                continue
            candidate = MixtureParams(
                means=params.means, covs=params.covs, weights=perturbed / perturbed.sum()
            )
            worst_gain = max(worst_gain, log_likelihood(x, candidate) - base)
    ok = worst_grad < 1e-3 and worst_gain <= 1e-6
    _report(
        2,
        "mstep-stationarity",
        ok,
        f"max |dL/dmean| {worst_grad:.2e}, max weight-perturbation gain {worst_gain:.2e}",
    )


def test_criterion_03_mixture_recovery():
    hits = 0
    for seed in range(20):
        x = _separated_instance(1000 + seed)
        params, _, _ = fit(x, EmConfig(k=4, seed=seed))
        fitted = params.means
        best = min(
            max(np.linalg.norm(fitted[list(perm)] - RECOVERY_MEANS, axis=1))
            for perm in itertools.permutations(range(4))
        )
        hits += best < 0.1
    ok = hits >= 19
    _report(3, "mixture-recovery", ok, f"{hits}/20 seeds recovered means within 0.1")


def test_criterion_04_silhouette_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, 6))
        data = rng.normal(size=(n, 3), scale=2.0)
        assignment = rng.integers(0, k, size=n)
        if len(np.unique(assignment)) < 2:
            assignment[0], assignment[1] = 0, 1
        report = silhouette(data, assignment)
        oracle = np.array(brute_force_silhouette(data, assignment))
        worst = max(worst, float(np.max(np.abs(report.per_point - oracle))))
    ok = worst <= 1e-12
    _report(4, "silhouette-oracle", ok, f"max |difference| {worst:.2e} over 100 instances")


def test_criterion_05_reference_posterior_votes(votes_on_posteriors):
    gestures = ("G1", "G2", "G3", "G4")
    posteriors = np.full((21, 4), 0.25)
    posteriors[0] = [0.2, 0.1, 0.6, 0.1]
    posteriors[20] = [0.08, 0.02, 0.8, 0.1]
    votes = votes_on_posteriors(posteriors)
    (idx1, p1), (idx21, p21) = votes[0], votes[20]
    ok = (gestures[idx1], p1) == ("G3", 0.6) and (gestures[idx21], p21) == ("G3", 0.8)
    _report(
        5,
        "reference-posterior-votes",
        ok,
        f"row 1 -> {gestures[idx1]}@{p1}, row 21 -> {gestures[idx21]}@{p21}",
    )


def test_criterion_06_experiment_shape(default_run, tmp_path):
    features = default_run["features"]
    csv_path = tmp_path / "features.csv"
    write_feature_csv(features, csv_path)
    data_rows = len(csv_path.read_text().splitlines()) - 1
    seconds = default_run["train_seconds"]
    ok = len(default_run["videos"]) == 80 and data_rows == 1680 and seconds < 30.0
    _report(
        6,
        "experiment-shape",
        ok,
        f"{len(default_run['videos'])} videos, {data_rows} feature rows, train {seconds:.1f}s",
    )


def test_criterion_07_accuracy_band(default_run):
    model = default_run["model"]
    accuracies = []
    for seed in (101, 102, 103, 104, 105):
        held = generate_dataset(default_profiles(), videos_per_profile=13, frames=150, seed=seed)
        held = held[:50]
        correct = sum(
            classify_video(compute_variances(v), model.params, model.label_map, model.stats).winner
            == v.label
            for v in held
        )
        accuracies.append(correct / 50)
    ok = all(acc >= 0.94 for acc in accuracies)
    _report(7, "accuracy-band", ok, "accuracies " + ", ".join(f"{a:.2f}" for a in accuracies))


def test_criterion_08_silhouette_band(default_run):
    overall = default_run["report"].overall
    ok = 0.45 <= overall <= 0.80 and abs(overall - CALIBRATED_SILHOUETTE) <= 0.02
    _report(
        8,
        "silhouette-band",
        ok,
        f"training silhouette {overall:.4f} vs calibrated {CALIBRATED_SILHOUETTE:.4f}",
    )


def test_criterion_09_persistence_round_trip(default_run, tmp_path):
    model = default_run["model"]
    path = tmp_path / "model.gmm"
    save_model(model, path)
    reloaded = load_model(path)
    held = generate_dataset(default_profiles(), videos_per_profile=25, frames=150, seed=777)
    mismatches = 0
    for video in held:
        feat = compute_variances(video)
        a = classify_video(feat, model.params, model.label_map, model.stats)
        b = classify_video(feat, reloaded.params, reloaded.label_map, reloaded.stats)
        if result_record(a, model.label_map) != result_record(b, reloaded.label_map):
            mismatches += 1
    ok = mismatches == 0 and len(held) == 100
    _report(9, "persistence-round-trip", ok, f"{mismatches} mismatching records out of 100")


def _pipeline_run(workdir, env):
    env_cmds = [
        ["synth", "--output", "data", "--seed", "0"],
        ["train", "--input", "data", "--output", "model", "--seed", "0"],
        ["classify", "--model", "model/model.gmm", "--input", "data"],
    ]
    outputs = []
    for cmd in env_cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "gesturemix.cli", *cmd],
            cwd=workdir,
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, (
            f"gesturemix {cmd[0]} exited {proc.returncode} in {workdir}:\n"
            f"{proc.stderr.decode()}"
        )
        outputs.append(proc.stdout)
    return outputs


def test_criterion_10_end_to_end_determinism(tmp_path, cli_env):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    out_a = _pipeline_run(run_a, cli_env)
    out_b = _pipeline_run(run_b, cli_env)
    stdout_same = out_a == out_b
    file_mismatches = []
    for sub in ("data", "model"):
        files_a = sorted((run_a / sub).iterdir())
        files_b = sorted((run_b / sub).iterdir())
        if [f.name for f in files_a] != [f.name for f in files_b]:
            file_mismatches.append(f"{sub}: differing file sets")
        else:
            for fa, fb in zip(files_a, files_b):
                if fa.read_bytes() != fb.read_bytes():
                    file_mismatches.append(fa.name)
    ok = stdout_same and not file_mismatches
    _report(
        10,
        "end-to-end-determinism",
        ok,
        "stdout identical, all files identical"
        if ok
        else f"stdout same: {stdout_same}, file diffs: {file_mismatches}",
    )
