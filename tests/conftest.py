import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import gesturemix
from gesturemix import (
    ClusterLabelMap,
    EmConfig,
    FeatureMatrix,
    MixtureParams,
    NormalizationStats,
    apply_normalization,
    build_label_map,
    classify,
    classify_video,
    compute_variances,
    default_profiles,
    fit,
    fit_normalization,
    generate_dataset,
    silhouette,
)
from gesturemix import parallel
from gesturemix.io import ModelFile

# Every property test draws the same examples on every run and keeps no
# example database; each test sets only how many examples it draws.
settings.register_profile("tier1", deadline=None, database=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def default_experiment():
    """The paper's experiment: the corpus of seed 0 (4 gestures x 20 videos x
    150 frames) trained as `train` does, with k=4, seed 0 and every row's label,
    timed from generation to silhouette."""
    start = time.perf_counter()
    videos = generate_dataset(default_profiles(), videos_per_profile=20, frames=150, seed=0)
    features = [compute_variances(v) for v in videos]
    raw_rows = np.vstack([f.rows for f in features])
    stats = fit_normalization(raw_rows)
    data = apply_normalization(raw_rows, stats)
    row_labels = [f.label for f in features for _ in range(21)]
    config = EmConfig(k=4, seed=0)
    params, resp, trace = fit(data, config, row_labels)
    assignment = np.argmax(resp, axis=1)
    label_map = build_label_map(assignment, row_labels, 4)
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
        "assignment": assignment,  # each training row's most responsible component
        "report": report,
        "train_seconds": train_seconds,
        "model": model,  # its params, stats and label map are the experiment's
    }


@pytest.fixture(scope="session")
def held_out():
    """Criterion 07's held-out videos: the first 50 of each 13-per-gesture corpus
    of seeds 101-105, in seed order."""
    corpora = (
        generate_dataset(default_profiles(), videos_per_profile=13, frames=150, seed=seed)
        for seed in (101, 102, 103, 104, 105)
    )
    return [video for corpus in corpora for video in corpus[:50]]


@pytest.fixture()
def cli_env():
    """Environment for child processes that must import the gesturemix under test.

    A relative PYTHONPATH (such as ``src``) stops resolving once a child runs
    with another working directory, so the absolute directory holding the
    imported package goes first; existing entries are kept after it. Any
    warning is an error in the child and in the processes it forks, as it is
    in the tests themselves.
    """
    package_root = str(Path(gesturemix.__file__).resolve().parent.parent)
    entries = [package_root, os.environ.get("PYTHONPATH")]
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, entries)),
        "PYTHONWARNINGS": "error",
    }


@pytest.fixture()
def votes_on_posteriors(monkeypatch):
    """classify_video's per-row votes when the E-step yields the given (rows, K)
    posterior matrix; component i is labelled ``c<i>``."""

    def votes(posteriors):
        posteriors = np.asarray(posteriors, dtype=float)
        rows, k = posteriors.shape
        monkeypatch.setattr(classify, "e_step", lambda data, params: posteriors)
        params = MixtureParams(
            means=np.zeros((k, 3)),
            covs=np.broadcast_to(np.eye(3), (k, 3, 3)),
            weights=np.full(k, 1 / k),
        )
        label_map = ClusterLabelMap(labels=tuple(f"c{i}" for i in range(k)), confidence=(1.0,) * k)
        stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
        feat = FeatureMatrix(rows=np.zeros((rows, 3)), source_id="posteriors")
        return classify_video(feat, params, label_map, stats).votes

    return votes


@pytest.fixture()
def cpus(monkeypatch):
    """Make the fan-out see the given number of usable CPUs."""

    def set_cpus(count):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: count)

    return set_cpus


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"processes={w}")
def processes(request, cpus):
    """The number of processes the fan-out shares items between."""
    cpus(request.param)
    return request.param


@pytest.fixture()
def forks(monkeypatch):
    """The list of child pids forked while the test runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
