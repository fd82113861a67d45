import os
from pathlib import Path

import numpy as np
import pytest

import gesturemix
from gesturemix import (
    ClusterLabelMap,
    FeatureMatrix,
    MixtureParams,
    NormalizationStats,
    classify,
    classify_video,
)
from gesturemix import parallel


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
