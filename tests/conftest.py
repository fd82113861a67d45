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


@pytest.fixture()
def cli_env():
    """Environment for child processes that must import the gesturemix under test.

    A relative PYTHONPATH (such as ``src``) stops resolving once a child runs
    with another working directory, so the absolute directory holding the
    imported package goes first; existing entries are kept after it.
    """
    package_root = str(Path(gesturemix.__file__).resolve().parent.parent)
    entries = [package_root, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, entries))}


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
