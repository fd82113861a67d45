"""Checks that tie documentation and benchmark hooks to the code they name."""

import importlib.util
import re
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np

from gesturemix import (
    ClusterLabelMap,
    MixtureParams,
    NormalizationStats,
    classify,
    compute_variances,
    default_profiles,
    generate_video,
)

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(code, "README.md", "exec"), {})
    silhouette, winner = capsys.readouterr().out.split()
    assert 0.6 < float(silhouette) < 0.7
    assert winner in {"wave", "pick", "stack", "push"}


def test_benchmark_trace_points_resolve():
    # the benchmark's tracer rebinds these names; a rename would break `--trace 1`
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, *_ in tracing.TRACE_POINTS
        if not hasattr(import_module(module), name)
    ]
    assert tracing.TRACE_POINTS
    assert missing == []


def test_classify_video_calls_its_traced_layers_once(monkeypatch):
    # the tracer sees the E-step and the normalization of a realtime gesture only
    # through these module-level names; a path around them would read 0 seconds
    calls = Counter()
    for name in ("e_step", "apply_normalization"):
        original = getattr(classify, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(classify, name, counted)
    params = MixtureParams(means=np.eye(2, 3), covs=[np.eye(3)] * 2, weights=[0.5, 0.5])
    label_map = ClusterLabelMap(labels=("pick", "wave"), confidence=(1.0, 1.0))
    stats = NormalizationStats(mean=np.full(3, 0.01), std=np.full(3, 0.01))
    for i, profile in enumerate(default_profiles()):
        features = compute_variances(generate_video(profile, frames=30, seed=i))
        classify.classify_video(features, params, label_map, stats)
        assert calls == {"e_step": i + 1, "apply_normalization": i + 1}
