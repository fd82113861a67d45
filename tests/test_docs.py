"""Checks that tie documentation and benchmark hooks to the code they name."""

import argparse
import importlib.util
import re
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

from gesturemix import (
    ClusterLabelMap,
    EmConfig,
    MixtureParams,
    NormalizationStats,
    apply_normalization,
    classify,
    cli,
    compute_variances,
    default_profiles,
    fit,
    fit_normalization,
    generate_dataset,
    generate_video,
    gmm,
    parallel,
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


def test_readme_cli_synopsis_names_every_flag_of_each_command():
    synopsis = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```")[1]
    named = {
        chunk.split()[0]: set(re.findall(r"--[a-z-]+", chunk))
        for chunk in re.split(r"^gesturemix ", synopsis, flags=re.M)[1:]
    }
    actions = cli.build_parser()._actions
    (commands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert named == flags


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_points_resolve():
    # the benchmark's tracer rebinds these names; a rename would break `--trace 1`
    tracing = _load_tracing()
    missing = [
        f"{module}.{name}"
        for module, name, *_ in tracing.TRACE_POINTS
        if not hasattr(import_module(module), name)
    ]
    assert tracing.TRACE_POINTS
    assert missing == []


def test_benchmark_fit_note_reads_the_em_trace(monkeypatch):
    # `--trace 1` notes every fit's iterations and failed starts from its EmTrace
    fit_note = _load_tracing()._fit_note
    quick = np.random.default_rng(0).normal(size=(60, 3))
    videos = sorted(
        generate_dataset(default_profiles(), videos_per_profile=2, frames=20, seed=9),
        key=lambda v: v.source_id,
    )
    raw = np.vstack([compute_variances(v).rows for v in videos])
    corpus = apply_normalization(raw, fit_normalization(raw))
    for data, k, screened in ((quick, 1, False), (corpus, 4, True)):
        result = fit(data, EmConfig(k=k, seed=0))
        assert bool(result[2].screened) == screened
        assert fit_note((), {}, result) == {"iters": result[2].n_iters, "reseeds": 0}
    initialize = gmm.initialize
    stranded = MixtureParams(
        means=[np.zeros(3), np.full(3, 50.0)], covs=[np.eye(3)] * 2, weights=[0.5, 0.5]
    )
    monkeypatch.setattr(
        gmm, "initialize", lambda data, c: stranded if c.seed == 0 else initialize(data, c)
    )
    result = fit(0.2 * quick, EmConfig(k=2, seed=0))
    assert fit_note((), {}, result) == {"iters": result[2].n_iters, "reseeds": 1}


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


def test_benchmark_realtime_round_checks_clean(tmp_path, monkeypatch):
    # the realtime checker reads each result's votes, counts, winner and margin;
    # one round on the reference model must match its recomputation exactly
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    workloads, speed, tracing = (import_module(m) for m in ("workloads", "speed", "tracing"))
    realtime = workloads.Realtime(tmp_path, seed=0)
    realtime.prepare()
    realtime.setup(tracing.NullTracer())
    rnd = realtime.run_round(0, tracing.NullTracer(), speed.Sampler())
    assert rnd.gestures == realtime.gestures_per_round
    realtime.check(0, rnd)
    assert rnd.problems == []


def test_benchmark_traced_reference_round_checks_clean(tmp_path, monkeypatch):
    # a traced round rebinds GestureVideo in gesturemix.io to a wrapper, so the
    # processes that parse landmark files must hand back plain values, and the
    # spans of the round must still telescope to its timed wall time
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # run.py sets it on import
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)  # fork on any machine
    run, workloads, speed, tracing = (
        import_module(m) for m in ("run", "workloads", "speed", "tracing")
    )
    reference = workloads.Reference(tmp_path, seed=0)
    reference.prepare()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rnd = reference.run_round(0, tracer, speed.Sampler())
    finally:
        tracer.uninstall()
    assert [(op.name, op.stderr) for op in rnd.ops if op.rc != 0] == []
    layers = run.round_layers(tracer.spans, 0, rnd)["layers"]  # reads the files check removes
    reference.check(0, rnd)
    assert rnd.problems == []
    assert rnd.failed == 0
    assert layers["trace.self_sum_s"] == pytest.approx(rnd.wall, rel=1e-9)
    assert layers["io.read_video_dir_s"] > 0
