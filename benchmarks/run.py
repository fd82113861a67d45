"""Benchmark of gesturemix's pipeline, one workload per process.

    python3 benchmarks/run.py --workload reference --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload until the next one would end after
--seconds, checks every output, and prints as its last line one JSON object:
whether the outputs were correct, the operations attempted and failed, and
the metrics that BENCHMARK.json lists (its `end_to_end` metrics with
--trace 0, its `per_layer` metrics with --trace 1). The line before it,
`detail {...}`, gives per-command medians and the figures as measured before
speed correction. See benchmarks/README.md.
"""

import os

# OpenBLAS starts one thread per core unless told otherwise; on a shared
# machine that adds noise and no speed. Pinned before numpy is loaded, here
# and in every interpreter this benchmark starts.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 5  # fresh interpreters per run; setup_s is their median

# per-layer metric -> span name: total seconds per round
ROUND_SECONDS = {
    "synth.generate_dataset_s": "synth.generate_dataset",
    "io.write_video_s": "io.write_video",
    "io.read_video_dir_s": "io.read_video_dir",
    "io.read_feature_csv_s": "io.read_feature_csv",
    "io.export_plot_data_s": "io.export_plot_data",
    "io.save_model_s": "io.save_model",
    "io.load_model_s": "io.load_model",
    "landmarks.normalize_s": "landmarks.normalize",
    "gmm.fit_s": "gmm.fit",
    "gmm.e_step_s": "gmm.e_step",
    "classify.build_label_map_s": "classify.build_label_map",
    "metrics.silhouette_s": "metrics.silhouette",
}
# per-layer metric -> span name: milliseconds per call
CALL_MS = {
    "landmarks.video_check_ms": "landmarks.video_check",
    "landmarks.compute_variances_ms": "landmarks.compute_variances",
    "classify.classify_video_ms": "classify.classify_video",
}


def ready_seconds(extra_code: str) -> tuple[float, float]:
    """(wall, nominal-speed) seconds from starting a fresh interpreter until it is
    ready to work. Call with this process pinned to one CPU, which the child
    inherits, so that calibrating just before and after sees the child's CPU."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport gesturemix.cli\n{extra_code}print('ready', flush=True)\n"
    before = statistics.median(speed.calibrate() for _ in range(9))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter exited {proc.returncode} before it was ready")
    after = statistics.median(speed.calibrate() for _ in range(9))
    return seconds, seconds * speed.NOMINAL_S / ((before + after) / 2)


def setup_seconds(extra_code: str) -> list:
    """ready_seconds of SETUP_SPAWNS fresh interpreters, after one that warms the file cache."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ready_seconds(extra_code)
        return [ready_seconds(extra_code) for _ in range(SETUP_SPAWNS)]
    finally:
        os.sched_setaffinity(0, cpus)


def import_seconds() -> tuple[float, float]:
    """(import gesturemix.cli, the scipy part of it) from `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gesturemix.cli"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    total = scipy = 0
    scipy_depth = None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        cumulative = int(parts[1])
        if depth == 1 and name.startswith("gesturemix"):
            total += cumulative
        if name.split(".")[0] == "scipy":
            if scipy_depth is None or depth < scipy_depth:
                scipy_depth, scipy = depth, 0
            if depth == scipy_depth:
                scipy += cumulative
    return total / 1e6, scipy / 1e6


def span_seconds(calls=20000) -> float:
    """What one span costs: a wrapped empty function against the bare one."""
    noop = lambda: None  # noqa: E731
    wrapped = tracing.Tracer().wrap(noop, "noop")
    costs = []
    for fn in (wrapped, noop):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    return max(costs[0] - costs[1], 0.0) / calls


def silhouette_peak_mib(silhouette_input) -> float:
    """Peak bytes numpy allocates during one silhouette call on the largest input."""
    if silhouette_input is None:
        return 0.0
    from gesturemix.metrics import silhouette

    tracemalloc.start()
    try:
        silhouette(*silhouette_input)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def round_layers(spans, first, rnd) -> dict:
    """Per-layer figures of one traced round, from spans[first:]."""
    own = [s[tracing.END] - s[tracing.START] for s in spans[first:]]
    for s in spans[first:]:
        if s[tracing.PARENT] >= first:
            own[s[tracing.PARENT] - first] -= s[tracing.END] - s[tracing.START]
    totals, calls, fits = {}, {}, []
    cli_self = written = read = 0.0
    dir_bytes = {}
    for s, self_time in zip(spans[first:], own):
        name, seconds, note = s[tracing.NAME], s[tracing.END] - s[tracing.START], s[tracing.NOTE]
        totals[name] = totals.get(name, 0.0) + seconds
        calls.setdefault(name, []).append(seconds * 1e3)
        if name.startswith("cli."):
            cli_self += self_time
        if name == "gmm.fit":
            fits.append((seconds, note["iters"], note["reseeds"]))
        elif name == "io.write_video":
            written += Path(note["path"]).stat().st_size
        elif name == "io.read_video_dir":
            if note["path"] not in dir_bytes:
                dir_bytes[note["path"]] = sum(p.stat().st_size for p in Path(note["path"]).glob("*.landmarks"))
            read += dir_bytes[note["path"]]
    layers = {metric: totals.get(name, 0.0) for metric, name in ROUND_SECONDS.items()}
    reads = layers["io.read_video_dir_s"]
    layers.update(
        {
            "cli.self_s": cli_self,
            "gmm.em_iters": sum(f[1] for f in fits),
            "gmm.reseeds": sum(f[2] for f in fits),
            "io.bytes_written": int(written),
            "io.bytes_read": int(read),
            "io.read_mb_per_s": read / 1e6 / reads if reads else 0.0,
            "trace.self_sum_s": sum(own),
            "trace.e2e_s": rnd.wall,
            "trace.spans": len(own),
        }
    )
    return {"layers": layers, "calls": calls, "em_iter_ms": [f[0] * 1e3 / f[1] for f in fits if f[1]]}


def layer_metrics(traced, overhead_pct, setup_spent, extra) -> dict:
    """Medians over the traced rounds; set-up spans count once on top."""
    out = {}
    for metric in traced[0]["layers"]:
        out[metric] = statistics.median(t["layers"][metric] for t in traced)
    for metric, name in ROUND_SECONDS.items():
        out[metric] += setup_spent.get(name, 0.0)
    for metric, name in CALL_MS.items():
        values = [ms for t in traced for ms in t["calls"].get(name, [])]
        out[metric] = statistics.median(values) if values else 0.0
    iter_ms = [ms for t in traced for ms in t["em_iter_ms"]]
    out["gmm.em_iter_ms"] = statistics.median(iter_ms) if iter_ms else 0.0
    out["trace.overhead_pct"] = overhead_pct
    out.update(extra)
    return out


def run(args, spec, work: Path):
    import workloads  # imports gesturemix, so only once src/ is on the path

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    workload.prepare()
    null = tracing.NullTracer()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        workload.setup(tracer)
        tracer.uninstall()
        setup_spans = len(tracer.spans)
    else:
        workload.setup(null)

    if args.trace:
        imports = [import_seconds() for _ in range(SETUP_SPAWNS)]
    else:
        setup = setup_seconds(workload.ready_code)

    sampler = speed.Sampler()
    rounds, traced_layers, problems = [], [], []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        traced = bool(args.trace) and r % 2 == 1
        gc.collect()
        if traced:
            first = len(tracer.spans)
            tracer.install()
            try:
                with sampler:
                    rnd = workload.run_round(r, tracer, sampler)
            finally:
                tracer.uninstall()
            traced_layers.append(round_layers(tracer.spans, first, rnd))
        else:
            with sampler:
                rnd = workload.run_round(r, null, sampler)
        workload.check(r, rnd)
        problems += rnd.problems
        rounds.append((traced, rnd))
        # stop before a round that would end past --seconds, judged by the last one
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break

    untraced = [rnd for traced, rnd in rounds if not traced]
    samples = [s for rnd in untraced for s in rnd.samples]
    detail = {"rounds": len(rounds), "samples": len(samples)}
    for rnd in untraced:
        for op in rnd.ops:
            detail.setdefault(f"{op.name}_s", []).append(op.seconds)
    detail = {k: statistics.median(v) if isinstance(v, list) else v for k, v in detail.items()}
    if len(samples) >= 1000:  # at least ten samples beyond the 99th percentile
        detail["latency_p99_ms"] = statistics.quantiles(samples, n=100)[98] * 1e3
    detail["measured_latency_p50_ms"] = statistics.median(s for rnd in untraced for s in rnd.own) * 1e3
    detail["calibration_ms"] = statistics.median(sampler.samples) * 1e3

    if args.trace:
        setup_spent = {}
        for s in tracer.spans[:setup_spans]:
            setup_spent[s[tracing.NAME]] = setup_spent.get(s[tracing.NAME], 0.0) + s[tracing.END] - s[tracing.START]
        extra = {
            "cli.import_s": statistics.median(i[0] for i in imports),
            "cli.import_scipy_s": statistics.median(i[1] for i in imports),
            "metrics.silhouette_peak_mib": silhouette_peak_mib(workload.silhouette_input),
        }
        traced_e2e = statistics.median(rnd.e2e for traced, rnd in rounds if traced)
        overhead_pct = (traced_e2e / statistics.median(rnd.e2e for rnd in untraced) - 1.0) * 100
        values = layer_metrics(traced_layers, overhead_pct, setup_spent, extra)
        # Self times telescope to the root spans, and each root span is stamped
        # with its timed operation's own start and stop, so the self times must
        # add up to the timed wall time but for rounding. (Stamped separately,
        # a signal handler or a preemption between the two stamps opened a gap.)
        values["trace.span_us"] = span_seconds() * 1e6
        for t in traced_layers:
            layers = t["layers"]
            gap = abs(layers["trace.self_sum_s"] - layers["trace.e2e_s"])
            if gap > 1e-9 * layers["trace.e2e_s"]:
                problems.append(f"trace: self times sum to {layers['trace.self_sum_s']} s of {layers['trace.e2e_s']} s")
        traces = HERE / "_traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
        wanted = spec["per_layer"]
    else:
        detail["measured_setup_s"] = statistics.median(s[0] for s in setup)
        values = {
            "setup_s": statistics.median(s[1] for s in setup),
            "latency_p50_ms": statistics.median(samples) * 1e3,
            "gestures_per_s": sum(rnd.gestures for rnd in untraced) / sum(samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return detail, {
        "correct": not problems,
        "attempted": len(rounds) * workload.ops_per_round,
        "failed": sum(rnd.failed for _, rnd in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gesturemix" / "__init__.py").is_file():
        print(f"error: the gesturemix package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        detail, result = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
