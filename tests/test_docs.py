"""Checks that tie documentation and benchmark hooks to the code they name."""

import importlib.util
import re
from importlib import import_module
from pathlib import Path

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
