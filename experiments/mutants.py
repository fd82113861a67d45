"""Run the committed one-line mutants against a tree and record which test kills each.

Usage: python experiments/mutants.py --label NAME [--tree DIR]

Each entry of experiments/mutants.txt (see its header) is applied to a fresh
temporary copy of the tree. The entry's aimed test runs first, with -x; if
the mutant survives it, Tier-1 runs with -x. A mutant is `killed` by the
first test that failed (or `timeout`), `survived` when Tier-1 passed, and
`stale` when one of its old lines is not in the tree exactly once or its
aimed test is not found. Before any mutant, every aimed test must pass on the
unmutated copy.

The results go under NAME in experiments/MUTANTS.json; the other runs in that
file are kept, so the table holds, say, a parent's run beside a change's.
Mutants run one at a time. Needs only the standard library (pytest and the
tree's own dependencies run in the child processes).
"""

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE"]
TIER1 = ["--continue-on-collection-errors"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
                              "_work", "_traces", "_results")
TIMEOUT_S = 1800
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def read_list(path: Path) -> list[dict]:
    """The entries of a mutant list: blocks of `key: value` lines split by blank
    lines, `#` lines ignored. `old` and `new` come in pairs and may repeat."""
    entries = []
    for block in re.split(r"\n\s*\n", path.read_text()):
        entry = {"edits": []}
        for line in block.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise SystemExit(f"{path}: no `key:` on line {line!r}")
            if key == "old":
                entry["edits"].append([value.strip(), None])
            elif key == "new":
                entry["edits"][-1][1] = value.strip()
            else:
                entry[key] = value.strip()
        if len(entry) > 1:
            missing = {"id", "file", "test"} - entry.keys()
            if missing or not entry["edits"] or any(new is None for _, new in entry["edits"]):
                raise SystemExit(f"{path}: entry {entry.get('id')!r} lacks {sorted(missing) or 'a new line'}")
            entries.append(entry)
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise SystemExit(f"{path}: repeated mutant id")
    return entries


def mutate(text: str, edits) -> str | None:
    """`text` with each old line (compared without its indentation) replaced by
    its new line at the same indentation; None when an old line is not there
    exactly once. Every old line is found in `text` before any is replaced."""
    lines = text.split("\n")
    at = [[i for i, line in enumerate(lines) if line.strip() == old] for old, _ in edits]
    if any(len(i) != 1 for i in at):
        return None
    for [i], (_, new) in zip(at, edits):
        lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + new
    return "\n".join(lines)


def pytest(copy: Path, args) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(PYTEST + args, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, ""
    return done.returncode, done.stdout + done.stderr


def killer(code: int, output: str) -> str:
    if code == -1:
        return "timeout"
    found = FIRST_FAILURE.search(output)
    return found.group(1) if found else f"pytest exit code {code}"


@contextlib.contextmanager
def copied(tree: Path):
    """A temporary copy of the tree, without caches and benchmark output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        copy = Path(work) / "tree"
        shutil.copytree(tree, copy, ignore=SKIP)
        yield copy


def run_one(tree: Path, entry: dict) -> dict:
    result = {"id": entry["id"], "file": entry["file"], "test": entry["test"]}
    start = time.perf_counter()
    source = tree / entry["file"]
    mutated = mutate(source.read_text(), entry["edits"]) if source.is_file() else None
    if mutated is None:
        result.update(status="stale", killed_by=None, reason="old line not found exactly once")
    else:
        with copied(tree) as copy:
            (copy / entry["file"]).write_text(mutated)
            code, output = pytest(copy, [entry["test"]])
            if code in (4, 5):  # usage error or nothing collected: the aim is gone
                result.update(status="stale", killed_by=None, reason="aimed test not found")
            elif code != 0:
                result.update(status="killed", killed_by=killer(code, output), by="aimed test")
            else:
                code, output = pytest(copy, TIER1)
                if code != 0:
                    result.update(status="killed", killed_by=killer(code, output), by="tier-1")
                else:
                    result.update(status="survived", killed_by=None)
    result["seconds"] = round(time.perf_counter() - start, 1)
    print(f"{result['id']}: {result['status']} {result.get('killed_by') or ''} "
          f"({result['seconds']} s)", file=sys.stderr, flush=True)
    return result


def check_aims(tree: Path, entries) -> None:
    """Every aimed test passes on the unmutated tree, or no kill would mean anything."""
    with copied(tree) as copy:
        aims = sorted({e["test"] for e in entries})
        runs = [pytest(copy, aims)]
        if runs[0][0] == 4:  # an aim is not found: check the others one by one
            runs = [pytest(copy, [aim]) for aim in aims]
        for code, output in runs:
            if code not in (0, 4, 5):
                raise SystemExit(f"an aimed test fails on the unmutated tree:\n{output[-3000:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in MUTANTS.json")
    parser.add_argument("--tree", type=Path, default=HERE.parent, help="tree to mutate")
    args = parser.parse_args()
    tree = args.tree.resolve()
    entries = read_list(HERE / "mutants.txt")
    check_aims(tree, entries)
    start = time.perf_counter()
    results = [run_one(tree, e) for e in entries]
    counts = {s: sum(r["status"] == s for r in results) for s in ("killed", "survived", "stale")}
    out = HERE / "MUTANTS.json"
    table = json.loads(out.read_text()) if out.exists() else {}
    table["what"] = ("experiments/mutants.py on experiments/mutants.txt: per run, each mutant's "
                     "status, the test that killed it (the aimed test or Tier-1 with -x) and its "
                     "seconds, one mutant at a time")
    table[args.label] = {
        "python": platform.python_version(), "seconds": round(time.perf_counter() - start, 1),
        "counts": counts, "mutants": results,
    }
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(counts, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
