"""Steadiness of the benchmark: the evidence for the bounds in BENCHMARK.json.

    python3 benchmarks/steady.py --workload reference --runs 10 --save reference-a
    python3 benchmarks/steady.py --compare reference-a reference-b

The first form runs one workload `--runs` times, each run with its own seed
(`--first-seed`, then the next ones), and prints for each end-to-end metric
its median and quartiles and their spread (interquartile distance over the
median) next to the metric's bound; the per-command `detail` figures follow
without bounds. `--save` keeps the raw figures in benchmarks/_results/. The
second form sets two saved sets side by side: the shift of each median
against its bound, and whether the share of failed operations is the same.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RESULTS = HERE / "_results"


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(saved):
    runs = saved["runs"]
    print(f"workload {saved['workload']}: {len(runs)} runs, seeds {saved['seeds'][0]}..{saved['seeds'][-1]}, "
          f"{saved['seconds']} s each")
    print("| metric | unit | median | q1 | q3 | spread | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for m in SPEC["end_to_end"]:
        med, q1, q3, s = spread([r["metrics"][m["name"]]["value"] for r in runs])
        verdict = "steady" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO NOISY")
        if m["name"] == "setup_s":
            verdict += " (not gated)"
        print(f"| {m['name']} | {m['unit']} | {med:.5g} | {q1:.5g} | {q3:.5g} | {s:.4f} | {m['bound']} | {verdict} |")
    for key in sorted({k for r in saved["details"] for k in r} - {"rounds", "samples"}):
        values = [d[key] for d in saved["details"] if key in d]
        if len(values) >= 2:
            med, q1, q3, s = spread(values)
            print(f"| {key} (detail) | | {med:.5g} | {q1:.5g} | {q3:.5g} | {s:.4f} | | |")
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    print(f"failed share: {', '.join(str(s) for s in sorted(shares))}"
          f"{' (same in every run)' if len(shares) == 1 else ' (DIFFERS between runs)'}; "
          f"correct in {sum(r['correct'] for r in runs)} of {len(runs)} runs")


def compare(a, b):
    print(f"workload {a['workload']}: set A {len(a['runs'])} runs, set B {len(b['runs'])} runs")
    print("| metric | median A | median B | B worse by | bound | verdict |")
    print("|---|---|---|---|---|---|")
    for m in SPEC["end_to_end"]:
        ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b["runs"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "agree" if worse <= m["bound"] else "B WORSE THAN BOUND"
        print(f"| {m['name']} | {ma:.5g} | {mb:.5g} | {worse:+.4f} | {m['bound']} | {verdict} |")
    shares = [{Fraction(r["failed"], r["attempted"]) for r in s["runs"]} for s in (a, b)]
    print(f"failed share: A {sorted(map(str, shares[0]))}, B {sorted(map(str, shares[1]))}"
          f"{' (equal)' if shares[0] == shares[1] and len(shares[0]) == 1 else ' (DIFFER)'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--save", help="name of the set under benchmarks/_results/")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads((RESULTS / f"{name}.json").read_text()) for name in args.compare)
        compare(a, b)
        return 0
    if not args.workload:
        parser.error("--workload or --compare is required")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    saved = {"workload": args.workload, "seconds": args.seconds, "seeds": seeds, "runs": [], "details": []}
    for seed in seeds:
        result, detail = one_run(args.workload, seed, args.seconds)
        saved["runs"].append(result)
        saved["details"].append(detail)
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              file=sys.stderr, flush=True)
    if args.save:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{args.save}.json").write_text(json.dumps(saved, indent=1))
    report(saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
