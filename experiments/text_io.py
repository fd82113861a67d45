"""Seconds and peak RSS of the landmark and plot text I/O, as one JSON table.

Usage: python experiments/text_io.py NAME=TREE [NAME=TREE ...] > table.json

Each TREE is a checkout of this repository whose src/ is measured, and NAME
labels its rows, for example `parent=../parent change=.`. Every case runs in a
fresh Python process per tree, so each reports its own peak RSS; runs of the
trees alternate, so drift on a shared machine falls on all of them alike.

The cases, on the reference corpus (`synth --seed 0`: 80 videos of 150
frames) unless named otherwise:
- write_video: every video written once, seconds per video;
- synth: `cli.main(["synth", ...])` in process, at 1 and 2 usable CPUs (the
  fan-out reads the CPU affinity);
- export_plot_data: 4,200 rows (the variances of `synth --videos-per-profile
  50 --seed 0`) and 42,000 (the same rows ten times), into two files;
- read_video_dir: the corpus, at every usable CPU.

A case reports the median wall seconds of RUNS calls after one warm-up call,
the process's peak RSS before the first call and after the last (ru_maxrss),
and its forked children's peak. Needs only numpy and the standard library,
and at least 2 CPUs.
"""

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 15
CASES = ("write_video", "synth_1", "synth_2", "export_plot_data_4200",
         "export_plot_data_42000", "read_video_dir")


def _mib(who) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)  # KiB on Linux


def _measure(case: str, work: Path) -> dict:
    """The case's timings, in this process, with the tree on sys.path."""
    import numpy as np

    from gesturemix import cli, compute_variances, default_profiles, generate_dataset
    from gesturemix.io import export_plot_data, read_video_dir, write_video

    cpus = sorted(os.sched_getaffinity(0))
    per = 1  # calls' seconds are divided by this: write_video's by its videos
    if case.startswith("export_plot_data"):
        videos = generate_dataset(default_profiles(), videos_per_profile=50, frames=150, seed=0)
        features = [compute_variances(v) for v in videos]
        repeat = int(case.rsplit("_", 1)[1]) // (21 * len(videos))
        rows = np.tile(np.vstack([f.rows for f in features]), (repeat, 1))
        groups = [f.label for f in features for _ in range(21)] * repeat
        files = {work / "before.csv": groups, work / "after.csv": groups[::-1]}
        call = lambda: export_plot_data(rows, files)  # noqa: E731
    elif case.startswith("synth"):
        os.sched_setaffinity(0, cpus[:int(case[-1])])
        argv = ["synth", "--output", str(work / "data"), "--seed", "0"]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    else:
        videos = generate_dataset(default_profiles(), videos_per_profile=20, frames=150, seed=0)
        for v in videos:
            write_video(v, work / f"{v.source_id}.landmarks")
        if case == "write_video":
            per = len(videos)

            def call():
                for v in videos:
                    write_video(v, work / f"{v.source_id}.landmarks")
        else:
            call = lambda: read_video_dir(work)  # noqa: E731
    call()
    before = _mib(resource.RUSAGE_SELF)
    seconds = []
    for _ in range(RUNS):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    return {
        "median_s": round(statistics.median(seconds) / per, 5),
        "seconds": [round(s / per, 5) for s in seconds],
        "processes": len(os.sched_getaffinity(0)),
        "rss_before_mib": before,
        "peak_rss_mib": _mib(resource.RUSAGE_SELF),
        "children_peak_rss_mib": _mib(resource.RUSAGE_CHILDREN),
    }


def main(argv) -> int:
    if argv[:1] == ["--case"]:
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(_measure(argv[1], Path(work))))
        return 0
    trees = dict(arg.split("=", 1) for arg in argv)
    if not trees or len(os.sched_getaffinity(0)) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    table = {name: {} for name in trees}
    for i, case in enumerate(CASES):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for name in order:
            src = str(Path(trees[name]).resolve() / "src")
            out = subprocess.run(
                [sys.executable, __file__, "--case", case], check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
            ).stdout
            table[name][case] = json.loads(out)
            print(name, case, table[name][case]["median_s"], file=sys.stderr, flush=True)
    import numpy as np
    json.dump({"python": sys.version.split()[0], "numpy": np.__version__, "runs": RUNS,
               "cpus": len(os.sched_getaffinity(0)), "trees": table}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
