"""The three workloads: what each round runs, and how its outputs are checked.

A round is the unit every run repeats whole, so the share of failed operations
is the same in every run. The CLI workloads check the first run of each corpus
in full against `checker`; later rounds must reproduce that run's outputs byte
for byte (the pipeline is deterministic). The realtime gestures are new every
round and are all checked.
"""

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checker
import gesturemix
from gesturemix import cli, classify, landmarks
from gesturemix import io as gio
from gesturemix.synth import NOISE_STD, PROFILE_AMPLITUDES, default_profiles, generate_dataset, generate_video

# The paper's calibrated silhouette for the reference experiment, with its band.
REFERENCE_SILHOUETTE = (0.6348, 0.02)
FRAMES = 150


@dataclass
class Op:
    name: str
    wall: float               # seconds, the calibration handler's time included
    own: float                # seconds, the calibration handler's time taken out
    seconds: float            # `own` at the machine's nominal speed (see speed.py)
    rc: int
    stdout: str
    stderr: str


@dataclass
class Round:
    ops: list                 # Op per timed CLI command, in order
    samples: list             # seconds from a result's input to the result, nominal speed
    own: list                 # the same samples as measured, calibration time taken out
    wall: float               # wall seconds of the round's timed work
    gestures: int             # videos carried to a result
    outputs: Any = None       # what `check` needs besides the ops
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def e2e(self) -> float:
        return sum(self.samples)


def cli_op(tracer, sampler, argv) -> Op:
    """One `gesturemix` command run in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    first = len(sampler.samples)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # the root span is stamped with the timed operation's own start and stop
        start = time.perf_counter()
        root = tracer.begin(f"cli.{argv[0]}", start)
        rc = cli.main(argv)
        stop = time.perf_counter()
        tracer.end(root, stop)
        wall = stop - start
    last = len(sampler.samples)
    own = wall - sum(sampler.samples[first:last])
    return Op(argv[0], wall, own, sampler.normalize(wall, first, last), rc, out.getvalue(), err.getvalue())


def cli_round(ops, gestures, outputs=None, per_result=None) -> Round:
    """A round of CLI commands; `per_result` commands make one result (default: all)."""
    n = per_result or len(ops)
    groups = [ops[i:i + n] for i in range(0, len(ops), n)]
    return Round(
        ops=ops,
        samples=[sum(op.seconds for op in g) for g in groups],
        own=[sum(op.own for op in g) for g in groups],
        wall=sum(op.wall for op in ops),
        gestures=gestures,
        outputs=outputs,
    )


def outputs_digest(ops, dirs) -> str:
    """Everything some commands produced except timings: exit codes, stdout, files."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name} {op.rc}\n{op.stdout}".encode())
    for d in dirs:
        for path in sorted(Path(d).iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Pipeline:
    """train / classify / score checks on one corpus, shared by the CLI workloads."""

    def __init__(self):
        self.actions = dict(cli.GESTURE_ACTIONS)
        self.first = {}  # corpus key -> (outputs digest, failed ops) of its first run
        self.silhouette_input = None  # largest (rows, assignment) silhouette was run on

    def check_repeat(self, key, ops, dirs, full_check):
        """Full check the first time `key` is seen, byte equality with it afterwards.

        Returns (problems, failed operations)."""
        now = outputs_digest(ops, dirs)
        if key not in self.first:
            problems, failed = full_check()
            self.first[key] = (now, failed)
            return problems, failed
        first, failed = self.first[key]
        return ([] if now == first else [f"{key}: outputs differ from its first run"]), failed

    def check_model_ops(self, ops, model_dir, raw_rows, ids, labels, band=None):
        """Full check of a train, classify, score triple on one corpus."""
        problems = [f"{op.name}: exit code {op.rc}: {op.stderr.strip()}" for op in ops if op.rc != 0]
        if problems:
            return problems, 0
        train, classify_op, score = ops
        model = checker.parse_model(model_dir / "model.gmm")
        expected = checker.recompute(model, raw_rows)
        row_labels = np.repeat(labels, checker.LANDMARKS)
        problems, collapsed = checker.check_train(train.stdout, model, expected, raw_rows, row_labels)
        problems += checker.check_plot(model_dir / "train_plot_before.csv", raw_rows, row_labels)
        problems += checker.check_plot(
            model_dir / "train_plot_after.csv", raw_rows, [model["labels"][v] for v in expected["votes"]]
        )
        problems += checker.check_classify(
            classify_op.stdout, model, expected, ids, labels, self.actions, healthy=not collapsed
        )
        problems += checker.check_score(score.stdout, expected, band)
        if self.silhouette_input is None or len(expected["x"]) > len(self.silhouette_input[0]):
            self.silhouette_input = (expected["x"], expected["votes"])
        # A collapsed label map (a training label owning no component) is the
        # train command's failure; classify and score on its model run correctly.
        return problems, int(collapsed)


class Reference:
    """The paper's experiment through the CLI: synth, train, classify, score.

    Its inputs are the pinned experiment (synth seed 0), so --seed does not
    change them."""

    name = "reference"
    ops_per_round = 4
    videos = 80
    ready_code = ""

    def __init__(self, work: Path, seed: int):
        self.dir = work / "reference"
        self.pipeline = Pipeline()

    @property
    def silhouette_input(self):
        return self.pipeline.silhouette_input

    def prepare(self):
        pass

    def setup(self, tracer):
        pass

    def run_round(self, r, tracer, sampler) -> Round:
        data, model = str(self.dir / "data"), str(self.dir / "model")
        ops = []
        for argv in (
            ["synth", "--output", data, "--seed", "0"],
            ["train", "--input", data, "--output", model, "--k", "4", "--seed", "0"],
            ["classify", "--model", f"{model}/model.gmm", "--input", data],
            ["score", "--model", f"{model}/model.gmm", "--input", data],
        ):
            tracer.op = [r, argv[0]]
            ops.append(cli_op(tracer, sampler, argv))
        return cli_round(ops, self.videos)

    def check(self, r, rnd: Round):
        rnd.problems, rnd.failed = self.pipeline.check_repeat(
            "reference", rnd.ops, [self.dir / "data", self.dir / "model"], lambda: self._full_check(rnd.ops)
        )
        shutil.rmtree(self.dir)

    def _full_check(self, ops):
        synth = ops[0]
        if synth.rc != 0:
            return [f"synth: exit code {synth.rc}: {synth.stderr.strip()}"], 0
        data = self.dir / "data"
        problems = []
        manifest = checker.parse_manifest(data / "manifest.csv")
        if checker.parse_kv(synth.stdout).get("videos") != str(self.videos) or len(manifest) != self.videos:
            problems.append(f"synth: {len(manifest)} manifest entries, expected {self.videos}")
        manifest.sort()  # train, classify and score read the directory in file order
        ids, labels, frames = [], [], []
        for fname, source_id, label in manifest:
            sid, lbl, f = checker.parse_video(data / fname)
            if (sid, lbl, f.shape[0]) != (source_id, label, FRAMES):
                problems.append(f"synth: {fname} holds {sid}/{lbl} with {f.shape[0]} frames")
            ids.append(sid)
            labels.append(lbl)
            frames.append(f)
        frames = np.array(frames)
        by_label = {lbl: frames[np.array(labels) == lbl] for lbl in set(labels)}
        problems += checker.synth_variance_problems(by_label, PROFILE_AMPLITUDES, NOISE_STD)
        raw_rows = checker.variances(frames).reshape(-1, checker.DIM)
        found, failed = self.pipeline.check_model_ops(
            ops[1:], self.dir / "model", raw_rows, ids, labels, REFERENCE_SILHOUETTE
        )
        return problems + found, failed


class LargeCorpus:
    """train, classify and score on feature CSVs of 200 videos (4,200 rows) each."""

    name = "large_corpus"
    # Corpus seeds of `synth --videos-per-profile 50`. Seed 3 trains into a
    # collapsed label map every time (no component is labelled `stack`); seeds
    # 0 and 1 train cleanly. The set is fixed because corpora drawn from --seed
    # collapse on some seeds only, which would make the failed share depend on
    # the seed; --seed orders the corpora within each round.
    corpus_seeds = (3, 0, 1)
    videos_per_profile = 50
    ops_per_round = 3 * len(corpus_seeds)
    ready_code = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.pipeline = Pipeline()
        self.inputs = {}

    def prepare(self):
        """Each corpus's feature CSV, written in `read_video_dir` (sorted file) order."""
        for s in self.corpus_seeds:
            videos = generate_dataset(
                default_profiles(), videos_per_profile=self.videos_per_profile, frames=FRAMES, seed=s
            )
            videos.sort(key=lambda v: v.source_id)
            self.inputs[s] = self.work / f"corpus-{s}.csv"
            gio.write_feature_csv([landmarks.compute_variances(v) for v in videos], self.inputs[s])

    @property
    def silhouette_input(self):
        return self.pipeline.silhouette_input

    def setup(self, tracer):
        pass

    def run_round(self, r, tracer, sampler) -> Round:
        order = np.random.default_rng([self.seed, r]).permutation(self.corpus_seeds).tolist()
        ops = []
        for s in order:
            csv, model = str(self.inputs[s]), str(self.work / f"model-{s}")
            for argv in (
                ["train", "--input", csv, "--output", model, "--k", "4", "--seed", "0"],
                ["classify", "--model", f"{model}/model.gmm", "--input", csv],
                ["score", "--model", f"{model}/model.gmm", "--input", csv],
            ):
                tracer.op = [r, argv[0], s]
                ops.append(cli_op(tracer, sampler, argv))
        gestures = len(order) * 4 * self.videos_per_profile
        return cli_round(ops, gestures, outputs=order, per_result=3)

    def check(self, r, rnd: Round):
        for i, s in enumerate(rnd.outputs):
            model_dir = self.work / f"model-{s}"
            ops = rnd.ops[3 * i:3 * i + 3]
            problems, failed = self.pipeline.check_repeat(
                f"corpus {s}", ops, [model_dir], lambda: self._full_check(s, ops, model_dir)
            )
            rnd.problems += problems
            rnd.failed += failed
            shutil.rmtree(model_dir)

    def _full_check(self, s, ops, model_dir):
        raw_rows, ids, labels = checker.parse_feature_csv(self.inputs[s])
        return self.pipeline.check_model_ops(ops, model_dir, raw_rows, ids, labels)


class Realtime:
    """The robot's closed loop, one client: each raw landmark array to an action."""

    name = "realtime"
    gestures_per_round = 200
    ops_per_round = gestures_per_round

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.model_path = work / "model" / "model.gmm"
        self.ready_code = f"from gesturemix.io import load_model\nload_model({str(self.model_path)!r})\n"
        self.actions = dict(cli.GESTURE_ACTIONS)
        self.profiles = default_profiles()
        self.silhouette_input = None  # the loop never computes a silhouette
        # one buffer for every round's gestures, so rounds do not grow the heap
        self._frames = np.empty((self.gestures_per_round, FRAMES, checker.LANDMARKS, checker.DIM))

    def prepare(self):
        """Train the reference model once, before anything is timed, in another
        process so that its memory does not count in this one's peak."""
        data = str(self.work / "data")
        env = dict(os.environ, PYTHONPATH=str(Path(gesturemix.__file__).parent.parent))
        for argv in (
            ["synth", "--output", data, "--seed", "0"],
            ["train", "--input", data, "--output", str(self.model_path.parent), "--k", "4", "--seed", "0"],
        ):
            subprocess.run(
                [sys.executable, "-m", "gesturemix.cli", *argv],
                env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
            )
        shutil.rmtree(data)
        self.expected = checker.parse_model(self.model_path)

    def setup(self, tracer):
        """Load the model once, as the robot does when it starts."""
        tracer.op = ["setup"]
        root = tracer.begin("realtime.setup")
        self.model = gio.load_model(self.model_path)
        tracer.end(root)

    def _gestures(self, r):
        """New raw (150, 21, 3) arrays from fresh seeds, as a hand tracker delivers them."""
        rng = np.random.default_rng([self.seed, r])
        kinds = rng.integers(len(self.profiles), size=self.gestures_per_round)
        seeds = rng.integers(2**63, size=self.gestures_per_round)
        for i, (k, s) in enumerate(zip(kinds, seeds)):
            self._frames[i] = generate_video(self.profiles[k], frames=FRAMES, seed=int(s)).frames
        return self._frames

    def run_round(self, r, tracer, sampler) -> Round:
        frames = self._gestures(r)
        # looked up per round, so that traced rounds call the wrapped functions
        video_check, variances = landmarks.GestureVideo, landmarks.compute_variances
        classify_video = classify.classify_video
        params, label_map, stats = self.model.params, self.model.label_map, self.model.stats
        actions = self.actions
        calibration = sampler.samples
        round_first = len(calibration)
        perf_counter = time.perf_counter
        own, results = [], []
        wall = 0.0
        for i in range(len(frames)):
            tracer.op = [r, i]
            first = len(calibration)
            # the root span is stamped with the timed decision's own start and stop
            start = perf_counter()
            root = tracer.begin("realtime.decide", start)
            video = video_check(frames=frames[i], source_id=f"gesture-{r}-{i}")
            result = classify_video(variances(video), params, label_map, stats)
            action = actions.get(result.winner, f"execute-task:{result.winner}")
            stop = perf_counter()
            tracer.end(root, stop)
            seconds = stop - start
            wall += seconds
            if len(calibration) != first:
                seconds -= sum(calibration[first:])
            own.append(seconds)
            results.append((result, action))
        factor = sampler.factor(round_first, len(calibration))
        return Round(
            ops=[], samples=[s * factor for s in own], own=own, wall=wall,
            gestures=len(own), outputs=results,
        )

    def check(self, r, rnd: Round):
        """Recompute every gesture's votes, winner and action, 20 gestures at a time."""
        results, rnd.outputs = rnd.outputs, None
        m = self.expected
        n = checker.LANDMARKS
        for start in range(0, len(results), 20):
            rows = checker.variances(self._frames[start:start + 20]).reshape(-1, checker.DIM)
            votes = checker.component_votes((rows - m["norm_mean"]) / m["norm_std"], m["weights"], m["means"], m["covs"])
            expected = checker.video_votes(votes, m["labels"])
            for i, ((result, action), (counts, winner, margin)) in enumerate(zip(results[start:start + 20], expected)):
                if (
                    [c for c, _ in result.votes] != votes[n * i:n * i + n].tolist()
                    or result.counts != counts
                    or sum(result.counts.values()) != n
                    or (result.winner, result.margin) != (winner, margin)
                    or action != self.actions.get(winner, f"execute-task:{winner}")
                ):
                    rnd.problems.append(
                        f"realtime gesture {r}/{start + i}: votes, winner or action differ from the "
                        f"recomputation (got {result.winner} -> {action}, expected {winner})"
                    )


WORKLOADS = {w.name: w for w in (Reference, Realtime, LargeCorpus)}
