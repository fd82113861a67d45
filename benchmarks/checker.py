"""Independent correctness checks for the benchmark, in plain numpy.

Nothing here calls gesturemix's math: the file formats are parsed by this
module's own readers, and every quantity the program prints is recomputed
from its textbook definition. The `check_*` functions compare one command's
output with these recomputations and return a list of problems (empty when
the output is correct), so a corrupted output can be shown to be rejected.
"""

from pathlib import Path

import numpy as np

LANDMARKS = 21
DIM = 3

# Tolerances the benchmark holds the program to.
LL_REL_TOL = 1e-9
SILHOUETTE_ABS_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
CONFIDENCE_TOL = 1e-12
ACCURACY_FLOOR = 0.94


# ---------------------------------------------------------------------------
# Readers for the program's text formats


def parse_kv(text: str) -> dict:
    """`key=value` lines of a command's stdout; other lines are ignored."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and " " not in key:
            out[key] = value
    return out


def parse_video(path):
    """(source_id, label, frames of shape (F, 21, 3)) from a landmark video file."""
    lines = Path(path).read_text().splitlines()
    source_id = lines[1].removeprefix("source_id=")
    label = None
    body = 2
    if lines[2].startswith("label="):
        label = lines[2].removeprefix("label=")
        body = 3
    rows = [line for line in lines[body:] if line.strip()]
    values = np.array(",".join(rows).split(","), dtype=np.float64)
    return source_id, label, values.reshape(len(rows), LANDMARKS, DIM)


def parse_manifest(path):
    """[(file, source_id, label)] in file order."""
    lines = Path(path).read_text().splitlines()[1:]
    return [tuple(line.split(",")) for line in lines if line.strip()]


def parse_feature_csv(path):
    """(raw rows (N, 3), [source_id per video], [label per video])."""
    lines = [line for line in Path(path).read_text().splitlines()[1:] if line.strip()]
    cells = [line.split(",") for line in lines]
    rows = np.array([c[1:4] for c in cells], dtype=np.float64)
    ids = [c[4] for c in cells[::LANDMARKS]]
    labels = [c[5] or None for c in cells[::LANDMARKS]]
    return rows, ids, labels


def parse_model(path) -> dict:
    """The fields of a saved model file, components stacked into arrays."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    model = {"labels": [], "confidence": [], "means": [], "covs": []}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        if key in ("k", "iterations", "seed"):
            model[key] = int(value)
        elif key in ("final_log_likelihood", "silhouette", "tol"):
            model[key] = float(value)
        elif key in ("norm_mean", "norm_std", "weights"):
            model[key] = np.array(value.split(","), dtype=np.float64)
        elif key == "label":
            model["labels"].append(value)
        elif key == "confidence":
            model["confidence"].append(float(value))
        elif key == "mean":
            model["means"].append(np.array(value.split(","), dtype=np.float64))
        elif key == "cov":
            model["covs"].append(np.array(value.split(","), dtype=np.float64).reshape(DIM, DIM))
    model["means"] = np.array(model["means"])
    model["covs"] = np.array(model["covs"])
    return model


# ---------------------------------------------------------------------------
# Recomputations from the definitions


def variances(frames):
    """Per-landmark population variance over frames: (..., F, 21, 3) -> (..., 21, 3)."""
    f = np.asarray(frames, dtype=np.float64)
    centered = f - f.mean(axis=-3, keepdims=True)
    return (centered * centered).mean(axis=-3)


def column_stats(rows):
    """Column mean and population standard deviation, as train normalizes with."""
    mean = rows.mean(axis=0)
    centered = rows - mean
    return mean, np.sqrt((centered * centered).mean(axis=0))


def log_gaussian(x, mean, cov):
    """log N(x | mean, cov) for each row of x, straight from the formula:
    -1/2 (d log 2 pi + log det cov + (x - mean)^T cov^-1 (x - mean))."""
    diff = np.asarray(x, dtype=np.float64) - mean
    _, log_det = np.linalg.slogdet(cov)
    maha = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
    return -0.5 * (diff.shape[1] * np.log(2.0 * np.pi) + log_det + maha)


def log_joint(x, weights, means, covs):
    """log w_k + log N(x_n | mean_k, cov_k), shape (N, K)."""
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return np.stack(
        [log_gaussian(x, m, c) + lw for m, c, lw in zip(means, covs, log_w)], axis=1
    )


def log_likelihood(x, weights, means, covs) -> float:
    """sum_n log sum_k w_k N(x_n | ...), with the maximum factored out by hand."""
    joint = log_joint(x, weights, means, covs)
    top = joint.max(axis=1)
    return float(np.sum(top + np.log(np.exp(joint - top[:, None]).sum(axis=1))))


def component_votes(x, weights, means, covs):
    """Posterior argmax per row; np.argmax keeps the lowest component on ties."""
    return np.argmax(log_joint(x, weights, means, covs), axis=1)


def video_votes(comp_votes, comp_labels):
    """Per video (21 consecutive rows): (counts by sorted label, winner, margin).

    The winner has the most votes, ties going to the smallest label.
    """
    names = sorted(set(comp_labels))
    index = np.array([names.index(lbl) for lbl in comp_labels])
    per_video = index[np.asarray(comp_votes).reshape(-1, LANDMARKS)]
    counts = np.stack([(per_video == j).sum(axis=1) for j in range(len(names))], axis=1)
    out = []
    for row in counts:
        best = row.max()
        winner = names[int(np.argmax(row))]  # first maximum = smallest label
        runner_up = max((c for j, c in enumerate(row) if names[j] != winner), default=0)
        out.append((dict(zip(names, row.tolist())), winner, int(best - runner_up)))
    return out


def label_map(comp_votes, row_labels, k):
    """Majority training label per component (ties to the smallest label) and its share.

    A component that owns no rows gets (None, 0.0).
    """
    row_labels = np.asarray(row_labels)
    labels, confidence = [], []
    for comp in range(k):
        owned = row_labels[np.asarray(comp_votes) == comp]
        if owned.size == 0:
            labels.append(None)
            confidence.append(0.0)
            continue
        names, counts = np.unique(owned, return_counts=True)  # names sorted
        best = int(np.argmax(counts))
        labels.append(str(names[best]))
        confidence.append(counts[best] / owned.size)
    return labels, confidence


def silhouette(x, assignment, chunk=256):
    """(overall, {cluster: mean}) from direct differences, `chunk` rows at a time.

    Distances are sqrt(sum((x_i - x_j)^2)); the Gram form |x|^2 + |y|^2 - 2 x.y
    is avoided because it drifts from the direct form by ~1e-9.
    """
    x = np.asarray(x, dtype=np.float64)
    assignment = np.asarray(assignment)
    clusters, own = np.unique(assignment, return_inverse=True)
    onehot = (own[:, None] == np.arange(clusters.size)).astype(np.float64)
    sizes = onehot.sum(axis=0)
    scores = np.zeros(len(x))
    for start in range(0, len(x), chunk):
        block = x[start:start + chunk]
        squared = np.zeros((block.shape[0], len(x)))
        for axis in range(x.shape[1]):
            diff = block[:, axis, None] - x[None, :, axis]
            squared += diff * diff
        sums = np.sqrt(squared) @ onehot  # distance sums per cluster
        rows = np.arange(block.shape[0])
        mine = own[start:start + chunk]
        n_mine = sizes[mine]
        a = sums[rows, mine] / np.maximum(n_mine - 1, 1)  # own distance is 0
        means = sums / sizes
        means[rows, mine] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.where(denom == 0.0, 0.0, (b - a) / denom)
        scores[start:start + chunk] = np.where(n_mine == 1, 0.0, s)
    per_cluster = {int(c): float(scores[own == j].mean()) for j, c in enumerate(clusters)}
    return float(scores.mean()), per_cluster


def synth_variance_problems(frames_by_label, amplitudes, noise_std):
    """Each axis's variance, averaged over a profile's videos and landmarks, must be
    close to A^2/2 + sigma^2. "Close" allows the population-variance bias sigma^2/F
    plus six standard errors of the average."""
    problems = []
    for label, frames in frames_by_label.items():
        v = variances(np.asarray(frames)).reshape(-1, DIM)  # (videos * 21, 3)
        expected = np.asarray(amplitudes[label]) ** 2 / 2 + noise_std ** 2
        slack = noise_std ** 2 / np.asarray(frames).shape[1] + 6 * v.std(axis=0) / np.sqrt(len(v))
        got = v.mean(axis=0)
        for axis in range(DIM):
            if abs(got[axis] - expected[axis]) > slack[axis]:
                problems.append(
                    f"synth {label} axis {axis}: mean variance {got[axis]:.6f}, "
                    f"expected {expected[axis]:.6f} +- {slack[axis]:.6f}"
                )
    return problems


# ---------------------------------------------------------------------------
# Comparisons of a command's output with the recomputation


def recompute(model, raw_rows) -> dict:
    """What train, classify and score should print for `model` on these raw rows."""
    x = (raw_rows - model["norm_mean"]) / model["norm_std"]
    args = (model["weights"], model["means"], model["covs"])
    votes = component_votes(x, *args)
    overall, per_cluster = silhouette(x, votes)
    return {
        "x": x,
        "votes": votes,
        "log_likelihood": log_likelihood(x, *args),
        "silhouette": overall,
        "per_cluster": per_cluster,
    }


def check_train(stdout, model, expected, raw_rows, row_labels):
    """Problems with a train run, and whether its label map collapsed.

    Returns (problems, collapsed). `collapsed` means some training label owns no
    component, which the benchmark counts as a failed operation.
    """
    problems = []
    kv = parse_kv(stdout)
    mean, std = column_stats(raw_rows)
    if not np.allclose(model["norm_mean"], mean, rtol=1e-12, atol=0) or not np.allclose(
        model["norm_std"], np.maximum(std, 1e-12), rtol=1e-12, atol=0
    ):
        problems.append("train: normalization stats differ from the training columns")
    if abs(model["weights"].sum() - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"train: weights sum to {model['weights'].sum()!r}")
    ll = expected["log_likelihood"]
    printed = float(kv.get("log_likelihood", "nan"))
    if not abs(printed - ll) <= LL_REL_TOL * abs(ll):
        problems.append(f"train: log_likelihood={printed!r}, recomputed {ll!r}")
    if printed != model["final_log_likelihood"]:
        problems.append("train: printed log_likelihood differs from the model file")
    labels, confidence = label_map(expected["votes"], row_labels, len(model["weights"]))
    if labels != model["labels"]:
        problems.append(f"train: label map {model['labels']}, recomputed {labels}")
    elif not np.allclose(model["confidence"], confidence, rtol=0, atol=CONFIDENCE_TOL):
        problems.append("train: label confidences differ from the recomputation")
    sil = float(kv.get("silhouette", "nan"))
    if not abs(sil - expected["silhouette"]) <= SILHOUETTE_ABS_TOL:
        problems.append(f"train: silhouette={sil!r}, recomputed {expected['silhouette']!r}")
    return problems, set(model["labels"]) != set(row_labels)


def check_plot(path, raw_rows, groups):
    """A var_x,var_y,var_z,group export holds the raw rows and one group per row."""
    lines = Path(path).read_text().splitlines()[1:]
    cells = [line.rsplit(",", 1) for line in lines]
    values = np.array(",".join(c[0] for c in cells).split(","), dtype=np.float64)
    if values.shape != (raw_rows.size,) or not np.array_equal(values.reshape(-1, DIM), raw_rows):
        return [f"{Path(path).name}: rows differ from the training rows"]
    if [c[1] for c in cells] != list(groups):
        return [f"{Path(path).name}: groups differ"]
    return []


def check_classify(stdout, model, expected, ids, truth, actions, healthy=True):
    """Records, accuracy line and actions of a classify run on the given videos.

    `healthy` is False for a model whose training collapsed; the accuracy floor
    then does not apply, every other check does.
    """
    problems = []
    votes = video_votes(expected["votes"], model["labels"])
    lines = stdout.splitlines()
    names = sorted(set(model["labels"]))
    if not lines or lines[0] != "source_id,winner,margin," + ",".join(f"count_{n}" for n in names):
        return ["classify: bad header"]
    records = lines[1:1 + len(ids)]
    for line, sid, (counts, winner, margin) in zip(records, ids, votes):
        cells = line.split(",")
        if sum(int(c) for c in cells[3:]) != LANDMARKS:
            problems.append(f"classify {sid}: votes do not sum to {LANDMARKS}")
        want = [sid, winner, str(margin)] + [str(counts[n]) for n in names]
        if cells != want:
            problems.append(f"classify {sid}: record {line!r}, recomputed {','.join(want)!r}")
    if len(records) != len(ids):
        problems.append(f"classify: {len(records)} records for {len(ids)} videos")
    correct = sum(w == t for (_, w, _), t in zip(votes, truth))
    accuracy = correct / len(ids)
    acc_line = f"accuracy={accuracy:.4f} correct={correct} total={len(ids)}"
    if acc_line not in lines:
        problems.append(f"classify: accuracy line missing or wrong, expected {acc_line!r}")
    elif healthy and accuracy < ACCURACY_FLOOR:
        problems.append(f"classify: accuracy {accuracy:.4f} below {ACCURACY_FLOOR}")
    want_actions = [f"action {sid} {actions.get(w, f'execute-task:{w}')}" for sid, (_, w, _) in zip(ids, votes)]
    if [line for line in lines if line.startswith("action ")] != want_actions:
        problems.append("classify: action lines differ from the mapped winners")
    return problems


def check_score(stdout, expected, band=None):
    """Silhouette report of a score run; `band` is an optional (centre, half-width)."""
    kv = parse_kv(stdout)
    problems = []
    got = float(kv.get("silhouette_overall", "nan"))
    if not abs(got - expected["silhouette"]) <= SILHOUETTE_ABS_TOL:
        problems.append(f"score: silhouette_overall={got!r}, recomputed {expected['silhouette']!r}")
    for cluster, value in expected["per_cluster"].items():
        printed = float(kv.get(f"silhouette_cluster_{cluster}", "nan"))
        if not abs(printed - value) <= SILHOUETTE_ABS_TOL:
            problems.append(f"score: cluster {cluster} {printed!r}, recomputed {value!r}")
    if len([k for k in kv if k.startswith("silhouette_cluster_")]) != len(expected["per_cluster"]):
        problems.append("score: cluster lines differ from the assigned clusters")
    if band is not None and not abs(got - band[0]) <= band[1]:
        problems.append(f"score: silhouette {got:.4f} outside {band[0]} +- {band[1]}")
    return problems
