"""Multivariate Gaussian mixture fitted by Expectation-Maximization.

Data points are the 3-dimensional variance feature rows. All density work is
done in log space, and posteriors/log-likelihoods use log-sum-exp, so the tiny
densities typical of variance features never underflow. The K components are
stored as stacked arrays and every step works on all of them at once.

Each covariance is factorized once, when its parameters are built, as
Sigma_k = L_k L_k^T, and the inverse factor P_k = L_k^-1 is kept beside it.
The Mahalanobis term is then a matrix product and a squared norm,

    (x - mu_k)^T Sigma_k^-1 (x - mu_k) = ||P_k (x - mu_k)||^2,

so evaluating densities (E-step, log-likelihood, classification) makes no
linear-algebra library call.

The E-step computes responsibilities

    r_nk = pi_k N(x_n | mu_k, Sigma_k) / sum_j pi_j N(x_n | mu_j, Sigma_j)

and the M-step re-estimates, with N_k = sum_n r_nk,

    mu_k    = sum_n r_nk x_n / N_k
    Sigma_k = sum_n r_nk (x_n - mu_k)(x_n - mu_k)^T / N_k + reg_eps * I
    pi_k    = N_k / N

which are the stationarity conditions of the log-likelihood
L = sum_n log sum_k pi_k N(x_n | mu_k, Sigma_k).

EM finds a local maximum of L that depends on its start. Given one label per
point and one component per label, EM runs once, from the M-step of the labels
(Basu, Banerjee & Mooney 2002, "Semi-supervised clustering by seeding", ICML).
Without them, `fit` screens k-means++ starts with short runs of EM (Biernacki,
Celeux & Govaert 2003, "Choosing starting values for the EM algorithm...",
CSDA 41), but only when the first has not converged within the screen, so a
quick fit costs nothing extra. A screened start that fails numerically is
passed over; an E-step that leaves a component less than EMPTY_COMPONENT_MASS
of responsibility is such a failure, so no M-step divides by an empty mass.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericalError
from .landmarks import _freeze, all_finite, as_rows, check_numbers

_LOG_2PI = np.log(2.0 * np.pi)

# A component whose responsibility mass falls below this is treated as empty,
# and the start that emptied it fails.
EMPTY_COMPONENT_MASS = 1e-10

# Restart screening of unlabelled starts in `fit`: when start 0 has not converged
# after _SCREEN_ITERS iterations, starts 1.._STARTS-1 run as many, and one replaces
# the best so far only when its log-likelihood is higher by more than
# _SCREEN_MARGIN nats per data point. A relative margin keeps a start that
# wins by an almost-empty "spike" component from displacing start 0.
_STARTS = 4
_SCREEN_ITERS = 30
_SCREEN_MARGIN = 0.05


@dataclass(frozen=True)
class MixtureParams:
    """K Gaussian components: means (K, d), covariances (K, d, d) and mixing
    weights (K,) that sum to 1.

    Building one validates it and caches, per component, the inverse Cholesky
    factor `prec_chol` (lower-triangular, prec_chol_k^T prec_chol_k =
    Sigma_k^-1) and `log_coefs`, log pi_k - (d log 2 pi + log det Sigma_k) / 2,
    the log of the constant factor of pi_k N(x | mu_k, Sigma_k).
    """

    means: np.ndarray
    covs: np.ndarray
    weights: np.ndarray
    prec_chol: np.ndarray = field(init=False, repr=False, compare=False)
    log_coefs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means, covs, weights = (_freeze(self, name) for name in ("means", "covs", "weights"))
        if means.ndim != 2 or means.shape[0] < 1:
            raise DataError(f"means must be a non-empty (K, d) array, got shape {means.shape}")
        k, d = means.shape
        if covs.shape != (k, d, d):
            raise DataError(f"mean/covariance shapes do not match: {means.shape} vs {covs.shape}")
        if weights.shape != (k,):
            raise DataError("one weight per component required")
        if not (all_finite(means) and all_finite(covs)):
            raise DataError("non-finite component parameters")
        if not ((weights >= 0).all() and (weights <= 1).all()):  # NaN fails both
            raise DataError("mixing weights must lie in [0, 1]")
        weight_sum = float(weights.sum())
        if abs(weight_sum - 1.0) > 1e-12:
            raise DataError(f"mixing weights sum to {weight_sum!r}, expected 1 within 1e-12")
        # rounding in the M-step's product grows with the entries, and so does the bound
        scale = np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))
        asymmetric = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12 * scale
        if asymmetric.any():
            bad = int(np.argmax(asymmetric))
            raise NumericalError(f"component {bad} covariance is not symmetric within 1e-12 x scale")
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            # the batched call does not say which matrix failed
            for i in range(k):
                try:
                    np.linalg.cholesky(covs[i])
                except np.linalg.LinAlgError:
                    raise NumericalError(
                        f"component {i} covariance is not positive-definite"
                    ) from exc
            raise NumericalError(f"covariances are not positive-definite: {exc}") from exc
        log_dets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        with np.errstate(divide="ignore"):  # zero weights are legal -> -inf
            log_coefs = np.log(weights) - 0.5 * (d * _LOG_2PI + log_dets)
        for name, value in (("prec_chol", _inverse_lower(chol)), ("log_coefs", log_coefs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.means.shape[0]


def _inverse_lower(chol: np.ndarray) -> np.ndarray:
    """L^-1 for a stack of lower-triangular L (K, d, d), by forward substitution
    against the identity, row by row; the result is lower-triangular."""
    d = chol.shape[-1]
    inv = np.zeros_like(chol)
    eye = np.eye(d)
    for i in range(d):
        # L[i, :i] W[:i] + L[i, i] W[i] = e_i
        inv[:, i] = (eye[i] - (chol[:, i, None, :i] @ inv[:, :i])[:, 0]) / chol[:, i, i, None]
    return inv


@dataclass(frozen=True)
class EmConfig:
    """Fit configuration. `tol` is the absolute log-likelihood change that counts
    as converged; `reg_eps` is the ridge added to every covariance diagonal. A
    model file's header starts with these fields, in order, each read by its type."""

    k: int
    seed: int = 0
    tol: float = 1e-6
    max_iters: int = 500
    reg_eps: float = 1e-6

    def __post_init__(self):
        check_numbers(int, 1, k=self.k, max_iters=self.max_iters)
        check_numbers(float, tol=self.tol, reg_eps=self.reg_eps)
        if not 0 < self.tol < np.inf:  # NaN fails every comparison
            raise DataError("tol must be positive and finite")
        if not 0 <= self.reg_eps < np.inf:
            raise DataError("reg_eps must be non-negative and finite")
        check_numbers(int, 0, seed=self.seed)  # numpy's generators take no negative seed


@dataclass
class EmTrace:
    """Per-iteration log-likelihoods plus convergence bookkeeping.

    `log_likelihoods[0]` is the likelihood of the initial parameters and each
    later entry follows one E/M update, so the sequence is non-decreasing (up
    to 1e-9 slack). It, `n_iters` and `converged` describe the returned start,
    whose index is `start`. `screened` holds every screened start's
    log-likelihood at the end of its screen (-inf for a start that failed
    numerically); empty when start 0 was labelled or converged within the screen.
    """

    log_likelihoods: list[float] = field(default_factory=list)
    converged: bool = False
    start: int = 0
    screened: list[float] = field(default_factory=list)

    @property
    def n_iters(self) -> int:
        """The E/M updates made: one less than the log-likelihoods recorded."""
        return len(self.log_likelihoods) - 1

    @property
    def reseeds(self) -> list[int]:
        """The starts abandoned for a fresh one because they failed numerically."""
        return [start for start, ll in enumerate(self.screened) if ll == -np.inf]


def _columns(x: np.ndarray) -> np.ndarray:
    """The points of checked (N, d) data as the columns of a contiguous (d, N)
    array: the layout every density and M-step pass works in."""
    return np.ascontiguousarray(x.T)


_NO_WORK = (None, None)


def _posteriors(xt: np.ndarray, params: MixtureParams, work=_NO_WORK):
    """Responsibilities r_kn, shape (K, N), of the points in the columns of xt
    (d, N), and the log normalizers log sum_k pi_k N(x_n | mu_k, Sigma_k), (N,).

    `work` is a pair of (K, d, N) arrays that receive the temporaries, or Nones
    to allocate them. A point whose density vanishes is a NumericalError."""
    diff, z = work
    diff = np.subtract(xt, params.means[:, :, None], out=diff)
    z = np.matmul(params.prec_chol, diff, out=z)  # P_k (x_n - mu_k), (K, d, N)
    np.square(z, out=z)
    log_joint = np.add.reduce(z, axis=1)  # squared Mahalanobis distances
    log_joint *= -0.5
    log_joint += params.log_coefs[:, None]  # log pi_k + log N(x_n | mu_k, Sigma_k)
    # log-sum-exp over the components, shifted by the largest term
    log_max = np.maximum.reduce(log_joint, axis=0)
    log_joint -= log_max
    resp = np.exp(log_joint, out=log_joint)
    total = np.add.reduce(resp, axis=0)
    resp *= 1.0 / total
    log_norm = log_max + np.log(total)
    if not all_finite(log_norm):
        raise NumericalError("mixture density vanished for some data point")
    return resp, log_norm


def log_likelihood(data, params: MixtureParams) -> float:
    """L = sum_n log sum_k pi_k N(x_n | mu_k, Sigma_k), via log-sum-exp."""
    _, log_norm = _posteriors(_columns(as_rows(data, width=params.means.shape[1])), params)
    return float(np.sum(log_norm))


def e_step(data, params: MixtureParams) -> np.ndarray:
    """Responsibility matrix r_nk, shape (N, K); each row sums to 1."""
    resp, _ = _posteriors(_columns(as_rows(data, width=params.means.shape[1])), params)
    return resp.T


def _m_step(xt, r, mass, config: EmConfig, work) -> MixtureParams:
    """Closed-form re-estimation from points as columns xt (d, N), responsibilities
    r (K, N) and their row sums `mass`, each at least EMPTY_COMPONENT_MASS (as
    `_Run._e_step` checks); `work` is the (K, d, N) pair of `_posteriors`."""
    d, n = xt.shape
    weights = mass / n
    weights = weights / weights.sum()
    means = (r @ xt.T) / mass[:, None]
    diff, weighted = work
    diff = np.subtract(xt, means[:, :, None], out=diff)  # (K, d, N)
    weighted = np.multiply(diff, r[:, None, :], out=weighted)
    covs = weighted @ diff.transpose(0, 2, 1) / mass[:, None, None] + config.reg_eps * np.eye(d)
    return MixtureParams(means=means, covs=covs, weights=weights)


def _global_cov(x: np.ndarray, config: EmConfig) -> np.ndarray:
    cov = np.atleast_2d(np.cov(x.T, bias=True))
    # starting covariances stay factorizable even with reg_eps=0 and flat data
    return cov + max(config.reg_eps, 1e-12) * np.eye(x.shape[1])


def _seed_means(x: np.ndarray, k: int, rng: "np.random.Generator") -> np.ndarray:
    """k-means++-style seeding: next mean drawn with probability proportional to
    squared distance from the nearest already-chosen mean."""
    n = x.shape[0]
    means = np.empty((k, x.shape[1]))
    means[0] = x[rng.integers(n)]
    dist_sq = np.full(n, np.inf)
    for i in range(1, k):
        dist_sq = np.minimum(dist_sq, np.sum((x - means[i - 1]) ** 2, axis=1))
        total = dist_sq.sum()
        if total > 0:
            probs = dist_sq / total
            means[i] = x[rng.choice(n, p=probs)]
        else:  # all remaining points coincide with chosen means
            means[i] = x[rng.integers(n)]
    return means


def initialize(data, config: EmConfig) -> MixtureParams:
    """Seeded starting parameters: k-means++ means, global covariance, uniform weights."""
    x = as_rows(data, config.k)
    means = _seed_means(x, config.k, np.random.default_rng(config.seed))
    cov = _global_cov(x, config)
    covs = np.broadcast_to(cov, (config.k, *cov.shape))
    weights = np.full(config.k, 1.0 / config.k)
    return MixtureParams(means=means, covs=covs, weights=weights)


def _labelled_start(xt, labels, distinct, config: EmConfig, work) -> MixtureParams:
    """Component j is the j-th distinct label in sorted order: the M-step of the
    labels as hard responsibilities gives it the mean and population covariance
    (plus reg_eps I) of that label's rows, and their share as weight."""
    index = {label: j for j, label in enumerate(distinct)}
    hard = np.eye(config.k)[[index[label] for label in labels]].T  # (K, N)
    return _m_step(xt, hard, hard.sum(axis=1), config, work)


class _Run:
    """EM from one set of starting parameters, advanced on request.

    Every run of one fit shares `work`, the two (K, d, N) temporaries of the E-
    and M-steps; a run keeps only its parameters, responsibilities and trace.
    """

    def __init__(self, xt, params, config: EmConfig, work):
        self.xt, self.config, self.work = xt, config, work
        self.trace = EmTrace()
        self.trace.log_likelihoods.append(self._e_step(params))

    def _e_step(self, params) -> float:
        """Take `params` and their responsibilities; returns the log-likelihood.
        A component left with less than EMPTY_COMPONENT_MASS fails the start."""
        self.params = params
        self.resp, log_norm = _posteriors(self.xt, params, self.work)
        self.mass = self.resp.sum(axis=1)
        empty = np.nonzero(self.mass < EMPTY_COMPONENT_MASS)[0]
        if empty.size:
            raise NumericalError(f"component {int(empty[0])} has no responsibility mass")
        return float(log_norm.sum())

    def advance(self, n_iters: int) -> float:
        """Iterate until converged or `n_iters` iterations in all; returns the
        last log-likelihood. Stopping and advancing again gives the parameters
        of one uninterrupted run."""
        config, trace = self.config, self.trace
        lls = trace.log_likelihoods
        while not trace.converged and trace.n_iters < n_iters:
            ll = self._e_step(_m_step(self.xt, self.resp, self.mass, config, self.work))
            lls.append(ll)
            trace.converged = abs(ll - lls[-2]) < config.tol
        return lls[-1]


def _start_seed(seed: int, start: int) -> int:
    """The initialization seed of start `start` of a fit seeded `seed`: `seed` for start 0."""
    return int(np.random.SeedSequence([seed, start]).generate_state(1)[0]) if start else seed


def fit(data, config: EmConfig, labels=None):
    """Run EM until the log-likelihood change drops below tol or max_iters.

    When `labels`, one per row, has config.k distinct values, EM runs once, from
    `_labelled_start`, and a numerical failure is raised. Otherwise start r is
    `initialize` seeded _start_seed(config.seed, r), and the starts are screened
    for S = min(_SCREEN_ITERS, max_iters) iterations as set out at _STARTS; ties
    keep the lower index. A start that fails numerically scores -inf and is
    passed over; if every start fails, NumericalError names start 0's error. The
    best start alone runs on to tol or max_iters, along the same path as if it
    had never paused, and a failure there is raised.

    Returns (MixtureParams, responsibility matrix, EmTrace); the responsibilities
    correspond to the returned parameters.
    """
    x = as_rows(data, config.k)  # before anything sized by K exists
    xt = _columns(x)
    n, d = x.shape
    if labels is not None and len(labels) != n:
        raise DataError(f"one label per data point required, got {len(labels)} for {n} points")
    try:
        distinct = sorted(set(() if labels is None else labels))
    except TypeError as exc:  # an unhashable label, or labels that do not compare
        raise DataError(f"row labels must be hashable and sortable: {exc}") from None
    work = (np.empty((config.k, d, n)), np.empty((config.k, d, n)))
    if len(distinct) == config.k:
        run = _Run(xt, _labelled_start(xt, labels, distinct, config, work), config, work)
        run.advance(config.max_iters)
        return run.params, run.resp.T, run.trace
    screen = min(_SCREEN_ITERS, config.max_iters)
    best, best_ll, screened, errors = None, -np.inf, [], []
    for start in range(_STARTS):
        try:
            params = initialize(x, replace(config, seed=_start_seed(config.seed, start)))
            run = _Run(xt, params, config, work)
            ll = run.advance(screen)
        except NumericalError as exc:
            errors.append(exc)
            ll = -np.inf
        else:
            if start == 0 and run.trace.converged:
                return run.params, run.resp.T, run.trace
        screened.append(ll)
        if ll > best_ll + _SCREEN_MARGIN * n:
            best, best_ll = run, ll
            best.trace.start = start
    if best is None:
        raise NumericalError(f"all {_STARTS} EM starts failed; start 0: {errors[0]}")
    best.advance(config.max_iters)
    best.trace.screened = screened
    return best.params, best.resp.T, best.trace
