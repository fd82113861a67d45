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

EM finds a local maximum of L that depends on its start. `fit` screens further
starts with short runs of EM (Biernacki, Celeux & Govaert 2003, "Choosing
starting values for the EM algorithm...", CSDA 41), but only when the first
start has not converged within the screen, so a quick fit costs nothing extra.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericalError
from .landmarks import all_finite

_LOG_2PI = np.log(2.0 * np.pi)

# A component whose responsibility mass falls below this is treated as empty
# and reseeded.
EMPTY_COMPONENT_MASS = 1e-10
_MAX_RESEEDS = 3

# Restart screening in `fit`: when start 0 has not converged after
# _SCREEN_ITERS iterations, starts 1.._STARTS-1 run as many, and one replaces
# the best so far only when its log-likelihood is higher by more than
# _SCREEN_MARGIN nats per data point. A relative margin keeps a start that
# wins by an almost-empty "spike" component from displacing start 0.
_STARTS = 4
_SCREEN_ITERS = 30
_SCREEN_MARGIN = 0.05

COVARIANCE_MODES = ("full", "diag")


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
        means = np.array(self.means, dtype=np.float64)
        covs = np.array(self.covs, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
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
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise DataError(f"mixing weights sum to {weights.sum()!r}, expected 1")
        asymmetric = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12
        if asymmetric.any():
            bad = int(np.argmax(asymmetric))
            raise NumericalError(f"component {bad} covariance is not symmetric within 1e-12")
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
        for name, value in (("means", means), ("covs", covs), ("weights", weights),
                            ("prec_chol", _inverse_lower(chol)), ("log_coefs", log_coefs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


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
    as converged; `reg_eps` is the ridge added to every covariance diagonal."""

    k: int
    max_iters: int = 500
    tol: float = 1e-6
    reg_eps: float = 1e-6
    seed: int = 0
    covariance_mode: str = "full"

    def __post_init__(self):
        if self.k < 1:
            raise DataError("k must be at least 1")
        if self.max_iters < 1:
            raise DataError("max_iters must be at least 1")
        if not self.tol > 0:
            raise DataError("tol must be positive")
        if not self.reg_eps >= 0:
            raise DataError("reg_eps must be non-negative")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise DataError("seed must be non-negative")
        if self.covariance_mode not in COVARIANCE_MODES:
            raise DataError(f"unknown covariance_mode {self.covariance_mode!r}")


@dataclass
class EmTrace:
    """Per-iteration log-likelihoods plus convergence bookkeeping.

    `log_likelihoods[0]` is the likelihood of the initial parameters and each
    later entry follows one E/M update, so the sequence is non-decreasing (up
    to 1e-9 slack) unless a reseed event intervenes. `reseeds` records
    (iteration, component) pairs where an empty component was reinitialized.
    These four fields describe the returned start, whose index is `start`.
    `screened` holds every screened start's log-likelihood at the end of its
    screen (-inf for a start that failed numerically); it is empty when start 0
    converged within the screen.
    """

    log_likelihoods: list[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    reseeds: list[tuple[int, int]] = field(default_factory=list)
    start: int = 0
    screened: list[float] = field(default_factory=list)


def _as_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"data must be an (N, d) array, got shape {x.shape}")
    if x.shape[0] == 0:
        raise DataError("empty data")
    if not all_finite(x):
        raise DataError("non-finite data point")
    return x


def _columns(x: np.ndarray) -> np.ndarray:
    """The points of checked (N, d) data as the columns of a contiguous (d, N)
    array: the layout every density and M-step pass works in."""
    return np.ascontiguousarray(x.T)


_NO_WORK = (None, None)


def _posteriors(xt: np.ndarray, params: MixtureParams, work=_NO_WORK):
    """Responsibilities r_kn, shape (K, N), of the points in the columns of xt
    (d, N), and the log normalizers log sum_k pi_k N(x_n | mu_k, Sigma_k), (N,).

    `work` is a pair of (K, d, N) arrays that receive the temporaries, or Nones
    to allocate them."""
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
    return resp, log_max + np.log(total)


def log_likelihood(data, params: MixtureParams) -> float:
    """L = sum_n log sum_k pi_k N(x_n | mu_k, Sigma_k), via log-sum-exp."""
    _, log_norm = _posteriors(_columns(_as_data(data)), params)
    return float(np.sum(log_norm))


def e_step(data, params: MixtureParams) -> np.ndarray:
    """Responsibility matrix r_nk, shape (N, K); each row sums to 1."""
    resp, _ = _e_step_with_norm(_columns(_as_data(data)), params)
    return resp.T


def _e_step_with_norm(xt: np.ndarray, params: MixtureParams, work=_NO_WORK):
    """Responsibilities as (K, N) and the per-point log normalizers."""
    resp, log_norm = _posteriors(xt, params, work)
    if not all_finite(log_norm):
        raise NumericalError("mixture density vanished for some data point")
    return resp, log_norm


def m_step(data, resp, reg_eps: float = 1e-6, covariance_mode: str = "full") -> MixtureParams:
    """Closed-form parameter re-estimation from (N, K) responsibilities."""
    x = _as_data(data)
    r = np.asarray(resp, dtype=np.float64)
    if r.shape[0] != x.shape[0] or r.ndim != 2:
        raise DataError("responsibilities must be (N, K) aligned with the data")
    r = np.ascontiguousarray(r.T)
    return _m_step(_columns(x), r, r.sum(axis=1), reg_eps, covariance_mode)


def _m_step(xt, r, mass, reg_eps, covariance_mode, work=_NO_WORK) -> MixtureParams:
    """m_step on points as columns xt (d, N), responsibilities r (K, N) and their
    row sums `mass`; `work` as in `_posteriors`."""
    empty = np.nonzero(mass < EMPTY_COMPONENT_MASS)[0]
    if empty.size:
        raise NumericalError(f"component {int(empty[0])} has no responsibility mass")
    d, n = xt.shape
    weights = mass / n
    weights = weights / weights.sum()
    means = (r @ xt.T) / mass[:, None]
    diff, weighted = work
    diff = np.subtract(xt, means[:, :, None], out=diff)  # (K, d, N)
    weighted = np.multiply(diff, r[:, None, :], out=weighted)
    covs = weighted @ diff.transpose(0, 2, 1) / mass[:, None, None]
    covs = _restrict(covs, covariance_mode) + reg_eps * np.eye(d)
    return MixtureParams(means=means, covs=covs, weights=weights)


def _restrict(covs: np.ndarray, covariance_mode: str) -> np.ndarray:
    """Zero the off-diagonal covariance entries in "diag" mode; any other mode keeps all."""
    keep = np.eye(covs.shape[-1], dtype=bool) | (covariance_mode != "diag")
    return np.where(keep, covs, 0.0)


def _global_cov(x: np.ndarray, reg_eps: float, covariance_mode: str) -> np.ndarray:
    cov = _restrict(np.atleast_2d(np.cov(x.T, bias=True)), covariance_mode)
    # starting covariances stay factorizable even with reg_eps=0 and flat data
    return cov + max(reg_eps, 1e-12) * np.eye(x.shape[1])


def _seed_means(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++-style seeding: next mean drawn with probability proportional to
    squared distance from the nearest already-chosen mean."""
    n = x.shape[0]
    means = np.empty((k, x.shape[1]))
    means[0] = x[rng.integers(n)]
    for i in range(1, k):
        dist_sq = np.min(
            np.sum((x[:, None, :] - means[None, :i, :]) ** 2, axis=2), axis=1
        )
        total = dist_sq.sum()
        if total > 0:
            probs = dist_sq / total
            means[i] = x[rng.choice(n, p=probs)]
        else:  # all remaining points coincide with chosen means
            means[i] = x[rng.integers(n)]
    return means


def initialize(data, config: EmConfig) -> MixtureParams:
    """Seeded starting parameters: k-means++ means, global covariance, uniform weights."""
    x = _as_data(data)
    n, d = x.shape
    if n < config.k:
        raise DataError(f"need at least k={config.k} data points, got {n}")
    rng = np.random.default_rng(config.seed)
    if config.k == 1:
        means = x.mean(axis=0)[None, :]
    else:
        means = _seed_means(x, config.k, rng)
    cov = _global_cov(x, config.reg_eps, config.covariance_mode)
    covs = np.broadcast_to(cov, (config.k, d, d))
    weights = np.full(config.k, 1.0 / config.k)
    return MixtureParams(means=means, covs=covs, weights=weights)


def _reseed_component(
    x: np.ndarray, params: MixtureParams, k_empty: int, config: EmConfig
) -> MixtureParams:
    """Move an empty component to the point the mixture explains worst."""
    _, log_norm = _posteriors(_columns(x), params)
    worst = int(np.argmin(log_norm))
    means = params.means.copy()
    means[k_empty] = x[worst]
    covs = params.covs.copy()
    covs[k_empty] = _global_cov(x, config.reg_eps, config.covariance_mode)
    weights = params.weights.copy()
    weights[k_empty] = 1.0 / params.k
    weights = weights / weights.sum()
    return MixtureParams(means=means, covs=covs, weights=weights)


class _Run:
    """EM from one set of starting parameters, advanced on request.

    Every run of one fit shares `work`, the two (K, d, N) temporaries of the E-
    and M-steps; a run keeps only its parameters, responsibilities and trace.
    """

    def __init__(self, x, xt, params, config: EmConfig, work):
        self.x, self.xt, self.config, self.work = x, xt, config, work
        self.trace = EmTrace()
        self.params, self.resp, self.mass, ll = self._checked_e_step(params, 0)
        self.trace.log_likelihoods.append(ll)

    def _checked_e_step(self, params, iteration):
        # Reseed any component whose posterior mass has collapsed to zero. Each
        # pass returns, raises or records a reseed, and reseeds are capped.
        reseeds = self.trace.reseeds
        while True:
            resp, log_norm = _e_step_with_norm(self.xt, params, self.work)
            mass = resp.sum(axis=1)
            empty = np.nonzero(mass < EMPTY_COMPONENT_MASS)[0]
            if empty.size == 0:
                return params, resp, mass, float(log_norm.sum())
            if len(reseeds) >= _MAX_RESEEDS:
                raise NumericalError(
                    f"component {int(empty[0])} stayed empty after "
                    f"{_MAX_RESEEDS} reseeds (iteration {iteration}); "
                    "try a smaller k or different seed"
                )
            reseeds.append((iteration, int(empty[0])))
            params = _reseed_component(self.x, params, int(empty[0]), self.config)

    def advance(self, n_iters: int) -> float:
        """Iterate until converged or `n_iters` iterations in all; returns the
        last log-likelihood. Stopping and advancing again gives the parameters
        of one uninterrupted run."""
        config, trace = self.config, self.trace
        lls = trace.log_likelihoods
        while not trace.converged and trace.n_iters < n_iters:
            iteration = trace.n_iters + 1
            params = _m_step(
                self.xt, self.resp, self.mass, config.reg_eps, config.covariance_mode, self.work
            )
            self.params, self.resp, self.mass, ll = self._checked_e_step(params, iteration)
            lls.append(ll)
            trace.n_iters = iteration
            trace.converged = abs(ll - lls[-2]) < config.tol
        return lls[-1]


def _start_seed(seed: int, start: int) -> int:
    """The initialization seed of restart `start` >= 1 of a fit seeded `seed`."""
    return int(np.random.SeedSequence([seed, start]).generate_state(1)[0])


def fit(data, config: EmConfig):
    """Run EM until the log-likelihood change drops below tol or max_iters.

    Start 0 is `initialize(data, config)`. If it has not converged after
    S = min(_SCREEN_ITERS, max_iters) iterations, starts r = 1.._STARTS-1 run S
    iterations each from `initialize` with seed _start_seed(config.seed, r); a
    start replaces the best so far only when its log-likelihood then is higher
    by more than _SCREEN_MARGIN * N, so ties keep the lower index. A screened
    start that fails numerically is passed over. The best start alone runs on
    to tol or max_iters, along the same path as if it had never paused.

    Returns (MixtureParams, responsibility matrix, EmTrace); the responsibilities
    correspond to the returned parameters.
    """
    x = _as_data(data)
    xt = _columns(x)
    n, d = x.shape
    work = (np.empty((config.k, d, n)), np.empty((config.k, d, n)))
    screen = min(_SCREEN_ITERS, config.max_iters)
    best = _Run(x, xt, initialize(x, config), config, work)
    best_ll = best.advance(screen)
    screened = []
    if not best.trace.converged:
        screened.append(best_ll)
        for start in range(1, _STARTS):
            try:
                run = _Run(
                    x, xt, initialize(x, replace(config, seed=_start_seed(config.seed, start))),
                    config, work,
                )
                ll = run.advance(screen)
            except NumericalError:
                ll = -np.inf
            screened.append(ll)
            if ll > best_ll + _SCREEN_MARGIN * n:
                best, best_ll = run, ll
                best.trace.start = start
        best.advance(config.max_iters)
    best.trace.screened = screened
    return best.params, best.resp.T, best.trace
