import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gesturemix import (
    ClusterLabelMap,
    DataError,
    EmConfig,
    FeatureMatrix,
    MixtureParams,
    NormalizationStats,
    NumericalError,
    classify_video,
    e_step,
    fit,
    initialize,
    log_likelihood,
    m_step,
)
from oracles import direct_density


def mixture(means, covs, weights=None):
    """MixtureParams from per-component means and covariances; uniform weights by default."""
    k = len(means)
    if weights is None:
        weights = np.full(k, 1.0 / k)
    return MixtureParams(means=means, covs=covs, weights=weights)


def random_mixture(rng, k, d=3):
    means, covs = [], []
    for _ in range(k):
        a = rng.normal(size=(d, d))
        means.append(rng.normal(size=d, scale=3.0))
        covs.append(a @ a.T + np.eye(d))
    w = rng.random(k)
    w /= w.sum()
    return mixture(means, covs, w)


def single_density(x, mean, cov):
    """Density of one Gaussian at one point, through the K=1 mixture log-likelihood."""
    return float(np.exp(log_likelihood(np.asarray(x)[None, :], mixture([mean], [cov]))))


class TestGaussianPdf:
    def test_at_mean_identity_covariance(self):
        density = single_density(np.zeros(3), np.zeros(3), np.eye(3))
        assert density == pytest.approx((2 * np.pi) ** -1.5, rel=1e-12)
        assert density == pytest.approx(0.0634936, abs=1e-7)

    def test_determinant_scaling(self):
        density = single_density(np.zeros(3), np.zeros(3), np.diag([4.0, 1.0, 1.0]))
        assert density == pytest.approx(0.5 * (2 * np.pi) ** -1.5, rel=1e-12)

    def test_off_mean_matches_direct_formula(self):
        mean, cov = np.zeros(3), np.eye(3)
        x = np.array([1.0, 0.0, 0.0])
        density = single_density(x, mean, cov)
        assert density == pytest.approx((2 * np.pi) ** -1.5 * np.exp(-0.5), rel=1e-12)
        assert density == pytest.approx(direct_density(x, mean, cov), rel=1e-12)

    def test_random_points_match_direct_formula(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 3))
        mean, cov = rng.normal(size=3), a @ a.T + 0.5 * np.eye(3)
        for _ in range(20):
            x = rng.normal(size=3, scale=2.0)
            assert single_density(x, mean, cov) == pytest.approx(
                direct_density(x, mean, cov), rel=1e-10
            )

    def test_nonfinite_point_rejected(self):
        with pytest.raises(DataError):
            single_density(np.array([np.nan, 0.0, 0.0]), np.zeros(3), np.eye(3))


class TestLogLikelihood:
    def test_single_point_at_mean(self):
        params = mixture([np.zeros(3)], [np.eye(3)])
        ll = log_likelihood(np.zeros((1, 3)), params)
        assert ll == pytest.approx(-1.5 * np.log(2 * np.pi), rel=1e-12)
        assert ll == pytest.approx(-2.75682, abs=1e-5)

    def test_duplicating_points_doubles_value(self):
        rng = np.random.default_rng(2)
        params = random_mixture(rng, 3)
        x = rng.normal(size=(20, 3))
        ll = log_likelihood(x, params)
        assert log_likelihood(np.vstack([x, x]), params) == pytest.approx(2 * ll, rel=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        params = random_mixture(rng, 4)
        x = rng.normal(size=(50, 3), scale=2.0)
        naive = sum(
            np.log(
                sum(
                    w * direct_density(pt, m, c)
                    for w, m, c in zip(params.weights, params.means, params.covs)
                )
            )
            for pt in x
        )
        assert log_likelihood(x, params) == pytest.approx(naive, abs=1e-9)

    def test_empty_data_rejected(self):
        params = random_mixture(np.random.default_rng(0), 2)
        with pytest.raises(DataError):
            log_likelihood(np.zeros((0, 3)), params)


class TestEStep:
    def test_identical_components_give_uniform_rows(self):
        params = mixture([np.ones(3)] * 3, [np.eye(3)] * 3)
        resp = e_step(np.random.default_rng(1).normal(size=(10, 3)), params)
        assert np.allclose(resp, 1 / 3, atol=1e-12)

    def test_zero_weight_component_gets_nothing(self):
        params = mixture([np.zeros(3), np.ones(3)], [np.eye(3)] * 2, np.array([1.0, 0.0]))
        resp = e_step(np.random.default_rng(2).normal(size=(8, 3)), params)
        assert np.allclose(resp[:, 0], 1.0, atol=1e-15)
        assert np.allclose(resp[:, 1], 0.0, atol=1e-15)

    def test_matches_direct_bayes_rule(self):
        weights = np.array([0.3, 0.7])
        params = mixture(
            [np.zeros(3), np.array([6.0, 0.0, 0.0])], [np.eye(3), 2.0 * np.eye(3)], weights
        )
        x = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [3.0, 1.0, -1.0]])
        resp = e_step(x, params)
        for i, pt in enumerate(x):
            joint = np.array(
                [w * direct_density(pt, m, c) for w, m, c in zip(weights, params.means, params.covs)]
            )
            assert np.allclose(resp[i], joint / joint.sum(), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = random_mixture(rng, 5)
        resp = e_step(rng.normal(size=(40, 3), scale=4.0), params)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((resp >= 0) & (resp <= 1))


@st.composite
def conditioned_mixtures(draw):
    """(params, points): 1-4 components whose covariances have condition numbers
    up to 1e8 and eigenvalues between 1e-3 and 1e11, and 1-5 points each within
    10 standard deviations (Mahalanobis distance) of some component's mean."""
    unit = st.floats(-1.0, 1.0)
    k = draw(st.integers(1, 4))
    means, covs, factors = [], [], []
    for _ in range(k):
        rotation, _ = np.linalg.qr(draw(hnp.arrays(np.float64, (3, 3), elements=unit)))
        log_cond = draw(st.floats(0.0, 8.0))
        spread = np.array([0.0, draw(st.floats(0.0, 1.0)), 1.0])
        eigenvalues = 10.0 ** (draw(st.floats(-3.0, 3.0)) + log_cond * spread)
        cov = (rotation * eigenvalues) @ rotation.T
        means.append(draw(hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0))))
        covs.append((cov + cov.T) / 2)  # exactly symmetric
        factors.append(rotation * np.sqrt(eigenvalues))
    weights = draw(hnp.arrays(np.float64, k, elements=st.floats(0.05, 1.0)))
    points = []
    for _ in range(draw(st.integers(1, 5))):
        j = draw(st.integers(0, k - 1))
        direction = draw(hnp.arrays(np.float64, 3, elements=unit))
        norm = np.linalg.norm(direction)
        radius = draw(st.floats(0.0, 10.0))
        offset = factors[j] @ (direction * (radius / norm)) if norm > 0 else np.zeros(3)
        points.append(means[j] + offset)
    return mixture(means, covs, weights / weights.sum()), np.array(points)


def conditioning_slack(params, x):
    """Per component, the absolute error that the covariance's conditioning lets
    any double-precision evaluation of log(pi_k N(x | mu_k, Sigma_k)) make, for
    either side of a comparison: the log-determinant is off by up to about
    eps * cond * d and the Mahalanobis term by eps * cond times itself."""
    maha = np.array(
        [diff @ np.linalg.inv(cov) @ diff for diff, cov in zip(x - params.means, params.covs)]
    )
    return 2 * np.finfo(float).eps * np.linalg.cond(params.covs) * (params.dim + maha)


class TestDensityAgainstDirectFormula:
    """The cached inverse factors against the textbook density (determinant and
    explicit inverse of the covariance), through Bayes' rule: within 1e-9
    relative, plus the error the covariances' conditioning allows both sides
    (up to about 1e-8 in a log-density at condition number 1e8)."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(case=conditioned_mixtures())
    def test_log_likelihood_and_posteriors(self, case):
        params, points = case
        resp = e_step(points, params)
        for x, r in zip(points, resp):
            joint = np.array([
                w * direct_density(x, m, c)
                for w, m, c in zip(params.weights, params.means, params.covs)
            ])
            posterior = joint / joint.sum()
            slack = conditioning_slack(params, x)
            # d log sum_k exp(a_k) = sum_k r_k da_k and dr_k = r_k (da_k - sum_j r_j da_j)
            expected = np.log(joint.sum())
            assert abs(log_likelihood(x[None, :], params) - expected) <= (
                1e-9 * abs(expected) + posterior @ slack
            )
            tolerance = posterior * (1e-9 + slack + posterior @ slack) + 1e-300
            assert np.all(np.abs(r - posterior) <= tolerance)


class TestFactorOncePerParameterSet:
    def test_density_calls_make_no_linear_algebra_call(self, monkeypatch):
        rng = np.random.default_rng(21)
        params = random_mixture(rng, 4)
        x = rng.normal(size=(30, 3), scale=3.0)
        expected = (e_step(x, params), log_likelihood(x, params))

        def refuse(*args, **kwargs):
            raise AssertionError("density evaluation called np.linalg")

        for name in ("solve", "cholesky", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert np.array_equal(e_step(x, params), expected[0])
        assert log_likelihood(x, params) == expected[1]
        label_map = ClusterLabelMap(labels=("a", "b", "c", "d"), confidence=(1.0,) * 4)
        stats = NormalizationStats(mean=np.zeros(3), std=np.ones(3))
        features = FeatureMatrix(rows=np.abs(x[:21]), source_id="v")
        assert classify_video(features, params, label_map, stats).winner in label_map.labels


class TestMStep:
    def test_hard_assignment_reduces_to_cluster_stats(self):
        rng = np.random.default_rng(3)
        x = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(20, 3), loc=5.0)])
        resp = np.zeros((30, 2))
        resp[:10, 0] = 1.0
        resp[10:, 1] = 1.0
        params = m_step(x, resp, reg_eps=0.0)
        assert np.allclose(params.means[0], x[:10].mean(axis=0), atol=1e-12)
        assert np.allclose(params.means[1], x[10:].mean(axis=0), atol=1e-12)
        assert np.allclose(params.weights, [10 / 30, 20 / 30], atol=1e-15)

    def test_identity_responsibilities_on_two_points(self):
        x = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0]])
        params = m_step(x, np.eye(2), reg_eps=1e-6)
        assert np.allclose(params.means[0], x[0], atol=1e-15)
        assert np.allclose(params.means[1], x[1], atol=1e-15)
        assert np.allclose(params.weights, [0.5, 0.5], atol=1e-15)
        for cov in params.covs:
            assert np.allclose(cov, 1e-6 * np.eye(3), atol=1e-18)

    def test_matches_naive_weighted_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 3), scale=2.0)
        resp = rng.random((30, 4))
        resp /= resp.sum(axis=1, keepdims=True)
        reg = 1e-6
        params = m_step(x, resp, reg_eps=reg)
        for k in range(4):
            n_k = sum(resp[i, k] for i in range(30))
            mu = sum(resp[i, k] * x[i] for i in range(30)) / n_k
            cov = sum(resp[i, k] * np.outer(x[i] - mu, x[i] - mu) for i in range(30)) / n_k
            cov = cov + reg * np.eye(3)
            assert np.allclose(params.means[k], mu, atol=1e-12)
            assert np.allclose(params.covs[k], cov, atol=1e-12)
            assert params.weights[k] == pytest.approx(n_k / 30, abs=1e-12)

    def test_diag_mode_zeroes_off_diagonal(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 3))
        resp = rng.random((25, 2))
        resp /= resp.sum(axis=1, keepdims=True)
        params = m_step(x, resp, reg_eps=1e-6, covariance_mode="diag")
        for cov in params.covs:
            off = cov - np.diag(np.diag(cov))
            assert np.all(off == 0.0)

    def test_empty_column_raises(self):
        x = np.random.default_rng(7).normal(size=(10, 3))
        resp = np.zeros((10, 2))
        resp[:, 0] = 1.0
        with pytest.raises(NumericalError):
            m_step(x, resp)

    def test_output_invariants_hold(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 3), scale=3.0)
        resp = rng.random((60, 3))
        resp /= resp.sum(axis=1, keepdims=True)
        params = m_step(x, resp)
        assert abs(params.weights.sum() - 1.0) <= 1e-12
        for cov in params.covs:
            assert np.max(np.abs(cov - cov.T)) <= 1e-12
            np.linalg.cholesky(cov)  # positive-definite


class TestInitialize:
    def test_k1_uses_centroid(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        params = initialize(x, EmConfig(k=1, seed=0))
        assert np.allclose(params.means[0], x.mean(axis=0), atol=1e-12)
        assert params.weights[0] == 1.0

    def test_deterministic_for_fixed_seed(self):
        x = np.random.default_rng(2).normal(size=(40, 3))
        a = initialize(x, EmConfig(k=3, seed=123))
        b = initialize(x, EmConfig(k=3, seed=123))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)

    @pytest.mark.parametrize("seed", range(8))
    def test_far_apart_points_all_become_means(self, seed):
        x = np.array(
            [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
        )
        params = initialize(x, EmConfig(k=4, seed=seed))
        means = sorted(tuple(np.round(m, 6)) for m in params.means)
        assert means == sorted(tuple(row) for row in x)

    def test_fewer_points_than_components_rejected(self):
        with pytest.raises(DataError):
            initialize(np.zeros((3, 3)), EmConfig(k=4, seed=0))


def sample_mixture(rng, means, sigma, n_per):
    chunks = [rng.normal(loc=m, scale=sigma, size=(n_per, 3)) for m in means]
    return np.vstack(chunks)


class TestFit:
    def test_k1_recovers_sample_mean(self):
        rng = np.random.default_rng(10)
        x = rng.normal(loc=[1.0, -2.0, 0.5], scale=0.1, size=(200, 3))
        params, resp, trace = fit(x, EmConfig(k=1, seed=0))
        assert trace.converged
        assert np.allclose(params.means[0], x.mean(axis=0), atol=1e-12)
        se = x.std(axis=0) / np.sqrt(len(x))
        assert np.all(np.abs(params.means[0] - x.mean(axis=0)) <= 3 * se)

    def test_recovers_separated_mixture(self):
        rng = np.random.default_rng(20)
        means = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
        x = sample_mixture(rng, means, 0.3, 100)
        params, _, trace = fit(x, EmConfig(k=4, seed=1))
        fitted = params.means
        best = min(
            max(np.linalg.norm(fitted[list(perm)] - means, axis=1))
            for perm in itertools.permutations(range(4))
        )
        assert best < 0.1
        assert trace.converged

    def test_infinite_tol_stops_after_one_iteration(self):
        x = np.random.default_rng(3).normal(size=(50, 3))
        _, _, trace = fit(x, EmConfig(k=2, seed=0, tol=np.inf))
        assert trace.n_iters == 1
        assert trace.converged
        assert len(trace.log_likelihoods) == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_log_likelihood_monotone(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        means = rng.normal(size=(k, 3), scale=5.0)
        x = sample_mixture(rng, means, 0.5, 60)
        _, _, trace = fit(x, EmConfig(k=k, seed=seed))
        diffs = np.diff(trace.log_likelihoods)
        assert np.all(diffs >= -1e-9)

    def test_responsibilities_match_final_params(self):
        rng = np.random.default_rng(31)
        x = sample_mixture(rng, np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]), 0.4, 80)
        params, resp, _ = fit(x, EmConfig(k=2, seed=2))
        assert np.allclose(resp, e_step(x, params), atol=1e-12)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(17)
        x = sample_mixture(rng, np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 0.0]]), 0.4, 50)
        config = dict(k=2, seed=5, reg_eps=0.0, tol=1e-300, max_iters=15)
        params1, _, trace1 = fit(x, EmConfig(**config))
        params2, _, trace2 = fit(2.0 * x, EmConfig(**config))
        assert trace1.n_iters == trace2.n_iters
        assert np.allclose(2.0 * params1.means, params2.means, rtol=1e-9, atol=1e-12)
        assert np.allclose(4.0 * params1.covs, params2.covs, rtol=1e-9, atol=1e-12)
        assert np.allclose(params1.weights, params2.weights, atol=1e-12)

    def test_fewer_points_than_components_rejected(self):
        with pytest.raises(DataError):
            fit(np.zeros((2, 3)), EmConfig(k=4, seed=0))


class TestReseed:
    def test_empty_component_moves_to_worst_explained_point(self):
        from gesturemix.gmm import _reseed_component

        rng = np.random.default_rng(13)
        x = np.vstack([rng.normal(size=(40, 3), scale=0.2), [[9.0, 9.0, 9.0]]])
        live, dead = np.zeros(3), np.array([50.0, 50.0, 50.0])
        params = mixture([live, dead], [np.eye(3)] * 2, np.array([1.0, 0.0]))
        reseeded = _reseed_component(x, params, 1, EmConfig(k=2, seed=0))
        # the outlier is the point the current mixture explains worst
        assert np.allclose(reseeded.means[1], [9.0, 9.0, 9.0])
        assert abs(reseeded.weights.sum() - 1.0) <= 1e-12
        assert reseeded.weights[1] > 0

    @pytest.fixture()
    def stranded_start(self, monkeypatch):
        """fit() starting with component 1 at (50, 50, 50), where no point gives it mass."""
        from gesturemix import gmm

        stranded = mixture([np.zeros(3), np.full(3, 50.0)], [np.eye(3)] * 2)
        monkeypatch.setattr(gmm, "initialize", lambda data, config: stranded)
        return np.random.default_rng(13).normal(size=(60, 3), scale=0.2)

    def test_fit_reseeds_an_empty_component_and_converges(self, stranded_start):
        params, resp, trace = fit(stranded_start, EmConfig(k=2, seed=0))
        assert trace.reseeds == [(0, 1)]
        assert trace.converged
        assert np.all(resp.sum(axis=0) >= 1e-10)

    def test_fit_stops_after_the_reseed_cap(self, stranded_start, monkeypatch):
        from gesturemix import gmm

        monkeypatch.setattr(gmm, "_reseed_component", lambda x, params, k, config: params)
        with pytest.raises(NumericalError, match="component 1 stayed empty after 3 reseeds"):
            fit(stranded_start, EmConfig(k=2, seed=0))


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DataError):
            mixture([np.zeros(3)] * 2, [np.eye(3)] * 2, np.array([0.5, 0.4]))

    def test_weights_must_be_probabilities(self):
        with pytest.raises(DataError):
            mixture([np.zeros(3)] * 2, [np.eye(3)] * 2, np.array([1.5, -0.5]))

    def test_nan_weight_rejected(self):
        # NaN fails no comparison, so it must be caught by one that it fails
        with pytest.raises(DataError, match="weights"):
            mixture([np.zeros(3)] * 2, [np.eye(3)] * 2, np.array([np.nan, 1.0]))

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-6
        with pytest.raises(NumericalError):
            mixture([np.zeros(3)], [cov])

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NumericalError):
            mixture([np.zeros(3)], [np.diag([1.0, -1.0, 1.0])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected_by_message(self, bad):
        params = mixture([np.zeros(3)] * 2, [np.eye(3)] * 2)
        x = np.zeros((4, 3))
        x[3, 1] = bad
        for call in (e_step, log_likelihood):
            with pytest.raises(DataError, match=r"^non-finite data point$"):
                call(x, params)
        with pytest.raises(DataError, match=r"^non-finite component parameters$"):
            mixture([np.zeros(3), np.array([0.0, bad, 0.0])], [np.eye(3)] * 2)

    def test_vanished_density_is_numerical_error(self):
        params = mixture([np.zeros(3)] * 2, [np.eye(3)] * 2)
        far = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])  # squared distance overflows
        vanished = r"^mixture density vanished for some data point$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=vanished):
                e_step(far, params)

    def test_error_names_the_failing_component(self):
        covs = [np.eye(3), np.eye(3), np.diag([1.0, -1.0, 1.0])]
        with pytest.raises(NumericalError, match="component 2"):
            mixture([np.zeros(3)] * 3, covs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0),
            dict(k=2, max_iters=0),
            dict(k=2, tol=0.0),
            dict(k=2, reg_eps=-1e-9),
            dict(k=2, covariance_mode="spherical"),
            dict(k=2, reg_eps=float("nan")),
            dict(k=2, seed=-1),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(DataError):
            EmConfig(**kwargs)
