import itertools
import re
from dataclasses import replace

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
    apply_normalization,
    build_label_map,
    classify_video,
    compute_variances,
    default_profiles,
    e_step,
    fit,
    fit_normalization,
    generate_dataset,
    log_likelihood,
)
from gesturemix import gmm
from oracles import direct_density, kmeans_plus_plus


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


class TestLogLikelihood:
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
    return 2 * np.finfo(float).eps * np.linalg.cond(params.covs) * (params.means.shape[1] + maha)


class TestDensityAgainstDirectFormula:
    """The cached inverse factors against the textbook density (determinant and
    explicit inverse of the covariance), through Bayes' rule: within 1e-9
    relative, plus the error the covariances' conditioning allows both sides
    (up to about 1e-8 in a log-density at condition number 1e8)."""

    @settings(max_examples=200)
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


class TestInverseFactor:
    """prec_chol is lower-triangular, with no stray entry above the diagonal,
    and inverts each covariance's Cholesky factor to within 1e-12."""

    @staticmethod
    def assert_inverts_cholesky(params):
        assert not np.triu(params.prec_chol, 1).any()
        product = params.prec_chol @ np.linalg.cholesky(params.covs)
        assert np.abs(product - np.eye(params.means.shape[1])).max() <= 1e-12

    def test_default_model(self, default_experiment):
        self.assert_inverts_cholesky(default_experiment["model"].params)

    def test_random_spd_stacks(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            self.assert_inverts_cholesky(random_mixture(rng, 4))


def m_step(x, resp, reg_eps=1e-6):
    """The closed-form M-step on (N, d) points and (N, K) responsibilities, with
    (K, d, N) work arrays as a fit passes them."""
    xt, r = np.ascontiguousarray(x.T), np.ascontiguousarray(resp.T)
    work = (np.empty(r.shape[:1] + xt.shape), np.empty(r.shape[:1] + xt.shape))
    config = EmConfig(k=r.shape[0], reg_eps=reg_eps)
    return gmm._m_step(xt, r, r.sum(axis=1), config, work)


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
    def test_k1_fit_does_not_depend_on_the_start(self):
        # every k = 1 responsibility is exactly 1, so the fit is one M-step from them
        x = np.random.default_rng(1).normal(size=(50, 3))
        params, resp, _ = fit(x, EmConfig(k=1, seed=0))
        expected = m_step(x, np.ones((50, 1)))
        assert np.array_equal(resp, np.ones((50, 1)))
        assert np.array_equal(params.means, expected.means)
        assert np.array_equal(params.covs, expected.covs)
        assert np.array_equal(params.weights, expected.weights)

    @pytest.mark.parametrize("seed", range(4))
    def test_means_are_the_loop_form_kmeans_plus_plus(self, seed_3_corpus, seed):
        x, _ = seed_3_corpus
        means = gmm.initialize(x, EmConfig(k=5, seed=seed)).means
        assert np.array_equal(means, kmeans_plus_plus(x, 5, np.random.default_rng(seed)))

    def test_deterministic_for_fixed_seed(self):
        x = np.random.default_rng(2).normal(size=(40, 3))
        a = gmm.initialize(x, EmConfig(k=3, seed=123))
        b = gmm.initialize(x, EmConfig(k=3, seed=123))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)

    @pytest.mark.parametrize("seed", range(8))
    def test_far_apart_points_all_become_means(self, seed):
        x = np.array(
            [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]]
        )
        params = gmm.initialize(x, EmConfig(k=4, seed=seed))
        means = sorted(tuple(np.round(m, 6)) for m in params.means)
        assert means == sorted(tuple(row) for row in x)

    def test_fewer_points_than_components_rejected(self):
        with pytest.raises(DataError):
            gmm.initialize(np.zeros((3, 3)), EmConfig(k=4, seed=0))


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

    def test_largest_finite_tol_stops_after_one_iteration(self):
        x = np.random.default_rng(3).normal(size=(50, 3))
        _, _, trace = fit(x, EmConfig(k=2, seed=0, tol=np.finfo(float).max))
        assert trace.n_iters == 1
        assert trace.converged
        assert len(trace.log_likelihoods) == 2

    def test_responsibilities_match_final_params(self):
        rng = np.random.default_rng(31)
        x = sample_mixture(rng, np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]]), 0.4, 80)
        params, resp, _ = fit(x, EmConfig(k=2, seed=2))
        assert np.allclose(resp, e_step(x, params), atol=1e-12)
        assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [2.0, 1e3, 1e6])
    def test_scaling_equivariance(self, scale):
        # the M-step's rounding grows with the data, so the covariances' symmetry
        # check must grow with them for a fit at 1e3 and beyond to pass
        rng = np.random.default_rng(17)
        x = sample_mixture(rng, np.array([[0.0, 0.0, 0.0], [3.0, 3.0, 0.0]]), 0.4, 50)
        config = dict(k=2, seed=5, reg_eps=0.0, tol=1e-300, max_iters=15)
        params1, _, trace1 = fit(x, EmConfig(**config))
        params2, _, trace2 = fit(scale * x, EmConfig(**config))
        assert trace1.n_iters == trace2.n_iters
        assert np.allclose(scale * params1.means, params2.means, rtol=1e-9, atol=1e-12)
        assert np.allclose(scale**2 * params1.covs, params2.covs, rtol=1e-9, atol=1e-12)
        assert np.allclose(params1.weights, params2.weights, atol=1e-12)

    def test_fewer_points_than_components_rejected(self):
        # at K = 10**12 the (K, d, N) work arrays would exceed any address space,
        # so the check must come before them
        for k in (4, 10**12):
            with pytest.raises(DataError, match=rf"^need at least k={k} data points, got 2$"):
                fit(np.zeros((2, 3)), EmConfig(k=k, seed=0))


def gesture_rows(videos_per_profile, frames, seed):
    """Normalized training rows of a synthetic corpus in the row order `train`
    reads its video directory in, and each row's label."""
    videos = generate_dataset(
        default_profiles(), videos_per_profile=videos_per_profile, frames=frames, seed=seed
    )
    videos.sort(key=lambda v: v.source_id)
    raw = np.vstack([compute_variances(v).rows for v in videos])
    labels = [v.label for v in videos for _ in range(21)]
    return apply_normalization(raw, fit_normalization(raw)), labels


@pytest.fixture(scope="module")
def seed_3_corpus():
    """Start 0 (training seed 0) runs 500 iterations unconverged to -9119.38 on
    these rows, with two components labelled wave and none stack."""
    return gesture_rows(50, 150, 3)


@pytest.fixture(scope="module")
def small_corpus():
    """168 rows on which start 0 needs 67 iterations and screened start 1 is
    higher by 7.3 nats (0.044 per point) at the end of the screen."""
    return gesture_rows(2, 20, 9)[0]


def same_fit(a, b):
    (pa, ra, ta), (pb, rb, tb) = a, b
    return (
        np.array_equal(pa.means, pb.means)
        and np.array_equal(pa.covs, pb.covs)
        and np.array_equal(pa.weights, pb.weights)
        and np.array_equal(ra, rb)
        and ta == tb
    )


class TestScreenedStarts:
    def test_collapsed_start_is_replaced_by_a_covering_fit(self, seed_3_corpus):
        x, labels = seed_3_corpus
        params, resp, trace = fit(x, EmConfig(k=4, seed=0))
        assert trace.converged
        assert trace.log_likelihoods[-1] == pytest.approx(-8026.506, abs=1e-3)
        assert trace.start != 0
        assert len(trace.screened) == gmm._STARTS
        assert trace.screened[0] < trace.screened[trace.start] - gmm._SCREEN_MARGIN * len(x)
        label_map = build_label_map(resp.argmax(axis=1), labels, 4)
        assert sorted(label_map.labels) == ["pick", "push", "stack", "wave"]
        assert np.all(np.diff(trace.log_likelihoods) >= -1e-9)

    def test_start_converged_within_the_screen_is_the_whole_fit(self, monkeypatch):
        x = sample_mixture(np.random.default_rng(20), np.eye(3) * 4, 0.3, 100)
        screened = fit(x, EmConfig(k=3, seed=1))
        assert screened[2].n_iters < gmm._SCREEN_ITERS
        assert screened[2].screened == [] and screened[2].start == 0
        monkeypatch.setattr(gmm, "_STARTS", 1)
        monkeypatch.setattr(gmm, "_SCREEN_ITERS", 10**6)  # no pause at all
        assert same_fit(fit(x, EmConfig(k=3, seed=1)), screened)

    def test_continued_winner_equals_an_uninterrupted_run(self, small_corpus, monkeypatch):
        x = small_corpus
        params, resp, trace = fit(x, EmConfig(k=4, seed=0))
        assert trace.start == 0 and trace.n_iters > gmm._SCREEN_ITERS
        monkeypatch.setattr(gmm, "_STARTS", 1)
        monkeypatch.setattr(gmm, "_SCREEN_ITERS", 10**6)
        p1, r1, t1 = fit(x, EmConfig(k=4, seed=0))
        assert t1.screened == [] and t1.log_likelihoods == trace.log_likelihoods
        assert np.array_equal(p1.means, params.means) and np.array_equal(r1, resp)

    def test_gain_below_the_margin_keeps_start_0(self, small_corpus, monkeypatch):
        x, n = small_corpus, len(small_corpus)
        trace = fit(x, EmConfig(k=4, seed=0))[2]
        gain = max(trace.screened[1:]) - trace.screened[0]
        assert 0 < gain < gmm._SCREEN_MARGIN * n and trace.start == 0
        best = 1 + int(np.argmax(trace.screened[1:]))
        monkeypatch.setattr(gmm, "_SCREEN_MARGIN", gain / n * 0.999)
        assert fit(x, EmConfig(k=4, seed=0))[2].start == best
        monkeypatch.setattr(gmm, "_SCREEN_MARGIN", gain / n * 1.001)
        assert fit(x, EmConfig(k=4, seed=0))[2].start == 0

    def test_equal_screens_go_to_the_lower_index(self, seed_3_corpus, monkeypatch):
        x, _ = seed_3_corpus
        initialize = gmm.initialize
        config = EmConfig(k=4, seed=0)
        start_2 = replace(config, seed=gmm._start_seed(0, 2))
        # starts 1, 2 and 3 all begin where start 2 would
        monkeypatch.setattr(
            gmm, "initialize",
            lambda data, c: initialize(data, c if c.seed == 0 else start_2),
        )
        trace = fit(x, config)[2]
        assert trace.screened[1] == trace.screened[2] == trace.screened[3]
        assert trace.start == 1

    @pytest.mark.parametrize("max_iters", [1, 5])
    def test_max_iters_below_the_screen(self, seed_3_corpus, max_iters):
        x, _ = seed_3_corpus
        params, resp, trace = fit(x, EmConfig(k=4, seed=0, max_iters=max_iters))
        assert trace.n_iters == max_iters
        assert len(trace.log_likelihoods) == max_iters + 1
        assert not trace.converged
        assert len(trace.screened) == gmm._STARTS
        assert trace.log_likelihoods[-1] == trace.screened[trace.start]
        assert log_likelihood(x, params) == pytest.approx(trace.log_likelihoods[-1], rel=1e-12)

    def test_repeated_calls_are_identical(self, seed_3_corpus):
        x, _ = seed_3_corpus
        config = EmConfig(k=4, seed=0)
        assert same_fit(fit(x, config), fit(x, config))

    def test_start_seeds_come_from_the_fit_seed(self):
        seeds = [gmm._start_seed(7, r) for r in range(1, gmm._STARTS)]
        assert seeds == [
            int(np.random.SeedSequence([7, r]).generate_state(1)[0]) for r in range(1, 4)
        ]
        assert len(set(seeds)) == len(seeds)

    def test_numerically_failing_start_is_passed_over(self, small_corpus, monkeypatch):
        x = small_corpus
        expected = fit(x, EmConfig(k=4, seed=0))
        initialize = gmm.initialize

        def broken_later_starts(data, config):
            params = initialize(data, config)
            if config.seed == 0:
                return params
            # a component far from every point: empty, so the start fails
            means = params.means.copy()
            means[1] = 1e3
            return MixtureParams(means=means, covs=params.covs, weights=params.weights)

        monkeypatch.setattr(gmm, "initialize", broken_later_starts)
        params, resp, trace = fit(x, EmConfig(k=4, seed=0))
        assert trace.screened[1:] == [-np.inf] * 3
        assert trace.start == 0
        assert trace.log_likelihoods == expected[2].log_likelihoods


class TestLabelledStart:
    def test_fit_without_labels_or_with_another_k_is_unchanged(self, seed_3_corpus):
        x, labels = seed_3_corpus
        config = EmConfig(k=5, seed=0)
        assert same_fit(fit(x, config, labels), fit(x, config))

    def test_labelled_fit_is_one_run(self, monkeypatch):
        x, labels = gesture_rows(2, 20, 9)
        config = EmConfig(k=4, seed=0)
        # by hand: the labelled start paused where a screen would, then run on
        xt = np.ascontiguousarray(x.T)
        work = (np.empty((4, 3, len(x))), np.empty((4, 3, len(x))))
        start = gmm._labelled_start(xt, labels, sorted(set(labels)), config, work)
        run = gmm._Run(xt, start, config, work)
        run.advance(gmm._SCREEN_ITERS)
        assert run.trace.n_iters == gmm._SCREEN_ITERS and not run.trace.converged
        run.advance(config.max_iters)
        monkeypatch.setattr(gmm, "initialize", None)  # no k-means++ start is built
        params, resp, trace = fit(x, config, labels)
        assert trace.screened == [] and trace.start == 0
        assert trace.converged and trace.n_iters == 165 > gmm._SCREEN_ITERS
        assert same_fit((params, resp, trace), (run.params, run.resp.T, run.trace))

    def test_singular_labelled_start_is_a_numerical_error(self, monkeypatch):
        x = sample_mixture(np.random.default_rng(3), np.eye(3) * 4, 0.3, 100)
        labels = ["a"] + ["b"] * 199 + ["c"] * 100  # "a" is one row: a zero covariance
        monkeypatch.setattr(gmm, "initialize", None)  # no screen runs
        with pytest.raises(NumericalError, match="^component 0 covariance is not positive-definite$"):
            fit(x, EmConfig(k=3, seed=0, reg_eps=0.0), labels)

    def test_one_label_per_row(self):
        x = sample_mixture(np.random.default_rng(3), np.eye(3) * 4, 0.3, 10)
        unusable = re.escape("row labels must be hashable and sortable: ")
        for labels, pattern in (
            (["a", "b", "c"] * 9 + ["a", "b"], "^one label per data point required, got 29 for 30 points$"),
            ([["a"]] * 30, f"^{unusable}unhashable type: 'list'$"),
            (["a", 1, "b"] * 10, f"^{unusable}'<' not supported between instances of "),
        ):
            with pytest.raises(DataError, match=pattern):
                fit(x, EmConfig(k=3, seed=0), labels)


class TestTrace:
    def test_n_iters_counts_the_updates_and_is_read_only(self, small_corpus):
        x = small_corpus
        separated = sample_mixture(np.random.default_rng(20), np.eye(3) * 4, 0.3, 100)
        quick, screened, stopped = (
            fit(separated, EmConfig(k=3, seed=1))[2],
            fit(x, EmConfig(k=4, seed=0))[2],
            fit(x, EmConfig(k=4, seed=0, max_iters=5))[2],
        )
        assert quick.converged and not quick.screened
        assert screened.converged and screened.screened
        assert not stopped.converged and stopped.n_iters == 5
        for trace in (quick, screened, stopped):
            assert trace.n_iters == len(trace.log_likelihoods) - 1
            with pytest.raises(AttributeError):
                trace.n_iters = 0


def strand_starts(monkeypatch, seed=None):
    """Make `initialize` put component 1 at (50, 50, 50), where no point near the
    origin gives it mass, for the start seeded `seed`, or for every start."""
    initialize = gmm.initialize
    stranded = mixture([np.zeros(3), np.full(3, 50.0)], [np.eye(3)] * 2)
    monkeypatch.setattr(
        gmm, "initialize",
        lambda data, config: stranded if seed in (None, config.seed) else initialize(data, config),
    )


class TestFailedStarts:
    @pytest.fixture()
    def blob(self):
        return np.random.default_rng(13).normal(size=(60, 3), scale=0.2)

    def test_start_0_with_an_empty_component_is_abandoned(self, blob, monkeypatch):
        strand_starts(monkeypatch, seed=0)
        params, resp, trace = fit(blob, EmConfig(k=2, seed=0))
        assert trace.screened[0] == -np.inf
        assert trace.reseeds == [0]
        assert trace.start != 0
        assert trace.converged
        assert np.all(np.diff(trace.log_likelihoods) >= -1e-9)
        assert np.all(resp.sum(axis=0) >= gmm.EMPTY_COMPONENT_MASS)

    def test_every_start_failing_is_a_numerical_error(self, blob, monkeypatch):
        strand_starts(monkeypatch)
        with pytest.raises(
            NumericalError,
            match=r"^all 4 EM starts failed; start 0: component 1 has no responsibility mass$",
        ):
            fit(blob, EmConfig(k=2, seed=0))

    def test_winner_failing_after_its_screen_is_raised(self, small_corpus, monkeypatch):
        x = small_corpus
        screens = gmm._STARTS * gmm._SCREEN_ITERS
        m_step = gmm._m_step
        calls = itertools.count(1)

        def failing_after_the_screens(*args):
            if next(calls) > screens:
                raise NumericalError("late failure")
            return m_step(*args)

        monkeypatch.setattr(gmm, "_m_step", failing_after_the_screens)
        with pytest.raises(NumericalError, match=r"^late failure$"):
            fit(x, EmConfig(k=4, seed=0))


class TestValidation:
    def test_weights_must_be_probabilities(self):
        with pytest.raises(DataError):
            mixture([np.zeros(3)] * 2, [np.eye(3)] * 2, np.array([1.5, -0.5]))

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(3)
        cov[0, 1] = 1e-6
        with pytest.raises(NumericalError):
            mixture([np.zeros(3)], [cov])

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

    def test_data_of_the_wrong_width_rejected(self):
        params = mixture([np.zeros(3)] * 2, [np.eye(3)] * 2)
        for call in (e_step, log_likelihood):
            with pytest.raises(DataError, match=r"^data must be an \(N, 3\) array, got shape \(5, 2\)$"):
                call(np.zeros((5, 2)), params)

    def test_vanished_density_is_numerical_error(self):
        params = mixture([np.zeros(3)] * 2, [np.eye(3)] * 2)
        far = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])  # squared distance overflows
        vanished = r"^mixture density vanished for some data point$"
        with np.errstate(over="ignore", invalid="ignore"):
            for call in (e_step, log_likelihood):
                with pytest.raises(NumericalError, match=vanished):
                    call(far, params)

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
            dict(k=2, reg_eps=float("nan")),
            dict(k=2, tol=float("inf")),
            dict(k=2, tol=float("nan")),
            dict(k=2, reg_eps=float("inf")),
            dict(k=2, seed=-1),
            dict(k=None),
            dict(k=2.5),
            dict(k=True),
            dict(k=2, max_iters=2.5),
            dict(k=2, seed=1.5),
            dict(k=2, tol=None),
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(DataError):
            EmConfig(**kwargs)
