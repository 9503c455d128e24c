"""MLE, oracle Bayes, factor analysis and mixture FA estimators."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecgdenoise import estimators
from ecgdenoise.errors import (EcgDenoiseError, FloatRangeError,
                               NonMonotoneFitError)
from ecgdenoise.bench import (
    BenchmarkConfig,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    _scree_dim,
    denoise,
    draw_cell,
    grid_seeds,
    simulate_cell_beats,
    simulate_population,
)
from ecgdenoise.estimators import (
    EM_MAX_ITER,
    EM_TOL,
    LOGLIK_SLACK,
    FaModel,
    MogFaModel,
    fa_posterior_mean_batch,
    fit_factor_analysis,
    fit_mog_fa,
    mog_fa_posterior_mean_batch,
    oracle_bayes_batch,
)
from ecgdenoise.noise import (
    CovarianceMatrix,
    EcgSample,
    estimate_noise,
    matern_covariance,
    unwhiten,
)

D = 48


@pytest.fixture(scope="module")
def k_mod():
    return matern_covariance(d=D, fs=500.0, lengthscale=0.02, smoothness=1.5)


def _loadings(rng, d, p, scales):
    q, _ = np.linalg.qr(rng.standard_normal((d, p)))
    return q * np.asarray(scales)


def _fa_population(k, rng, n, loadings, mu=None):
    """Beats drawn exactly from the factor model in whitened space."""
    p = loadings.shape[1]
    z = rng.standard_normal((n, p))
    thetas = unwhiten(k, z @ loadings.T)
    if mu is not None:
        thetas = thetas + mu
    return thetas, z


def _noise_beats(k, tau, n_beats, seed):
    """``n_beats`` noise beats at precision ``tau``: a one-row cell."""
    return simulate_cell_beats(np.zeros((1, k.d)), k, np.array([tau]),
                               n_beats, seed)[0]


def _observe(k, thetas, tau, n_beats, seed):
    means = np.empty_like(thetas)
    for i, theta in enumerate(thetas):
        noise = _noise_beats(k, tau, n_beats, (seed, i))
        means[i] = theta + noise.mean(axis=0)
    return means


class TestMleAverage:
    def test_single_beat_identity(self):
        beat = np.linspace(-1, 1, 10)
        sample = EcgSample(sample_id="s", beats=beat[None, :])
        estimates, _ = denoise(
            EstimatorSpec("mle"), sample.beat_mean[None, :], sample.n_beats,
            truth=None, estimate=None, thetas=None,
            latent_dim=LatentDimRule("fixed", 1), n_components=1,
            fit_seed=0)
        np.testing.assert_array_equal(estimates[0], beat)

    def test_mse_matches_analytic(self, k_mod):
        # summed squared error of the B-beat mean is tr(K) / (tau^2 B)
        tau, n_beats, n = 2.0, 4, 2000
        errors = np.empty(n)
        for i in range(n):
            noise = _noise_beats(k_mod, tau, n_beats, (10, i))
            errors[i] = np.sum(noise.mean(axis=0) ** 2)
        analytic = D / (tau**2 * n_beats)
        assert abs(errors.mean() - analytic) / analytic < 0.05

    def test_unbiased(self, k_mod):
        # entrywise bias of the beat mean over 10000 simulations
        tau, n_sims = 2.0, 10_000
        rng = np.random.default_rng(11)
        z = rng.standard_normal((n_sims, D))
        noise = z @ k_mod.sqrt / tau
        bias = noise.mean(axis=0)
        bound = 3.0 * (1.0 / tau) / np.sqrt(n_sims)
        assert np.all(np.abs(bias) < bound)


class TestOracleBayes:
    def test_exact_atom_returned(self, k_mod, rng):
        atoms = rng.standard_normal((20, D))
        sample = EcgSample(sample_id="s", beats=atoms[7][None, :])
        estimates, _ = oracle_bayes_batch(sample.beat_mean[None, :], atoms,
                                          k_mod)
        np.testing.assert_array_equal(estimates[0], atoms[7])

    def test_whitened_metric_decides(self):
        # a two-atom case where whitened and raw distances disagree
        k = CovarianceMatrix(eigenvalues=np.array([1.95, 0.05]),
                             eigenvectors=np.eye(2))
        atoms = np.array([[1.0, 0.0], [0.0, 0.35]])
        x = np.zeros(2)
        # raw distances: 1.0 vs 0.35 -> atom 1; whitened: 1/sqrt(1.95)=0.716
        # vs 0.35/sqrt(0.05)=1.565 -> atom 0
        sample = EcgSample(sample_id="s", beats=x[None, :])
        estimates, _ = oracle_bayes_batch(sample.beat_mean[None, :], atoms, k)
        np.testing.assert_array_equal(estimates[0], atoms[0])

    def test_tie_breaks_to_lowest_index(self, k_mod):
        row = np.linspace(0, 1, D)
        atoms = np.stack([row, row + 1.0, row])  # atoms 0 and 2 identical
        _, idx = oracle_bayes_batch(row[None, :], atoms, k_mod)
        assert idx[0] == 0


class TestSelectLatentDim:
    """The scree rule ``LatentDimRule`` applies to a descending,
    non-negative spectrum."""

    def test_hand_computed_slopes(self):
        # ln(10/100) = ln(1/10) = -2.303 <= -0.8; ln(0.99/1) = -0.01 > -0.8
        assert _scree_dim(np.array([100.0, 10.0, 1.0, 0.99, 0.98]),
                          -0.8) == 3

    def test_flat_spectrum(self):
        assert _scree_dim(np.array([2.0, 2.0, 2.0]), -0.8) == 1

    def test_single_eigenvalue(self):
        assert _scree_dim(np.array([5.0]), -0.8) == 1

    def test_custom_cutoff(self):
        # slopes -0.69, -0.69, -0.04
        vals = np.array([100.0, 50.0, 25.0, 24.0])
        assert _scree_dim(vals, -0.5) == 3
        assert _scree_dim(vals, -0.8) == 1


class TestFactorAnalysis:
    def test_recovers_loading_subspace(self, k_mod):
        rng = np.random.default_rng(21)
        loadings = _loadings(rng, D, 3, [3.0, 2.0, 1.5])
        thetas, _ = _fa_population(k_mod, rng, 3000, loadings)
        tau, n_beats = 5.0, 4
        means = _observe(k_mod, thetas, tau, n_beats, seed=22)
        model = fit_factor_analysis(means, k_mod, taus=tau, p=3,
                                    n_beats=n_beats)
        got = model.loadings @ model.loadings.T
        want = loadings @ loadings.T
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 0.05

    def test_loglik_monotone_and_converged(self, k_mod):
        rng = np.random.default_rng(23)
        loadings = _loadings(rng, D, 2, [2.0, 1.0])
        thetas, _ = _fa_population(k_mod, rng, 300, loadings)
        means = _observe(k_mod, thetas, 3.0, 2, seed=24)
        model = fit_factor_analysis(means, k_mod, taus=3.0, p=2, n_beats=2)
        diffs = np.diff(model.loglik_trace)
        assert np.all(diffs >= -1e-9 * (1.0 + np.abs(model.loglik_trace[:-1])))
        assert model.converged

    def test_bad_latent_dim(self, k_mod, rng):
        beats = rng.standard_normal((10, D))
        with pytest.raises(ValueError):
            fit_factor_analysis(beats, k_mod, taus=1.0, p=0)
        with pytest.raises(ValueError):
            fit_factor_analysis(beats, k_mod, taus=1.0, p=D + 1)

    def test_posterior_mean_at_prior_mean(self, k_mod, rng):
        beats = rng.standard_normal((30, D))
        model = fit_factor_analysis(beats, k_mod, taus=2.0, p=2)
        sample = EcgSample(sample_id="s", beats=np.tile(model.mean, (3, 1)))
        estimate = fa_posterior_mean_batch(
            model, sample.beat_mean[None, :], k_mod, 2.0, sample.n_beats)[0]
        np.testing.assert_allclose(estimate, model.mean, atol=1e-10)

    def test_vanishing_noise_limit_equals_mle(self, k_mod):
        rng = np.random.default_rng(25)
        loadings = _loadings(rng, D, 3, [3.0, 2.0, 1.5])
        thetas, _ = _fa_population(k_mod, rng, 200, loadings)
        tau, n_beats = 1e9, 20
        means = _observe(k_mod, thetas, tau, n_beats, seed=26)
        model = fit_factor_analysis(means, k_mod, taus=tau, p=3,
                                    n_beats=n_beats)
        est = fa_posterior_mean_batch(model, means, k_mod, tau, n_beats)
        rms = np.sqrt(np.mean((est - means) ** 2))
        assert rms < 1e-4

    def test_full_rank_high_precision_reproduces_input(self, rng):
        k = CovarianceMatrix(eigenvalues=np.ones(8), eigenvectors=np.eye(8))
        beats = rng.standard_normal((30, 8))
        model = fit_factor_analysis(beats, k, taus=1e6, p=8)
        sample = EcgSample(sample_id="s", beats=beats[3][None, :])
        estimate = fa_posterior_mean_batch(
            model, sample.beat_mean[None, :], k, 1e6, sample.n_beats)[0]
        np.testing.assert_allclose(estimate, beats[3], atol=1e-3)

    def test_shrinkage_in_whitened_space(self, k_mod):
        rng = np.random.default_rng(27)
        loadings = _loadings(rng, D, 3, [2.0, 1.0, 0.5])
        thetas, _ = _fa_population(k_mod, rng, 150, loadings)
        means = _observe(k_mod, thetas, 2.0, 1, seed=28)
        model = fit_factor_analysis(means, k_mod, taus=2.0, p=3)
        est = fa_posterior_mean_batch(model, means, k_mod, 2.0, 1)
        lhs = np.linalg.norm((est - model.mean) @ k_mod.inv_sqrt, axis=1)
        rhs = np.linalg.norm((means - model.mean) @ k_mod.inv_sqrt, axis=1)
        assert np.all(lhs <= rhs + 1e-12)

    def test_posterior_mean_is_affine(self, k_mod, rng):
        beats = rng.standard_normal((40, D))
        model = fit_factor_analysis(beats, k_mod, taus=2.0, p=4)
        x1 = rng.standard_normal(D)
        x2 = rng.standard_normal(D)
        alpha = 0.3
        f = lambda x: fa_posterior_mean_batch(model, x[None], k_mod, 2.0, 1)[0]
        combo = f(alpha * x1 + (1 - alpha) * x2)
        parts = alpha * f(x1) + (1 - alpha) * f(x2)
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    def test_mse_non_increasing_in_beat_count(self, k_mod):
        rng = np.random.default_rng(29)
        loadings = _loadings(rng, D, 3, [3.0, 2.0, 1.0])
        thetas, _ = _fa_population(k_mod, rng, 500, loadings)
        tau = 2.0
        all_noise = np.stack([
            _noise_beats(k_mod, tau, 16, (30, i))
            for i in range(500)
        ])
        mses = []
        for n_beats in (1, 4, 16):
            means = thetas + all_noise[:, :n_beats].mean(axis=1)
            model = fit_factor_analysis(means, k_mod, taus=tau, p=3,
                                        n_beats=n_beats)
            est = fa_posterior_mean_batch(model, means, k_mod, tau, n_beats)
            mses.append(np.mean(np.sum((est - thetas) ** 2, axis=1)))
        assert mses[0] >= mses[1] >= mses[2]


class TestMogFa:
    def test_single_standard_component_matches_fa(self, k_mod):
        rng = np.random.default_rng(31)
        loadings = _loadings(rng, D, 3, [2.0, 1.5, 1.0])
        thetas, _ = _fa_population(k_mod, rng, 200, loadings)
        means = _observe(k_mod, thetas, 2.0, 4, seed=32)
        fa = fit_factor_analysis(means, k_mod, taus=2.0, p=3, n_beats=4)
        mog = MogFaModel.from_fa(fa)
        fa_est = fa_posterior_mean_batch(fa, means, k_mod, 2.0, 4)
        for i in (0, 5, 11):
            sample = EcgSample(sample_id=str(i), beats=means[i][None, :])
            mog_est = mog_fa_posterior_mean_batch(
                mog, sample.beat_mean[None, :], k_mod, 4.0,
                sample.n_beats)[0]
            rms = np.sqrt(np.mean((mog_est - fa_est[i]) ** 2))
            assert rms < 1e-6

    def test_two_cluster_recovery(self, k_mod):
        # latent prior with two components separated by 5 sigma
        rng = np.random.default_rng(33)
        loadings = _loadings(rng, D, 2, [4.0, 3.0])
        n = 400
        labels = rng.integers(0, 2, n)
        z = rng.standard_normal((n, 2))
        z[:, 0] += np.where(labels == 1, 2.5, -2.5)
        thetas = unwhiten(k_mod, z @ loadings.T)
        means = _observe(k_mod, thetas, 5.0, 4, seed=34)
        fa = fit_factor_analysis(means, k_mod, taus=5.0, p=2, n_beats=4)
        model = fit_mog_fa(fa, means, k_mod, taus=5.0, n_components=2,
                           n_beats=4, rng_seed=35)
        resp, _ = estimators._mog_fa_posterior(model, means, k_mod,
                                               5.0 * 2.0)
        predicted = np.argmax(resp, axis=1)
        accuracy = max(np.mean(predicted == labels),
                       np.mean(predicted == 1 - labels))
        assert accuracy >= 0.95

    def test_far_basin_matches_single_component(self, k_mod):
        rng = np.random.default_rng(36)
        loadings = _loadings(rng, D, 2, [3.0, 2.0])
        fa = FaModel(mean=np.zeros(D), loadings=loadings,
                     loglik_trace=np.array([0.0]))
        comp_means = np.array([[-10.0, 0.0], [10.0, 0.0]])
        mog = MogFaModel(fa=fa, weights=np.array([0.5, 0.5]),
                         comp_means=comp_means,
                         comp_covs=np.stack([np.eye(2)] * 2))
        tau, n_beats = 4.0, 1
        psi = 1.0 / tau**2
        z_true = comp_means[1] + rng.standard_normal(2) * 0.3
        x_beat = unwhiten(k_mod, loadings @ z_true)
        sample = EcgSample(sample_id="s", beats=x_beat[None, :])
        resp, _ = estimators._mog_fa_posterior(mog, x_beat, k_mod, tau)
        assert resp[0, 1] > 1.0 - 1e-6
        # independent computation of the single-component posterior mean
        xw = x_beat @ k_mod.inv_sqrt
        cov_x = loadings @ loadings.T + psi * np.eye(D)
        m = comp_means[1] + loadings.T @ np.linalg.solve(
            cov_x, xw - loadings @ comp_means[1]
        )
        want = unwhiten(k_mod, loadings @ m)
        got = mog_fa_posterior_mean_batch(
            mog, sample.beat_mean[None, :], k_mod, tau, sample.n_beats)[0]
        assert np.sqrt(np.mean((got - want) ** 2)) < 1e-4

    def test_responsibilities_sum_to_one(self, k_mod, rng):
        beats = rng.standard_normal((50, D))
        fa = fit_factor_analysis(beats, k_mod, taus=2.0, p=2)
        model = fit_mog_fa(fa, beats, k_mod, taus=2.0, n_components=3,
                           rng_seed=37)
        resp, _ = estimators._mog_fa_posterior(model, beats[:5], k_mod, 2.0)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(resp >= 0)

    def test_component_count_bounds(self, k_mod, rng):
        beats = rng.standard_normal((5, D))
        fa = fit_factor_analysis(beats, k_mod, taus=1.0, p=2)
        with pytest.raises(ValueError):
            fit_mog_fa(fa, beats, k_mod, taus=1.0, n_components=6)

    def test_keeps_the_given_stage1(self, k_mod, rng):
        # the loadings are not refit: the model holds the stage-1 fit itself
        beats = rng.standard_normal((30, D))
        fa = fit_factor_analysis(beats, k_mod, taus=2.0, p=2)
        model = fit_mog_fa(fa, beats, k_mod, taus=2.0, n_components=2)
        assert model.fa is fa

    def test_foreign_stage1_refused(self, k_mod, rng):
        beats = rng.standard_normal((30, D))
        fa = fit_factor_analysis(beats, k_mod, taus=2.0, p=2)
        # other rows: one row dropped, or every row moved by a rounding
        for other in (beats[:-1], beats * (1.0 + 1e-15)):
            with pytest.raises(ValueError, match="other rows"):
                fit_mog_fa(fa, other, k_mod, taus=2.0, n_components=2)
        # rows of another width have another column mean too
        narrow = beats[:, :-1]
        k_narrow = matern_covariance(d=D - 1, fs=500.0, lengthscale=0.02,
                                     smoothness=1.5)
        with pytest.raises(ValueError, match="other rows"):
            fit_mog_fa(fa, narrow, k_narrow, taus=2.0, n_components=2)


class TestPosteriorBackProjection:
    """Both posterior means map the latents back through the (p, d)
    product L' K^{1/2}, and FA reads the rows through K^{-1/2} L; checked
    against the whitened-space association (whiten the rows, then apply
    L, then K^{1/2}) at 1e-12 of the largest estimate."""

    @pytest.fixture(scope="class")
    def fitted(self, k_mod):
        rng = np.random.default_rng(45)
        loadings = _loadings(rng, D, 3, [3.0, 2.0, 1.0])
        thetas, _ = _fa_population(k_mod, rng, 200, loadings,
                                   mu=np.linspace(-1.0, 1.0, D))
        taus = rng.uniform(2.0, 20.0, 200)
        means = thetas + rng.standard_normal((200, D)) @ k_mod.sqrt \
            / taus[:, None]
        fa = fit_factor_analysis(means, k_mod, taus, 3)
        mog = fit_mog_fa(fa, means, k_mod, taus, n_components=2,
                         rng_seed=46)
        psi = estimators._effective_psi(taus, 1, 200)
        return means, taus, psi, fa, mog

    def test_fa(self, k_mod, fitted):
        # E[z | x] = L' (L L' + psi I)^{-1} x, solved in all d dimensions
        means, taus, psi, fa, _ = fitted
        xw = (means - fa.mean) @ k_mod.inv_sqrt
        loadings = fa.loadings
        cov_x = loadings @ loadings.T + psi[:, None, None] * np.eye(D)
        latents = np.linalg.solve(cov_x, xw[:, :, None])[:, :, 0] @ loadings
        want = fa.mean + (latents @ loadings.T) @ k_mod.sqrt
        got = fa_posterior_mean_batch(fa, means, k_mod, taus)
        _assert_rel(got, want, 1e-12)

    def test_mog_fa(self, k_mod, fitted):
        means, taus, psi, _, mog = fitted
        xw = (means - mog.fa.mean) @ k_mod.inv_sqrt
        log_joint, latent_means = _loop_component_terms(
            mog.fa.loadings, mog.weights, mog.comp_means, mog.comp_covs,
            xw, psi)
        resp = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        combined = np.einsum("nc,cnp->np", resp, latent_means)
        want = mog.fa.mean + (combined @ mog.fa.loadings.T) @ k_mod.sqrt
        got = mog_fa_posterior_mean_batch(mog, means, k_mod, taus)
        _assert_rel(got, want, 1e-12)


_LOG_2PI = np.log(2.0 * np.pi)


def _loop_component_terms(loadings, weights, means, covs, xw, psi):
    """Reference: one Cholesky and one eigendecomposition per component,
    worked in all d whitened dimensions."""
    n, d = xw.shape
    log_joint = np.empty((n, weights.size))
    latent_means = []
    for c in range(weights.size):
        chol = np.linalg.cholesky(covs[c] + 1e-12 * np.eye(covs.shape[-1]))
        basis = loadings @ chol
        lam, q = np.linalg.eigh(basis.T @ basis)
        lam = np.maximum(lam, 0.0)
        centered = xw - loadings @ means[c]
        scores = (centered @ basis) @ q
        coeff = (scores / (psi[:, None] + lam[None, :])) @ q.T
        resid = centered - coeff @ basis.T
        quad = np.sum(resid * resid, axis=1) / psi \
            + np.sum(coeff * coeff, axis=1)
        logdet = d * np.log(psi) + np.sum(
            np.log1p(lam[None, :] / psi[:, None]), axis=1)
        log_joint[:, c] = np.log(weights[c]) \
            - 0.5 * (d * _LOG_2PI + logdet + quad)
        latent_means.append(means[c] + coeff @ chol.T)
    return log_joint, np.stack(latent_means)


def _plain_em(xw, psi, loadings, max_iter, tol):
    """Reference: plain EM on the same step, stopping at the first step
    that raises the log-likelihood by at most ``tol`` relative."""
    trace = []
    for _ in range(max_iter):
        ll, update = estimators._em_step(loadings, xw, psi)
        trace.append(ll)
        if len(trace) > 1 and ll - trace[-2] <= tol * (1.0 + abs(ll)):
            return loadings, np.asarray(trace), True
        loadings = update
    return loadings, np.asarray(trace), False


def _assert_rel(actual, expected, rel):
    """Largest deviation within ``rel`` of the largest expected entry."""
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rel * scale


@st.composite
def mixture_problems(draw, p_below_half_d=False):
    """Whitened rows of a C-component mixture factor model, each with its
    own noise level psi_i (spread over 1.5 decades), and the model's
    loadings and ``(weights, means, covs)`` prior. The loadings have
    orthogonal columns of scale 1 to 3, so two float evaluations of one
    formula agree to near machine precision."""
    n = draw(st.integers(20, 60))
    d = draw(st.integers(1, 10))
    p = draw(st.integers(1, max(1, d // 2) if p_below_half_d else d))
    c = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loadings = _loadings(rng, d, p, rng.uniform(1.0, 3.0, p))
    weights = rng.dirichlet(np.ones(c))
    means = 2.0 * rng.standard_normal((c, p))
    a = rng.standard_normal((c, p, p))
    covs = a @ np.swapaxes(a, -1, -2) / p + 0.5 * np.eye(p)
    psi = 10.0 ** rng.uniform(-2.0, -0.5, n)
    labels = rng.choice(c, size=n, p=weights)
    z = means[labels] + np.einsum("nij,nj->ni",
                                  np.linalg.cholesky(covs)[labels],
                                  rng.standard_normal((n, p)))
    xw = z @ loadings.T + rng.standard_normal((n, d)) * np.sqrt(psi)[:, None]
    return xw, psi, loadings, (weights, means, covs)


class TestEmPaths:
    @settings(max_examples=80, deadline=None)
    @given(mixture_problems())
    def test_span_terms_match_loop(self, problem):
        xw, psi, loadings, (weights, means, covs) = problem
        log_joint, latent_means, _ = estimators._mog_component_terms(
            *estimators._span_coordinates(loadings, xw), xw.shape[1],
            weights, means, covs, psi)
        want_joint, want_means = _loop_component_terms(
            loadings, weights, means, covs, xw, psi)
        _assert_rel(log_joint, want_joint, 1e-12)
        _assert_rel(latent_means, want_means, 1e-12)

    def test_rows_near_the_span_take_the_residual(self):
        # Rows 1e-5 off span(L) at ||x|| ~ 100: ||x||^2 - ||y||^2 would
        # lose ~1e14 machine epsilons of ||x_perp||^2, which at
        # psi = 1e-6 is ~1e3 times the 1e-12 tolerance, so these rows
        # must take the explicit residual.
        rng = np.random.default_rng(47)
        d, p, n = 12, 3, 40
        loadings = _loadings(rng, d, p, [3.0, 2.0, 1.0])
        weights = np.array([0.3, 0.7])
        means = np.array([[40.0, -30.0, 20.0], [-50.0, 10.0, 60.0]])
        covs = np.stack([np.eye(p), np.diag([4.0, 2.0, 1.0])])
        z = means[rng.integers(0, 2, n)] + rng.standard_normal((n, p))
        q, _ = np.linalg.qr(loadings, mode="complete")
        off = rng.standard_normal((n, d - p)) @ q[:, p:].T
        off *= 1e-5 / np.linalg.norm(off, axis=1, keepdims=True)
        xw = z @ loadings.T + off
        psi = np.full(n, 1e-6)
        assert np.all(np.sum(xw * xw, axis=1)
                      > 1e12 * np.sum(off * off, axis=1))
        log_joint, latent_means, _ = estimators._mog_component_terms(
            *estimators._span_coordinates(loadings, xw), d,
            weights, means, covs, psi)
        want_joint, want_means = _loop_component_terms(
            loadings, weights, means, covs, xw, psi)
        _assert_rel(log_joint, want_joint, 1e-12)
        _assert_rel(latent_means, want_means, 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(mixture_problems(p_below_half_d=True))
    def test_squarem_reaches_plain_em(self, problem):
        # Both run to a tolerance far below LOGLIK_SLACK, so each ends at
        # the maximum it climbs to (at EM_TOL either may stop short of it
        # by up to EM_TOL / (1 - EM rate) relative). As in the package,
        # FA fits centred rows from the spectral start.
        xw, psi, loadings, _ = problem
        p = loadings.shape[1]
        xw = xw - xw.mean(axis=0)
        start = estimators._spectral_start(xw, psi, p)
        fit, trace, converged = estimators._squarem(
            lambda L: estimators._em_step(L, xw, psi), start, 1500, 1e-12)
        estimators._check_loglik_trace(trace)
        assert estimators._em_step(fit, xw, psi)[0] == trace[-1]
        _, want, want_converged = _plain_em(xw, psi, start, 1500, 1e-12)
        assume(converged and want_converged)
        assert trace[-1] >= want[-1] - LOGLIK_SLACK * (1.0 + abs(want[-1]))

    def test_slow_ragged_fit_converges(self):
        # 200 ECG beats at fs 250 with tau ~ U(2, 20), B = 20 and estimated
        # noise: plain EM is still climbing after EM_MAX_ITER steps. Plain
        # EM converges in 671 steps at this seed, in 203 to 479 at seeds
        # 0-5 and 7
        config = BenchmarkConfig(seed=6, n_samples=200, fs=250.0, d=246,
                                 r_offset=164, n_beats_grid=(20,),
                                 tau_regimes=(TauRegime.uniform(2, 20),))
        population_seed, [cell] = grid_seeds(config)
        thetas = simulate_population(config, population_seed)
        K = config.noise_covariance()
        beats, _, _ = draw_cell(thetas, K, *cell)
        means = beats.mean(axis=1)
        K_hat, tau_hat = estimate_noise(beats)
        model = fit_factor_analysis(means, K_hat, tau_hat, p=7, n_beats=20)
        assert model.converged
        estimators._check_loglik_trace(model.loglik_trace)

        psi = estimators._effective_psi(tau_hat, 20, 200)
        xw = (means - model.mean) @ K_hat.inv_sqrt
        start = estimators._spectral_start(xw, psi, 7)
        _, plain, plain_converged = _plain_em(xw, psi, start, EM_MAX_ITER,
                                              EM_TOL)
        assert not plain_converged
        assert model.loglik_trace[-1] > plain[-1]


class TestModelValidation:
    def test_fa_model_rejects_decreasing_loglik(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            FaModel(mean=np.zeros(4), loadings=np.zeros((4, 1)),
                    loglik_trace=np.array([0.0, -1.0]))

    def test_falling_trace_is_typed_and_names_the_fit(self):
        trace = np.array([-10.0, -5.0, -5.5, -4.0])
        with pytest.raises(NonMonotoneFitError,
                           match=r"^FA fit: .* point 2 of 4 is 0\.5 below"):
            estimators._check_loglik_trace(trace, "FA fit")
        assert issubclass(NonMonotoneFitError, EcgDenoiseError)
        # a fall within LOGLIK_SLACK (relative) passes
        estimators._check_loglik_trace(
            np.array([-10.0, -10.0 - 5.0 * LOGLIK_SLACK]), "FA fit")

    @pytest.mark.parametrize("mixture", [False, True], ids=["fa", "mog_fa"])
    def test_fits_name_themselves(self, monkeypatch, rng, k_mod, mixture):
        # a mixture entry's one loadings fit is the FA fit it extends
        squarem = estimators._squarem

        def falling(*args):
            loadings, trace, converged = squarem(*args)
            return loadings, np.append(trace, trace[-1] - 1.0), converged

        monkeypatch.setattr(estimators, "_squarem", falling)
        means, taus = rng.standard_normal((30, D)), np.full(30, 5.0)
        with pytest.raises(NonMonotoneFitError, match="^FA fit: "):
            if mixture:
                denoise(EstimatorSpec("mog_fa"), means, 1,
                        truth=(k_mod, taus), estimate=None, thetas=None,
                        latent_dim=LatentDimRule("fixed", 2),
                        n_components=2, fit_seed=0)
            else:
                fit_factor_analysis(means, k_mod, taus, 2)

    @pytest.mark.parametrize("tau", [1e13, 1e100])
    def test_fall_within_rounding_is_float_range(self, rng, k_mod, tau):
        # 4 centred rows have rank 3 = p: the fit leaves only rounding
        # off span(L), which 1 / psi = tau^2 B magnifies past the trace's
        # slack, but not past eps sum ||x_i||^2 / psi_i
        means = 10.0 * rng.standard_normal((4, D))
        with pytest.raises(FloatRangeError,
                           match="^FA fit: .* within its float64 rounding"):
            fit_factor_analysis(means, k_mod, np.full(4, tau), 3, n_beats=2)
        fit_factor_analysis(means, k_mod, np.full(4, 5.0), 3, n_beats=2)

    def test_mog_model_rejects_bad_weights(self):
        fa = FaModel(mean=np.zeros(4), loadings=np.zeros((4, 2)),
                     loglik_trace=np.array([0.0]))
        with pytest.raises(ValueError, match="probability"):
            MogFaModel(fa=fa, weights=np.array([0.7, 0.7]),
                       comp_means=np.zeros((2, 2)),
                       comp_covs=np.stack([np.eye(2)] * 2))
