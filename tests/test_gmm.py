"""Gaussian-mixture EM: batched E/M steps against per-component loops."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdenoise import gmm
from ecgdenoise.errors import FitDivergedError
from ecgdenoise.gmm import (
    REINIT_RETRIES,
    _log_gaussians,
    _m_step,
    fit_gmm,
    gmm_responsibilities,
)

_LOG_2PI = np.log(2.0 * np.pi)


def _loop_log_gaussians(z, means, covs):
    """Reference: one Cholesky and one triangular solve per component."""
    columns = []
    for mean, cov in zip(means, covs):
        chol = np.linalg.cholesky(cov)
        delta = np.linalg.solve(chol, (z - mean).T)
        quad = np.sum(delta * delta, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        columns.append(-0.5 * (mean.size * _LOG_2PI + logdet + quad))
    return np.stack(columns, axis=1)


def _loop_m_step(z, resp, nk):
    """Reference: means and ridged scatters one component at a time."""
    n_components, p = resp.shape[1], z.shape[1]
    means = np.empty((n_components, p))
    covs = np.empty((n_components, p, p))
    for c in range(n_components):
        means[c] = resp[:, c] @ z / nk[c]
        delta = z - means[c]
        cov = (resp[:, c] * delta.T) @ delta / nk[c]
        covs[c] = cov + (gmm.COVARIANCE_RIDGE * np.trace(cov) / p
                         + 1e-12) * np.eye(p)
    return nk / z.shape[0], means, covs


@st.composite
def mixtures(draw):
    """Rows z, component means and SPD covariances with C <= 5, p <= 7."""
    n_components = draw(st.integers(1, 5))
    p = draw(st.integers(1, 7))
    n = draw(st.integers(n_components, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0)
    means = rng.standard_normal((n_components, p))
    a = rng.standard_normal((n_components, p, p))
    covs = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(p)
    resp = rng.dirichlet(np.ones(n_components), size=n)
    return z, means, covs, resp


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-10)


class TestBatchedSteps:
    @settings(max_examples=60, deadline=None)
    @given(mixtures())
    def test_log_gaussians_match_loop(self, case):
        # the one-GEMM form agrees with the loop to 1e-12 of the largest
        # log density
        z, means, covs, _ = case
        actual = _log_gaussians(z, means, covs)
        expected = _loop_log_gaussians(z, means, covs)
        assert np.abs(actual - expected).max() \
            <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(mixtures())
    def test_m_step_matches_loop(self, case):
        z, _, _, resp = case
        nk = resp.sum(axis=0)
        for actual, expected in zip(_m_step(z, resp, nk),
                                    _loop_m_step(z, resp, nk)):
            _assert_close(actual, expected)

    @settings(max_examples=30, deadline=None)
    @given(mixtures())
    def test_responsibilities_match_loop(self, case):
        z, means, covs, resp = case
        weights = resp.mean(axis=0)
        mixture = gmm.GaussianMixture(weights, means, covs, 0.0, True)
        log_joint = np.log(weights) + _loop_log_gaussians(z, means, covs)
        expected = np.exp(log_joint - gmm.logsumexp(log_joint)[:, None])
        actual = gmm_responsibilities(mixture, z)
        _assert_close(actual, expected)
        np.testing.assert_allclose(actual.sum(axis=1), 1.0, atol=1e-12)


def _clustered(seed, n=300, p=4):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, p)) * 4.0
    labels = rng.integers(3, size=n)
    return centers[labels] + rng.standard_normal((n, p))


class TestFitGmm:
    @pytest.mark.parametrize("seed,n_components", [(0, 1), (1, 3), (2, 4)])
    def test_fit_matches_loop_reference(self, monkeypatch, seed, n_components):
        z = _clustered(seed)
        fast = fit_gmm(z, n_components, rng_seed=seed, n_restarts=4)
        monkeypatch.setattr(gmm, "_log_gaussians", _loop_log_gaussians)
        monkeypatch.setattr(gmm, "_m_step", _loop_m_step)
        slow = fit_gmm(z, n_components, rng_seed=seed, n_restarts=4)
        assert fast.converged == slow.converged
        assert fast.loglik == pytest.approx(slow.loglik, rel=1e-10)
        for name in ("weights", "means", "covariances"):
            _assert_close(getattr(fast, name), getattr(slow, name))

    def test_deterministic(self):
        z = _clustered(3)
        a = fit_gmm(z, 3, rng_seed=9, n_restarts=3)
        b = fit_gmm(z, 3, rng_seed=9, n_restarts=3)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.loglik == b.loglik

    def test_empty_component_reseeded_then_fails(self, monkeypatch):
        # component 1 never takes any responsibility, so every E-step
        # finds it empty: the fit re-seeds it REINIT_RETRIES times, then
        # gives up with a typed error
        calls = []

        def starve_component_one(z, means, covs):
            calls.append(means.copy())
            log_dens = _loop_log_gaussians(z, means, covs)
            log_dens[:, 1] = -np.inf
            return log_dens

        monkeypatch.setattr(gmm, "_log_gaussians", starve_component_one)
        z = _clustered(4)
        with pytest.raises(FitDivergedError,
                           match=rf"\[1\].*{REINIT_RETRIES} re-seeds"):
            fit_gmm(z, 2, rng_seed=0, n_restarts=1)
        assert len(calls) == REINIT_RETRIES + 1
        # each re-seed moves the empty component onto a data row
        for means in calls[1:]:
            assert (np.abs(z - means[1]).sum(axis=1) == 0).any()

    def test_single_reseed_recovers(self, monkeypatch):
        calls = []

        def starve_once(z, means, covs):
            log_dens = _loop_log_gaussians(z, means, covs)
            if not calls:
                log_dens[:, 1] = -np.inf
            calls.append(1)
            return log_dens

        monkeypatch.setattr(gmm, "_log_gaussians", starve_once)
        fit = fit_gmm(_clustered(5), 2, rng_seed=0, n_restarts=1)
        assert np.isfinite(fit.loglik)
        assert len(calls) > 2

    def test_rejects_bad_component_count(self):
        with pytest.raises(ValueError, match="n_components"):
            fit_gmm(np.zeros((3, 2)), 4, rng_seed=0)
