"""Gaussian-mixture EM: the batched sufficient-statistic fit against loops.

The references are the plain forms: per-component log densities and
M-step, and a fit that runs each restart on its own with them.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdenoise import gmm
from ecgdenoise.errors import FitDivergedError
from ecgdenoise.gmm import (
    REINIT_RETRIES,
    _features,
    _inverse_factor,
    _kmeanspp_centers,
    _log_joint,
    _m_step,
    _ridge,
    fit_gmm,
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


def _loop_fit_once(z, n_components, rng, max_iter, tol,
                   log_gaussians=_loop_log_gaussians):
    """Reference: one restart's EM on the loop steps, as a plain loop."""
    n, p = z.shape
    global_cov = _ridge(np.atleast_2d(np.cov(z.T, ddof=1)))
    means = _kmeanspp_centers(z, n_components, rng)
    covs = np.repeat(global_cov[None], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)

    prev_ll = -np.inf
    converged = False
    reinits = 0
    for _ in range(max_iter):
        log_joint = np.log(weights) + log_gaussians(z, means, covs)
        norm = gmm.logsumexp(log_joint, axis=1)
        ll = float(norm.sum())
        if not np.isfinite(ll):
            raise FitDivergedError("mixture log-likelihood is not finite")
        resp = np.exp(log_joint - norm[:, None])

        nk = resp.sum(axis=0)
        empty = np.flatnonzero(nk < 1e-10)
        if empty.size:
            if reinits >= REINIT_RETRIES:
                raise FitDivergedError(
                    f"component(s) {empty.tolist()} stayed empty after "
                    f"{REINIT_RETRIES} re-seeds"
                )
            reinits += 1
            for c in empty:
                means[c] = z[rng.integers(n)]
                covs[c] = global_cov
            prev_ll = -np.inf
            continue

        weights, means, covs = _loop_m_step(z, resp, nk)

        if ll - prev_ll <= tol * (1.0 + abs(ll)) and np.isfinite(prev_ll):
            converged = True
            break
        prev_ll = ll
    # the rounding error of a sum scales with the sum of its terms' sizes
    return dict(weights=weights, means=means, covariances=covs, loglik=ll,
                scale=float(np.abs(norm).sum()), converged=converged,
                reseeds=reinits)


def _loop_fit_gmm(z, n_components, rng_seed, n_restarts=10, max_iter=1000,
                  tol=1e-7, hooks=None):
    """Reference: every restart on its own; the first best one is kept.

    ``hooks`` maps a restart number to the log-density function it uses
    in place of ``_loop_log_gaussians``.
    """
    hooks = hooks or {}
    fits = [
        _loop_fit_once(z, n_components, np.random.default_rng(child),
                       max_iter, tol,
                       hooks.get(r, _loop_log_gaussians))
        for r, child in enumerate(
            np.random.SeedSequence(rng_seed).spawn(n_restarts))
    ]
    best = 0
    for r, fit in enumerate(fits):
        if fit["loglik"] > fits[best]["loglik"]:
            best = r
    return best, fits


def _assert_matches_reference(fit, best, fits, tol=1e-8, rounding_ties=True):
    """The batched fit keeps the reference's restart and matches it.

    Parameters agree to ``tol`` (relative and absolute). With
    ``rounding_ties`` the log-likelihoods agree to 1e-10 relative to the sum
    of the rows' absolute log-likelihoods (the sum's own rounding scale,
    equal to |loglik| when every row's density is below 1); restarts that
    reach the same maximum end with log-likelihoods that differ by rounding
    alone, so when another restart ties with the reference's best at that
    tolerance, either may be kept. Without it the log-likelihoods agree to
    1e-10 of their own size and the reference's restart must be kept.
    """
    reference = np.array([f["loglik"] for f in fits])
    scale = (np.array([f["scale"] for f in fits]) if rounding_ties
             else np.abs(reference))
    tolerance = 1e-10 * scale
    assert np.all(np.abs(fit.restart_logliks - reference) <= tolerance)
    assert fit.reseeds == sum(f["reseeds"] for f in fits)
    chosen = int(np.argmax(fit.restart_logliks))
    ties = np.flatnonzero(reference >= reference[best] - tolerance[best])
    assert chosen == best or (rounding_ties and ties.size > 1
                              and chosen in ties)
    expected = fits[chosen]
    assert fit.converged == expected["converged"]
    assert fit.loglik == fit.restart_logliks[chosen]
    for name in ("weights", "means", "covariances"):
        np.testing.assert_allclose(getattr(fit, name), expected[name],
                                   rtol=tol, atol=tol)


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
        # one product of the features with the natural-parameter rows
        # agrees with the loop to 1e-12 of the largest log density
        z, means, covs, _ = case
        centre = z.mean(axis=0)
        ones = np.ones(len(means))
        actual = _log_joint(_features(z - centre), ones, means - centre,
                            _inverse_factor(covs)).T
        expected = _loop_log_gaussians(z, means, covs)
        assert np.abs(actual - expected).max() \
            <= 1e-12 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(mixtures())
    def test_m_step_matches_loop(self, case):
        z, _, _, resp = case
        nk = resp.sum(axis=0)
        centre = z.mean(axis=0)
        stats = resp.T @ _features(z - centre)
        weights, means, covs, factors = _m_step(stats, resp.T, z - centre)
        expected = _loop_m_step(z, resp, nk)
        for actual, wanted in zip((weights, means + centre, covs), expected):
            _assert_close(actual, wanted)
        np.testing.assert_allclose(factors, _inverse_factor(covs),
                                   rtol=1e-12, atol=0)


def _clustered(seed, n=300, p=4):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((3, p)) * 4.0
    labels = rng.integers(3, size=n)
    return centers[labels] + rng.standard_normal((n, p))


@st.composite
def clustered_fits(draw):
    """Rows from 1-4 Gaussian clusters and the settings of a fit to them."""
    n_clusters = draw(st.integers(1, 4))
    p = draw(st.integers(1, 6))
    n = draw(st.integers(30, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal((n_clusters, p)) * draw(st.floats(0.5, 6.0))
    spread = rng.uniform(0.3, 2.0, size=(n_clusters, 1))
    labels = rng.integers(n_clusters, size=n)
    z = centers[labels] + spread[labels] * rng.standard_normal((n, p))
    z = z * draw(st.floats(0.1, 10.0)) + rng.standard_normal(p) * 5.0
    return dict(z=z, n_components=draw(st.integers(1, 5)),
                rng_seed=draw(st.integers(0, 2**32 - 1)),
                n_restarts=draw(st.integers(1, 6)),
                max_iter=draw(st.integers(1, 200)))


class TestFitGmm:
    @settings(max_examples=40, deadline=None)
    @given(clustered_fits())
    def test_batched_fit_matches_per_restart_loop(self, case):
        # same chosen restart and converged flag, log-likelihoods to 1e-10
        # relative, parameters to 1e-8
        fit = fit_gmm(**case)
        _assert_matches_reference(fit, *_loop_fit_gmm(**case))

    @pytest.mark.parametrize("seed,n_components", [(0, 1), (1, 3), (2, 4)])
    def test_fit_matches_loop_reference(self, seed, n_components):
        z = _clustered(seed)
        fit = fit_gmm(z, n_components, rng_seed=seed, n_restarts=4)
        # the reference's restart, log-likelihood and parameters to 1e-10
        _assert_matches_reference(
            fit, *_loop_fit_gmm(z, n_components, seed, n_restarts=4),
            tol=1e-10, rounding_ties=False)

    @pytest.mark.parametrize("shape", ["outlier", "far outlier", "line"])
    @pytest.mark.parametrize("limit", [gmm.CANCELLATION_LIMIT, np.inf])
    def test_narrow_component_far_from_the_centre(self, monkeypatch, shape,
                                                  limit):
        # E[z z'] - mu mu' and the expanded mu' P mu cancel to noise for a
        # component narrow next to its distance from the centre, so such a
        # component is taken from the rows. "outlier" and "far outlier":
        # one component shrinks onto one row, or two rows 1e-6 apart, until
        # only the ridge is left (far out, the cancellation alone would
        # leave it indefinite); "line": a cluster flat across a diagonal,
        # narrow in no axis
        rng = np.random.default_rng(0)
        if shape == "line":
            along = rng.standard_normal((40, 1)) * np.array([[1.0, 1.0]])
            across = 1e-4 * rng.standard_normal((40, 1)) \
                * np.array([[1.0, -1.0]])
            z = np.concatenate([rng.standard_normal((40, 2)),
                                [10.0, 0.0] + along + across])
        elif shape == "outlier":
            z = np.concatenate([5.0 + 0.5 * rng.standard_normal((29, 1)),
                                [[0.0]]])
        else:
            z = np.concatenate([1e3 + 0.5 * rng.standard_normal((28, 1)),
                                [[0.0], [1e-6]]])
        monkeypatch.setattr(gmm, "CANCELLATION_LIMIT", limit)
        try:
            fit = fit_gmm(z, 2, rng_seed=0, n_restarts=3)
        except np.linalg.LinAlgError:
            assert not np.isfinite(limit)
            return
        reference = _loop_fit_gmm(z, 2, 0, n_restarts=3)
        if np.isfinite(limit):
            _assert_matches_reference(fit, *reference)
        else:
            with pytest.raises(AssertionError):
                _assert_matches_reference(fit, *reference)

    def test_deterministic(self):
        z = _clustered(3)
        a = fit_gmm(z, 3, rng_seed=9, n_restarts=3)
        b = fit_gmm(z, 3, rng_seed=9, n_restarts=3)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.loglik == b.loglik

    def test_seed_sequence_is_not_advanced(self):
        # a second fit from one SeedSequence restarts from the same streams
        z, seed = _clustered(3), np.random.SeedSequence(9)
        a = fit_gmm(z, 3, seed, n_restarts=3)
        b = fit_gmm(z, 3, seed, n_restarts=3)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.restart_logliks, b.restart_logliks)
        assert seed.n_children_spawned == 0

    def test_empty_component_reseeded_then_fails(self, monkeypatch):
        # component 1 never takes any responsibility, so every E-step
        # finds it empty: the fit re-seeds it REINIT_RETRIES times, then
        # gives up with a typed error
        calls = []

        def starve_component_one(phi, weights, means, factors):
            calls.append(means.copy())
            log_joint = _log_joint(phi, weights, means, factors)
            log_joint[1] = -np.inf
            return log_joint

        monkeypatch.setattr(gmm, "_log_joint", starve_component_one)
        z = _clustered(4)
        with pytest.raises(FitDivergedError,
                           match=rf"\[1\].*{REINIT_RETRIES} re-seeds"):
            fit_gmm(z, 2, rng_seed=0, n_restarts=1)
        assert len(calls) == REINIT_RETRIES + 1
        # each re-seed moves the empty component onto a (centred) data row
        zc = z - z.mean(axis=0)
        for means in calls[1:]:
            assert (np.abs(zc - means[1]).sum(axis=1) == 0).any()

    def test_single_reseed_recovers(self, monkeypatch):
        calls = []

        def starve_once(phi, weights, means, factors):
            log_joint = _log_joint(phi, weights, means, factors)
            if not calls:
                log_joint[1] = -np.inf
            calls.append(1)
            return log_joint

        monkeypatch.setattr(gmm, "_log_joint", starve_once)
        fit = fit_gmm(_clustered(5), 2, rng_seed=0, n_restarts=1)
        assert np.isfinite(fit.loglik)
        assert fit.reseeds == 1
        assert len(calls) > 2

    def test_one_starved_restart_leaves_the_others_alone(self, monkeypatch):
        # of three restarts only restart 1 loses component 1, at its
        # seventh E-step, near convergence; it re-seeds once and starts its
        # stopping rule afresh, and restarts 0 and 2 run as they would
        # without it
        z, n_components = _clustered(6), 3
        plain = fit_gmm(z, n_components, rng_seed=2, n_restarts=3)
        calls = []

        def starve_restart_one(phi, weights, means, factors):
            log_joint = _log_joint(phi, weights, means, factors)
            if len(calls) == 6:
                # rows run over components, then over running restarts
                k = log_joint.shape[0] // n_components
                assert k == 3
                log_joint.reshape(n_components, k, len(phi))[1, 1] = -np.inf
            calls.append(1)
            return log_joint

        loop_calls = []

        def loop_starve_once(z, means, covs):
            log_dens = _loop_log_gaussians(z, means, covs)
            if len(loop_calls) == 6:
                log_dens[:, 1] = -np.inf
            loop_calls.append(1)
            return log_dens

        monkeypatch.setattr(gmm, "_log_joint", starve_restart_one)
        fit = fit_gmm(z, n_components, rng_seed=2, n_restarts=3)
        best, fits = _loop_fit_gmm(z, n_components, 2, n_restarts=3,
                                   hooks={1: loop_starve_once})
        _assert_matches_reference(fit, best, fits)
        assert fit.reseeds == 1
        assert [f["reseeds"] for f in fits] == [0, 1, 0]
        np.testing.assert_allclose(fit.restart_logliks[[0, 2]],
                                   plain.restart_logliks[[0, 2]],
                                   rtol=1e-12)

    def test_failing_restart_ends_the_fit(self, monkeypatch):
        # while all three restarts run, restart 1 never fills component 0:
        # it fails after its re-seeds, and the fit stops in that iteration
        # with the error the per-restart loop raises
        running = []

        def starve_restart_one(phi, weights, means, factors):
            log_joint = _log_joint(phi, weights, means, factors)
            k = log_joint.shape[0] // 2
            if k == 3:
                log_joint.reshape(2, k, len(phi))[0, 1] = -np.inf
            running.append(k)
            return log_joint

        def loop_starve(z, means, covs):
            log_dens = _loop_log_gaussians(z, means, covs)
            log_dens[:, 0] = -np.inf
            return log_dens

        z = _clustered(7)
        message = rf"\[0\].*{REINIT_RETRIES} re-seeds"
        with pytest.raises(FitDivergedError, match=message):
            _loop_fit_gmm(z, 2, 1, n_restarts=3, hooks={1: loop_starve})
        monkeypatch.setattr(gmm, "_log_joint", starve_restart_one)
        with pytest.raises(FitDivergedError, match=message):
            fit_gmm(z, 2, rng_seed=1, n_restarts=3)
        assert running == [3] * (REINIT_RETRIES + 1)

    def test_rejects_bad_component_count(self):
        with pytest.raises(ValueError, match="n_components"):
            fit_gmm(np.zeros((3, 2)), 4, rng_seed=0)

    @pytest.mark.parametrize("name", ["n_restarts", "max_iter"])
    def test_rejects_no_restarts_or_iterations(self, name):
        with pytest.raises(ValueError, match=name):
            fit_gmm(_clustered(8), 2, rng_seed=0, **{name: 0})
