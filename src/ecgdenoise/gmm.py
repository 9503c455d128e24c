"""Full-covariance Gaussian mixture EM for low-dimensional latent scores.

Small and self-contained: k-means++ style seeding, multiple restarts
keeping the best likelihood, and a relative trace ridge on each component
covariance. Collapsed components are re-seeded from random data points a
bounded number of times before the fit is declared failed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDivergedError

_LOG_2PI = np.log(2.0 * np.pi)

#: Relative diagonal ridge added to every component covariance.
COVARIANCE_RIDGE = 1e-6

#: Re-seeding budget for empty components within one EM run.
REINIT_RETRIES = 3


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)


@dataclass(frozen=True)
class GaussianMixture:
    """Fitted mixture: weights (C,), means (C, p), covariances (C, p, p)."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    loglik: float
    converged: bool

    @property
    def n_components(self) -> int:
        return self.weights.size


def _log_gaussians(z: np.ndarray, means: np.ndarray,
                   covs: np.ndarray) -> np.ndarray:
    """Log densities (N, C) of rows of ``z`` under each N(means[c], covs[c]).

    One batched Cholesky and one batched inverse of the (C, p, p) factors,
    then a single (N, p) @ (p, C p) product with the inverse factors side
    by side for all the Mahalanobis terms.
    """
    n_components, p = means.shape
    chol = np.linalg.cholesky(covs)
    inv_chol = np.linalg.inv(chol)
    # stacked[:, c p + j] is row j of component c's inverse factor
    stacked = inv_chol.transpose(2, 0, 1).reshape(p, n_components * p)
    shift = (inv_chol @ means[:, :, None])[..., 0]
    white = (z @ stacked).reshape(-1, n_components, p) - shift
    quad = np.sum(white * white, axis=-1)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)),
                          axis=-1)
    return -0.5 * (p * _LOG_2PI + logdet + quad)


def _ridge(cov: np.ndarray) -> np.ndarray:
    """Add the relative trace ridge to one (p, p) or a (C, p, p) stack."""
    p = cov.shape[-1]
    shift = COVARIANCE_RIDGE * np.trace(cov, axis1=-2, axis2=-1) / p + 1e-12
    return cov + np.asarray(shift)[..., None, None] * np.eye(p)


def _m_step(z: np.ndarray, resp: np.ndarray, nk: np.ndarray):
    """Weights, means and ridged covariances for all components at once."""
    means = (resp.T @ z) / nk[:, None]
    delta = z[None, :, :] - means[:, None, :]
    weighted = delta * resp.T[:, :, None]
    scatter = np.swapaxes(weighted, -1, -2) @ delta
    return nk / z.shape[0], means, _ridge(scatter / nk[:, None, None])


def _kmeanspp_centers(z: np.ndarray, n_components: int, rng) -> np.ndarray:
    n = z.shape[0]
    centers = [z[rng.integers(n)]]
    for _ in range(1, n_components):
        d2 = np.min(
            [np.sum((z - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            centers.append(z[rng.choice(n, p=probs)])
        else:
            centers.append(z[rng.integers(n)])
    return np.stack(centers)


def _fit_once(z, n_components, rng, max_iter, tol):
    n, p = z.shape
    global_cov = _ridge(np.atleast_2d(np.cov(z.T, ddof=1)))
    means = _kmeanspp_centers(z, n_components, rng)
    covs = np.repeat(global_cov[None], n_components, axis=0)
    weights = np.full(n_components, 1.0 / n_components)

    prev_ll = -np.inf
    converged = False
    reinits = 0
    for _ in range(max_iter):
        log_joint = np.log(weights) + _log_gaussians(z, means, covs)
        norm = logsumexp(log_joint, axis=1)
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

        weights, means, covs = _m_step(z, resp, nk)

        if ll - prev_ll <= tol * (1.0 + abs(ll)) and np.isfinite(prev_ll):
            converged = True
            break
        prev_ll = ll
    return GaussianMixture(weights, means, covs, ll, converged)


def fit_gmm(z: np.ndarray, n_components: int, rng_seed,
            n_restarts: int = 10, max_iter: int = 200,
            tol: float = 1e-7) -> GaussianMixture:
    """Fit a full-covariance Gaussian mixture to rows of ``z`` by EM.

    Runs ``n_restarts`` seeded EM fits and keeps the best final
    log-likelihood. Deterministic given ``rng_seed``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError("z must be a non-empty (N, p) matrix")
    n_components = int(n_components)
    if not 1 <= n_components <= z.shape[0]:
        raise ValueError("need 1 <= n_components <= N")
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    best = None
    for child in rng_seed.spawn(n_restarts):
        fit = _fit_once(z, n_components, np.random.default_rng(child),
                        max_iter, tol)
        if best is None or fit.loglik > best.loglik:
            best = fit
    return best


def gmm_responsibilities(mixture: GaussianMixture, z: np.ndarray) -> np.ndarray:
    """Posterior component probabilities for rows of ``z``; rows sum to 1."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    log_joint = np.log(mixture.weights) + _log_gaussians(
        z, mixture.means, mixture.covariances)
    return np.exp(log_joint - logsumexp(log_joint, axis=1)[:, None])
