"""Full-covariance Gaussian mixture EM for low-dimensional latent scores.

EM runs in the mixture's exponential-family form, with every restart of a
fit in one batch. The rows z are centred on their mean once per fit and
mapped to the features ``phi(z) = [1, z, z_i z_j for i <= j]``, an
(N, 1 + p + p(p+1)/2) matrix.

* E-step. Each component's weight w, mean mu and covariance S becomes one
  row of natural parameters, such that ``phi(z) . row`` is
  ``log w + log N(z | mu, S)``: the constant
  ``log w - (p log 2 pi + log det S + mu' P mu) / 2``, the linear part
  ``P mu`` and the quadratic part ``-P / 2`` on the upper triangle, with
  the off-diagonal terms doubled. The log joint densities of every row
  under every component of every running restart are then one product
  ``rows @ phi'``, a (C R, N) matrix for C components and R running
  restarts. Read as (C, R, N), the normalisation over components (max,
  exp, sum and log) runs over contiguous (R, N) slabs.
* M-step. The responsibilities, (C R, N) as the E-step left them, give
  the sufficient statistics ``resp @ phi`` in one product as well. Per component they hold the mass nk and the sums
  of z and of z z'. They give the weights nk / N, the means and the
  covariances E[z z'] - mu mu', each with a relative trace ridge, and one
  batched Cholesky gives the inverse factors F (P = F'F) that the next
  E-step uses.

Both expanded forms cancel for a component that is narrow next to its
distance from the centre; past ``CANCELLATION_LIMIT`` such a component is
computed from the rows instead.

Each restart has its own seed stream, k-means++ start and path. A
component that empties is re-seeded on a random row, at most
``REINIT_RETRIES`` times per restart. The first failure ends the fit: a
restart whose log-likelihood is not finite, or whose empty component has
used its re-seeds, raises ``FitDivergedError`` in that iteration. A
restart leaves the batch when it converges. The fit keeps the first
restart with the largest final log-likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FitDivergedError
from .simulate import _child_seeds

_LOG_2PI = np.log(2.0 * np.pi)

#: Relative diagonal ridge added to every component covariance.
COVARIANCE_RIDGE = 1e-6

#: Re-seeding budget for empty components within one EM run.
REINIT_RETRIES = 3

#: Largest squared distance of a component from the centre, in units of
#: its own spread, that the expanded E- and M-step forms take; each loses
#: about this factor times machine epsilon of relative precision.
CANCELLATION_LIMIT = 1e4


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)


@dataclass(frozen=True)
class GaussianMixture:
    """Fitted mixture: weights (C,), means (C, p), covariances (C, p, p).

    ``loglik`` and ``converged`` describe the kept restart;
    ``restart_logliks`` holds every restart's final log-likelihood and
    ``reseeds`` counts the empty-component re-seeds over all restarts.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    loglik: float
    converged: bool
    restart_logliks: np.ndarray
    reseeds: int


@lru_cache(maxsize=None)
def _upper(p: int):
    """Row and column indices of the upper triangle of a (p, p) matrix.

    Cached and shared, so read-only.
    """
    rows, cols = np.triu_indices(p)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _features(zc: np.ndarray) -> np.ndarray:
    """phi (N, 1 + p + p(p+1)/2) of centred rows: 1, z, z_i z_j (i <= j)."""
    rows, cols = _upper(zc.shape[1])
    return np.concatenate(
        [np.ones((zc.shape[0], 1)), zc, zc[:, rows] * zc[:, cols]], axis=1)


def _inverse_factor(covs: np.ndarray) -> np.ndarray:
    """Inverse Cholesky factors of a (..., p, p) stack: P = F' F."""
    return np.linalg.inv(np.linalg.cholesky(covs))


def _log_joint(phi: np.ndarray, weights: np.ndarray, means: np.ndarray,
               factors: np.ndarray) -> np.ndarray:
    """log w_k + log N(z | mu_k, S_k), (K, N), for the rows behind ``phi``.

    ``means`` are centred and ``factors`` are the inverse Cholesky factors
    of the S_k. Each component becomes one row of natural parameters and
    the densities are one product ``rows @ phi'``. Its terms grow like
    mu' P mu and cancel near mu, so a component with mu' P mu beyond
    ``CANCELLATION_LIMIT`` is whitened row by row instead.
    """
    p = means.shape[1]
    factors_t = np.swapaxes(factors, -1, -2)
    white_mean = (factors @ means[:, :, None])[..., 0]
    mahal = np.sum(white_mean ** 2, axis=-1)
    rows, cols = _upper(p)
    quad = (factors_t @ factors)[:, rows, cols] \
        * np.where(rows == cols, -0.5, -1.0)
    logdet = -2.0 * np.sum(np.log(np.diagonal(factors, axis1=-2, axis2=-1)),
                           axis=-1)
    const = np.log(weights) - 0.5 * (p * _LOG_2PI + logdet)
    linear = (factors_t @ white_mean[:, :, None])[..., 0]
    natural = np.concatenate([(const - 0.5 * mahal)[:, None], linear, quad],
                             axis=1)
    log_joint = natural @ phi.T
    zc = phi[:, 1:1 + p]
    for k in np.flatnonzero(mahal > CANCELLATION_LIMIT):
        white = (zc - means[k]) @ factors_t[k]
        log_joint[k] = const[k] - 0.5 * np.sum(white * white, axis=1)
    return log_joint


def _ridge(cov: np.ndarray) -> np.ndarray:
    """Add the relative trace ridge to one (p, p) or a (C, p, p) stack."""
    p = cov.shape[-1]
    shift = COVARIANCE_RIDGE * np.trace(cov, axis1=-2, axis2=-1) / p + 1e-12
    return cov + np.asarray(shift)[..., None, None] * np.eye(p)


def _m_step(stats: np.ndarray, resp: np.ndarray, zc: np.ndarray):
    """Weights, centred means, ridged covariances and their inverse factors.

    ``stats`` is ``resp @ phi`` (K, D) for the responsibilities ``resp``
    (K, N) of the centred rows ``zc``. E[z z'] - mu mu' loses about
    |mu|^2 / lambda_min(S) of relative precision to cancellation, so a
    component for which that exceeds ``CANCELLATION_LIMIT`` takes its
    scatter from the rows instead. The first screen, by the smallest
    variance, keeps every ridged covariance positive definite; the second
    uses trace(P) >= 1 / lambda_min.
    """
    n, p = zc.shape
    nk = stats[:, 0]
    means = stats[:, 1:1 + p] / nk[:, None]
    rows, cols = _upper(p)
    moment = np.empty((stats.shape[0], p, p))
    moment[:, rows, cols] = moment[:, cols, rows] = \
        stats[:, 1 + p:] / nk[:, None]
    covs = _ridge(moment - means[:, :, None] * means[:, None, :])
    far = np.sum(means ** 2, axis=1) / CANCELLATION_LIMIT

    def from_rows(narrow):
        for k in np.flatnonzero(narrow):
            delta = zc - means[k]
            covs[k] = _ridge((resp[k] * delta.T) @ delta / nk[k])

    narrow = far > np.min(np.diagonal(covs, axis1=1, axis2=2), axis=1)
    from_rows(narrow)
    factors = _inverse_factor(covs)
    narrow = ~narrow & (far * np.sum(factors ** 2, axis=(1, 2)) > 1.0)
    if narrow.any():
        from_rows(narrow)
        factors[narrow] = _inverse_factor(covs[narrow])
    return nk / n, means, covs, factors


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


def fit_gmm(z: np.ndarray, n_components: int, rng_seed,
            n_restarts: int = 10, max_iter: int = 1000,
            tol: float = 1e-7) -> GaussianMixture:
    """Fit a full-covariance Gaussian mixture to rows of ``z`` by EM.

    Runs ``n_restarts`` seeded EM fits side by side and keeps the first
    with the best final log-likelihood. A restart stops once an iteration
    raises its log-likelihood by at most ``tol * (1 + |ll|)``, or after
    ``max_iter`` iterations. Restart r draws from child r of ``rng_seed``
    (an int or a ``SeedSequence``, which is left as it was), so the fit
    depends on ``z`` and ``rng_seed`` alone. The first restart to fail
    ends the fit with its ``FitDivergedError``; of two that fail in one
    iteration, the lower-numbered one's is raised.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError("z must be a non-empty (N, p) matrix")
    n_components = int(n_components)
    if not 1 <= n_components <= z.shape[0]:
        raise ValueError("need 1 <= n_components <= N")
    n_restarts, max_iter = int(n_restarts), int(max_iter)
    if n_restarts < 1:
        raise ValueError("n_restarts must be at least 1")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    rngs = [np.random.default_rng(child)
            for child in _child_seeds(rng_seed, n_restarts)]

    n, p = z.shape
    c = n_components
    centre = z.mean(axis=0)
    zc = z - centre
    phi = _features(zc)
    global_cov = _ridge(np.atleast_2d(np.cov(z.T, ddof=1)))
    global_factor = _inverse_factor(global_cov)

    # state is component-major, so the E-step's and the M-step's rows run
    # over components, then over the running restarts
    weights = np.full((c, n_restarts), 1.0 / c)
    means = np.stack([_kmeanspp_centers(z, c, rng) for rng in rngs],
                     axis=1) - centre
    covs = np.repeat(global_cov[None], c * n_restarts,
                     axis=0).reshape(c, n_restarts, p, p)
    factors = np.repeat(global_factor[None], c * n_restarts,
                        axis=0).reshape(c, n_restarts, p, p)
    loglik = np.full(n_restarts, -np.inf)
    prev_ll = np.full(n_restarts, -np.inf)
    converged = np.zeros(n_restarts, dtype=bool)
    reseeds = np.zeros(n_restarts, dtype=int)
    active = np.arange(n_restarts)

    for _ in range(max_iter):
        if not active.size:
            break
        k = active.size
        log_joint = _log_joint(phi, weights[:, active].ravel(),
                               means[:, active].reshape(-1, p),
                               factors[:, active].reshape(-1, p, p))
        # (C, k, N): the reductions over components run over whole slabs
        log_joint = log_joint.reshape(c, k, n)
        top = np.max(log_joint, axis=0)
        top[~np.isfinite(top)] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = np.exp(log_joint - top)
            total = dens.sum(axis=0)
            ll = np.sum(np.log(total) + top, axis=1)
            dens /= total
        loglik[active] = ll
        resp = dens.reshape(c * k, n)
        stats = resp @ phi
        empty = stats[:, 0].reshape(c, k) < 1e-10

        stepping = np.ones(k, dtype=bool)
        for slot in np.flatnonzero(~np.isfinite(ll) | empty.any(axis=0)):
            r = active[slot]
            if not np.isfinite(ll[slot]):
                raise FitDivergedError("mixture log-likelihood is not finite")
            if reseeds[r] >= REINIT_RETRIES:
                raise FitDivergedError(
                    f"component(s) {np.flatnonzero(empty[:, slot]).tolist()} "
                    f"stayed empty after {REINIT_RETRIES} re-seeds"
                )
            stepping[slot] = False
            reseeds[r] += 1
            for comp in np.flatnonzero(empty[:, slot]):
                means[comp, r] = zc[rngs[r].integers(n)]
                covs[comp, r] = global_cov
                factors[comp, r] = global_factor
            prev_ll[r] = -np.inf

        leaving = np.zeros(k, dtype=bool)
        step = active[stepping]
        if step.size:
            if step.size < k:
                keep = (np.arange(c)[:, None] * k
                        + np.flatnonzero(stepping)).ravel()
                stats, resp = stats[keep], resp[keep]
            w, m, s, f = _m_step(stats, resp, zc)
            weights[:, step] = w.reshape(c, -1)
            means[:, step] = m.reshape(c, -1, p)
            covs[:, step] = s.reshape(c, -1, p, p)
            factors[:, step] = f.reshape(c, -1, p, p)
            ll_step = ll[stepping]
            # prev_ll is -inf on a restart's first step and after a re-seed
            done = ll_step - prev_ll[step] <= tol * (1.0 + np.abs(ll_step))
            converged[step[done]] = True
            prev_ll[step] = ll_step
            leaving[np.flatnonzero(stepping)[done]] = True
        active = active[~leaving]

    best = int(np.argmax(loglik))
    return GaussianMixture(weights[:, best].copy(), means[:, best] + centre,
                           covs[:, best].copy(), float(loglik[best]),
                           bool(converged[best]), loglik, int(reseeds.sum()))
