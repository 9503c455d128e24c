"""Denoisers for canonical ECG beats.

Four estimators share one interface (a d-vector estimate per recording):

* ``mle_average`` -- the per-recording beat mean.
* ``oracle_bayes`` -- nearest ground-truth atom in whitened distance; an
  idealized upper bound on performance.
* factor analysis -- EM fit of low-rank structure on whitened beats with
  known per-row noise scale, denoising via the latent posterior mean.
* mixture-of-Gaussians factor analysis -- same likelihood with an
  empirical-Bayes Gaussian-mixture prior fitted to the latent scores.

The factor models operate in whitened coordinates (noise becomes
isotropic), where each recording's beat average has known noise variance
psi = 1 / (tau^2 B); estimates are mapped back through the covariance
square root.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitDivergedError
from .gmm import GaussianMixture, fit_gmm, logsumexp
from .noise import CovarianceMatrix, EcgSample, _as_tau

_LOG_2PI = np.log(2.0 * np.pi)

#: EM stopping rule: relative log-likelihood change below this, or 500 iters.
EM_TOL = 1e-8
EM_MAX_ITER = 500

#: Monotonicity slack when validating a recorded log-likelihood trace.
LOGLIK_SLACK = 1e-9

DEFAULT_SLOPE_CUTOFF = -0.8
DEFAULT_N_COMPONENTS = 5


def _check_loglik_trace(trace: np.ndarray) -> None:
    if trace.size and not np.all(np.isfinite(trace)):
        raise ValueError("log-likelihood trace must be finite")
    if trace.size >= 2:
        diffs = np.diff(trace)
        slack = LOGLIK_SLACK * (1.0 + np.abs(trace[:-1]))
        if np.any(diffs < -slack):
            raise ValueError("log-likelihood trace must be non-decreasing")


def _readonly(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class AtomPrior:
    """The ground-truth beats available to the oracle, one per row."""

    atoms: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", _readonly(self.atoms))
        if self.atoms.ndim != 2 or self.atoms.shape[0] < 1:
            raise ValueError("atoms must be a non-empty (N, d) matrix")
        if not np.all(np.isfinite(self.atoms)):
            raise ValueError("atoms must be finite")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True)
class FaModel:
    """Factor analysis fit in whitened coordinates.

    ``loadings`` (d x p) live in the whitened space, where the noise is
    isotropic; ``mean`` is the beat-space column mean removed before
    whitening.
    """

    mean: np.ndarray
    loadings: np.ndarray
    loglik_trace: np.ndarray = field(repr=False)
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(self.mean))
        object.__setattr__(self, "loadings", _readonly(self.loadings))
        object.__setattr__(self, "loglik_trace",
                           _readonly(np.atleast_1d(self.loglik_trace)))
        d, p = self.loadings.shape
        if p > d:
            raise ValueError("latent dimension p cannot exceed d")
        if self.mean.shape != (d,):
            raise ValueError("mean must have length d")
        _check_loglik_trace(self.loglik_trace)

    @property
    def d(self) -> int:
        return self.loadings.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.loadings.shape[1]

    @property
    def n_iter(self) -> int:
        return self.loglik_trace.size


@dataclass(frozen=True)
class MogFaModel:
    """Factor model with a Gaussian-mixture latent prior.

    ``fa`` carries the refit loadings/noise; the mixture components
    (weights, latent means, latent covariances) define the prior over z.
    """

    fa: FaModel
    weights: np.ndarray
    comp_means: np.ndarray
    comp_covs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "comp_means", _readonly(self.comp_means))
        object.__setattr__(self, "comp_covs", _readonly(self.comp_covs))
        c = self.weights.size
        p = self.fa.latent_dim
        if self.comp_means.shape != (c, p) or self.comp_covs.shape != (c, p, p):
            raise ValueError("mixture component shapes are inconsistent")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be a probability vector")
        for cov in self.comp_covs:
            if not np.allclose(cov, cov.T, atol=1e-10):
                raise ValueError("component covariances must be symmetric")
            if np.linalg.eigvalsh(cov).min() < -1e-10 * max(1.0, np.trace(cov)):
                raise ValueError("component covariances must be PSD")

    @property
    def n_components(self) -> int:
        return self.weights.size

    @classmethod
    def from_fa(cls, fa: FaModel) -> "MogFaModel":
        """Single standard-normal component: collapses to plain FA."""
        p = fa.latent_dim
        return cls(fa=fa, weights=np.ones(1),
                   comp_means=np.zeros((1, p)),
                   comp_covs=np.eye(p)[None])


# ---------------------------------------------------------------------------
# simple estimators
# ---------------------------------------------------------------------------

def mle_average(sample: EcgSample) -> np.ndarray:
    """Arithmetic mean of the sample's beats (the MLE under the model)."""
    return sample.beat_mean


def oracle_bayes_batch(means: np.ndarray, atoms, K: CovarianceMatrix):
    """Nearest atom in whitened distance for each row of ``means``.

    Returns ``(estimates, indices)``; ties go to the lowest atom index.
    """
    atoms_matrix = atoms.atoms if isinstance(atoms, AtomPrior) else np.asarray(atoms)
    if atoms_matrix.ndim != 2 or atoms_matrix.shape[0] < 1:
        raise ValueError("atoms must be a non-empty (N, d) matrix")
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    aw = atoms_matrix @ K.inv_sqrt
    xw = means @ K.inv_sqrt
    d2 = (
        np.sum(aw * aw, axis=1)[None, :]
        - 2.0 * (xw @ aw.T)
        + np.sum(xw * xw, axis=1)[:, None]
    )
    idx = np.argmin(d2, axis=1)
    return atoms_matrix[idx].copy(), idx


def oracle_bayes(sample: EcgSample, atoms, K: CovarianceMatrix) -> np.ndarray:
    """MAP estimate under the discrete prior over the true beats.

    Whitens the per-sample beat average and returns the closest atom in
    Euclidean distance; deterministic (ties broken by lowest index).
    """
    estimates, _ = oracle_bayes_batch(sample.beat_mean[None, :], atoms, K)
    return estimates[0]


# ---------------------------------------------------------------------------
# factor analysis
# ---------------------------------------------------------------------------

def _effective_psi(taus, n_beats, n_rows: int) -> np.ndarray:
    taus = np.broadcast_to(np.asarray(taus, dtype=np.float64), (n_rows,))
    if np.any(~np.isfinite(taus)) or np.any(taus <= 0):
        raise ValueError("taus must be finite and strictly positive")
    n_beats = np.broadcast_to(np.asarray(n_beats, dtype=np.float64), (n_rows,))
    if np.any(n_beats < 1):
        raise ValueError("n_beats must be at least 1")
    return 1.0 / (taus * taus * n_beats)


def _posterior_latents(loadings: np.ndarray, xw: np.ndarray,
                       psi: np.ndarray) -> np.ndarray:
    """Posterior mean of z for whitened centered rows with noise psi_i I."""
    s2, w = np.linalg.eigh(loadings.T @ loadings)
    scores = xw @ loadings @ w
    return (scores / (psi[:, None] + s2[None, :])) @ w.T


def _fa_em(xw, psi, p, max_iter, tol):
    n, d = xw.shape
    # spectral start: top-p directions scaled by the excess over the noise
    _, sv, vt = np.linalg.svd(xw / np.sqrt(n), full_matrices=False)
    lam = sv * sv
    psi_bar = float(psi.mean())
    k = min(p, lam.size)
    amp = np.sqrt(np.maximum(lam[:k] - psi_bar, 1e-10 * max(lam[0], 1.0)))
    loadings = np.zeros((d, p))
    loadings[:, :k] = vt[:k].T * amp

    inv_psi = 1.0 / psi
    trace = []
    converged = False
    for _ in range(max_iter):
        s2, w = np.linalg.eigh(loadings.T @ loadings)
        scores = xw @ loadings @ w
        denom = psi[:, None] + s2[None, :]
        latent_means = (scores / denom) @ w.T
        # cancellation-free quadratic form:
        # x^T (L L^T + psi I)^{-1} x = ||x - L m||^2 / psi + ||m||^2
        resid = xw - latent_means @ loadings.T
        quad = np.sum(resid * resid, axis=1) * inv_psi \
            + np.sum(latent_means * latent_means, axis=1)
        logdet = d * np.log(psi) + np.sum(np.log1p(s2[None, :] / psi[:, None]),
                                          axis=1)
        ll = float(-0.5 * np.sum(d * _LOG_2PI + logdet + quad))
        if not np.isfinite(ll):
            raise FitDivergedError("factor analysis log-likelihood not finite")
        if trace and ll - trace[-1] <= tol * (1.0 + abs(ll)):
            trace.append(ll)
            converged = True
            break
        trace.append(ll)

        weighted = latent_means * inv_psi[:, None]
        numer = xw.T @ weighted
        ck = np.sum(1.0 / denom, axis=0)
        denom_mat = (w * ck) @ w.T + weighted.T @ latent_means
        loadings = np.linalg.solve(denom_mat, numer.T).T
    return loadings, np.asarray(trace), converged


def fit_factor_analysis(beats: np.ndarray, K: CovarianceMatrix, taus,
                        p: int, n_beats=1, max_iter: int = EM_MAX_ITER,
                        tol: float = EM_TOL) -> FaModel:
    """Fit loadings by EM on whitened rows with known per-row noise.

    ``beats`` is an (N, d) matrix of per-recording beat averages; row i has
    noise covariance K / (tau_i^2 n_beats_i). The column mean is removed,
    rows are whitened, and EM maximizes the marginal likelihood
    N(x | 0, L L^T + psi_i I). The noise diagonal is pinned by the known
    precisions rather than fitted.
    """
    beats = np.asarray(beats, dtype=np.float64)
    if beats.ndim != 2 or beats.shape[0] < 2:
        raise ValueError("need an (N, d) matrix with N >= 2")
    p = int(p)
    if p < 1:
        raise ValueError("latent dimension p must be at least 1")
    if p > beats.shape[1]:
        raise ValueError("latent dimension p cannot exceed d")
    psi = _effective_psi(taus, n_beats, beats.shape[0])
    mean = beats.mean(axis=0)
    xw = (beats - mean) @ K.inv_sqrt
    loadings, trace, converged = _fa_em(xw, psi, p, max_iter, tol)
    return FaModel(mean=mean, loadings=loadings, loglik_trace=trace,
                   converged=converged)


def fa_latent_means(model: FaModel, beats: np.ndarray, K: CovarianceMatrix,
                    taus, n_beats=1) -> np.ndarray:
    """Posterior latent means for rows of ``beats`` under a fitted model."""
    beats = np.atleast_2d(np.asarray(beats, dtype=np.float64))
    psi = _effective_psi(taus, n_beats, beats.shape[0])
    xw = (beats - model.mean) @ K.inv_sqrt
    return _posterior_latents(model.loadings, xw, psi)


def fa_posterior_mean_batch(model: FaModel, means: np.ndarray,
                            K: CovarianceMatrix, taus, n_beats=1) -> np.ndarray:
    """Posterior-mean denoising of each row of ``means``."""
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    latents = fa_latent_means(model, means, K, taus, n_beats)
    return model.mean + (latents @ model.loadings.T) @ K.sqrt


def fa_posterior_mean(model: FaModel, sample: EcgSample, K: CovarianceMatrix,
                      tau) -> np.ndarray:
    """Denoise one recording with the factor-analysis posterior mean.

    The B beats enter through their average, whose whitened noise variance
    is 1 / (tau^2 B); the estimate is mean + K^{1/2} L E[z | x]. As
    tau sqrt(B) grows the estimate approaches the beat average (projected
    on the factor subspace); as tau -> 0 it approaches the global mean.
    """
    tau = _as_tau(tau)
    return fa_posterior_mean_batch(
        model, sample.beat_mean[None, :], K, tau, sample.n_beats
    )[0]


def select_latent_dim(eigenvalues, slope_cutoff: float = DEFAULT_SLOPE_CUTOFF) -> int:
    """Scree rule: longest prefix whose log-eigenvalue slopes stay steep.

    ``eigenvalues`` must be sorted descending and non-negative. Consecutive
    slopes log(lam[j+1]) - log(lam[j]) are scanned from the front; the
    prefix grows while the slope is at most ``slope_cutoff`` (steep decay =
    signal). Returns at least 1.
    """
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("eigenvalues must be non-empty")
    if np.any(vals < 0):
        raise ValueError("eigenvalues must be non-negative")
    if np.any(np.diff(vals) > 1e-12 * max(1.0, float(vals[0]))):
        raise ValueError("eigenvalues must be sorted descending")
    floor = max(float(vals[0]), np.finfo(float).tiny) * 1e-15
    logs = np.log(np.maximum(vals, floor))
    slopes = np.diff(logs)
    p = 1
    while p - 1 < slopes.size and slopes[p - 1] <= slope_cutoff:
        p += 1
    return p


# ---------------------------------------------------------------------------
# mixture-of-Gaussians factor analysis
# ---------------------------------------------------------------------------

def _mog_component_terms(loadings, weights, means, covs, xw, psi):
    """Log joint densities and posterior latent means per component.

    Returns ``(log_joint (N, C), latent_means (C, N, p))`` plus the cached
    per-component quantities needed by the M-step.
    """
    n, d = xw.shape
    c_count = means.shape[0]
    log_joint = np.empty((n, c_count))
    latent_means = []
    caches = []
    for c in range(c_count):
        cov = covs[c] + 1e-12 * np.eye(covs.shape[-1])
        chol = np.linalg.cholesky(cov)
        basis = loadings @ chol
        lam, q = np.linalg.eigh(basis.T @ basis)
        lam = np.maximum(lam, 0.0)
        centered = xw - loadings @ means[c]
        scores = (centered @ basis) @ q
        denom = psi[:, None] + lam[None, :]
        coeff = (scores / denom) @ q.T  # (N, p) coordinates in the chol basis
        resid = centered - coeff @ basis.T
        quad = np.sum(resid * resid, axis=1) / psi \
            + np.sum(coeff * coeff, axis=1)
        logdet = d * np.log(psi) + np.sum(np.log1p(lam[None, :] / psi[:, None]),
                                          axis=1)
        log_joint[:, c] = np.log(weights[c]) - 0.5 * (d * _LOG_2PI + logdet + quad)
        latent_means.append(means[c] + coeff @ chol.T)
        caches.append((chol, q, denom))
    return log_joint, np.stack(latent_means), caches


def _mog_em(xw, psi, loadings0, mixture: GaussianMixture, max_iter, tol):
    n, d = xw.shape
    loadings = loadings0.copy()
    weights = mixture.weights
    means = mixture.means
    covs = mixture.covariances
    inv_psi = 1.0 / psi

    trace = []
    converged = False
    for _ in range(max_iter):
        log_joint, latent_means, caches = _mog_component_terms(
            loadings, weights, means, covs, xw, psi
        )
        norm = logsumexp(log_joint, axis=1)
        ll = float(norm.sum())
        if not np.isfinite(ll):
            raise FitDivergedError("mixture FA log-likelihood not finite")
        if trace and ll - trace[-1] <= tol * (1.0 + abs(ll)):
            trace.append(ll)
            converged = True
            break
        trace.append(ll)

        resp = np.exp(log_joint - norm[:, None])
        p = loadings.shape[1]
        numer = np.zeros((d, p))
        denom_mat = np.zeros((p, p))
        for c in range(means.shape[0]):
            chol, q, denom = caches[c]
            r_psi = resp[:, c] * inv_psi
            m_c = latent_means[c]
            numer += xw.T @ (m_c * r_psi[:, None])
            basis_q = chol @ q
            ck = np.sum(resp[:, c][:, None] / denom, axis=0)
            denom_mat += (basis_q * ck) @ basis_q.T
            denom_mat += (m_c * r_psi[:, None]).T @ m_c
        loadings = np.linalg.solve(denom_mat, numer.T).T
    return loadings, np.asarray(trace), converged


def fit_mog_fa(beats: np.ndarray, K: CovarianceMatrix, taus, p: int,
               n_components: int = DEFAULT_N_COMPONENTS, n_beats=1,
               rng_seed=0, max_iter: int = EM_MAX_ITER, tol: float = EM_TOL,
               gmm_restarts: int = 10) -> MogFaModel:
    """Three-stage empirical-Bayes mixture factor analysis.

    1. Plain FA on the whitened rows gives loadings and latent posterior
       means. 2. A C-component Gaussian mixture is fitted to those latent
       scores. 3. The loadings are refit by EM under the fixed mixture
       prior (conditional moments of the joint Gaussian per component).
    """
    beats = np.asarray(beats, dtype=np.float64)
    if beats.ndim != 2:
        raise ValueError("need an (N, d) matrix")
    n = beats.shape[0]
    if not 1 <= int(n_components) <= n:
        raise ValueError("need N >= n_components >= 1")
    stage1 = fit_factor_analysis(beats, K, taus, p, n_beats=n_beats,
                                 max_iter=max_iter, tol=tol)
    psi = _effective_psi(taus, n_beats, n)
    xw = (beats - stage1.mean) @ K.inv_sqrt
    latents = _posterior_latents(stage1.loadings, xw, psi)
    mixture = fit_gmm(latents, n_components, rng_seed,
                      n_restarts=gmm_restarts)
    loadings, trace, converged = _mog_em(xw, psi, stage1.loadings, mixture,
                                         max_iter, tol)
    fa = FaModel(mean=stage1.mean, loadings=loadings, loglik_trace=trace,
                 converged=converged)
    return MogFaModel(fa=fa, weights=mixture.weights,
                      comp_means=mixture.means,
                      comp_covs=mixture.covariances)


def mog_fa_posterior_mean_batch(model: MogFaModel, means: np.ndarray,
                                K: CovarianceMatrix, taus, n_beats=1,
                                prior_weights: bool = False) -> np.ndarray:
    """Mixture posterior-mean denoising of each row of ``means``.

    Component contributions are weighted by posterior responsibilities
    p(c | x); ``prior_weights=True`` uses the prior mixture weights
    instead.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    psi = _effective_psi(taus, n_beats, means.shape[0])
    xw = (means - model.fa.mean) @ K.inv_sqrt
    log_joint, latent_means, _ = _mog_component_terms(
        model.fa.loadings, model.weights, model.comp_means, model.comp_covs,
        xw, psi,
    )
    if prior_weights:
        resp = np.broadcast_to(model.weights, log_joint.shape)
    else:
        resp = np.exp(log_joint - logsumexp(log_joint, axis=1)[:, None])
    combined = np.einsum("nc,cnp->np", resp, latent_means)
    return model.fa.mean + (combined @ model.fa.loadings.T) @ K.sqrt


def mog_fa_posterior_mean(model: MogFaModel, sample: EcgSample,
                          K: CovarianceMatrix, tau,
                          prior_weights: bool = False) -> np.ndarray:
    """Denoise one recording with the mixture-prior posterior mean."""
    tau = _as_tau(tau)
    return mog_fa_posterior_mean_batch(
        model, sample.beat_mean[None, :], K, tau, sample.n_beats,
        prior_weights=prior_weights,
    )[0]


def mog_fa_responsibilities(model: MogFaModel, sample: EcgSample,
                            K: CovarianceMatrix, tau) -> np.ndarray:
    """Posterior component probabilities for one recording; sums to 1."""
    tau = _as_tau(tau)
    psi = _effective_psi(tau, sample.n_beats, 1)
    xw = (sample.beat_mean[None, :] - model.fa.mean) @ K.inv_sqrt
    log_joint, _, _ = _mog_component_terms(
        model.fa.loadings, model.weights, model.comp_means, model.comp_covs,
        xw, psi,
    )
    return np.exp(log_joint - logsumexp(log_joint, axis=1)[:, None])[0]
