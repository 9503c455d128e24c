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

Both factor models fit their loadings by EM accelerated with squared
extrapolation (SQUAREM; Varadhan & Roland 2008): plain FA is the mixture
case with one standard-normal component. A fit stops at the first point
from which one plain EM step raises the log-likelihood by at most
``EM_TOL`` relative, or after ``EM_MAX_ITER`` evaluations of the EM map
(one E-step, which also gives the log-likelihood, and one M-step). Its
``loglik_trace`` holds the log-likelihood of every point it kept: each EM
step and each extrapolation that did not lower the log-likelihood. So
``FaModel.n_iter`` counts kept points, which is the map evaluations less
the rejected extrapolations.

Work on the (N, d) rows is kept out of the loops:

* Stage 1 of the mixture fit is a plain FA fit; ``fit_mog_fa`` takes one
  already made for the same rows (``stage1=``), so a caller that runs
  both estimators fits FA once.
* Each E-step needs every row's energy off span(L), ||x_perp||^2. It is
  ||x||^2 - ||Q' x||^2, with ||x||^2 computed once per fit, not a fresh
  (N, d) residual. A row that lies so close to span(L) that the
  difference would lose more than ``gmm.CANCELLATION_LIMIT`` machine
  epsilons takes its explicit residual instead.
* The posterior means map latents back through the (p, d) product
  L' K^{1/2}, and FA reads the rows through the (d, p) product
  K^{-1/2} L, so no (N, d) x (d, d) product is formed for them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitDivergedError, NonMonotoneFitError
from .gmm import CANCELLATION_LIMIT, GaussianMixture, fit_gmm, logsumexp
from .noise import CovarianceMatrix, EcgSample, _as_tau

_LOG_2PI = np.log(2.0 * np.pi)

#: EM stopping rule: one EM step raises the log-likelihood by at most
#: EM_TOL relative, or EM_MAX_ITER evaluations of the EM map are spent.
EM_TOL = 1e-8
EM_MAX_ITER = 500

#: Monotonicity slack when validating a recorded log-likelihood trace.
LOGLIK_SLACK = 1e-9

DEFAULT_SLOPE_CUTOFF = -0.8
DEFAULT_N_COMPONENTS = 5


def _check_loglik_trace(trace: np.ndarray, fit: str = "FA model") -> None:
    """Refuse a log-likelihood trace that is not finite or that falls by
    more than ``LOGLIK_SLACK`` (relative) anywhere; ``fit`` names the fit
    that recorded it."""
    if trace.size and not np.all(np.isfinite(trace)):
        raise ValueError("log-likelihood trace must be finite")
    if trace.size >= 2:
        diffs = np.diff(trace)
        slack = LOGLIK_SLACK * (1.0 + np.abs(trace[:-1]))
        falls = np.flatnonzero(diffs < -slack)
        if falls.size:
            k = int(falls[0])
            raise NonMonotoneFitError(
                f"{fit}: log-likelihood trace must be non-decreasing, but "
                f"point {k + 1} of {trace.size} is {-diffs[k]:.3g} below "
                f"point {k}")


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
        """Points the fit kept (see the module docstring)."""
        return self.loglik_trace.size


@dataclass(frozen=True)
class MogFaModel:
    """Factor model with a Gaussian-mixture latent prior.

    ``fa`` carries the refit loadings/noise; the mixture components
    (weights, latent means, latent covariances) define the prior over z.
    ``mixture_fit`` is the stage-2 mixture fit they came from (its
    convergence, restart log-likelihoods and re-seeds), or None for a
    model built from parts.
    """

    fa: FaModel
    weights: np.ndarray
    comp_means: np.ndarray
    comp_covs: np.ndarray
    mixture_fit: GaussianMixture | None = field(default=None, repr=False,
                                                compare=False)

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
        weights, means, covs = _standard_prior(fa.latent_dim)
        return cls(fa=fa, weights=weights, comp_means=means, comp_covs=covs)


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
    # BLAS may round equal columns of the product differently, so equal
    # atoms (which have equal sums) take the distance of their first copy
    sums = atoms_matrix.sum(axis=1)
    if np.unique(sums).size < sums.size:
        _, first, copy_of = np.unique(atoms_matrix, axis=0,
                                      return_index=True, return_inverse=True)
        d2 = d2[:, first[copy_of.reshape(-1)]]
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


def _posterior_latents(loadings: np.ndarray, rows: np.ndarray,
                       psi: np.ndarray, inv_sqrt=None) -> np.ndarray:
    """Posterior mean of z for centred rows with whitened noise psi_i I.

    The rows are whitened already, or, given ``inv_sqrt``, in beat space;
    then they meet the whitener only through the (d, p) product
    ``inv_sqrt @ loadings``.
    """
    s2, w = np.linalg.eigh(loadings.T @ loadings)
    if inv_sqrt is None:
        scores = rows @ loadings @ w
    else:
        scores = rows @ ((inv_sqrt @ loadings) @ w)
    return (scores / (psi[:, None] + s2[None, :])) @ w.T


def _spectral_start(xw: np.ndarray, psi: np.ndarray, p: int) -> np.ndarray:
    """Top-p principal directions of the rows, scaled by their excess
    variance over the mean noise level.

    The eigenpairs come from the smaller of the two Gram matrices
    (d x d or N x N); directions with no variance stay zero columns.
    """
    n, d = xw.shape
    if n >= d:
        lam, vec = np.linalg.eigh(xw.T @ xw / n)
    else:
        lam, vec = np.linalg.eigh(xw @ xw.T / n)
    k = min(p, lam.size)
    lam = np.maximum(lam[::-1][:k], 0.0)
    vec = vec[:, ::-1][:, :k]
    if n < d:  # left singular vectors -> right ones
        vec = xw.T @ vec
        norms = np.linalg.norm(vec, axis=0)
        vec = vec / np.where(norms > 0.0, norms, 1.0)
    amp = np.sqrt(np.maximum(lam - float(psi.mean()),
                             1e-10 * max(lam[0], 1.0)))
    loadings = np.zeros((d, p))
    loadings[:, :k] = vec * amp
    return loadings


def _row_energies(xw: np.ndarray) -> np.ndarray:
    """||x||^2 of each row."""
    return np.einsum("ij,ij->i", xw, xw)


def _mog_component_terms(loadings, weights, means, covs, xw, psi, x2=None):
    """Log joint densities and posterior latent means per component.

    Returns ``(log_joint (N, C), latent_means (C, N, p))`` plus the cached
    per-component quantities needed by the M-step. Every component's
    whitened covariance is L S_c L^T + psi_i I, so with L = Q R the part
    of a row orthogonal to span(L) adds the same ||x_perp||^2 / psi_i to
    each component and the rest is worked in p dimensions.

    ``x2`` holds the rows' ||x||^2 (computed here when None), and
    ||x_perp||^2 is taken as ||x||^2 - ||y||^2 with y = Q' x. That loses
    about ||x||^2 / ||x_perp||^2 machine epsilons, so a row for which
    this exceeds ``CANCELLATION_LIMIT`` (or the difference is not
    positive) takes the explicit residual x - Q y instead.
    """
    d = xw.shape[1]
    p = loadings.shape[1]
    q_l, r_l = np.linalg.qr(loadings)
    y = xw @ q_l
    if x2 is None:
        x2 = _row_energies(xw)
    perp2 = x2 - _row_energies(y)
    close = (perp2 <= 0.0) | (x2 > CANCELLATION_LIMIT * perp2)
    if close.any():
        x_perp = xw[close] - y[close] @ q_l.T
        perp2[close] = _row_energies(x_perp)
    chol = np.linalg.cholesky(covs + 1e-12 * np.eye(p))
    basis = r_l @ chol  # (C, p, p): L chol_c in the Q coordinates
    lam, rot = np.linalg.eigh(np.swapaxes(basis, -1, -2) @ basis)
    lam = np.maximum(lam, 0.0)
    centered = y - (means @ r_l.T)[:, None, :]  # (C, N, p)
    scores = centered @ (basis @ rot)
    denom = psi[:, None] + lam[:, None, :]
    coeff = (scores / denom) @ np.swapaxes(rot, -1, -2)  # chol coordinates
    # cancellation-free quadratic form:
    # x^T (B B^T + psi I)^{-1} x = ||x - B c||^2 / psi + ||c||^2
    resid = centered - coeff @ np.swapaxes(basis, -1, -2)
    quad = (np.sum(resid * resid, axis=-1) + perp2) / psi \
        + np.sum(coeff * coeff, axis=-1)
    logdet = d * np.log(psi) + np.sum(np.log1p(lam[:, None, :] / psi[:, None]),
                                      axis=-1)
    log_joint = np.log(weights)[:, None] - 0.5 * (d * _LOG_2PI + logdet + quad)
    latent_means = means[:, None, :] + coeff @ np.swapaxes(chol, -1, -2)
    return log_joint.T, latent_means, (chol @ rot, denom)


def _em_step(loadings, xw, psi, weights, means, covs, x2=None):
    """The log-likelihood at ``loadings`` and their EM update, under the
    fixed latent prior sum_c weights[c] N(means[c], covs[c]); ``x2`` are
    the rows' ||x||^2, if known."""
    log_joint, latent_means, (basis_q, denom) = _mog_component_terms(
        loadings, weights, means, covs, xw, psi, x2
    )
    norm = logsumexp(log_joint, axis=1)
    ll = float(norm.sum())
    if not np.isfinite(ll):
        return ll, loadings
    resp = np.exp(log_joint - norm[:, None]).T  # (C, N)
    weighted = latent_means * (resp / psi)[:, :, None]
    numer_t = weighted.sum(axis=0).T @ xw  # one GEMM for all components
    ck = np.einsum("cn,cnp->cp", resp, 1.0 / denom)
    denom_mat = np.sum((basis_q * ck[:, None, :]) @ np.swapaxes(basis_q, -1, -2)
                       + np.swapaxes(weighted, -1, -2) @ latent_means, axis=0)
    return ll, np.linalg.solve(denom_mat, numer_t).T


def _squarem(em_step, theta, max_evals, tol):
    """Maximise a log-likelihood by squared extrapolation of its EM map.

    ``em_step(theta)`` returns the log-likelihood at ``theta`` and the EM
    update of ``theta``. Each cycle takes the EM steps theta0 -> theta1 ->
    theta2 and jumps to theta0 - 2 a r + a^2 v, with r = theta1 - theta0,
    v = theta2 - theta1 - r and a = min(-|r| / |v|, -1) (scheme S3 of
    Varadhan & Roland 2008; a = -1 lands on theta2). The jump is kept
    when its log-likelihood is at least theta1's; otherwise the next cycle
    starts from theta1, as plain EM would.

    Returns ``(theta, trace, converged)``. ``trace`` holds the
    log-likelihood of every point kept (each EM step and each kept jump),
    so it never decreases, and ``theta`` is the last of them. The fit
    stops when the EM step from a kept point raises the log-likelihood by
    at most ``tol`` relative, as plain EM stops, or after ``max_evals``
    calls of ``em_step``.
    """
    def checked(ll):
        if not np.isfinite(ll):
            raise FitDivergedError("EM log-likelihood is not finite")
        return ll

    def stalled(trace):
        return trace[-1] - trace[-2] <= tol * (1.0 + abs(trace[-1]))

    ll, theta1 = em_step(theta)
    trace = [checked(ll)]
    evals = 1
    while evals < max_evals:
        ll1, theta2 = em_step(theta1)
        evals += 1
        trace.append(checked(ll1))
        theta0, theta = theta, theta1
        if stalled(trace):
            return theta, np.asarray(trace), True
        if evals == max_evals:
            break
        r = theta1 - theta0
        v = theta2 - theta1 - r
        v_norm = np.linalg.norm(v)
        alpha = min(-np.linalg.norm(r) / v_norm, -1.0) if v_norm > 0 else -1.0
        jump = theta0 - 2.0 * alpha * r + alpha * alpha * v
        if np.all(np.isfinite(jump)):
            ll_jump, image = em_step(jump)
            evals += 1
            if ll_jump >= ll1:  # False for NaN
                trace.append(ll_jump)
                theta, theta1 = jump, image
                continue
        theta1 = theta2
    return theta, np.asarray(trace), False


def _standard_prior(p: int):
    """The plain FA prior z ~ N(0, I) as a one-component mixture."""
    return np.ones(1), np.zeros((1, p)), np.eye(p)[None]


def _fit_loadings(xw, psi, loadings, prior, max_iter=EM_MAX_ITER,
                  tol=EM_TOL):
    """EM fit of the loadings under a fixed latent ``(weights, means,
    covs)`` prior, accelerated by :func:`_squarem`."""
    x2 = _row_energies(xw)

    def em_step(theta):
        return _em_step(theta, xw, psi, *prior, x2)
    return _squarem(em_step, loadings, max_iter, tol)


def fit_factor_analysis(beats: np.ndarray, K: CovarianceMatrix, taus,
                        p: int, n_beats=1) -> FaModel:
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
    loadings, trace, converged = _fit_loadings(
        xw, psi, _spectral_start(xw, psi, p), _standard_prior(p))
    _check_loglik_trace(trace, "FA fit")
    return FaModel(mean=mean, loadings=loadings, loglik_trace=trace,
                   converged=converged)


def fa_latent_means(model: FaModel, beats: np.ndarray, K: CovarianceMatrix,
                    taus, n_beats=1) -> np.ndarray:
    """Posterior latent means for rows of ``beats`` under a fitted model."""
    beats = np.atleast_2d(np.asarray(beats, dtype=np.float64))
    psi = _effective_psi(taus, n_beats, beats.shape[0])
    return _posterior_latents(model.loadings, beats - model.mean, psi,
                              K.inv_sqrt)


def fa_posterior_mean_batch(model: FaModel, means: np.ndarray,
                            K: CovarianceMatrix, taus, n_beats=1) -> np.ndarray:
    """Posterior-mean denoising of each row of ``means``."""
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    latents = fa_latent_means(model, means, K, taus, n_beats)
    return model.mean + latents @ (model.loadings.T @ K.sqrt)


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

def fit_mog_fa(beats: np.ndarray, K: CovarianceMatrix, taus, p: int,
               n_components: int = DEFAULT_N_COMPONENTS, n_beats=1,
               rng_seed=0, stage1: FaModel | None = None) -> MogFaModel:
    """Three-stage empirical-Bayes mixture factor analysis.

    1. Plain FA on the whitened rows gives loadings and latent posterior
       means. 2. A C-component Gaussian mixture is fitted to those latent
       scores. 3. The loadings are refit by EM under the fixed mixture
       prior (conditional moments of the joint Gaussian per component).

    ``stage1`` is an already fitted :func:`fit_factor_analysis` result
    for these rows, used in place of stage 1. It must have the rows' d,
    latent dimension ``p`` and, bit for bit, their column mean.
    """
    beats = np.asarray(beats, dtype=np.float64)
    if beats.ndim != 2:
        raise ValueError("need an (N, d) matrix")
    n = beats.shape[0]
    if not 1 <= int(n_components) <= n:
        raise ValueError("need N >= n_components >= 1")
    if stage1 is None:
        stage1 = fit_factor_analysis(beats, K, taus, p, n_beats=n_beats)
    elif (stage1.d, stage1.latent_dim) != (beats.shape[1], int(p)):
        raise ValueError(
            f"stage1 has d={stage1.d} and p={stage1.latent_dim}; these "
            f"rows and p need d={beats.shape[1]} and p={int(p)}")
    elif not np.array_equal(stage1.mean, beats.mean(axis=0)):
        raise ValueError("stage1 was fitted to other rows: its mean is not "
                         "their column mean")
    psi = _effective_psi(taus, n_beats, n)
    xw = (beats - stage1.mean) @ K.inv_sqrt
    latents = _posterior_latents(stage1.loadings, xw, psi)
    mixture = fit_gmm(latents, n_components, rng_seed)
    prior = (mixture.weights, mixture.means, mixture.covariances)
    loadings, trace, converged = _fit_loadings(xw, psi, stage1.loadings,
                                               prior)
    _check_loglik_trace(trace, "mixture FA fit, stage 3")
    fa = FaModel(mean=stage1.mean, loadings=loadings, loglik_trace=trace,
                 converged=converged)
    return MogFaModel(fa=fa, weights=mixture.weights,
                      comp_means=mixture.means,
                      comp_covs=mixture.covariances, mixture_fit=mixture)


def _mog_fa_posterior(model: MogFaModel, means: np.ndarray,
                      K: CovarianceMatrix, taus, n_beats=1):
    """Responsibilities p(c | x) (N, C) and each component's posterior
    latent means (C, N, p) for the rows of ``means``."""
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    psi = _effective_psi(taus, n_beats, means.shape[0])
    xw = (means - model.fa.mean) @ K.inv_sqrt
    log_joint, latent_means, _ = _mog_component_terms(
        model.fa.loadings, model.weights, model.comp_means, model.comp_covs,
        xw, psi,
    )
    resp = np.exp(log_joint - logsumexp(log_joint, axis=1)[:, None])
    return resp, latent_means


def mog_fa_posterior_mean_batch(model: MogFaModel, means: np.ndarray,
                                K: CovarianceMatrix, taus,
                                n_beats=1) -> np.ndarray:
    """Mixture posterior-mean denoising of each row of ``means``.

    Component contributions are weighted by posterior responsibilities
    p(c | x).
    """
    resp, latent_means = _mog_fa_posterior(model, means, K, taus, n_beats)
    combined = np.einsum("nc,cnp->np", resp, latent_means)
    return model.fa.mean + combined @ (model.fa.loadings.T @ K.sqrt)


def mog_fa_posterior_mean(model: MogFaModel, sample: EcgSample,
                          K: CovarianceMatrix, tau) -> np.ndarray:
    """Denoise one recording with the mixture-prior posterior mean."""
    tau = _as_tau(tau)
    return mog_fa_posterior_mean_batch(
        model, sample.beat_mean[None, :], K, tau, sample.n_beats,
    )[0]
