"""Denoisers for canonical ECG beats.

Each estimator maps an (N, d) matrix of per-recording beat averages to N
estimates of the clean beats. The beat average itself is the maximum
likelihood estimate and needs no code here; the others are:

* ``oracle_bayes_batch`` -- nearest ground-truth atom in whitened
  distance; an idealized upper bound on performance.
* factor analysis (``fit_factor_analysis``, ``fa_posterior_mean_batch``)
  -- EM fit of low-rank structure on whitened beats with known per-row
  noise scale, denoising via the latent posterior mean.
* mixture-of-Gaussians factor analysis (``fit_mog_fa``,
  ``mog_fa_posterior_mean_batch``) -- a given FA fit, with an
  empirical-Bayes Gaussian-mixture prior fitted to its latent posterior
  means in place of z ~ N(0, I); the loadings are not refit.

The factor models operate in whitened coordinates (noise becomes
isotropic), where each recording's beat average has known noise variance
psi = 1 / (tau^2 B); estimates are mapped back through the covariance
square root. Their latent dimension p is given: ``bench.LatentDimRule``
chooses it.

The loadings are fitted once, by FA's EM under z ~ N(0, I), accelerated
with squared extrapolation (SQUAREM; Varadhan & Roland 2008). The fit
stops at the first point from which one plain EM step raises the
log-likelihood by at most ``EM_TOL`` relative, or after ``EM_MAX_ITER``
evaluations of the EM map (one E-step, which also gives the
log-likelihood, and one M-step). Its ``loglik_trace`` holds the
log-likelihood of every point it kept: each EM step and each
extrapolation that did not lower the log-likelihood. So
``FaModel.n_iter`` counts kept points, which is the map evaluations less
the rejected extrapolations.

Every latent posterior, FA's included, is the mixture prior's; FA's
z ~ N(0, I) is its one-component case (Tipping & Bishop 1999). Work on
the (N, d) rows is kept out of the loops:

* ``fit_mog_fa`` extends the FA fit it is given for the same rows, so a
  caller that runs both estimators fits FA once.
* With L = Q R, a posterior reads the rows only as y = Q' x, through the
  (d, p) product K^{-1/2} Q, and maps latents back through the (p, d)
  product L' K^{1/2}: no (N, d) x (d, d) product is formed for them.
* Each E-step also needs every row's energy off span(L), ||x_perp||^2 =
  ||x||^2 - ||y||^2, with ||x||^2 computed once per fit. A row so close
  to span(L) that the difference would lose more than
  ``gmm.CANCELLATION_LIMIT`` machine epsilons takes its explicit
  residual instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitDivergedError, FloatRangeError, NonMonotoneFitError
from .gmm import CANCELLATION_LIMIT, GaussianMixture, fit_gmm, logsumexp
from .noise import CovarianceMatrix
from .simulate import _readonly

_LOG_2PI = np.log(2.0 * np.pi)

#: EM stopping rule: one EM step raises the log-likelihood by at most
#: EM_TOL relative, or EM_MAX_ITER evaluations of the EM map are spent.
EM_TOL = 1e-8
EM_MAX_ITER = 500

#: Monotonicity slack when validating a recorded log-likelihood trace.
LOGLIK_SLACK = 1e-9

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

    ``fa`` is the FA fit whose loadings the model uses; the mixture
    components (weights, latent means, latent covariances) define the
    prior over z in place of N(0, I), which :meth:`from_fa` keeps as the
    one component. ``mixture_fit`` is the mixture fit they came from (its
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
# oracle
# ---------------------------------------------------------------------------

def oracle_bayes_batch(means: np.ndarray, atoms: np.ndarray,
                       K: CovarianceMatrix):
    """MAP estimate of each row of ``means`` under the discrete prior over
    the (N, d) ``atoms``, the true beats: the nearest atom in whitened
    distance.

    Returns ``(estimates, indices)``; ties go to the lowest atom index.
    """
    atoms_matrix = np.asarray(atoms)
    if atoms_matrix.ndim != 2 or atoms_matrix.shape[0] < 1:
        raise ValueError("atoms must be a non-empty (N, d) matrix")
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        aw = atoms_matrix @ K.inv_sqrt
        xw = means @ K.inv_sqrt
        d2 = (
            np.sum(aw * aw, axis=1)[None, :]
            - 2.0 * (xw @ aw.T)
            + np.sum(xw * xw, axis=1)[:, None]
        )
    if not np.all(np.isfinite(d2)):
        raise FloatRangeError("the whitened distances from the beat means "
                              "to the atoms overflow float64")
    # BLAS may round equal columns of the product differently, so equal
    # atoms (which have equal sums) take the distance of their first copy
    sums = atoms_matrix.sum(axis=1)
    if np.unique(sums).size < sums.size:
        _, first, copy_of = np.unique(atoms_matrix, axis=0,
                                      return_index=True, return_inverse=True)
        d2 = d2[:, first[copy_of.reshape(-1)]]
    idx = np.argmin(d2, axis=1)
    return atoms_matrix[idx].copy(), idx


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
    with np.errstate(over="ignore", divide="ignore"):  # refused below
        psi = 1.0 / (taus * taus * n_beats)
    bad = np.flatnonzero(~np.isfinite(psi) | (psi <= 0.0))
    if bad.size:
        i = bad[0]
        raise FloatRangeError(f"row {i}: the noise variance 1 / (tau^2 B) "
                              f"at tau={taus[i]:g}, B={n_beats[i]:g} is "
                              f"{psi[i]:g}, not a finite positive float64")
    return psi


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


def _span_coordinates(loadings, xw, x2=None):
    """``(R, y, perp2)``, L = Q R: per row y = Q' x and ||x_perp||^2.

    ``x2`` holds the rows' ||x||^2 (computed here when None), and
    ||x_perp||^2 is ||x||^2 - ||y||^2. That loses about ||x||^2 /
    ||x_perp||^2 machine epsilons, so a row for which this exceeds
    ``CANCELLATION_LIMIT`` (or the difference is not positive) takes the
    explicit residual x - Q y instead.
    """
    q_l, r_l = np.linalg.qr(loadings)
    y = xw @ q_l
    if x2 is None:
        x2 = _row_energies(xw)
    perp2 = x2 - _row_energies(y)
    close = (perp2 <= 0.0) | (x2 > CANCELLATION_LIMIT * perp2)
    if close.any():
        x_perp = xw[close] - y[close] @ q_l.T
        perp2[close] = _row_energies(x_perp)
    return r_l, y, perp2


def _mog_component_terms(r_l, y, perp2, d, weights, means, covs, psi):
    """Log joint densities and posterior latent means per component.

    Returns ``(log_joint (N, C), latent_means (C, N, p))`` plus the cached
    per-component quantities needed by the M-step. Every component's
    whitened covariance is L S_c L^T + psi_i I, so with L = Q R a row x
    of width ``d`` is worked in p dimensions, through y = Q' x (see
    :func:`_span_coordinates`); its energy off span(L), ``perp2``, adds
    the same ||x_perp||^2 / psi_i to each component's quadratic form.
    """
    p = r_l.shape[1]
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


def _em_step(loadings, xw, psi, x2=None):
    """The log-likelihood at ``loadings`` and their EM update under the
    latent prior z ~ N(0, I); ``x2`` are the rows' ||x||^2, if known."""
    log_joint, latent_means, (basis_q, denom) = _mog_component_terms(
        *_span_coordinates(loadings, xw, x2), xw.shape[1],
        *_standard_prior(loadings.shape[1]), psi)
    ll = float(log_joint[:, 0].sum())
    if not np.isfinite(ll):
        return ll, loadings
    z, basis_q = latent_means[0], basis_q[0]
    weighted = z * (1.0 / psi)[:, None]
    ck = (1.0 / denom[0]).sum(axis=0)
    denom_mat = (basis_q * ck) @ basis_q.T + weighted.T @ z
    return ll, np.linalg.solve(denom_mat, weighted.T @ xw).T


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


def fit_factor_analysis(beats: np.ndarray, K: CovarianceMatrix, taus,
                        p: int, n_beats=1) -> FaModel:
    """Fit loadings by EM on whitened rows with known per-row noise.

    ``beats`` is an (N, d) matrix of per-recording beat averages; row i has
    noise covariance K / (tau_i^2 n_beats_i). The column mean is removed,
    rows are whitened, and EM maximizes the marginal likelihood
    N(x | 0, L L^T + psi_i I), accelerated by :func:`_squarem` from
    :func:`_spectral_start`. The noise diagonal is pinned by the known
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
    x2 = _row_energies(xw)
    loadings, trace, converged = _squarem(
        lambda L: _em_step(L, xw, psi, x2), _spectral_start(xw, psi, p),
        EM_MAX_ITER, EM_TOL)
    try:
        _check_loglik_trace(trace, "FA fit")
    except NonMonotoneFitError:
        # The log-likelihood sums terms as large as ||x_i||^2 / psi_i, so
        # its rounding error is about eps times their sum. A fall within
        # that is rounding: the noise is too small for float64 to resolve
        # the fit, and no exact rescaling of the rows would change that.
        with np.errstate(over="ignore"):
            rounding = np.finfo(np.float64).eps * float(np.sum(x2 / psi))
        fall = float(np.max(-np.diff(trace)))
        if fall <= rounding:
            raise FloatRangeError(
                f"FA fit: the log-likelihood falls by {fall:.3g}, within "
                f"its float64 rounding error eps sum ||x_i||^2 / psi_i = "
                f"{rounding:.3g}; the noise variance psi, down to "
                f"{psi.min():.3g}, is too small to resolve") from None
        raise
    return FaModel(mean=mean, loadings=loadings, loglik_trace=trace,
                   converged=converged)


def fa_posterior_mean_batch(model: FaModel, means: np.ndarray,
                            K: CovarianceMatrix, taus, n_beats=1) -> np.ndarray:
    """Factor-analysis posterior-mean denoising of each row of ``means``.

    Row i averages ``n_beats[i]`` beats, so its whitened noise variance is
    1 / (tau_i^2 B_i); its estimate is mean + K^{1/2} L E[z | x_i]. As
    tau sqrt(B) grows the estimate approaches the beat average (projected
    on the factor subspace); as tau -> 0 it approaches the global mean.
    It is the one-component case of :func:`mog_fa_posterior_mean_batch`.
    """
    return mog_fa_posterior_mean_batch(MogFaModel.from_fa(model), means, K,
                                       taus, n_beats)


# ---------------------------------------------------------------------------
# mixture-of-Gaussians factor analysis
# ---------------------------------------------------------------------------

def fit_mog_fa(fa: FaModel, beats: np.ndarray, K: CovarianceMatrix, taus,
               n_components: int = DEFAULT_N_COMPONENTS, n_beats=1,
               rng_seed=0) -> MogFaModel:
    """Empirical-Bayes mixture factor analysis on top of the FA fit ``fa``.

    ``fa`` is the :func:`fit_factor_analysis` result for these rows and
    must hold their column mean bit for bit. A C-component Gaussian
    mixture is fitted to its latent posterior means; the model keeps
    ``fa`` itself, so its loadings, trace and convergence are FA's.
    """
    beats = np.asarray(beats, dtype=np.float64)
    if beats.ndim != 2:
        raise ValueError("need an (N, d) matrix")
    if not 1 <= int(n_components) <= beats.shape[0]:
        raise ValueError("need N >= n_components >= 1")
    if not np.array_equal(fa.mean, beats.mean(axis=0)):
        raise ValueError("fa was fitted to other rows: its mean is not "
                         "their column mean")
    _, [latents] = _mog_fa_posterior(MogFaModel.from_fa(fa), beats, K, taus,
                                     n_beats)
    mixture = fit_gmm(latents, n_components, rng_seed)
    return MogFaModel(fa=fa, weights=mixture.weights,
                      comp_means=mixture.means,
                      comp_covs=mixture.covariances, mixture_fit=mixture)


def _mog_fa_posterior(model: MogFaModel, means: np.ndarray,
                      K: CovarianceMatrix, taus, n_beats=1):
    """Responsibilities p(c | x) (N, C) and each component's posterior
    latent means (C, N, p) for the rows of ``means``.

    The rows are read in span(L) only, as y = Q' K^{-1/2} (x - mean),
    through the (d, p) product K^{-1/2} Q. Their energy off span(L) is
    left out: its ||x_perp||^2 / psi_i, like d log psi_i, is the same for
    every component of a row, so it cancels in the responsibilities, and
    it never enters the latent means.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    psi = _effective_psi(taus, n_beats, means.shape[0])
    q_l, r_l = np.linalg.qr(model.fa.loadings)
    y = (means - model.fa.mean) @ (K.inv_sqrt @ q_l)
    log_joint, latent_means, _ = _mog_component_terms(
        r_l, y, 0.0, 0,  # perp2 and d: they cancel, see above
        model.weights, model.comp_means, model.comp_covs, psi)
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
