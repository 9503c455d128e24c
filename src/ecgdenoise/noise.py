"""Structured noise: Matern covariance, sampling, whitening and estimation.

Beats within a recording share a global temporal covariance K (trace
normalized to d for identifiability) scaled per recording by 1 / tau^2.
Estimation pools residual scatter across recordings for K and reads the
per-recording scale off the whitened residual energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientReplicatesError, ZeroNoiseError
from .simulate import DEFAULT_FS, ThetaBeat

#: Matern defaults used by the simulation benchmarks (20 ms at 500 Hz).
DEFAULT_LENGTHSCALE = 0.02
DEFAULT_SMOOTHNESS = 1.5

SUPPORTED_SMOOTHNESS = (0.5, 1.5, 2.5)

#: Relative eigenvalue floor applied before square roots and inverses.
EIGENVALUE_FLOOR = 1e-10

#: Relative ridge added to K before inversion during noise estimation.
INVERSE_RIDGE = 1e-8

#: Residual rows :func:`estimate_noise` stacks per GEMM; bounds its working
#: set to about this many rows of d floats, whatever the number of samples.
RESIDUAL_BLOCK_ROWS = 1024


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CovarianceMatrix:
    """A d x d PSD covariance with cached symmetric square roots.

    Instances are built through :meth:`from_matrix`, which symmetrizes,
    rescales the trace to d, floors the spectrum and reconstructs, so the
    stored ``matrix``, ``sqrt`` and ``inv_sqrt`` share one eigenbasis and
    satisfy ``inv_sqrt @ matrix @ inv_sqrt == I`` to float precision.
    """

    matrix: np.ndarray
    sqrt: np.ndarray
    inv_sqrt: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "CovarianceMatrix":
        """Validate and decompose a covariance matrix, rescaled so its
        trace equals d."""
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance must be a square matrix")
        d = m.shape[0]
        scale = max(1.0, float(np.abs(m).max()))
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("covariance must be symmetric to 1e-10")
        m = 0.5 * (m + m.T)
        trace = float(np.trace(m))
        if not trace > 0:
            raise ValueError("covariance trace must be positive")
        m = m * (d / trace)
        vals, vecs = np.linalg.eigh(m)
        if vals.min() < -1e-10 * max(1.0, vals.max()):
            raise ValueError("covariance is not positive semi-definite")
        vals = np.maximum(vals, EIGENVALUE_FLOOR)
        vals *= d / vals.sum()  # restore exact trace after flooring
        mat = (vecs * vals) @ vecs.T
        sqrt = (vecs * np.sqrt(vals)) @ vecs.T
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        return cls(
            matrix=_readonly(0.5 * (mat + mat.T)),
            sqrt=_readonly(0.5 * (sqrt + sqrt.T)),
            inv_sqrt=_readonly(0.5 * (inv_sqrt + inv_sqrt.T)),
            eigenvalues=_readonly(vals),
            eigenvectors=_readonly(vecs),
        )

    @classmethod
    def identity(cls, d: int) -> "CovarianceMatrix":
        return cls.from_matrix(np.eye(d))


@dataclass(frozen=True)
class NoisePrecision:
    """Per-recording noise precision tau (noise scale sigma = 1 / tau)."""

    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and strictly positive")

    @property
    def sigma(self) -> float:
        return 1.0 / self.tau

    def __float__(self) -> float:
        return self.tau


def _as_tau(tau) -> float:
    value = float(tau)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("tau must be finite and strictly positive")
    return value


@dataclass(frozen=True)
class EcgSample:
    """One recording: B aligned beats, plus ground truth when simulated."""

    sample_id: str
    beats: np.ndarray
    theta: ThetaBeat | None = None
    tau: NoisePrecision | None = None

    def __post_init__(self):
        object.__setattr__(self, "beats", _readonly(self.beats))
        if self.beats.ndim != 2 or self.beats.shape[0] < 1:
            raise ValueError("beats must be a non-empty (B, d) matrix")
        if not np.all(np.isfinite(self.beats)):
            raise ValueError("beats must be finite")
        if self.theta is not None and self.theta.d != self.beats.shape[1]:
            raise ValueError("ground-truth beat length does not match beats")

    @classmethod
    def from_arrays(cls, sample_id: str, beats, theta=None, tau=None, *,
                    fs: float = DEFAULT_FS,
                    r_offset: int | None = None) -> "EcgSample":
        """A sample from plain values: ``theta`` the ground-truth beat,
        whose R index is ``r_offset`` or, when that is None, its argmax;
        ``tau`` the noise precision. Either may be None."""
        if theta is not None:
            r_index = int(np.argmax(theta)) if r_offset is None else int(r_offset)
            theta = ThetaBeat(values=theta, r_index=r_index, fs=fs)
        if tau is not None:
            tau = NoisePrecision(float(tau))
        return cls(sample_id=sample_id, beats=beats, theta=theta, tau=tau)

    @property
    def n_beats(self) -> int:
        return self.beats.shape[0]

    @property
    def d(self) -> int:
        return self.beats.shape[1]

    @property
    def beat_mean(self) -> np.ndarray:
        return self.beats.mean(axis=0)


def matern_covariance(d: int, fs: float, lengthscale: float = DEFAULT_LENGTHSCALE,
                      smoothness: float = DEFAULT_SMOOTHNESS) -> CovarianceMatrix:
    """Trace-normalized Matern covariance over a d-sample window at ``fs``.

    Entry (s, t) is the Matern kernel at lag |s - t| / fs. Supported
    smoothness values are 1/2, 3/2 and 5/2 (the closed-form family).
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be at least 1")
    if not fs > 0:
        raise ValueError("fs must be positive")
    if not lengthscale > 0:
        raise ValueError("lengthscale must be positive")
    if smoothness not in SUPPORTED_SMOOTHNESS:
        raise ValueError(
            f"smoothness {smoothness} unsupported; choose one of "
            f"{SUPPORTED_SMOOTHNESS}"
        )
    lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) / fs
    r = lags / lengthscale
    if smoothness == 0.5:
        kernel = np.exp(-r)
    elif smoothness == 1.5:
        s = math.sqrt(3.0) * r
        kernel = (1.0 + s) * np.exp(-s)
    else:
        s = math.sqrt(5.0) * r
        kernel = (1.0 + s + (5.0 / 3.0) * r * r) * np.exp(-s)
    return CovarianceMatrix.from_matrix(kernel)


def sample_noise_beats(K: CovarianceMatrix, tau, B: int, rng_seed) -> np.ndarray:
    """Draw B i.i.d. noise beats from N(0, K / tau^2); rows are beats.

    Deterministic given the seed.
    """
    tau = _as_tau(tau)
    B = int(B)
    if B < 1:
        raise ValueError("B must be at least 1")
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((B, K.d))
    return (z @ K.sqrt) / tau


def whiten(K: CovarianceMatrix, x: np.ndarray, mu=None) -> np.ndarray:
    """Apply K^{-1/2} (x - mu); ``x`` may be a vector or a matrix of rows."""
    x = np.asarray(x, dtype=np.float64)
    if mu is not None:
        x = x - np.asarray(mu, dtype=np.float64)
    return x @ K.inv_sqrt


def unwhiten(K: CovarianceMatrix, x_white: np.ndarray, mu=None) -> np.ndarray:
    """Inverse of :func:`whiten`: K^{1/2} x + mu."""
    x = np.asarray(x_white, dtype=np.float64) @ K.sqrt
    if mu is not None:
        x = x + np.asarray(mu, dtype=np.float64)
    return x


def _sample_beats(sample) -> np.ndarray:
    beats = sample.beats if isinstance(sample, EcgSample) else np.asarray(sample)
    if beats.ndim != 2:
        raise ValueError("each sample must be a (B, d) beat matrix")
    return np.asarray(beats, dtype=np.float64)


def _residual_blocks(beat_sets, counts, d):
    """Yield ``(first, stop, resid)`` over consecutive runs of samples.

    ``resid`` stacks the residuals of samples ``first:stop`` around their
    beat means, each scaled by 1 / sqrt(B_i - 1). Every block is written
    into one reused buffer of at most ``RESIDUAL_BLOCK_ROWS`` rows (or one
    sample's B_i, if larger).
    """
    per_block = max(1, RESIDUAL_BLOCK_ROWS // int(counts.max()))
    buffer = np.empty((min(int(counts.sum()), per_block * int(counts.max())),
                       d))
    for first in range(0, len(beat_sets), per_block):
        stop = min(first + per_block, len(beat_sets))
        rows = 0
        for beats in beat_sets[first:stop]:
            block = buffer[rows:rows + beats.shape[0]]
            np.subtract(beats, beats.mean(axis=0), out=block)
            block *= 1.0 / math.sqrt(beats.shape[0] - 1)
            rows += beats.shape[0]
        yield first, stop, buffer[:rows]


def estimate_noise(samples) -> tuple[CovarianceMatrix, np.ndarray]:
    """Estimate the shared covariance K and per-sample precisions tau_i.

    Every sample needs B >= 2 beats. Per-sample residuals around the beat
    mean form scatters C_i = R^T R / (B - 1); centering removes the
    canonical-beat outer product, and the (B - 1) divisor absorbs the
    1 - 1/B deflation of mean-centered residuals, so C_i is unbiased for
    K / tau_i^2. Then S = tr(sum C_i), K = (d / S) sum C_i (trace exactly
    d) and sigma_i^2 = tr(K^{-1} C_i) / d with a small ridge on K.

    ``samples`` is a sequence of :class:`EcgSample` or (B, d) matrices (B
    may differ between samples) or an (N, B, d) array. Residuals are
    stacked in blocks of about ``RESIDUAL_BLOCK_ROWS`` rows: one GEMM per
    block accumulates sum C_i, and a second pass reads the tau_i off the
    row energies of the whitened blocks.

    Returns ``(K_hat, tau_hat)`` with ``tau_hat`` an array aligned with the
    sample order.
    """
    beat_sets = [_sample_beats(s) for s in samples]
    if not beat_sets:
        raise ValueError("samples must be non-empty")
    d = beat_sets[0].shape[1]
    for i, beats in enumerate(beat_sets):
        if beats.shape[1] != d:
            raise ValueError("all samples must share the same beat length d")
        if beats.shape[0] < 2:
            raise InsufficientReplicatesError(
                f"sample {i} has {beats.shape[0]} beat(s); need B >= 2"
            )
    counts = np.array([beats.shape[0] for beats in beat_sets])

    total = np.zeros((d, d))
    for _, _, resid in _residual_blocks(beat_sets, counts, d):
        total += resid.T @ resid
    s_hat = float(np.trace(total))
    if s_hat <= 0.0:
        raise ZeroNoiseError(
            "all beat replicates are identical; cannot estimate noise"
        )
    k_hat = CovarianceMatrix.from_matrix(total * (d / s_hat))

    # r K^{-1} r^T is the squared norm of r V / sqrt(lambda + ridge)
    white = k_hat.eigenvectors / np.sqrt(k_hat.eigenvalues + INVERSE_RIDGE)
    sigma_sq = np.empty(len(beat_sets))
    for first, stop, resid in _residual_blocks(beat_sets, counts, d):
        rows = resid @ white
        energy = np.einsum("ij,ij->i", rows, rows)
        offsets = np.cumsum(counts[first:stop]) - counts[first:stop]
        sigma_sq[first:stop] = np.add.reduceat(energy, offsets) / d
    zero = np.flatnonzero(sigma_sq <= 0.0)
    if zero.size:
        raise ZeroNoiseError(f"sample {zero[0]} has zero residual energy")
    return k_hat, 1.0 / np.sqrt(sigma_sq)
