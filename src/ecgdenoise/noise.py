"""Structured noise: Matern covariance, whitening and estimation.

Beats within a recording share a global temporal covariance K (trace
normalized to d for identifiability) scaled per recording by 1 / tau^2.
K is stationary, a symmetric Toeplitz matrix. Estimation pools residual
scatter across recordings and averages it along its diagonals for K, and
reads the per-recording scale off the residual energy, tr(C_i) / d.

A :class:`CovarianceMatrix` holds K's floored eigenpairs and builds K,
K^{1/2} and K^{-1/2} from them only when they are first read. The
eigenpairs of a Matern K and of the estimate alike come from two
eigenproblems of half its size.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (InsufficientReplicatesError, InvalidRecordingsError,
                     ZeroNoiseError)
from .simulate import ThetaBeat, _readonly

SUPPORTED_SMOOTHNESS = (0.5, 1.5, 2.5)

#: Relative eigenvalue floor applied before square roots and inverses.
EIGENVALUE_FLOOR = 1e-10

#: Rows per GEMM in the two passes over a cell's beats: the residual rows
#: :func:`estimate_noise` stacks, and the draws ``bench.simulate_cell_beats``
#: colours. Bounds each pass's working set to about this many rows of d
#: floats beyond its input and output, whatever the number of samples.
RESIDUAL_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class CovarianceMatrix:
    """A d x d PSD covariance, held as its floored eigenpairs.

    Instances come from :func:`matern_covariance` and
    :func:`estimate_noise`: each builds a symmetric Toeplitz K from its
    first row and decomposes it with :func:`_toeplitz_eigh`, and
    :meth:`_floored` floors the spectrum and restores the trace.
    ``matrix``, ``sqrt`` and ``inv_sqrt`` are rebuilt from the eigenpairs
    on first read, once each, read-only. They share one eigenbasis and
    satisfy ``inv_sqrt @ matrix @ inv_sqrt == I`` to float precision.
    """

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def _symmetric(self, scaled_vecs) -> np.ndarray:
        product = scaled_vecs @ self.eigenvectors.T
        return _readonly(0.5 * (product + product.T))

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._symmetric(self.eigenvectors * self.eigenvalues)

    @cached_property
    def sqrt(self) -> np.ndarray:
        return self._symmetric(self.eigenvectors * np.sqrt(self.eigenvalues))

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        return self._symmetric(self.eigenvectors / np.sqrt(self.eigenvalues))

    @classmethod
    def _floored(cls, vals, vecs) -> "CovarianceMatrix":
        """The covariance of eigenpairs with trace d: refused unless PSD,
        then floored at ``EIGENVALUE_FLOOR`` and rescaled to trace d."""
        if vals.min() < -1e-10 * max(1.0, vals.max()):
            raise ValueError("covariance is not positive semi-definite")
        vals = np.maximum(vals, EIGENVALUE_FLOOR)
        vals *= vals.size / vals.sum()  # restore exact trace after flooring
        return cls(eigenvalues=_readonly(vals), eigenvectors=_readonly(vecs))


@dataclass(frozen=True)
class EcgSample:
    """Recording i of a :class:`Recordings`, as ``recordings[i]`` gives it:
    its B aligned beats, plus ground truth when simulated: the clean beat
    ``theta`` and the noise precision ``tau`` (noise scale 1 / tau)."""

    sample_id: str
    beats: np.ndarray
    theta: ThetaBeat | None = None
    tau: float | None = None

    @property
    def n_beats(self) -> int:
        return self.beats.shape[0]

    @property
    def beat_mean(self) -> np.ndarray:
        return self.beats.mean(axis=0)


@dataclass(frozen=True, eq=False)
class Recordings(Sequence):
    """A recording set as arrays: recording i is ``ids[i]``, the next
    ``counts[i]`` rows of ``beats`` (sum B_i, d) and, when simulated, row i
    of ``thetas`` (N, d) and ``taus`` (N,). The arrays are held read-only
    and checked once, here; a refusal is an :class:`InvalidRecordingsError`
    that names the array and, for a bad value, its first recording."""

    ids: tuple
    beats: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    thetas: np.ndarray | None = field(default=None, repr=False)
    taus: np.ndarray | None = field(default=None, repr=False)
    _starts: np.ndarray = field(init=False, repr=False)  # first beat rows

    def __post_init__(self):
        ids, counts = tuple(self.ids), np.array(self.counts)
        n, beats = len(ids), _readonly(self.beats)
        if not (n and counts.shape == (n,) and counts.dtype.kind in "iu"
                and np.all(counts >= 1)):
            raise InvalidRecordingsError("counts", (
                f"need at least one recording, each an id and a count >= 1, "
                f"not {n} ids and counts of shape {counts.shape}"))
        if beats.ndim != 2 or len(beats) != counts.sum():
            raise InvalidRecordingsError("beats", (
                f"beats of shape {beats.shape}, but the counts sum to "
                f"{counts.sum()} rows"))
        counts.flags.writeable = False
        starts = np.cumsum(counts) - counts
        thetas = taus = None
        checks = [("beats", np.logical_and.reduceat(
            np.isfinite(beats).all(axis=1), starts), "beats must be finite")]
        if self.thetas is not None:
            thetas = _readonly(self.thetas)
            if thetas.shape[1:] != beats.shape[1:]:
                raise InvalidRecordingsError(
                    "beats", f"sample {ids[0]!r}: ground-truth beat length "
                             f"{thetas.shape[-1]} does not match the beats' "
                             f"{beats.shape[1]}")
            checks.append(("thetas", np.isfinite(thetas).all(axis=1),
                           "beat values must be finite"))
        if self.taus is not None:
            taus = _readonly(self.taus)
            checks.append(("taus", np.isfinite(taus) & (taus > 0),
                           "tau must be finite and strictly positive"))
        for name, ok, problem in checks:
            if ok.shape != (n,):
                raise InvalidRecordingsError(
                    name, f"{name} must hold one row per recording, {n}")
            if not ok.all():
                raise InvalidRecordingsError(
                    name, f"sample {ids[np.argmin(ok)]!r}: {problem}")
        vars(self).update(ids=ids, beats=beats, counts=counts, thetas=thetas,
                          taus=taus, _starts=starts)  # frozen: no __setattr__

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i) -> EcgSample:
        i = range(len(self))[operator.index(i)]
        start = self._starts[i]
        return EcgSample(
            self.ids[i], self.beats[start:start + self.counts[i]],
            None if self.thetas is None else ThetaBeat(self.thetas[i]),
            None if self.taus is None else float(self.taus[i]))

    @property
    def d(self) -> int:
        return self.beats.shape[1]

    def means(self) -> np.ndarray:
        """Each recording's beat mean (N, d), bit for bit its rows'
        ``mean(axis=0)``, which ``np.add.reduceat`` is not for B >= 3."""
        runs = np.split(self.beats, self._starts[1:])
        return np.stack([run.mean(axis=0) for run in runs])


def _toeplitz_eigh(row: np.ndarray):
    """Eigenpairs, ascending, of the symmetric Toeplitz matrix T with
    first row ``row``, from two eigenproblems of about half its size.

    T is centrosymmetric (J T J = T, J the exchange matrix), so each
    eigenvector is symmetric, [y; J y] / sqrt 2, or skew, [y; -J y] /
    sqrt 2, with y an eigenvector of A + B J or A - B J, where A and B are
    T's upper-left and upper-right m x m blocks (Cantoni & Butler 1976,
    Linear Algebra Appl. 13:275). For odd d = 2m + 1 the symmetric half
    gains the middle row and column, scaled by sqrt 2 to stay symmetric,
    and its vectors carry the middle entry unscaled.
    """
    d = row.size
    m = d // 2
    i = np.arange(m)
    near = row[np.abs(i[:, None] - i)]  # A
    far = row[d - 1 - i[:, None] - i]  # B J: entry (i, j) is T[i, d-1-j]
    sym = near + far
    if d % 2:
        middle = math.sqrt(2.0) * row[m - i]  # T[i, m], scaled
        sym = np.block([[sym, middle[:, None]], [middle, row[:1]]])
    sym_vals, sym_vecs = np.linalg.eigh(sym)
    skew_vals, skew_vecs = np.linalg.eigh(near - far)

    vals = np.concatenate([sym_vals, skew_vals])
    order = np.argsort(vals, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)
    sym_cols, skew_cols = column[:sym_vals.size], column[sym_vals.size:]
    half = 1.0 / math.sqrt(2.0)
    vecs = np.zeros((d, d))
    vecs[:m, sym_cols] = half * sym_vecs[:m]
    vecs[d - m:, sym_cols] = half * sym_vecs[:m][::-1]
    if d % 2:
        vecs[m, sym_cols] = sym_vecs[m]
    vecs[:m, skew_cols] = half * skew_vecs
    vecs[d - m:, skew_cols] = -half * skew_vecs[::-1]
    return vals[order], vecs


def matern_covariance(d: int, fs: float, lengthscale: float,
                      smoothness: float) -> CovarianceMatrix:
    """Trace-normalized Matern covariance over a d-sample window at ``fs``.

    Entry (s, t) is the Matern kernel at lag |s - t| / fs. Supported
    smoothness values are 1/2, 3/2 and 5/2 (the closed-form family). The
    kernel is 1 at lag 0, so the trace is d already; the matrix is
    Toeplitz, and its eigenpairs come from two half-size eigenproblems
    (:func:`_toeplitz_eigh`).
    """
    d = int(d)
    if d < 1:
        raise ValueError("d must be at least 1")
    for name, value in (("fs", fs), ("lengthscale", lengthscale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value!r}")
        if not value > 0:
            raise ValueError(f"{name} must be positive")
    if smoothness not in SUPPORTED_SMOOTHNESS:
        raise ValueError(
            f"smoothness {smoothness} unsupported; choose one of "
            f"{SUPPORTED_SMOOTHNESS}"
        )
    r = np.arange(d) / fs / lengthscale
    if smoothness == 0.5:
        kernel = np.exp(-r)
    elif smoothness == 1.5:
        s = math.sqrt(3.0) * r
        kernel = (1.0 + s) * np.exp(-s)
    else:
        s = math.sqrt(5.0) * r
        kernel = (1.0 + s + (5.0 / 3.0) * r * r) * np.exp(-s)
    return CovarianceMatrix._floored(*_toeplitz_eigh(kernel))


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


def _residual_blocks(beats, counts):
    """Yield ``(first, stop, resid)`` over consecutive runs of samples.

    ``resid`` stacks the residuals of samples ``first:stop`` around their
    beat means, each scaled by 1 / sqrt(B_i - 1). Every block is written
    into one reused buffer of at most ``RESIDUAL_BLOCK_ROWS`` rows (or one
    sample's B_i, if larger).
    """
    per_block = max(1, RESIDUAL_BLOCK_ROWS // int(counts.max()))
    buffer = np.empty((min(len(beats), per_block * int(counts.max())),
                       beats.shape[1]))
    starts = np.cumsum(counts) - counts
    for first in range(0, len(counts), per_block):
        stop = min(first + per_block, len(counts))
        rows = 0
        for start, b in zip(starts[first:stop], counts[first:stop]):
            own, block = beats[start:start + b], buffer[rows:rows + b]
            np.subtract(own, own.mean(axis=0), out=block)
            block *= 1.0 / math.sqrt(b - 1)
            rows += b
        yield first, stop, buffer[:rows]


def estimate_noise(samples) -> tuple[CovarianceMatrix, np.ndarray]:
    """Estimate the shared covariance K and per-sample precisions tau_i.

    Every sample needs B >= 2 beats. Per-sample residuals around the beat
    mean form scatters C_i = R^T R / (B - 1); centering removes the
    canonical-beat outer product, and the (B - 1) divisor absorbs the
    1 - 1/B deflation of mean-centered residuals, so C_i is unbiased for
    K / tau_i^2. The model's K is stationary, a symmetric Toeplitz matrix,
    so K_hat is too: its first row r_k is the sum of the k-th diagonal of
    S = sum C_i over tr(S), so r_0 = 1 and the trace is d. This is the
    biased (divide-by-d) average along the diagonals, which is positive
    semi-definite by construction (Brockwell & Davis 1991, section 7.2).
    sigma_i^2 = tr(C_i) / d is unbiased for 1 / tau_i^2 because the
    model's K has trace d.

    ``samples`` is a :class:`Recordings` (B may differ between samples)
    or a grid cell's (N, B, d) array, which give the same result bit for
    bit. Residuals are stacked in blocks of about ``RESIDUAL_BLOCK_ROWS``
    rows, in one pass: one GEMM per block accumulates S, and the block's
    row energies give the sigma_i^2. K_hat's eigenpairs come from
    :func:`_toeplitz_eigh`, as a Matern K's do. A scatter that overflows
    float64 is refused with a ``ValueError``; a sample with zero residual
    energy, or a scatter whose trace has no finite reciprocal, with a
    :class:`ZeroNoiseError`.

    Returns ``(K_hat, tau_hat)`` with ``tau_hat`` an array aligned with the
    sample order.
    """
    if isinstance(samples, Recordings):
        beats, counts, d = samples.beats, samples.counts, samples.d
    else:
        cell = np.asarray(samples, dtype=np.float64)
        if cell.ndim != 3 or 0 in cell.shape:
            raise ValueError("need Recordings or a non-empty (N, B, d) cell")
        n, b, d = cell.shape
        beats, counts = cell.reshape(n * b, d), np.full(n, b)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise InsufficientReplicatesError(
            f"sample {short[0]} has {counts[short[0]]} beat(s); need B >= 2")

    total = np.zeros((d, d))
    sigma_sq = np.empty(len(counts))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for first, stop, resid in _residual_blocks(beats, counts):
            total += resid.T @ resid
            energy = np.einsum("ij,ij->i", resid, resid)
            offsets = np.cumsum(counts[first:stop]) - counts[first:stop]
            sigma_sq[first:stop] = np.add.reduceat(energy, offsets) / d
        trace = np.trace(total)
        inverse = 1.0 / trace  # each refused below if not finite
    del resid  # the last view of the block buffer
    # the diagonal bounds every entry (Cauchy-Schwarz), so this suffices
    if not math.isfinite(trace):
        raise ValueError("the residual scatter overflows float64: the "
                         "beats vary too much around their means")
    zero = np.flatnonzero(sigma_sq <= 0.0)
    if zero.size:
        raise ZeroNoiseError(f"sample {zero[0]} has zero residual energy")
    if not math.isfinite(inverse):
        raise ZeroNoiseError(f"the residual scatter's trace {trace:.3g} "
                             "underflows float64: its reciprocal is not "
                             "finite")
    row = np.array([np.trace(total, k) for k in range(d)])
    del total  # freed before the eigenproblems
    row *= inverse
    k_hat = CovarianceMatrix._floored(*_toeplitz_eigh(row))
    return k_hat, 1.0 / np.sqrt(sigma_sq)
