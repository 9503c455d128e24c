"""Configuration-driven simulation benchmark.

For every (tau regime, beat count) cell the harness corrupts a shared
population of jittered canonical beats with structured noise, runs the
configured estimators (optionally against estimated rather than true noise
parameters), and aggregates squared reconstruction error per estimator.

Error is reported in the summed convention (squared error totaled over the
d coordinates, averaged over samples); ``mse_per_coordinate`` divides it
by d. Everything is deterministic given the config seed; cells
draw from independently spawned seed streams so results do not depend on
execution order.
"""
from __future__ import annotations

import itertools
import logging
import math
import numbers
import os
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (
    EcgDenoiseError,
    FloatRangeError,
    InsufficientReplicatesError,
    WorkerDiedError,
)
from .estimators import (
    DEFAULT_N_COMPONENTS,
    DEFAULT_SLOPE_CUTOFF,
    fa_posterior_mean_batch,
    fit_factor_analysis,
    fit_mog_fa,
    mog_fa_posterior_mean_batch,
    oracle_bayes_batch,
    select_latent_dim,
)
from .noise import (
    RESIDUAL_BLOCK_ROWS,
    CovarianceMatrix,
    EcgSample,
    estimate_noise,
    matern_covariance,
    whiten,
)
from .serialize import SCHEMA_VERSION, save_json
from .simulate import (
    BACKEND,
    DEFAULT_FS,
    DEFAULT_PARAMS,
    ThetaBeat,
    _readonly,
    check_window,
    extract_canonical_beats,
    jitter_population,
)

log = logging.getLogger("ecgdenoise")

DEFAULT_D = 493
DEFAULT_R_OFFSET = DEFAULT_D // 3  # extract_canonical_beat's default

#: Wave-amplitude gain applied to the base parameters so simulated beats sit
#: on a millivolt scale comparable to the unit-diagonal noise model.
DEFAULT_AMPLITUDE_GAIN = 27.5

DEFAULT_JITTER = 0.3

#: Matern parameters of the benchmark's noise process. Calibrated jointly
#: with the gain/jitter defaults so the estimator error table spans the
#: regimes of interest (see the project README).
DEFAULT_NOISE_LENGTHSCALE = 5e-4
DEFAULT_NOISE_SMOOTHNESS = 0.5

#: Latent dimension used by the benchmark's factor models. The scree rule
#: stays available through the config; the fixed default matches the
#: effective dimensionality of the jittered-parameter population.
DEFAULT_LATENT_DIM = 7

ESTIMATOR_KINDS = ("mle", "oracle_bayes", "fa", "mog_fa")
NOISE_MODES = ("truth", "estimated")


def _known_keys(cls, data: dict) -> dict:
    """``data`` unchanged, or a ValueError naming keys ``cls`` lacks or
    fields without a default that ``data`` lacks."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {missing}")
    return data


_INTEGER = ("an integer", numbers.Integral, int)
_NUMBER = ("a number", numbers.Real, float)
_LIST = ("a list", (list, tuple), tuple)


def _typed(where: str, value, kind_types):
    """``value`` as it is stored, or a ValueError naming ``where``.
    ``kind_types`` is (what the value must be, the types that pass, what
    stores one)."""
    kind, types, stored = kind_types
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, types):
        raise ValueError(f"{where} must be {kind}, not {value!r}")
    return stored(value)


def _built(cls):
    """What stores a ``cls`` given as one, as a dict of its fields or as
    text for ``cls.parse``."""
    def build(value):
        if isinstance(value, dict):
            return cls(**_known_keys(cls, value))
        return value if isinstance(value, cls) else cls.parse(value)
    return build


@dataclass(frozen=True)
class TauRegime:
    """Noise precision regime: a fixed value or Uniform(lo, hi)."""

    kind: str
    value: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        for key in ("value", "lo", "hi"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _typed(
                    f"TauRegime key {key!r}", getattr(self, key), _NUMBER))
        if self.kind == "fixed":
            if self.value is None or not 0 < self.value < np.inf:
                raise ValueError(f"fixed tau regime needs finite value > 0, "
                                 f"not {self.value!r}")
        elif self.kind == "uniform":
            if self.lo is None or self.hi is None \
                    or not 0 < self.lo < self.hi < np.inf:
                raise ValueError(f"uniform tau regime needs finite "
                                 f"0 < lo < hi, not lo={self.lo!r}, "
                                 f"hi={self.hi!r}")
        else:
            raise ValueError(f"unknown tau regime kind {self.kind!r}")

    @classmethod
    def fixed(cls, value: float) -> "TauRegime":
        return cls(kind="fixed", value=value)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "TauRegime":
        return cls(kind="uniform", lo=lo, hi=hi)

    @classmethod
    def parse(cls, text: str) -> "TauRegime":
        text = str(text).strip()
        try:
            if text.startswith("uniform:"):
                lo, hi = map(float, text.split(":", 1)[1].split(","))
                regime = {"kind": "uniform", "lo": lo, "hi": hi}
            else:
                regime = {"kind": "fixed", "value": float(text)}
        except ValueError:
            raise ValueError(f"tau regime {text!r} is neither a number nor "
                             f"of the form 'uniform:LO,HI'") from None
        return cls(**regime)

    def draw(self, n: int, rng) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(n, self.value)
        return rng.uniform(self.lo, self.hi, n)

    @property
    def label(self) -> str:
        if self.kind == "fixed":
            return f"tau={self.value:g}"
        return f"tau~U({self.lo:g},{self.hi:g})"

    def to_dict(self) -> dict:
        if self.kind == "fixed":
            return {"kind": "fixed", "value": self.value}
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_dict(cls, data: dict) -> "TauRegime":
        return cls(**_known_keys(cls, data))


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator plus its noise-knowledge mode (true vs estimated K, tau)."""

    kind: str
    noise: str = "truth"

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator {self.kind!r}")
        if self.noise not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise!r}")
        if self.kind in ("mle", "oracle_bayes") and self.noise != "truth":
            raise ValueError(f"{self.kind} has no {self.noise!r} noise mode: "
                             f"it runs only as {self.kind}:truth")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        kind, _, noise = str(text).partition(":")
        return cls(kind=kind, noise=noise or "truth")

    @property
    def name(self) -> str:
        if self.kind in ("mle", "oracle_bayes"):
            return self.kind
        return f"{self.kind}_{self.noise}"

    @property
    def needs_estimation(self) -> bool:
        return self.noise == "estimated"


@dataclass(frozen=True)
class LatentDimRule:
    """Latent dimension policy: a fixed p (an int) or the scree slope
    cutoff (a float)."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode == "scree":
            value = _typed("LatentDimRule key 'value'", self.value, _NUMBER)
            if not math.isfinite(value):
                raise ValueError(f"scree slope cutoff must be finite, not "
                                 f"{value!r}")
        elif self.mode == "fixed":
            if isinstance(self.value, (bool, np.bool_)) \
                    or not isinstance(self.value, numbers.Real) \
                    or not float(self.value).is_integer():
                raise ValueError(f"fixed latent dimension must be an "
                                 f"integer, not {self.value!r}")
            value = int(self.value)
            if value < 1:
                raise ValueError("fixed latent dimension must be >= 1")
        else:
            raise ValueError(f"unknown latent-dim mode {self.mode!r}")
        object.__setattr__(self, "value", value)

    @classmethod
    def parse(cls, text: str) -> "LatentDimRule":
        text = str(text).strip()
        mode, _, cutoff = text.partition(":")
        if mode == "scree":
            return cls("scree", float(cutoff) if cutoff else DEFAULT_SLOPE_CUTOFF)
        return cls("fixed", int(text))

    def choose(self, shape, whitened_means=None) -> int:
        """p for N means of width d, ``shape`` = (N, d): the fixed value or
        the scree pick on ``whitened_means`` (unread when fixed), capped at
        min(d, N - 1), the rank of N centred rows."""
        n, d = shape
        if self.mode == "fixed":
            p = int(self.value)
        else:
            cov = np.cov(whitened_means.T, ddof=1)
            eigs = np.linalg.eigvalsh(np.atleast_2d(cov))[::-1]
            eigs = np.maximum(eigs, 0.0)
            p = select_latent_dim(eigs, slope_cutoff=self.value)
        return min(p, d, n - 1)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "value": self.value}


_DEFAULT_REGIMES = (
    TauRegime.fixed(2), TauRegime.fixed(5), TauRegime.fixed(10),
    TauRegime.fixed(15), TauRegime.fixed(20), TauRegime.uniform(2, 20),
)
_DEFAULT_ESTIMATORS = (
    EstimatorSpec("mle"),
    EstimatorSpec("oracle_bayes"),
    EstimatorSpec("fa", "truth"),
    EstimatorSpec("fa", "estimated"),
    EstimatorSpec("mog_fa", "truth"),
)


#: The type of each :class:`BenchmarkConfig` field, as ``_typed`` reads it.
#: Nested objects may also be given as dicts, and tau regimes and
#: estimators as text.
_FIELD_TYPES = {
    "seed": _INTEGER, "n_samples": _INTEGER, "d": _INTEGER,
    "r_offset": _INTEGER, "mog_components": _INTEGER,
    "fs": _NUMBER, "jitter_fraction": _NUMBER, "amplitude_gain": _NUMBER,
    "lengthscale": _NUMBER, "smoothness": _NUMBER,
    "n_beats_grid": _LIST, "tau_regimes": _LIST, "estimators": _LIST,
    "latent_dim": ("an object", (dict, LatentDimRule),
                   _built(LatentDimRule)),
}

#: The type of each item of a list field.
_ITEM_TYPES = {
    "n_beats_grid": _INTEGER,
    "tau_regimes": ("a tau regime", object, _built(TauRegime)),
    "estimators": ("an estimator", object, _built(EstimatorSpec)),
}


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything a benchmark run depends on; the seed is mandatory.

    Each field is stored as the type ``_FIELD_TYPES`` gives it (int or
    float, lists as tuples, nested objects built), so equal values give
    equal reports; a value of another kind raises ValueError naming the
    field.
    """

    seed: int
    n_samples: int = 1000
    n_beats_grid: tuple = (1, 20)
    tau_regimes: tuple = _DEFAULT_REGIMES
    d: int = DEFAULT_D
    fs: float = DEFAULT_FS
    r_offset: int = DEFAULT_R_OFFSET
    jitter_fraction: float = DEFAULT_JITTER
    amplitude_gain: float = DEFAULT_AMPLITUDE_GAIN
    lengthscale: float = DEFAULT_NOISE_LENGTHSCALE
    smoothness: float = DEFAULT_NOISE_SMOOTHNESS
    estimators: tuple = _DEFAULT_ESTIMATORS
    latent_dim: LatentDimRule = field(
        default_factory=lambda: LatentDimRule("fixed", DEFAULT_LATENT_DIM)
    )
    mog_components: int = DEFAULT_N_COMPONENTS

    def __post_init__(self):
        for name, kind_types in _FIELD_TYPES.items():
            where = f"BenchmarkConfig field {name!r}"
            value = _typed(where, getattr(self, name), kind_types)
            if name in _ITEM_TYPES:
                value = tuple(_typed(f"{where} item {i}", item,
                                     _ITEM_TYPES[name])
                              for i, item in enumerate(value))
            object.__setattr__(self, name, value)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if any(b < 1 for b in self.n_beats_grid):
            raise ValueError("beat counts must be >= 1")
        if not self.tau_regimes:
            raise ValueError("at least one tau regime is required")
        if not self.estimators:
            raise ValueError("at least one estimator is required")
        if self.mog_components < 1:
            raise ValueError("mog_components must be >= 1")
        # omega is never jittered, so every beat shares the default period
        check_window(self.d, self.r_offset, self.fs, DEFAULT_PARAMS.period)
        for what, keys in (
                ("estimators share report name(s)",
                 [spec.name for spec in self.estimators]),
                ("repeated tau regime(s)",
                 [regime.label for regime in self.tau_regimes]),
                ("repeated beat count(s)", list(self.n_beats_grid))):
            repeats = sorted({k for k in keys if keys.count(k) > 1})
            if repeats:
                raise ValueError(
                    f"{what} {repeats}; report entries are keyed by name "
                    f"and cells by tau label and B, so one would be dropped")

    def to_dict(self) -> dict:
        """The fields as JSON holds them: lists for tuples, ``kind:noise``
        text for estimators, nested objects through their ``to_dict``."""
        def plain(value):
            if isinstance(value, tuple):
                return [plain(item) for item in value]
            if isinstance(value, EstimatorSpec):
                return f"{value.kind}:{value.noise}"
            return value.to_dict() if hasattr(value, "to_dict") else value
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    def noise_covariance(self) -> CovarianceMatrix:
        """The true noise covariance K: the Matern K of ``d``, ``fs``,
        ``lengthscale`` and ``smoothness``."""
        return matern_covariance(self.d, self.fs, self.lengthscale,
                                 self.smoothness)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkConfig":
        """The config that :meth:`to_dict` (or a JSON config file) gives;
        an unknown key or a missing seed raises ValueError, as does any
        value the constructor refuses."""
        return cls(**_known_keys(cls, data))


@dataclass(frozen=True)
class BenchmarkReport:
    """Per-cell, per-estimator error table plus run metadata."""

    config: dict
    cells: tuple
    meta: dict

    def body(self) -> dict:
        """The deterministic portion (everything but wall-clock metadata)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "mse_convention": "summed",
            "config": self.config,
            "cells": list(self.cells),
        }

    def to_dict(self) -> dict:
        document = self.body()
        document["meta"] = self.meta
        return document

    def cell(self, tau_label: str, n_beats: int) -> dict:
        for cell in self.cells:
            if cell["tau_label"] == tau_label and cell["n_beats"] == n_beats:
                return cell
        raise KeyError(f"no cell {tau_label!r} with B={n_beats}")

    def result(self, tau_label: str, n_beats: int, estimator: str) -> dict:
        return self.cell(tau_label, n_beats)["estimators"][estimator]


def simulate_population(config: BenchmarkConfig, seed) -> np.ndarray:
    """The shared ground-truth beats (one jittered parameter set per row)."""
    base = DEFAULT_PARAMS.scaled(config.amplitude_gain)
    population = jitter_population(base, config.jitter_fraction,
                                   config.n_samples, seed)
    return extract_canonical_beats(population, config.fs, config.d,
                                   config.r_offset)


#: Block boundaries of :func:`simulate_cell_beats` fall on multiples of
#: this many rows, a multiple of 4, 8, 12, 16 and 24. A GEMM computes its
#: rows in tiles of a few rows (12 in the OpenBLAS 0.3.31 dgemm measured on
#: an AVX-512 CPU), the rows past the last whole tile by other code, and a
#: call of very few rows by other code again (GEMV for one row). So a block
#: that starts on a tile boundary and holds hundreds of rows computes each
#: row as one product of all the rows would: bit for bit at one BLAS thread.
GEMM_ROW_ALIGN = 48


def simulate_cell_beats(thetas: np.ndarray, K: CovarianceMatrix,
                        taus: np.ndarray, n_beats: int, seed) -> np.ndarray:
    """The package's one noise sampler: (N, B, d) beats, row i ``thetas[i]``
    plus ``n_beats`` draws from N(0, K / taus[i]^2).

    The result is allocated once. Its N B rows are coloured in the fewest
    blocks of about ``RESIDUAL_BLOCK_ROWS`` rows, split at multiples of
    ``GEMM_ROW_ALIGN``: each block's standard normals are drawn into one
    reused buffer and multiplied by K^{1/2} into the block's rows. So
    besides the result only one block of draws is alive. The draws are the
    stream of one (N B, d) draw and, at one BLAS thread, the rows equal
    that draw times K^{1/2} bit for bit. The rows are then scaled and
    shifted in place.
    """
    if n_beats < 1:
        raise ValueError(f"n_beats must be at least 1, not {n_beats}")
    if not np.all(np.isfinite(taus) & (taus > 0)):
        raise ValueError("tau must be finite and strictly positive")
    n, d = thetas.shape
    rng = np.random.default_rng(seed)
    beats = np.empty((n, n_beats, d))
    rows = beats.reshape(n * n_beats, d)
    n_blocks = max(1, math.ceil(len(rows) / RESIDUAL_BLOCK_ROWS))
    bounds = [GEMM_ROW_ALIGN * (k * len(rows) // (GEMM_ROW_ALIGN * n_blocks))
              for k in range(n_blocks)] + [len(rows)]
    z = np.empty((max(np.diff(bounds)), d))
    for start, stop in zip(bounds, bounds[1:]):
        draws = z[:stop - start]
        rng.standard_normal(out=draws)
        np.matmul(draws, K.sqrt, out=rows[start:stop])
    beats /= taus[:, None, None]
    beats += thetas[:, None, :]
    return beats


def grid_seeds(config: BenchmarkConfig):
    """The population's seed and the (tau regime, beat count, seeds) of
    each cell in ``config`` order: the root seed spawns one stream for the
    population, then one per cell, which spawns the cell's (tau, noise,
    fit) ``seeds``. Only this function spawns, as a second ``spawn`` on one
    ``SeedSequence`` gives other children."""
    cells = list(itertools.product(config.tau_regimes, config.n_beats_grid))
    root = np.random.SeedSequence(config.seed)
    population_seed, *cell_seeds = root.spawn(1 + len(cells))
    seeds = [s.spawn(3) for s in cell_seeds]
    return population_seed, [(*c, s) for c, s in zip(cells, seeds)]


def draw_cell(thetas, K, regime: TauRegime, n_beats: int, seeds):
    """A cell's noisy beats (N, B, d), their true taus and its fit seed."""
    tau_seed, noise_seed, fit_seed = seeds
    taus = regime.draw(len(thetas), np.random.default_rng(tau_seed))
    beats = simulate_cell_beats(thetas, K, taus, n_beats, noise_seed)
    return beats, taus, fit_seed


def make_samples(beats: np.ndarray, thetas=None, taus=None) -> list:
    """Wrap a beats array (N, B, d) into EcgSample objects, ids s00000...;
    sample i carries row i of ``thetas`` (N, d) and ``taus`` (N,) where
    they are given."""
    n = beats.shape[0]
    width = max(5, len(str(n - 1)))
    return [EcgSample(f"s{i:0{width}d}", beats[i],
                      None if thetas is None else ThetaBeat(thetas[i]),
                      None if taus is None else taus[i])
            for i in range(n)]


def denoise(spec: EstimatorSpec, means, n_beats, *, truth, estimate, thetas,
            latent_dim: LatentDimRule, n_components: int, fit_seed,
            fa_fits: dict | None = None):
    """Estimates (N, d) of the clean beats plus a dict of diagnostics.

    ``means`` holds each sample's beat mean and ``n_beats`` its beat count.
    ``truth`` and ``estimate`` are ``(K, taus)`` pairs, or None when that
    noise knowledge is not available; ``thetas`` are the ground-truth
    beats (the oracle's atoms) or None. ``mle`` needs none of them. A
    ``:truth`` spec without ``truth``, an ``:estimated`` one without
    ``estimate`` and ``oracle_bayes`` without ``thetas`` are refused.
    With ``thetas``, the dict also holds the estimates' error (``_scored``).

    ``mog_fa`` extends the factor-analysis fit that ``fa`` uses. Calls
    that pass the same ``fa_fits`` dict (one per set of means) share it:
    the first fit per noise mode and latent dimension is kept there, and
    so is its error, which every later call that needs the fit raises.
    """
    extra = {}
    if spec.kind == "mle":
        return _scored(means.copy(), extra, thetas)
    if spec.needs_estimation:
        if estimate is None:
            raise InsufficientReplicatesError(
                "estimated noise mode needs B >= 2 beats per sample"
            )
        K, taus = estimate
    elif truth is None:
        hint = "" if spec.kind == "oracle_bayes" else \
            f"; use {spec.kind}:estimated"
        raise EcgDenoiseError(
            f"{spec.name} needs the true noise (K, taus){hint}")
    else:
        K, taus = truth
    if spec.kind == "oracle_bayes":
        if thetas is None:
            raise EcgDenoiseError("oracle_bayes needs the ground-truth beats")
        estimates, idx = oracle_bayes_batch(means, thetas, K)
        extra["atom_accuracy"] = float(np.mean(idx == np.arange(len(means))))
        return _scored(estimates, extra, thetas)
    whitened = None
    if latent_dim.mode == "scree":
        whitened = whiten(K, means, means.mean(axis=0))
    p = latent_dim.choose(means.shape, whitened)
    extra["latent_dim"] = p
    key = (spec.noise, p)
    if fa_fits is None:
        fa_fits = {}
    if key not in fa_fits:
        try:
            fa_fits[key] = fit_factor_analysis(means, K, taus, p,
                                               n_beats=n_beats)
        except _ENTRY_ERRORS as exc:
            fa_fits[key] = exc
    if isinstance(fa_fits[key], Exception):
        raise fa_fits[key]
    if spec.kind == "fa":
        model = fa_fits[key]
        extra.update(_fit_facts(model))
        return _scored(fa_posterior_mean_batch(model, means, K, taus,
                                               n_beats), extra, thetas)
    model = fit_mog_fa(fa_fits[key], means, K, taus,
                       n_components=min(n_components, len(means)),
                       n_beats=n_beats, rng_seed=fit_seed)
    extra.update(_fit_facts(model.fa))
    extra["n_components"] = int(model.n_components)
    extra.update(_mixture_facts(model.mixture_fit))
    return _scored(mog_fa_posterior_mean_batch(model, means, K, taus,
                                               n_beats), extra, thetas)


def _scored(estimates, extra: dict, thetas):
    """``(estimates, extra)`` with, where there are ``thetas``, the error
    fields of a report entry added to ``extra``: ``mse`` in the summed
    convention, its standard error ``se`` and ``mse_per_coordinate``.
    Errors that are not finite float64 values are refused."""
    if thetas is not None:
        n, d = thetas.shape
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            errors = np.sum((estimates - thetas) ** 2, axis=1)
            mse = float(errors.mean())
            se = float(errors.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        if not (math.isfinite(mse) and math.isfinite(se)):
            raise FloatRangeError("the estimates' squared errors overflow "
                                  "float64")
        extra.update(mse=mse, se=se, mse_per_coordinate=mse / d)
    return estimates, extra


#: What a failing estimator raises; the grid marks its entry failed.
_ENTRY_ERRORS = (EcgDenoiseError, ValueError, np.linalg.LinAlgError)


def _fit_facts(model) -> dict:
    """How the loadings fit stopped: converged, the number of points it
    kept and the log-likelihood at the last of them."""
    return {"converged": bool(model.converged), "n_iter": model.n_iter,
            "loglik": float(model.loglik_trace[-1])}


def _mixture_facts(mixture) -> dict:
    """How the latent mixture fit went: whether the kept restart converged,
    the best and worst restart log-likelihood and the re-seeds of empty
    components over all restarts."""
    return {"gmm_converged": bool(mixture.converged),
            "gmm_loglik_best": float(mixture.loglik),
            "gmm_loglik_worst": float(mixture.restart_logliks.min()),
            "gmm_reseeds": int(mixture.reseeds)}


class _Clock:
    """Seconds since the previous lap (or since the clock started)."""

    def __init__(self):
        self._last = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        return elapsed


#: Environment variables that set how many threads a BLAS call may use.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _cell_workers(n_cells: int) -> int:
    """How many processes run the grid's cells: one per ``blas_threads``
    CPUs this process may use, at most one per cell and at least one.

    ``blas_threads`` is the largest positive integer among the BLAS
    thread variables that are set, or the CPU count when none is, as
    that is OpenBLAS's default: workers that each run a BLAS call on
    every CPU only contend. The cells run here, one after another, where
    ``fork`` is not available (spawned workers would re-run the caller's
    ``__main__``).
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    counts = []
    for var in _BLAS_THREAD_VARS:
        try:
            counts.append(int(os.environ.get(var, "")))
        except ValueError:
            pass
    blas_threads = max((c for c in counts if c > 0), default=cpus)
    return max(1, min(n_cells, cpus // blas_threads))


def _run_cell(config: BenchmarkConfig, thetas, K, regime, n_beats, seeds):
    """One grid cell: its noise draw, noise estimate and entries.

    Returns the report's cell and its timings, from a clock of its own,
    so that a cell gives the same result in a worker process as here.
    """
    clock = _Clock()
    beats, taus, fit_seed = draw_cell(thetas, K, regime, n_beats, seeds)
    means = beats.mean(axis=1)
    cell_timings = {"tau_label": regime.label, "n_beats": n_beats,
                    "sampling_s": clock.lap()}

    estimate = None
    if any(spec.needs_estimation for spec in config.estimators) \
            and n_beats >= 2:
        try:
            estimate = estimate_noise(beats)
        except _ENTRY_ERRORS as exc:  # raised by each :estimated entry
            estimate = exc
    cell_timings["noise_s"] = clock.lap()
    cell_timings["denoise_s"] = {}

    results = {}
    fa_fits = {}
    for spec in config.estimators:
        label = f"{regime.label}, B={n_beats}, {spec.name}"
        try:
            if spec.needs_estimation and isinstance(estimate, Exception):
                raise estimate
            _, extra = denoise(
                spec, means, n_beats, truth=(K, taus), estimate=estimate,
                thetas=thetas, latent_dim=config.latent_dim,
                n_components=config.mog_components, fit_seed=fit_seed,
                fa_fits=fa_fits,
            )
            results[spec.name] = {"status": "ok", **extra}
            log.info("%s: mse=%.4g", label, extra["mse"])
        except _ENTRY_ERRORS as exc:
            results[spec.name] = {
                "status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
            }
            log.warning("%s failed: %s", label, exc)
        cell_timings["denoise_s"][spec.name] = clock.lap()
    cell = {
        "tau_regime": regime.to_dict(),
        "tau_label": regime.label,
        "n_beats": n_beats,
        "n_samples": config.n_samples,
        "estimators": results,
    }
    return cell, cell_timings


#: The run a pooled worker serves, ``(config, thetas, K, cells)``. Only
#: ``_serve_run``, the pool's initializer, sets it, and only in a worker
#: process; the calling process keeps None.
_served_run = None


def _serve_run(*run):
    """Keep the run a forked worker inherited, for all of its cells: the
    population and K are never pickled, and K's factors are built once per
    worker."""
    global _served_run
    _served_run = run


def _run_served_cell(i: int):
    """``_run_cell`` for cell ``i`` of the run this worker serves."""
    config, thetas, K, cells = _served_run
    return _run_cell(config, thetas, K, *cells[i])


def _run_cells(config, thetas, K, cells: list, workers: int) -> list:
    """``_run_cell`` for each (regime, n_beats, seeds) of ``cells``,
    in that order.

    One worker runs the cells here, one after another. More run them in a
    pool of forked processes, which inherit the caller's modules as they
    are and the run itself, ``(config, thetas, K, cells)``, so a task
    names only a cell's index; the cells with the most beats, the
    slowest, go first. A worker that dies raises ``WorkerDiedError``
    naming the cells that did not finish.
    """
    if workers == 1:
        return [_run_cell(config, thetas, K, *cell) for cell in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    order = sorted(range(len(cells)), key=lambda i: cells[i][1],
                   reverse=True)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context,
                             initializer=_serve_run,
                             initargs=(config, thetas, K, cells)) as pool:
        futures = {i: pool.submit(_run_served_cell, i) for i in order}
        try:
            return [futures[i].result() for i in range(len(cells))]
        except BrokenProcessPool as exc:
            pool.shutdown()  # every future is settled once the pool is down
            unfinished = [f"{cells[i][0].label}, B={cells[i][1]}"
                          for i in range(len(cells))
                          if futures[i].exception() is not None]
            raise WorkerDiedError(
                f"a cell worker process died; cells not finished: "
                f"{'; '.join(unfinished)}") from exc
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_benchmark(config: BenchmarkConfig, out_path=None) -> BenchmarkReport:
    """Run the full grid; a failing estimator marks its cell entry failed.

    Deterministic given ``config.seed`` (cells use independently spawned
    seed streams keyed by position), whether the cells run here or in
    ``meta["workers"]`` worker processes (see ``_cell_workers``). Forked
    workers inherit the population, read-only for every cell, and K, whose
    factors each builds once; a worker that dies raises
    ``WorkerDiedError``. When ``out_path`` is given the report is also
    written there atomically.

    ``meta["timings"]`` says where the wall-clock time went: the
    population and K, the cell stage as a whole (``cells_s``), and per
    cell its noise sampling, its noise estimation and each entry's
    ``denoise`` and scoring. A factor-analysis fit that entries of a cell
    share counts toward the first of them. With more than one worker the
    cells overlap, so their times add up to more than ``cells_s``.
    """
    t_start = time.perf_counter()
    population_seed, cells = grid_seeds(config)

    log.info("simulating population of %d beats (d=%d, backend=%s)",
             config.n_samples, config.d, BACKEND)
    clock = _Clock()
    # K first, so a noise model it refuses costs no population
    K = config.noise_covariance()
    covariance_s = clock.lap()
    # read-only, so no cell can change what a later cell reads
    thetas = _readonly(simulate_population(config, population_seed))
    timings = {"population_s": clock.lap(), "covariance_s": covariance_s}

    workers = _cell_workers(len(cells))
    log.info("running %d cells on %d worker process(es)", len(cells), workers)
    done = _run_cells(config, thetas, K, cells, workers)
    timings["cells_s"] = clock.lap()
    timings["cells"] = [cell_timings for _, cell_timings in done]

    report = BenchmarkReport(
        config=config.to_dict(),
        cells=tuple(cell for cell, _ in done),
        meta={
            "wall_clock_s": time.perf_counter() - t_start,
            "workers": workers,
            "timings": timings,
            "library_version": __version__,
            "backend": BACKEND,
        },
    )
    if out_path is not None:
        save_json(out_path, report.to_dict())
    return report
