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
import numbers
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import EcgDenoiseError, EmptyInputError, InsufficientReplicatesError
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
    CovarianceMatrix,
    EcgSample,
    estimate_noise,
    matern_covariance,
    whiten,
)
from .serialize import SCHEMA_VERSION, _atomic_write, save_json
from .simulate import (
    BACKEND,
    DEFAULT_FS,
    DEFAULT_PARAMS,
    check_window,
    extract_canonical_beats,
    jitter_population,
)

log = logging.getLogger("ecgdenoise")

DEFAULT_D = 493
DEFAULT_R_OFFSET = 164

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
    """``data`` unchanged, or a ValueError naming keys ``cls`` lacks."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {unknown}")
    return data


@dataclass(frozen=True)
class TauRegime:
    """Noise precision regime: a fixed value or Uniform(lo, hi)."""

    kind: str
    value: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
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
        return cls(kind="fixed", value=float(value))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "TauRegime":
        return cls(kind="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def parse(cls, text: str) -> "TauRegime":
        text = str(text).strip()
        if text.startswith("uniform:"):
            lo, hi = text.split(":", 1)[1].split(",")
            return cls.uniform(float(lo), float(hi))
        return cls.fixed(float(text))

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
    """Latent dimension policy: a fixed p or the scree slope cutoff."""

    mode: str = "scree"
    value: float = DEFAULT_SLOPE_CUTOFF

    def __post_init__(self):
        if self.mode not in ("scree", "fixed"):
            raise ValueError(f"unknown latent-dim mode {self.mode!r}")
        if self.mode == "fixed":
            if isinstance(self.value, (bool, np.bool_)) \
                    or not float(self.value).is_integer():
                raise ValueError(f"fixed latent dimension must be an "
                                 f"integer, not {self.value!r}")
            if int(self.value) < 1:
                raise ValueError("fixed latent dimension must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "LatentDimRule":
        text = str(text).strip()
        if text.startswith("scree"):
            _, _, cutoff = text.partition(":")
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

    @classmethod
    def from_dict(cls, data: dict) -> "LatentDimRule":
        return cls(**_known_keys(cls, data))


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


_INTEGER = ("an integer", numbers.Integral)
_NUMBER = ("a number", numbers.Real)
_LIST = ("a list", (list, tuple))

#: What :meth:`BenchmarkConfig.from_dict` accepts for each field.
_FIELD_TYPES = {
    "seed": _INTEGER, "n_samples": _INTEGER, "d": _INTEGER,
    "r_offset": _INTEGER, "mog_components": _INTEGER,
    "fs": _NUMBER, "jitter_fraction": _NUMBER, "amplitude_gain": _NUMBER,
    "lengthscale": _NUMBER, "smoothness": _NUMBER,
    "n_beats_grid": _LIST, "tau_regimes": _LIST, "estimators": _LIST,
    "latent_dim": ("an object", (dict, LatentDimRule)),
}

#: What it accepts inside them: each item of a list, each key of an object.
_ITEM_TYPES = {"n_beats_grid": _INTEGER}
_KEY_TYPES = {
    "tau_regimes": {"value": _NUMBER, "lo": _NUMBER, "hi": _NUMBER},
    "latent_dim": {"value": _NUMBER},
}


def _check_type(where: str, value, kind_types) -> None:
    kind, types = kind_types
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{where} must be {kind}, not {value!r}")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Everything a benchmark run depends on; the seed is mandatory."""

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
        if self.seed is None:
            raise ValueError("a seed is mandatory (reproducibility)")
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
        names = [spec.name for spec in self.estimators]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(
                f"estimators share report name(s) {duplicates}; each "
                f"report entry is keyed by name, so one would be dropped"
            )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_samples": self.n_samples,
            "n_beats_grid": list(self.n_beats_grid),
            "tau_regimes": [r.to_dict() for r in self.tau_regimes],
            "d": self.d,
            "fs": self.fs,
            "r_offset": self.r_offset,
            "jitter_fraction": self.jitter_fraction,
            "amplitude_gain": self.amplitude_gain,
            "lengthscale": self.lengthscale,
            "smoothness": self.smoothness,
            "estimators": [f"{e.kind}:{e.noise}" for e in self.estimators],
            "latent_dim": self.latent_dim.to_dict(),
            "mog_components": self.mog_components,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchmarkConfig":
        """The config that :meth:`to_dict` (or a JSON config file) gives;
        an unknown key or a field of the wrong type raises ValueError."""
        data = dict(_known_keys(cls, data))
        for name, value in data.items():
            where = f"BenchmarkConfig field {name!r}"
            _check_type(where, value, _FIELD_TYPES[name])
            items = [(where, value)]
            if isinstance(value, (list, tuple)):
                items = [(f"{where} item {i}", v) for i, v in enumerate(value)]
            for at, item in items:
                if name in _ITEM_TYPES:
                    _check_type(at, item, _ITEM_TYPES[name])
                if isinstance(item, dict):
                    for key, kind_types in _KEY_TYPES.get(name, {}).items():
                        if item.get(key) is not None:
                            _check_type(f"{at} key {key!r}", item[key],
                                        kind_types)
        if "tau_regimes" in data:
            data["tau_regimes"] = tuple(
                TauRegime.from_dict(r) if isinstance(r, dict)
                else TauRegime.parse(r)
                for r in data["tau_regimes"]
            )
        if "n_beats_grid" in data:
            data["n_beats_grid"] = tuple(data["n_beats_grid"])
        if "estimators" in data:
            data["estimators"] = tuple(
                EstimatorSpec(**_known_keys(EstimatorSpec, e))
                if isinstance(e, dict) else EstimatorSpec.parse(e)
                for e in data["estimators"]
            )
        if "latent_dim" in data and isinstance(data["latent_dim"], dict):
            data["latent_dim"] = LatentDimRule.from_dict(data["latent_dim"])
        return cls(**data)


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


def simulate_cell_beats(thetas: np.ndarray, K: CovarianceMatrix,
                        taus: np.ndarray, n_beats: int, seed) -> np.ndarray:
    """Corrupt each row of ``thetas`` with ``n_beats`` structured-noise beats.

    The draws are coloured into one new buffer and then scaled and shifted
    in place, so at most two (N, B, d) arrays are alive at once.
    """
    n, d = thetas.shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n * n_beats, d))
    beats = (z @ K.sqrt).reshape(n, n_beats, d)
    del z
    beats /= taus[:, None, None]
    beats += thetas[:, None, :]
    return beats


def make_samples(beats: np.ndarray) -> list:
    """Wrap a beats array (N, B, d) into EcgSample objects, ids s00000...,
    without ground truth (``save_dataset`` takes that as arrays)."""
    n = beats.shape[0]
    width = max(5, len(str(n - 1)))
    return [EcgSample(f"s{i:0{width}d}", beats[i]) for i in range(n)]


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

    ``fa`` and stage 1 of ``mog_fa`` are one factor-analysis fit. Calls
    that pass the same ``fa_fits`` dict (one per set of means) share it:
    the first fit per noise mode and latent dimension is kept there, and
    so is its error, which every later call that needs the fit raises.
    """
    extra = {}
    if spec.kind == "mle":
        return means.copy(), extra
    if spec.needs_estimation:
        if estimate is None:
            raise InsufficientReplicatesError(
                "estimated noise mode needs B >= 2 beats per sample"
            )
        K, taus = estimate
    elif truth is None:
        raise EcgDenoiseError(f"{spec.name} needs the true noise (K, taus); "
                              f"use {spec.kind}:estimated")
    else:
        K, taus = truth
    if spec.kind == "oracle_bayes":
        if thetas is None:
            raise EcgDenoiseError("oracle_bayes needs the ground-truth beats")
        estimates, idx = oracle_bayes_batch(means, thetas, K)
        extra["atom_accuracy"] = float(np.mean(idx == np.arange(len(means))))
        return estimates, extra
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
        return fa_posterior_mean_batch(model, means, K, taus, n_beats), extra
    model = fit_mog_fa(means, K, taus, p,
                       n_components=min(n_components, len(means)),
                       n_beats=n_beats, rng_seed=fit_seed,
                       stage1=fa_fits[key])
    extra.update(_fit_facts(model.fa))
    extra["n_components"] = int(model.n_components)
    extra.update(_mixture_facts(model.mixture_fit))
    return mog_fa_posterior_mean_batch(model, means, K, taus, n_beats), extra


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


def _run_cell(config: BenchmarkConfig, thetas, K, regime, n_beats,
              cell_seed):
    """One grid cell: its noise draw, noise estimate and entries.

    Returns the report's cell and its timings, from a clock of its own,
    so that a cell gives the same result in a worker process as here.
    """
    clock = _Clock()
    tau_seed, noise_seed, fit_seed = cell_seed.spawn(3)
    taus = regime.draw(config.n_samples, np.random.default_rng(tau_seed))
    beats = simulate_cell_beats(thetas, K, taus, n_beats, noise_seed)
    means = beats.mean(axis=1)
    cell_timings = {"tau_label": regime.label, "n_beats": n_beats,
                    "sampling_s": clock.lap()}

    estimate = None
    if any(spec.needs_estimation for spec in config.estimators) \
            and n_beats >= 2:
        estimate = estimate_noise(beats)
    cell_timings["noise_s"] = clock.lap()
    cell_timings["denoise_s"] = {}

    results = {}
    fa_fits = {}
    for spec in config.estimators:
        label = f"{regime.label}, B={n_beats}, {spec.name}"
        try:
            estimates, extra = denoise(
                spec, means, n_beats, truth=(K, taus), estimate=estimate,
                thetas=thetas, latent_dim=config.latent_dim,
                n_components=config.mog_components, fit_seed=fit_seed,
                fa_fits=fa_fits,
            )
            errors = np.sum((estimates - thetas) ** 2, axis=1)
            results[spec.name] = {
                "status": "ok",
                "mse": float(errors.mean()),
                "se": float(errors.std(ddof=1)
                            / np.sqrt(len(errors))) if len(errors) > 1
                else 0.0,
                "mse_per_coordinate": float(errors.mean() / config.d),
                **extra,
            }
            log.info("%s: mse=%.4g", label, errors.mean())
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


def _run_cells(config, thetas, K, cells: list, workers: int) -> list:
    """``_run_cell`` for each (regime, n_beats, cell_seed) of ``cells``,
    in that order.

    One worker runs the cells here, one after another. More run them in a
    pool of forked processes, which inherit the caller's modules as they
    are; the cells with the most beats, the slowest, go first.
    """
    if workers == 1:
        return [_run_cell(config, thetas, K, *cell) for cell in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(cells)), key=lambda i: cells[i][1],
                   reverse=True)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = {i: pool.submit(_run_cell, config, thetas, K, *cells[i])
                   for i in order}
        try:
            return [futures[i].result() for i in range(len(cells))]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_benchmark(config: BenchmarkConfig, out_path=None) -> BenchmarkReport:
    """Run the full grid; a failing estimator marks its cell entry failed.

    Deterministic given ``config.seed`` (cells use independently spawned
    seed streams keyed by position), whether the cells run here or in
    ``meta["workers"]`` worker processes (see ``_cell_workers``). When
    ``out_path`` is given the report is also written there atomically.

    ``meta["timings"]`` says where the wall-clock time went: the
    population and K, the cell stage as a whole (``cells_s``), and per
    cell its noise sampling, its noise estimation and each entry's
    ``denoise`` and scoring. A factor-analysis fit that entries of a cell
    share counts toward the first of them. With more than one worker the
    cells overlap, so their times add up to more than ``cells_s``.
    """
    t_start = time.perf_counter()
    cells_spec = list(itertools.product(config.tau_regimes,
                                        config.n_beats_grid))
    root = np.random.SeedSequence(config.seed)
    population_seed, *cell_seeds = root.spawn(1 + len(cells_spec))

    log.info("simulating population of %d beats (d=%d, backend=%s)",
             config.n_samples, config.d, BACKEND)
    clock = _Clock()
    thetas = simulate_population(config, population_seed)
    timings = {"population_s": clock.lap()}
    K = matern_covariance(config.d, config.fs, config.lengthscale,
                          config.smoothness)
    timings["covariance_s"] = clock.lap()

    workers = _cell_workers(len(cells_spec))
    log.info("running %d cells on %d worker process(es)", len(cells_spec),
             workers)
    cells = [(regime, n_beats, cell_seed)
             for (regime, n_beats), cell_seed in zip(cells_spec, cell_seeds)]
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


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def _write_series_csv(path, rows) -> None:
    lines = ["series,x,y"]
    lines += [f"{series},{x:.17g},{y:.17g}" for series, x, y in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_plot_data(obj, kind: str, path, reconstruction=None,
                   bins: int = 20) -> None:
    """Write long-format (series, x, y) CSV for external plotting.

    Kinds: ``beats-overlay`` (an EcgSample, optionally with a
    reconstruction vector), ``tau-hist`` and ``beat-count-hist`` (a list
    of EcgSample), ``mse-table`` (a BenchmarkReport).
    """
    rows = []
    if kind == "beats-overlay":
        if not isinstance(obj, EcgSample):
            raise ValueError("beats-overlay needs an EcgSample")
        for b, beat in enumerate(obj.beats):
            rows += [(f"beat_{b:02d}", float(j), float(v))
                     for j, v in enumerate(beat)]
        if reconstruction is not None:
            rows += [("reconstruction", float(j), float(v))
                     for j, v in enumerate(np.asarray(reconstruction))]
    elif kind == "tau-hist":
        taus = _collect_taus(obj)
        counts, edges = np.histogram(taus, bins=bins)
        rows += [("tau_count", float(0.5 * (edges[i] + edges[i + 1])),
                  float(c)) for i, c in enumerate(counts)]
        rows += [("tau_bin_edge", float(i), float(e))
                 for i, e in enumerate(edges)]
    elif kind == "beat-count-hist":
        counts = _collect_beat_counts(obj)
        values, freq = np.unique(counts, return_counts=True)
        rows += [("beat_count", float(v), float(c))
                 for v, c in zip(values, freq)]
    elif kind == "mse-table":
        if not isinstance(obj, BenchmarkReport):
            raise ValueError("mse-table needs a BenchmarkReport")
        if not obj.cells:
            raise EmptyInputError("report has no cells")
        for cell in obj.cells:
            regime = TauRegime.from_dict(cell["tau_regime"])
            x = regime.value if regime.kind == "fixed" \
                else 0.5 * (regime.lo + regime.hi)
            for name, result in cell["estimators"].items():
                if result["status"] == "ok":
                    rows.append((f"{name}|B={cell['n_beats']}", float(x),
                                 float(result["mse"])))
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    if not rows:
        raise EmptyInputError(f"nothing to write for kind {kind!r}")
    _write_series_csv(path, rows)


def _collect_taus(samples) -> np.ndarray:
    taus = [s.tau for s in samples if s.tau is not None]
    if not taus:
        raise EmptyInputError("no tau values available")
    return np.asarray(taus)


def _collect_beat_counts(obj) -> np.ndarray:
    counts = [s.n_beats for s in obj if isinstance(s, EcgSample)]
    if not counts:
        raise EmptyInputError("no samples available")
    return np.asarray(counts)
