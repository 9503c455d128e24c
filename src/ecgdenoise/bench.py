"""Configuration-driven simulation benchmark.

For every (tau regime, beat count) cell the harness corrupts a shared
population of jittered canonical beats with structured noise, runs the
configured estimators (optionally against estimated rather than true noise
parameters), and aggregates squared reconstruction error per estimator.

Error is reported in the summed convention (squared error totaled over the
d coordinates, averaged over samples): the per-coordinate :func:`mse`
divides by d. Everything is deterministic given the config seed; cells
draw from independently spawned seed streams so results do not depend on
execution order.
"""
from __future__ import annotations

import itertools
import logging
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
    NoisePrecision,
    estimate_noise,
    matern_covariance,
    whiten,
)
from .serialize import SCHEMA_VERSION, _atomic_write, save_json
from .simulate import (
    BACKEND,
    DEFAULT_FS,
    DEFAULT_PARAMS,
    ThetaBeat,
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
#: regimes of interest (see the project README); the noise module's own
#: matern defaults (20 ms, nu = 3/2) describe a more strongly correlated
#: process used for the estimation-fidelity checks.
DEFAULT_NOISE_LENGTHSCALE = 5e-4
DEFAULT_NOISE_SMOOTHNESS = 0.5

#: Latent dimension used by the benchmark's factor models. The scree rule
#: stays available through the config; the fixed default matches the
#: effective dimensionality of the jittered-parameter population.
DEFAULT_LATENT_DIM = 7

ESTIMATOR_KINDS = ("mle", "oracle_bayes", "fa", "mog_fa")
NOISE_MODES = ("truth", "estimated")


def mse(estimate, truth) -> float:
    """Per-coordinate mean squared error between two equal-length vectors."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have equal length")
    return float(np.mean((estimate - truth) ** 2))


def sum_squared_error(estimate, truth) -> float:
    """Squared error summed over coordinates (the reported convention)."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have equal length")
    return float(np.sum((estimate - truth) ** 2))


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
            if self.value is None or not self.value > 0:
                raise ValueError("fixed regime needs a positive value")
        elif self.kind == "uniform":
            if self.lo is None or self.hi is None or not 0 < self.lo < self.hi:
                raise ValueError("uniform regime needs 0 < lo < hi")
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
        if self.mode == "fixed" and int(self.value) < 1:
            raise ValueError("fixed latent dimension must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "LatentDimRule":
        text = str(text).strip()
        if text.startswith("scree"):
            _, _, cutoff = text.partition(":")
            return cls("scree", float(cutoff) if cutoff else DEFAULT_SLOPE_CUTOFF)
        return cls("fixed", int(text))

    def choose(self, whitened_means: np.ndarray) -> int:
        if self.mode == "fixed":
            return int(self.value)
        cov = np.cov(whitened_means.T, ddof=1)
        eigs = np.linalg.eigvalsh(np.atleast_2d(cov))[::-1]
        eigs = np.maximum(eigs, 0.0)
        p = select_latent_dim(eigs, slope_cutoff=self.value)
        return min(p, whitened_means.shape[1], whitened_means.shape[0] - 1)

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
        data = dict(_known_keys(cls, data))
        if "tau_regimes" in data:
            data["tau_regimes"] = tuple(
                TauRegime.from_dict(r) if isinstance(r, dict)
                else TauRegime.parse(r)
                for r in data["tau_regimes"]
            )
        if "n_beats_grid" in data:
            data["n_beats_grid"] = tuple(int(b) for b in data["n_beats_grid"])
        if "estimators" in data:
            data["estimators"] = tuple(
                EstimatorSpec.parse(e) if isinstance(e, str)
                else EstimatorSpec(**_known_keys(EstimatorSpec, e))
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


def make_samples(beats: np.ndarray, thetas=None, taus=None, fs=DEFAULT_FS,
                 r_offset=None) -> list:
    """Wrap a beats array (N, B, d) into EcgSample objects."""
    n = beats.shape[0]
    width = max(5, len(str(n - 1)))
    samples = []
    for i in range(n):
        theta = None
        if thetas is not None:
            r_idx = int(np.argmax(thetas[i])) if r_offset is None else int(r_offset)
            theta = ThetaBeat(values=thetas[i], r_index=r_idx, fs=fs)
        tau = NoisePrecision(float(taus[i])) if taus is not None else None
        samples.append(EcgSample(sample_id=f"s{i:0{width}d}", beats=beats[i],
                                 theta=theta, tau=tau))
    return samples


def _run_estimator(spec: EstimatorSpec, config: BenchmarkConfig, *,
                   means, thetas, K, taus_true, n_beats, k_hat, taus_hat,
                   fit_seed):
    """Estimates (N, d) plus a dict of extra diagnostics for the report."""
    extra = {}
    if spec.kind == "mle":
        return means.copy(), extra
    if spec.needs_estimation:
        if k_hat is None:
            raise InsufficientReplicatesError(
                "estimated noise mode needs B >= 2 beats per sample"
            )
        k_used, taus_used = k_hat, taus_hat
    else:
        k_used, taus_used = K, taus_true
    if spec.kind == "oracle_bayes":
        estimates, idx = oracle_bayes_batch(means, thetas, k_used)
        extra["atom_accuracy"] = float(np.mean(idx == np.arange(len(means))))
        return estimates, extra
    whitened = whiten(k_used, means, means.mean(axis=0))
    p = config.latent_dim.choose(whitened)
    extra["latent_dim"] = p
    if spec.kind == "fa":
        model = fit_factor_analysis(means, k_used, taus_used, p,
                                    n_beats=n_beats)
        extra["converged"] = bool(model.converged)
        return fa_posterior_mean_batch(model, means, k_used, taus_used,
                                       n_beats), extra
    model = fit_mog_fa(means, k_used, taus_used, p,
                       n_components=min(config.mog_components, len(means)),
                       n_beats=n_beats, rng_seed=fit_seed)
    extra["converged"] = bool(model.fa.converged)
    extra["n_components"] = int(model.n_components)
    return mog_fa_posterior_mean_batch(model, means, k_used, taus_used,
                                       n_beats), extra


def run_benchmark(config: BenchmarkConfig, out_path=None) -> BenchmarkReport:
    """Run the full grid; a failing estimator marks its cell entry failed.

    Deterministic given ``config.seed`` (cells use independently spawned
    seed streams keyed by position). When ``out_path`` is given the report
    is also written there atomically.
    """
    t_start = time.perf_counter()
    cells_spec = list(itertools.product(config.tau_regimes,
                                        config.n_beats_grid))
    root = np.random.SeedSequence(config.seed)
    population_seed, *cell_seeds = root.spawn(1 + len(cells_spec))

    log.info("simulating population of %d beats (d=%d, backend=%s)",
             config.n_samples, config.d, BACKEND)
    thetas = simulate_population(config, population_seed)
    K = matern_covariance(config.d, config.fs, config.lengthscale,
                          config.smoothness)

    cells = []
    for (regime, n_beats), cell_seed in zip(cells_spec, cell_seeds):
        tau_seed, noise_seed, fit_seed = cell_seed.spawn(3)
        taus = regime.draw(config.n_samples, np.random.default_rng(tau_seed))
        beats = simulate_cell_beats(thetas, K, taus, n_beats, noise_seed)
        means = beats.mean(axis=1)

        k_hat = taus_hat = None
        if any(spec.needs_estimation for spec in config.estimators) \
                and n_beats >= 2:
            k_hat, taus_hat = estimate_noise(beats)

        results = {}
        for spec in config.estimators:
            label = f"{regime.label}, B={n_beats}, {spec.name}"
            try:
                estimates, extra = _run_estimator(
                    spec, config, means=means, thetas=thetas, K=K,
                    taus_true=taus, n_beats=n_beats, k_hat=k_hat,
                    taus_hat=taus_hat, fit_seed=fit_seed,
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
            except (EcgDenoiseError, ValueError, np.linalg.LinAlgError) as exc:
                results[spec.name] = {
                    "status": "failed",
                    "error": f"{type(exc).__name__}: {exc}",
                }
                log.warning("%s failed: %s", label, exc)
        cells.append({
            "tau_regime": regime.to_dict(),
            "tau_label": regime.label,
            "n_beats": n_beats,
            "n_samples": config.n_samples,
            "estimators": results,
        })

    report = BenchmarkReport(
        config=config.to_dict(),
        cells=tuple(cells),
        meta={
            "wall_clock_s": time.perf_counter() - t_start,
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
    reconstruction vector), ``tau-hist`` and ``beat-count-hist`` (a sample
    collection or array), ``mse-table`` (a BenchmarkReport).
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


def _collect_taus(obj) -> np.ndarray:
    if isinstance(obj, EcgSample):
        obj = [obj]
    taus = []
    for item in obj:
        if isinstance(item, EcgSample):
            if item.tau is None:
                continue
            taus.append(float(item.tau))
        else:
            taus.append(float(item))
    if not taus:
        raise EmptyInputError("no tau values available")
    return np.asarray(taus)


def _collect_beat_counts(obj) -> np.ndarray:
    counts = [s.n_beats for s in obj if isinstance(s, EcgSample)]
    if not counts:
        raise EmptyInputError("no samples available")
    return np.asarray(counts)
