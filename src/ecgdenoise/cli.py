"""Command-line interface.

Subcommands: ``simulate`` (write a dataset), ``estimate-noise``,
``denoise``, ``benchmark`` and ``plot-data``. Progress goes to stderr;
machine-readable output goes to files or stdout. On failure a JSON error
document is printed to stdout and the exit code is nonzero.

ECGDENOISE_OUTPUT_DIR sets the default output directory.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    DEFAULT_AMPLITUDE_GAIN,
    DEFAULT_D,
    DEFAULT_FS,
    DEFAULT_JITTER,
    DEFAULT_LATENT_DIM,
    DEFAULT_N_COMPONENTS,
    DEFAULT_NOISE_LENGTHSCALE,
    DEFAULT_NOISE_SMOOTHNESS,
    DEFAULT_R_OFFSET,
    BenchmarkConfig,
    BenchmarkReport,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    denoise,
    emit_plot_data,
    make_samples,
    run_benchmark,
    simulate_cell_beats,
    simulate_population,
)
from .errors import EcgDenoiseError
# whiten and the estimators go unused: perfbench/tracing.py wraps them here.
from .estimators import (  # noqa: F401
    fa_posterior_mean_batch,
    fit_factor_analysis,
    fit_mog_fa,
    mog_fa_posterior_mean_batch,
    oracle_bayes_batch,
)
from .noise import estimate_noise, matern_covariance, whiten  # noqa: F401
from .serialize import load_dataset, load_json, save_dataset, save_matrix_csv

log = logging.getLogger("ecgdenoise")


def _output_dir() -> Path:
    return Path(os.environ.get("ECGDENOISE_OUTPUT_DIR", "."))


def _resolve_out(out, default_name: str) -> Path:
    if out is None:
        return _output_dir() / default_name
    out = Path(out)
    return out if out.is_absolute() else _output_dir() / out


def _emit(document: dict) -> None:
    json.dump(document, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _add_simulation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-samples", "-n", type=int, default=100,
                        help="number of recordings")
    parser.add_argument("--beats", "-B", type=int, default=20,
                        help="beats per recording")
    parser.add_argument("--tau", default="uniform:2,20",
                        help="noise precision: a number or 'uniform:LO,HI'")
    parser.add_argument("--d", type=int, default=DEFAULT_D)
    parser.add_argument("--fs", type=float, default=DEFAULT_FS)
    parser.add_argument("--r-offset", type=int, default=DEFAULT_R_OFFSET)
    parser.add_argument("--jitter", type=float, default=DEFAULT_JITTER)
    parser.add_argument("--gain", type=float, default=DEFAULT_AMPLITUDE_GAIN)
    parser.add_argument("--lengthscale", type=float,
                        default=DEFAULT_NOISE_LENGTHSCALE)
    parser.add_argument("--smoothness", type=float,
                        default=DEFAULT_NOISE_SMOOTHNESS)


def _simulation_config(args) -> BenchmarkConfig:
    return BenchmarkConfig(
        seed=args.seed,
        n_samples=args.n_samples,
        n_beats_grid=(args.beats,),
        tau_regimes=(TauRegime.parse(args.tau),),
        d=args.d,
        fs=args.fs,
        r_offset=args.r_offset,
        jitter_fraction=args.jitter,
        amplitude_gain=args.gain,
        lengthscale=args.lengthscale,
        smoothness=args.smoothness,
        estimators=(EstimatorSpec("mle"),),
    )


def _cmd_simulate(args) -> int:
    config = _simulation_config(args)
    regime = config.tau_regimes[0]
    root = np.random.SeedSequence(config.seed)
    population_seed, tau_seed, noise_seed = root.spawn(3)
    thetas = simulate_population(config, population_seed)
    K = matern_covariance(config.d, config.fs, config.lengthscale,
                          config.smoothness)
    taus = regime.draw(config.n_samples, np.random.default_rng(tau_seed))
    beats = simulate_cell_beats(thetas, K, taus, args.beats, noise_seed)
    samples = make_samples(beats)
    out = _resolve_out(args.out, f"dataset-seed{args.seed}")
    save_dataset(
        out, samples,
        manifest_extra={
            "n_beats": args.beats,
            "d": config.d,
            "seed": config.seed,
            "jitter_fraction": config.jitter_fraction,
            "amplitude_gain": config.amplitude_gain,
            "tau_regime": regime.to_dict(),
            "matern": {"lengthscale": config.lengthscale,
                       "smoothness": config.smoothness},
        },
        thetas=thetas, taus=taus, r_offset=config.r_offset, fs=config.fs,
    )
    log.info("wrote dataset to %s", out)
    _emit({"dataset": str(out), "n_samples": config.n_samples,
           "n_beats": args.beats, "d": config.d})
    return 0


def _dataset_truth(samples):
    """The true taus and thetas, each None unless every sample has it."""
    taus = thetas = None
    if all(s.tau is not None for s in samples):
        taus = np.array([s.tau for s in samples])
    if all(s.theta is not None for s in samples):
        thetas = np.stack([s.theta.values for s in samples])
    return taus, thetas


def _true_covariance(manifest, d: int):
    """The dataset's Matern K on ``d`` samples at the manifest's fs."""
    matern = manifest.get("matern") or {}
    return matern_covariance(
        d, manifest["fs"],
        matern.get("lengthscale", DEFAULT_NOISE_LENGTHSCALE),
        matern.get("smoothness", DEFAULT_NOISE_SMOOTHNESS),
    )


def _denoise_dataset(spec, samples, manifest, latent_dim: str,
                     n_components=DEFAULT_N_COMPONENTS, fit_seed=0):
    """``bench.denoise`` on a loaded dataset: (estimates, extra, thetas).

    Noise is estimated for an ``:estimated`` spec; otherwise the true K is
    built only when the dataset has true taus to pair it with.
    """
    means = np.stack([s.beat_mean for s in samples])
    n_beats = np.array([s.n_beats for s in samples], dtype=float)
    taus, thetas = _dataset_truth(samples)
    truth = estimate = None
    if spec.needs_estimation:
        estimate = estimate_noise(samples)
    elif taus is not None:
        truth = (_true_covariance(manifest, means.shape[1]), taus)
    estimates, extra = denoise(
        spec, means, n_beats, truth=truth, estimate=estimate, thetas=thetas,
        latent_dim=LatentDimRule.parse(latent_dim),
        n_components=n_components, fit_seed=fit_seed,
    )
    return estimates, extra, thetas


def _cmd_estimate_noise(args) -> int:
    samples, manifest = load_dataset(args.dataset)
    k_hat, tau_hat = estimate_noise(samples)
    out = _resolve_out(args.out, Path(args.dataset).name + "-noise")
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(out / "k_hat.csv", k_hat.matrix)
    save_matrix_csv(out / "tau_hat.csv", tau_hat[:, None],
                    [s.sample_id for s in samples])
    summary = {
        "k_hat": str(out / "k_hat.csv"),
        "tau_hat": str(out / "tau_hat.csv"),
        "trace": float(np.trace(k_hat.matrix)),
        "tau_hat_median": float(np.median(tau_hat)),
    }
    true_taus, _ = _dataset_truth(samples)
    if true_taus is not None:
        rel = np.abs(tau_hat - true_taus) / true_taus
        summary["tau_median_relative_error"] = float(np.median(rel))
    _emit(summary)
    return 0


def _cmd_denoise(args) -> int:
    samples, manifest = load_dataset(args.dataset)
    spec = EstimatorSpec.parse(args.estimator)
    estimates, extra, thetas = _denoise_dataset(
        spec, samples, manifest, args.latent_dim,
        n_components=args.components, fit_seed=args.seed,
    )
    out = _resolve_out(args.out, f"denoised-{spec.name}.csv")
    save_matrix_csv(out, estimates, [s.sample_id for s in samples])
    summary = {"estimates": str(out), "estimator": spec.name, **extra}
    if thetas is not None:
        errors = np.sum((estimates - thetas) ** 2, axis=1)
        summary["mse"] = float(errors.mean())
    _emit(summary)
    return 0


def _cmd_benchmark(args) -> int:
    overrides = {}
    if args.config:
        overrides = load_json(args.config)
    base = {
        "seed": args.seed,
        "n_samples": args.n_samples,
        "n_beats_grid": [int(b) for b in args.beats_grid.split(",")],
        "tau_regimes": [t.strip() for t in args.taus.split(";")],
        "d": args.d,
        "fs": args.fs,
        "r_offset": args.r_offset,
        "jitter_fraction": args.jitter,
        "amplitude_gain": args.gain,
        "lengthscale": args.lengthscale,
        "smoothness": args.smoothness,
        "latent_dim": LatentDimRule.parse(args.latent_dim).to_dict(),
        "mog_components": args.components,
    }
    if args.estimator:  # else BenchmarkConfig's default estimators apply
        base["estimators"] = args.estimator
    base.update(overrides)  # config file wins over flags
    if base.get("seed") is None:
        raise EcgDenoiseError("a seed is required (flag --seed or config)")
    config = BenchmarkConfig.from_dict(base)
    out = _resolve_out(args.out, f"benchmark-seed{config.seed}.json")
    report = run_benchmark(config, out_path=out)
    _emit({"report": str(out),
           "wall_clock_s": report.meta["wall_clock_s"],
           "cells": len(report.cells)})
    return 0


def _cmd_plot_data(args) -> int:
    out = _resolve_out(args.out, f"plot-{args.kind}.csv")
    if args.kind == "mse-table":
        if not args.report:
            raise EcgDenoiseError("mse-table needs --report")
        document = load_json(args.report)
        report = BenchmarkReport(config=document["config"],
                                 cells=tuple(document["cells"]),
                                 meta=document.get("meta", {}))
        emit_plot_data(report, args.kind, out)
    else:
        if not args.dataset:
            raise EcgDenoiseError(f"{args.kind} needs --dataset")
        samples, manifest = load_dataset(args.dataset)
        if args.kind == "beats-overlay":
            wanted = args.sample or samples[0].sample_id
            ids = [s.sample_id for s in samples]
            if wanted not in ids:
                raise EcgDenoiseError(f"sample {wanted!r} not in dataset")
            row = ids.index(wanted)
            reconstruction = None
            if args.estimator:
                estimates, _, _ = _denoise_dataset(
                    EstimatorSpec.parse(args.estimator), samples, manifest,
                    args.latent_dim,
                )
                reconstruction = estimates[row]
            emit_plot_data(samples[row], args.kind, out,
                           reconstruction=reconstruction)
        else:
            emit_plot_data(samples, args.kind, out, bins=args.bins)
    _emit({"plot_data": str(out), "kind": args.kind})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecgdenoise",
        description="Simulate, corrupt and denoise single-lead ECG beats.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a simulated dataset")
    _add_simulation_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="dataset directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate-noise",
                       help="estimate K and per-sample tau from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_estimate_noise)

    p = sub.add_parser("denoise", help="per-sample denoised beat estimates")
    p.add_argument("--dataset", required=True)
    p.add_argument("--estimator", default="fa:truth",
                   help="mle | oracle_bayes | fa[:truth|:estimated] | mog_fa[...]")
    p.add_argument("--latent-dim", default=str(DEFAULT_LATENT_DIM),
                   help="a fixed integer or 'scree[:cutoff]'")
    p.add_argument("--components", type=int, default=DEFAULT_N_COMPONENTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="estimates CSV path")
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("benchmark", help="run the full estimator grid")
    _add_simulation_flags(p)
    p.set_defaults(n_samples=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--taus", default="2;5;10;15;20;uniform:2,20",
                   help="semicolon-separated tau regimes")
    p.add_argument("--beats-grid", default="1,20",
                   help="comma-separated beat counts")
    p.add_argument("--estimator", action="append",
                   default=None,
                   help="repeatable: KIND[:truth|:estimated]")
    p.add_argument("--latent-dim", default=str(DEFAULT_LATENT_DIM))
    p.add_argument("--components", type=int, default=DEFAULT_N_COMPONENTS)
    p.add_argument("--config", help="JSON config file (overrides flags)")
    p.add_argument("--out", help="report path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("plot-data", help="long-format CSV for plotting")
    p.add_argument("--kind", required=True,
                   choices=["beats-overlay", "tau-hist", "beat-count-hist",
                            "mse-table"])
    p.add_argument("--dataset")
    p.add_argument("--report")
    p.add_argument("--sample", help="sample id for beats-overlay")
    p.add_argument("--estimator",
                   help="add a reconstruction series (beats-overlay)")
    p.add_argument("--latent-dim", default=str(DEFAULT_LATENT_DIM))
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--out", help="CSV path")
    p.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (EcgDenoiseError, ValueError, OSError, KeyError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
