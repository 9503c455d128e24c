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
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    BenchmarkConfig,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    denoise,
    draw_cell,
    grid_seeds,
    make_samples,
    run_benchmark,
    simulate_population,
)
from .errors import EcgDenoiseError, EmptyInputError
from .noise import estimate_noise
from .serialize import (load_dataset, load_json, load_matrix_csv,
                        save_dataset, save_matrix_csv, save_npy,
                        save_series_csv, staged_directory)

# Unused here, but perfbench/tracing.py wraps these names in this module:
# simulate_cell_beats, matern_covariance, whiten and the five estimator
# functions.
from .bench import simulate_cell_beats  # noqa: F401
from .estimators import (  # noqa: F401
    fa_posterior_mean_batch, fit_factor_analysis, fit_mog_fa,
    mog_fa_posterior_mean_batch, oracle_bayes_batch)
from .noise import matern_covariance, whiten  # noqa: F401

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
    """Flags of ``BenchmarkConfig``'s simulation fields. The parser leaves
    out a flag that is not given (``argument_default=SUPPRESS``), so the
    field keeps ``BenchmarkConfig``'s default."""
    parser.add_argument("--n-samples", "-n", type=int,
                        help="number of recordings")
    parser.add_argument("--d", type=int)
    parser.add_argument("--fs", type=float)
    parser.add_argument("--r-offset", type=int)
    parser.add_argument("--jitter", dest="jitter_fraction", type=float)
    parser.add_argument("--gain", dest="amplitude_gain", type=float)
    parser.add_argument("--lengthscale", type=float)
    parser.add_argument("--smoothness", type=float)


_CONFIG_FIELDS = {f.name for f in fields(BenchmarkConfig)}


def _config_dict(args, **grid) -> dict:
    """The ``BenchmarkConfig.from_dict`` input of the parsed flags named
    after a config field, plus the calling command's ``grid``."""
    return {**{name: value for name, value in vars(args).items()
               if name in _CONFIG_FIELDS}, **grid}


def _cmd_simulate(args) -> int:
    """A dataset that is the one cell of the grid its manifest records."""
    config = BenchmarkConfig.from_dict(_config_dict(
        args, n_beats_grid=[args.beats], tau_regimes=[args.tau]))
    population_seed, [cell] = grid_seeds(config)
    K = config.noise_covariance()
    thetas = simulate_population(config, population_seed)
    beats, taus, _ = draw_cell(thetas, K, *cell)
    out = _resolve_out(args.out, f"dataset-seed{args.seed}")
    save_dataset(out, make_samples(beats, thetas, taus),
                 manifest_extra={"config": config.to_dict()})
    log.info("wrote dataset to %s", out)
    _emit({"dataset": str(out), "n_samples": config.n_samples,
           "n_beats": args.beats, "d": config.d})
    return 0


def _recorded_cell(manifest, recordings, where, needs_k: bool):
    """The one-cell config that ``manifest``, read from ``where``, records
    for ``recordings``, and its cell's fit seed. A record must be complete,
    as ``from_dict`` would fill a gap with a default, and must describe
    ``recordings``. Without one, a caller that ``needs_k`` is refused; others
    get ``BenchmarkConfig``'s defaults, for its fit settings alone, and fit
    seed 0."""
    record = manifest.get("config")
    if record is None and not needs_k:
        return BenchmarkConfig(seed=0), 0
    if "matern" in manifest:  # the record of an earlier simulate
        raise EcgDenoiseError(f"{where} has a noise-model record that is no "
                              f"longer read; re-run `ecgdenoise simulate`")
    if not isinstance(record, dict):
        raise EcgDenoiseError(f"{where} records no config and so no noise "
                              f"model; use an :estimated estimator")
    missing = sorted(_CONFIG_FIELDS - set(record))
    if missing:
        raise EcgDenoiseError(f"{where}: the recorded config lacks {missing}")
    try:
        config = BenchmarkConfig.from_dict(record)
    except ValueError as exc:
        raise EcgDenoiseError(f"{where}: the recorded config: {exc}") from None
    _, cells = grid_seeds(config)
    if len(cells) != 1:
        raise EcgDenoiseError(f"{where}: the recorded config has {len(cells)} "
                              f"grid cells; a dataset is one")
    if config.d != recordings.d:
        raise EcgDenoiseError(f"{where}: the recorded config has d={config.d}"
                              f", the beats have width {recordings.d}")
    [(_, n_beats, (_, _, fit_seed))] = cells
    counts = np.unique(recordings.counts).tolist()
    if (config.n_samples, [n_beats]) != (len(recordings), counts):
        raise EcgDenoiseError(
            f"{where}: the recorded config has {config.n_samples} recordings "
            f"of {n_beats} beats, the data has {len(recordings)} of "
            f"{' or '.join(map(str, counts))}")
    return config, fit_seed


def _cmd_estimate_noise(args) -> int:
    recordings, _ = load_dataset(args.dataset)
    k_hat, tau_hat = estimate_noise(recordings)
    out = _resolve_out(args.out, Path(args.dataset).name + "-noise")
    with staged_directory(out) as stage:
        save_npy(stage / "k_hat.npy", k_hat.matrix)
        save_matrix_csv(stage / "tau_hat.csv", tau_hat[:, None],
                        recordings.ids)
    summary = {
        "k_hat": str(out / "k_hat.npy"),
        "tau_hat": str(out / "tau_hat.csv"),
        "trace": float(np.trace(k_hat.matrix)),
        "tau_hat_median": float(np.median(tau_hat)),
    }
    if recordings.taus is not None:
        rel = np.abs(tau_hat - recordings.taus) / recordings.taus
        summary["tau_median_relative_error"] = float(np.median(rel))
    _emit(summary)
    return 0


def _cmd_denoise(args) -> int:
    """``bench.denoise`` on the dataset as loaded, with the fit settings of
    its recorded grid cell. Noise is estimated for ``:estimated`` specs;
    other specs but ``mle`` get the recorded K where there are true taus."""
    recordings, manifest = load_dataset(args.dataset)
    spec = EstimatorSpec.parse(args.estimator)
    needs_k = spec.kind != "mle" and not spec.needs_estimation \
        and recordings.taus is not None
    config, fit_seed = _recorded_cell(
        manifest, recordings, Path(args.dataset) / "manifest.json", needs_k)
    truth = estimate = None
    if spec.needs_estimation:
        estimate = estimate_noise(recordings)
    elif needs_k:
        truth = config.noise_covariance(), recordings.taus
    estimates, extra = denoise(
        spec, recordings.means(), recordings.counts.astype(float),
        truth=truth, estimate=estimate, thetas=recordings.thetas,
        latent_dim=config.latent_dim, n_components=config.mog_components,
        fit_seed=fit_seed)
    out = _resolve_out(args.out, f"denoised-{spec.name}.csv")
    save_matrix_csv(out, estimates, recordings.ids)
    _emit({"estimates": str(out), "estimator": spec.name, **extra})
    return 0


#: ``benchmark``'s grid flags by config field: the flag, the form of its
#: text and how that text is read.
_GRID_FLAGS = {
    "n_beats_grid": ("--beats-grid", "comma-separated integers",
                     lambda text: [int(b) for b in text.split(",")]),
    "tau_regimes": ("--taus", "semicolon-separated tau regimes",
                    lambda text: text.split(";")),
    "latent_dim": ("--latent-dim", "a positive integer or 'scree[:CUTOFF]'",
                   LatentDimRule.parse),
}


def _cmd_benchmark(args) -> int:
    """The grid of the config file, over the flags given, over
    ``BenchmarkConfig``'s defaults."""
    base = _config_dict(args)
    for name, (flag, form, parse) in _GRID_FLAGS.items():
        if name in base:
            try:
                base[name] = parse(base[name])
            except ValueError:
                raise ValueError(f"{flag} takes {form}, not "
                                 f"{base[name]!r}") from None
    if args.config:  # the config file wins over flags
        base.update(load_json(args.config))
    config = BenchmarkConfig.from_dict(base)
    out = _resolve_out(args.out, f"benchmark-seed{config.seed}.json")
    report = run_benchmark(config, out_path=out)
    _emit({"report": str(out),
           "wall_clock_s": report.meta["wall_clock_s"],
           "cells": len(report.cells)})
    return 0


def _mse_table_rows(report) -> list:
    """A (``estimator|B=n``, tau, mse) row per ok entry of ``report``'s
    cells, at a fixed tau or a uniform regime's midpoint. Anything but a
    benchmark report's shape, an ``mse`` that is not a number included,
    raises an EcgDenoiseError naming ``report``, and a report without an
    ok entry an EmptyInputError."""
    document = load_json(report)
    rows = []
    try:
        for cell in document["cells"]:
            regime = TauRegime.from_dict(cell["tau_regime"])
            x = regime.value if regime.kind == "fixed" \
                else 0.5 * (regime.lo + regime.hi)
            for name, result in cell["estimators"].items():
                if result["status"] == "ok":
                    mse = result["mse"]
                    if type(mse) not in (int, float):  # JSON's numbers
                        raise ValueError(f"mse {mse!r} is not a number")
                    rows.append((f"{name}|B={cell['n_beats']}", x,
                                 float(mse)))
    except KeyError as exc:
        raise EcgDenoiseError(f"{report}: the key {exc.args[0]!r} "
                              f"is missing") from None
    except (TypeError, AttributeError, ValueError) as exc:
        raise EcgDenoiseError(f"{report}: not a benchmark report: "
                              f"{exc}") from None
    if not rows:
        raise EmptyInputError("nothing to write for kind 'mse-table'")
    return rows


#: Each plot kind's inputs, the one it needs first; any other is refused.
_PLOT_INPUTS = {"beats-overlay": ("dataset", "sample", "estimates"),
                "tau-hist": ("dataset", "bins"),
                "beat-count-hist": ("dataset",), "mse-table": ("report",)}


def _cmd_plot_data(args) -> int:
    """Long-format (series, x, y) rows of one plot kind, written as CSV."""
    reads = _PLOT_INPUTS[args.kind]
    if not getattr(args, reads[0]):
        raise EcgDenoiseError(f"{args.kind} needs --{reads[0]}")
    for name in sorted(set().union(*_PLOT_INPUTS.values()) - set(reads)):
        if getattr(args, name) is not None:
            raise EcgDenoiseError(f"--kind {args.kind} does not read --{name}")
    out = _resolve_out(args.out, f"plot-{args.kind}.csv")
    if args.kind == "mse-table":
        rows = _mse_table_rows(args.report)
    else:
        recordings, _ = load_dataset(args.dataset)
        if args.kind == "beats-overlay":
            ids = recordings.ids
            wanted = ids[0] if args.sample is None else args.sample
            if wanted not in ids:
                raise EcgDenoiseError(f"sample {wanted!r} not in dataset")
            row = ids.index(wanted)
            rows = [(f"beat_{b:02d}", float(j), float(v))
                    for b, beat in enumerate(recordings[row].beats)
                    for j, v in enumerate(beat)]
            if args.estimates is not None:
                estimates, row_ids = load_matrix_csv(args.estimates)
                if tuple(row_ids) != ids or estimates.shape[1] != recordings.d:
                    raise EcgDenoiseError(
                        f"{args.estimates} is not what denoise writes for "
                        f"this dataset: one row per sample id, in order, "
                        f"of width {recordings.d}")
                rows += [("reconstruction", float(j), float(v))
                         for j, v in enumerate(estimates[row])]
        elif args.kind == "tau-hist":
            if recordings.taus is None:
                raise EmptyInputError("no tau values available")
            counts, edges = np.histogram(
                recordings.taus, bins=20 if args.bins is None else args.bins)
            rows = [("tau_count", float(0.5 * (edges[i] + edges[i + 1])),
                     float(c)) for i, c in enumerate(counts)]
            rows += [("tau_bin_edge", float(i), float(e))
                     for i, e in enumerate(edges)]
        else:  # beat-count-hist
            values, freq = np.unique(recordings.counts, return_counts=True)
            rows = [("beat_count", float(v), float(c))
                    for v, c in zip(values, freq)]
    save_series_csv(out, rows)
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

    p = sub.add_parser("simulate", help="write a simulated dataset",
                       argument_default=argparse.SUPPRESS)
    _add_simulation_flags(p)
    p.add_argument("--beats", "-B", type=int, default=20,
                   help="beats per recording")
    p.add_argument("--tau", default="uniform:2,20",
                   help="noise precision: a number or 'uniform:LO,HI'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="dataset directory")
    p.set_defaults(func=_cmd_simulate, n_samples=100)

    p = sub.add_parser("estimate-noise",
                       help="estimate K and per-sample tau from a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_estimate_noise)

    p = sub.add_parser("denoise", help="per-sample denoised beat estimates")
    p.add_argument("--dataset", required=True)
    p.add_argument("--estimator", default="fa:truth",
                   help="mle | oracle_bayes | fa[:truth|:estimated] | mog_fa[...]")
    p.add_argument("--out", help="estimates CSV path")
    p.set_defaults(func=_cmd_denoise)

    # no abbreviations: simulate's --beats and --tau would pass for
    # --beats-grid and --taus here. Each grid flag is stored under its
    # config field, and is absent when not given (see _add_simulation_flags)
    p = sub.add_parser("benchmark", help="run the full estimator grid",
                       allow_abbrev=False, argument_default=argparse.SUPPRESS)
    _add_simulation_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--taus", dest="tau_regimes",
                   help="semicolon-separated tau regimes")
    p.add_argument("--beats-grid", dest="n_beats_grid",
                   help="comma-separated beat counts")
    p.add_argument("--estimator", dest="estimators", action="append",
                   help="repeatable: KIND[:truth|:estimated]")
    p.add_argument("--latent-dim", help="a fixed p or 'scree[:CUTOFF]'")
    p.add_argument("--components", dest="mog_components", type=int)
    p.add_argument("--config", default=None,
                   help="JSON config file (overrides flags)")
    p.add_argument("--out", default=None, help="report path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("plot-data", help="long-format CSV for plotting")
    p.add_argument("--kind", required=True, choices=list(_PLOT_INPUTS))
    p.add_argument("--dataset")
    p.add_argument("--report")
    p.add_argument("--sample", help="sample id for beats-overlay")
    p.add_argument("--estimates", help="denoise's CSV (beats-overlay)")
    p.add_argument("--bins", type=int, help="tau-hist's bins (default 20)")
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
        try:
            code = args.func(args)
        except BrokenPipeError:
            raise
        except (EcgDenoiseError, ValueError, OSError, KeyError,
                MemoryError) as exc:
            # numpy's failed allocation is a private MemoryError subclass
            kind = ("MemoryError" if isinstance(exc, MemoryError)
                    else type(exc).__name__)
            _emit({"error": {"type": kind, "message": str(exc)}})
            code = 1
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone, so no document can reach it; point the
        # descriptor at the null device so the exit flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
