"""The benchmark's workloads: inputs made from a seed, one unit, its checks.

Every unit of one run repeats the same work on the same inputs, so its
output digest must repeat. ``smoke=True`` shrinks the inputs so the same
code paths run in a second or two; it is for the benchmark's own tests.

* ``grid`` -- the paper's error table: one ``run_benchmark`` call at
  N=500 over tau in {2, U(2,20)} and B in {1, 20} with the default
  estimators. An operation is a (cell, estimator) entry.
* ``pipeline`` -- the CLI chain ``simulate -> estimate-noise -> denoise``
  on a fresh dataset directory. An operation is a CLI stage.
* ``trace`` -- one subject jittered as the grid's population is
  (``DEFAULT_JITTER``), integrated for 40 s at 500 Hz (a batch of one),
  then R-peak detection and beat alignment. An operation is a subject.
  Not in ``BENCHMARK.json`` while the detector defect of ``Trace`` stands.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ecgdenoise import (
    DEFAULT_PARAMS,
    align_beats,
    cli,
    detect_r_peaks,
    extract_canonical_beat,
    integrate_mcsharry,
    run_benchmark,
    sample_jittered_params,
)
from ecgdenoise.bench import (
    DEFAULT_AMPLITUDE_GAIN,
    DEFAULT_JITTER,
    BenchmarkConfig,
    TauRegime,
)

#: The MLE error of a fixed-tau cell must lie within this many standard
#: errors of the analytic d / (tau^2 B).
MLE_SE_TOLERANCE = 4.0

#: Aligned beats starting this late are past the start-up transient
#: (it decays like exp(-t); about 3e-7 is left at 12 s).
STEADY_AFTER_S = 15.0

#: Steady-state beats must match ``extract_canonical_beat`` this closely;
#: about 2e-9 is measured, on beats of about 1 mV.
STEADY_BEAT_ATOL = 1e-6

LEARNED_KINDS = ("fa", "mog_fa")


@dataclass
class Verdict:
    """What one unit's checks found."""

    attempted: int
    failed: int  # failures the workload does not expect
    refused: int = 0  # typed refusals the workload expects (see grid)
    digest: str = ""
    gain_db: float | None = None
    problems: list = field(default_factory=list)


def _gain_db(mse_mle: float, mse_est: float) -> float:
    return 10.0 * math.log10(mse_mle / mse_est)


class Grid:
    """``run_benchmark`` over the paper's noise-regime x beat-count grid.

    The default estimator set always refuses ``fa_estimated`` on the two
    B=1 cells (noise cannot be estimated from one beat) with
    ``InsufficientReplicatesError``: 2 of 20 entries per unit. Those are
    counted as refused, not hidden; any other failure or missing entry
    counts as failed.
    """

    name = "grid"

    def __init__(self, seed: int, smoke: bool):
        self.config = BenchmarkConfig(
            seed=seed,
            n_samples=24 if smoke else 500,
            n_beats_grid=(1, 4) if smoke else (1, 20),
            tau_regimes=(TauRegime.fixed(2), TauRegime.uniform(2, 20)),
        )

    def unit(self, tracer):
        return tracer.call("bench.run_benchmark", run_benchmark, self.config)

    def check(self, report) -> Verdict:
        config = self.config
        names = [spec.name for spec in config.estimators]
        cells = {(c["tau_label"], c["n_beats"]): c for c in report.cells}
        verdict = Verdict(attempted=0, failed=0)
        gains = []
        for regime in config.tau_regimes:
            for n_beats in config.n_beats_grid:
                verdict.attempted += len(names)
                cell = cells.get((regime.label, n_beats))
                results = cell["estimators"] if cell else {}
                where = f"{regime.label}, B={n_beats}"
                # a name collision or a dropped cell loses entries silently
                dropped = len(names) - len(set(names) & results.keys())
                if dropped:
                    verdict.failed += dropped
                    verdict.problems.append(
                        f"{where}: {dropped} entries missing")
                for spec in config.estimators:
                    entry = results.get(spec.name)
                    if entry is None:
                        continue
                    if entry["status"] != "ok":
                        expected = (spec.needs_estimation and n_beats < 2
                                    and entry["error"].startswith(
                                        "InsufficientReplicatesError"))
                        if expected:
                            verdict.refused += 1
                        else:
                            verdict.failed += 1
                            verdict.problems.append(
                                f"{where}, {spec.name}: {entry['error']}")
                    elif spec.kind in LEARNED_KINDS and "mle" in results:
                        gains.append(_gain_db(results["mle"]["mse"],
                                              entry["mse"]))
                mle = results.get("mle")
                if regime.kind == "fixed" and mle and mle["status"] == "ok":
                    analytic = config.d / (regime.value ** 2 * n_beats)
                    limit = MLE_SE_TOLERANCE * mle["se"]
                    if abs(mle["mse"] - analytic) > limit:
                        verdict.problems.append(
                            f"{where}: mle error {mle['mse']:.4g} is over "
                            f"{MLE_SE_TOLERANCE:g} SE from d/(tau^2 B) = "
                            f"{analytic:.4g}")
        verdict.gain_db = float(np.mean(gains)) if gains else None
        body = json.dumps(report.body(), sort_keys=True).encode()
        verdict.digest = hashlib.sha256(body).hexdigest()
        return verdict

    def cleanup(self, outcome) -> None:
        pass


@dataclass
class PipelineOutcome:
    workdir: Path
    returncodes: list
    summaries: list
    samples: list | None  # the dataset as the denoise stage loaded it


class Pipeline:
    """``simulate -> estimate-noise -> denoise`` through ``cli.main``."""

    name = "pipeline"
    stages = ("simulate", "estimate_noise", "denoise")

    def __init__(self, seed: int, smoke: bool, scratch):
        self.seed = seed
        self.n_samples = 12 if smoke else 300
        self.n_beats = 4 if smoke else 20
        self.scratch = Path(scratch)

    def _argv(self, stage, work):
        dataset = str(work / "dataset")
        if stage == "simulate":
            return ["simulate", "-n", str(self.n_samples), "-B",
                    str(self.n_beats), "--seed", str(self.seed),
                    "--out", dataset]
        if stage == "estimate_noise":
            return ["estimate-noise", "--dataset", dataset,
                    "--out", str(work / "noise")]
        return ["denoise", "--dataset", dataset, "--estimator",
                "fa:estimated", "--out", str(work / "estimates.csv")]

    def unit(self, tracer):
        self.scratch.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.scratch))
        outcome = PipelineOutcome(work, [], [], None)
        for stage in self.stages:
            if outcome.returncodes and outcome.returncodes[-1] != 0:
                break
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), \
                    self._keep_denoise_input(stage, outcome):
                code = tracer.call(f"cli.{stage}", cli.main,
                                   self._argv(stage, work))
            outcome.returncodes.append(code)
            outcome.summaries.append(json.loads(buffer.getvalue() or "{}"))
        return outcome

    @contextlib.contextmanager
    def _keep_denoise_input(self, stage, outcome):
        """Keep the dataset the denoise stage loads, for the error checks.

        It is alive for the whole stage anyway, so keeping it until the
        checks run does not raise the peak resident memory.
        """
        if stage != "denoise":
            yield
            return
        load = cli.load_dataset

        def keep(*args, **kwargs):
            samples, manifest = load(*args, **kwargs)
            outcome.samples = samples
            return samples, manifest

        cli.load_dataset = keep
        try:
            yield
        finally:
            cli.load_dataset = load

    def check(self, outcome: PipelineOutcome) -> Verdict:
        codes = outcome.returncodes
        verdict = Verdict(attempted=len(self.stages),
                          failed=len(self.stages) - codes.count(0))
        for stage, code, summary in zip(self.stages, codes, outcome.summaries):
            if code != 0:
                verdict.problems.append(f"{stage} exited {code}: {summary}")
        if verdict.failed:
            return verdict
        estimates_csv = outcome.workdir / "estimates.csv"
        rows = _csv_rows(estimates_csv)
        tau_rows = _csv_rows(outcome.workdir / "noise" / "tau_hat.csv")
        for label, found in (("estimates", rows), ("tau_hat", tau_rows)):
            if len(found) != self.n_samples:
                verdict.problems.append(
                    f"{label} CSV has {len(found)} rows, expected "
                    f"{self.n_samples}")
        verdict.digest = hashlib.sha256(estimates_csv.read_bytes()).hexdigest()
        samples = outcome.samples
        if samples is None or len(rows) != len(samples):
            verdict.problems.append("denoise stage loaded no usable dataset")
            return verdict
        thetas = np.stack([s.theta.values for s in samples])
        means = np.stack([s.beat_mean for s in samples])
        estimates = np.array([[float(v) for v in r[1:]] for r in rows])
        mse_mle = float(np.mean(np.sum((means - thetas) ** 2, axis=1)))
        mse_est = float(np.mean(np.sum((estimates - thetas) ** 2, axis=1)))
        reported = outcome.summaries[-1].get("mse")
        if reported is None or not math.isclose(reported, mse_est,
                                                 rel_tol=1e-9):
            verdict.problems.append(
                f"denoise reports mse {reported}, its CSV gives {mse_est}")
        verdict.gain_db = _gain_db(mse_mle, mse_est)
        return verdict

    def cleanup(self, outcome: PipelineOutcome) -> None:
        outcome.samples = None
        shutil.rmtree(outcome.workdir, ignore_errors=True)


def _csv_rows(path) -> list:
    lines = Path(path).read_text().splitlines()
    return [line.split(",") for line in lines[1:] if line]


@dataclass
class TraceOutcome:
    trace: object
    peaks: object
    beats: np.ndarray


class Trace:
    """One subject, integrated alone, then delineated and aligned.

    ``detect_r_peaks`` assumes a dominant R peak. For some subjects at
    ``DEFAULT_JITTER`` a T (or P) wave rises above its threshold, it counts
    about two beats per cycle and the R-peak check fails: a defect of the
    detector, which this workload is meant to show. Until it is fixed,
    ``trace`` is left out of the workloads of ``BENCHMARK.json``, every run
    of which must pass; ``run.py --workload trace`` still runs it.
    """

    name = "trace"

    def __init__(self, seed: int, smoke: bool):
        base = DEFAULT_PARAMS.scaled(DEFAULT_AMPLITUDE_GAIN)
        self.params = sample_jittered_params(base, DEFAULT_JITTER,
                                             rng_seed=seed)
        if smoke:
            self.duration, self.fs = 18.0, 250.0
            self.d, self.r_offset = 240, 80
        else:
            self.duration, self.fs = 40.0, 500.0
            self.d, self.r_offset = 493, 164
        self.canonical = extract_canonical_beat(
            self.params, self.fs, self.d, self.r_offset).values

    def unit(self, tracer):
        trace = tracer.call("simulate.integrate", integrate_mcsharry,
                            self.params, self.duration, self.fs,
                            facts=lambda a, k, r: {"samples": len(r)})
        peaks = tracer.call("align.detect", detect_r_peaks, trace)
        beats = tracer.call("align.align", align_beats, trace, peaks, self.d,
                            self.r_offset,
                            facts=lambda a, k, r: {"beats": int(r.shape[0])})
        return TraceOutcome(trace, peaks, beats)

    def check(self, outcome: TraceOutcome) -> Verdict:
        verdict = Verdict(attempted=1, failed=0)
        cycles = self.duration / self.params.period
        if abs(outcome.peaks.n_beats - cycles) > 1:
            verdict.problems.append(
                f"{outcome.peaks.n_beats} R peaks over {cycles:g} cycles")
        starts = outcome.peaks.r - self.r_offset
        inside = (starts >= 0) & (starts + self.d <= len(outcome.trace))
        starts = starts[inside]
        if starts.size != outcome.beats.shape[0]:
            verdict.problems.append("aligned beats do not match the R peaks")
        else:
            steady = outcome.beats[starts / self.fs >= STEADY_AFTER_S]
            err = (np.abs(steady - self.canonical).max() if steady.size
                   else np.inf)
            if not err <= STEADY_BEAT_ATOL:
                verdict.problems.append(
                    f"steady-state beats differ from the canonical beat by "
                    f"{err:.3g} (tolerance {STEADY_BEAT_ATOL:g})")
        if verdict.problems:
            verdict.failed = 1
        verdict.digest = hashlib.sha256(
            outcome.trace.values.tobytes()).hexdigest()
        return verdict

    def cleanup(self, outcome) -> None:
        pass


WORKLOADS = ("grid", "pipeline", "trace")


def make(name: str, seed: int, smoke: bool, scratch):
    """Build a workload; ``scratch`` holds the pipeline's dataset dirs."""
    if name == "pipeline":
        return Pipeline(seed, smoke, scratch)
    return {"grid": Grid, "trace": Trace}[name](seed, smoke)
