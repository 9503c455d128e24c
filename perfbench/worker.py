"""Run one workload in this (fresh) process; print the result as one JSON line.

Started by ``run.py``, which sets ``PYTHONPATH`` to the checkout's ``src``
and pins BLAS to one thread. The loop is closed: one unit at a time, each
started when the previous one has been checked. Another unit starts only
while it is expected, from the mean so far, to end within ``--seconds``;
at least one runs. With ``--trace 1`` untraced and traced units alternate
in pairs, untraced first; the difference of their medians is the tracing
overhead. Peak memory is read after the first unit, so it does not depend
on how many units fit into the run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import ecgdenoise
from tracing import LAYERS, NullTracer, Tracer, unit_metrics
from workloads import WORKLOADS, make

#: Per-layer self times must add up to the traced wall time within this
#: share of it (they differ only by the root span's own bookkeeping).
SELF_SUM_TOLERANCE = 0.005


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "backend": ecgdenoise.BACKEND,
        "package": str(Path(ecgdenoise.__file__).parent),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        out: Path) -> dict:
    scratch = out / "tmp"
    workload = make(name, seed, smoke, scratch)
    warm = make(name, seed, True, scratch)  # first-call costs, not timed
    warm.cleanup(warm.unit(NullTracer()))

    tracer = Tracer() if trace else None
    units, layer_rows, problems = [], [], []
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ecgdenoise.__file__).resolve().parents:
        problems.append(f"imported {ecgdenoise.__file__}, not {src}")
    begin = time.perf_counter()
    while True:
        traced = trace and len(units) % 2 == 1
        active = tracer if traced else NullTracer()
        if traced:
            tracer.unit = len(units)
        with active.patched():
            t0 = time.perf_counter()
            with active.span("driver.unit"):
                outcome = workload.unit(active)
            wall = time.perf_counter() - t0
        try:
            verdict = workload.check(outcome)
        finally:
            workload.cleanup(outcome)
        if scratch.is_dir() and any(scratch.iterdir()):
            verdict.problems.append(f"the unit left files in {scratch}")
        units.append({"traced": traced, "wall_s": wall,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed, "refused": verdict.refused,
                      "digest": verdict.digest, "gain_db": verdict.gain_db})
        problems += verdict.problems
        if traced:
            row = unit_metrics(tracer.spans, tracer.unit)
            # a (cell, estimator) entry is the grid's operation
            grid = name == "grid"
            row["bench.entries_attempted"] = verdict.attempted if grid else 0
            row["bench.entries_failed"] = (verdict.failed + verdict.refused
                                           if grid else 0)
            self_sum = sum(row[f"{layer}.self_s"] for layer in LAYERS)
            if abs(self_sum - wall) > SELF_SUM_TOLERANCE * wall:
                problems.append(f"self times sum to {self_sum:.6f} s, "
                                f"traced wall is {wall:.6f} s")
            layer_rows.append(row)
        if len(units) == 1:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace and not traced:
            continue
        elapsed = time.perf_counter() - begin
        if elapsed + (2 if trace else 1) * elapsed / len(units) > seconds:
            break
    shutil.rmtree(scratch, ignore_errors=True)

    if len({u["digest"] for u in units}) != 1:
        problems.append("outputs differ between units of one run")
    untraced = [u["wall_s"] for u in units if not u["traced"]]
    result = {
        "workload": name, "seed": seed, "smoke": smoke, "trace": trace,
        "units": units,
        "wall_s": statistics.median(untraced),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "problems": problems,
        "env": environment(),
    }
    if trace:
        per_layer = {key: statistics.median(row[key] for row in layer_rows)
                     for key in layer_rows[0]}
        traced_wall = statistics.median(
            u["wall_s"] for u in units if u["traced"])
        per_layer["tracer.overhead_s"] = traced_wall - result["wall_s"]
        per_layer["tracer.spans"] = len(tracer.spans) / len(layer_rows)
        result["per_layer"] = per_layer
        suffix = "-smoke" if smoke else ""
        result["spans"] = str(out / f"spans-{name}-seed{seed}{suffix}.json")
        tracer.write(result["spans"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.smoke, args.out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
