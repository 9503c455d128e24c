"""The repository benchmark: one command, every metric, checked outputs.

Run from the root of a checkout (it builds nothing: the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload
    python3 perfbench/run.py --smoke                      # the self-test

``--seconds`` may be left out; when given it must equal ``run_seconds`` of
``BENCHMARK.json``, so every run measures for the same time.

Each workload runs in its own fresh interpreter (``worker.py``) from this
single-threaded, closed-loop driver, with BLAS pinned to one thread. With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``
(``wall_s``, ``setup_s``, ``peak_rss_mb``) plus ``failed_frac`` and, on
``grid`` and ``pipeline``, ``gain_db``; with ``--trace 1`` the per-layer
metrics, read from spans recorded around the calls between layers (see
``tracing.py``). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics of ``BENCHMARK.json``.
The full result, with the environment it ran in, goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``; ``compare.py``
sets two such records side by side.

The exit code is 0 only when every output check passed; with 2 the
checkout is unusable (no ``src/ecgdenoise``) and nothing is measured.

``trace`` runs here but is not a workload of ``BENCHMARK.json``: on some
subjects ``detect_r_peaks`` counts two beats per cycle, its check fails
and the run exits 1 (see ``workloads.Trace``). Its layers' metrics,
``TRACE_LAYER_METRICS``, are printed with the others but are not in the
``per_layer`` list, since no listed workload calls those layers.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("grid", "pipeline", "trace")

#: Fresh interpreters timed for ``setup_s`` before the workload runs and
#: again after it (after one untimed), so the median spans the whole run.
#: One import takes about 0.1 s and a shared host's speed can drift
#: within a run; fewer probes let the median follow that drift.
SETUP_REPEATS = 12
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import ecgdenoise; "
                "print(repr(time.perf_counter() - t0))")

#: Per-layer metrics that only the ``trace`` workload moves, with units.
TRACE_LAYER_METRICS = {
    "simulate.integrate_s": "s", "simulate.trace_samples_per_s": "1/s",
    "align.detect_s": "s", "align.align_s": "s", "align.beats": "count",
    "align.self_s": "s",
}

#: The worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(repeats: int) -> list[float]:
    """Import time of ``ecgdenoise`` in fresh interpreters; first dropped."""
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              env=child_env(), cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def run_worker(workload, seed, seconds, trace, smoke) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(spec, workload, seed, seconds, trace, smoke=False) -> dict:
    """One run: the worker's result plus setup time and derived metrics."""
    repeats = 0 if trace else 1 if smoke else SETUP_REPEATS
    setup = measure_setup(repeats) if repeats else []
    result = run_worker(workload, seed, seconds, trace, smoke)
    setup += measure_setup(repeats) if repeats else []
    units = result["units"]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    refused = sum(u["refused"] for u in units)
    gains = [u["gain_db"] for u in units if u["gain_db"] is not None]
    values = {
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": (failed + refused) / attempted,
    }
    if setup:
        values["setup_s"] = statistics.median(setup)
    if gains:
        values["gain_db"] = statistics.median(gains)
    values.update(result.get("per_layer", {}))
    result.update(setup_s=setup, attempted=attempted, failed=failed,
                  refused=refused, values=values,
                  correct=not result["problems"])
    return result


def report(spec, result) -> dict:
    """Print every metric with its unit; return the driver's JSON line."""
    group = "per_layer" if result["trace"] else "end_to_end"
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(TRACE_LAYER_METRICS, failed_frac="ratio", gain_db="dB")
    values = result["values"]
    env = result["env"]
    n_units = len(result["units"])
    print(f"{result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} units={n_units}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    shown = [m["name"] for m in spec[group]]
    if not result["trace"]:
        shown += [k for k in ("failed_frac", "gain_db") if k in values]
    elif result["workload"] == "trace":
        shown += TRACE_LAYER_METRICS
    for name in shown:
        print(f"  {name:34s} {values[name]:.6g} {units[name]}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"refused={result['refused']} (expected refusals)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[group]},
    }


def record(result) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{result['workload']}-seed{result['seed']}"
                  f"-trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def smoke(spec) -> int:
    """Tiny inputs, every workload, both modes: names and checks must hold."""
    wanted = {0: [m["name"] for m in spec["end_to_end"]] + ["failed_frac"],
              1: [m["name"] for m in spec["per_layer"]]}
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(spec, workload, 0, 0, trace, smoke=True)
            need = wanted[trace] + (["gain_db"] if trace == 0
                                    and workload != "trace" else [])
            need += list(TRACE_LAYER_METRICS) if trace else []
            missing = [n for n in need if n not in result["values"]]
            ok = result["correct"] and not missing
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} smoke {workload} trace={trace}"
                  + (f" missing={missing}" if missing else "")
                  + "".join(f"\n  {p}" for p in result["problems"]))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ecgdenoise benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test on tiny inputs")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ecgdenoise" / "__init__.py").is_file():
        print(f"no ecgdenoise sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must be {seconds}, the run_seconds of "
                     "BENCHMARK.json")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in chosen:
        result = measure(spec, workload, args.seed, seconds, args.trace)
        line = report(spec, result)
        print(f"  record: {record(result)}")
        print(json.dumps(line))
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
