"""Spans around the calls between ecgdenoise's layers, recorded from outside.

Nothing under ``src/`` is instrumented. While a traced unit runs, the names
that ``ecgdenoise.bench``, ``ecgdenoise.cli`` and ``ecgdenoise.estimators``
import from the other layers are replaced, in those modules' namespaces, by
wrappers that record a span (name, start, end, parent, unit) and a few
counts read from the call's arguments and result. Replacing the name where
it is imported, not where it is defined, keeps calls inside a layer (for
example ``fit_mog_fa`` calling ``fit_factor_analysis``) out of the trace.
The originals are put back when the unit ends.

A layer's self time is its spans' durations minus the part of each span's
interval that its child spans cover; self times over all layers add up to
the root span, which is the unit.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time
import weakref
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Package modules, plus ``driver`` for the benchmark's own unit glue.
LAYERS = ("simulate", "noise", "align", "estimators", "gmm", "serialize",
          "bench", "cli", "driver")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root
    unit: int
    facts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced runs: the same calling interface, no recording."""

    def span(self, name: str):
        return nullcontext()

    def patched(self):
        return nullcontext()

    def call(self, name, fn, *args, facts=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Keeps spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = 0
        self._stack: list[int] = []
        self._last_cell = None  # (weakref to noisy beats, their true taus)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, facts=None, **kwargs):
        """Run ``fn`` in a span; ``facts(args, kwargs, result)`` adds counts.

        Facts are read after the span closes, so their cost lands in the
        caller's self time and in the tracing overhead, not in the layer's.
        """
        with self.span(name) as record:
            result = fn(*args, **kwargs)
        if facts is not None:
            record.facts.update(facts(args, kwargs, result))
        return result

    def wrap(self, name, fn, facts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, facts=facts, **kwargs)
        return traced

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "unit": s.unit, "facts": s.facts}
                for s in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")

    # -- facts that need state across calls --------------------------------

    def _cell_facts(self, args, kwargs, beats):
        from ecgdenoise.bench import simulate_cell_beats

        taus = _arg(simulate_cell_beats, args, kwargs, "taus")
        self._last_cell = (weakref.ref(beats), np.asarray(taus, dtype=float))
        return {}

    def _estimate_facts(self, args, kwargs, result):
        samples = args[0] if args else kwargs["samples"]
        _, tau_hat = result
        facts = {"beats": _total_beats(samples)}
        truth = None
        if isinstance(samples, np.ndarray):
            if self._last_cell is not None and self._last_cell[0]() is samples:
                truth = self._last_cell[1]
        elif all(getattr(s, "tau", None) is not None for s in samples):
            truth = np.array([float(s.tau) for s in samples])
        if truth is not None:
            facts["tau_rel_err"] = float(
                np.median(np.abs(tau_hat - truth) / truth))
        return facts

    # -- installing the wrappers -------------------------------------------

    @contextmanager
    def patched(self):
        """Wrap the cross-layer names for the duration of one traced unit."""
        from ecgdenoise import bench, cli, estimators

        hooks = []
        for module in (bench, cli):
            hooks += [
                (module, "simulate_cell_beats", "bench.cell_sampling",
                 self._cell_facts),
                (module, "matern_covariance", "noise.matern", None),
                (module, "estimate_noise", "noise.estimate",
                 self._estimate_facts),
                (module, "whiten", "noise.whiten", None),
                (module, "oracle_bayes_batch", "estimators.oracle", None),
                (module, "fit_factor_analysis", "estimators.fa_fit",
                 _fa_facts),
                (module, "fa_posterior_mean_batch", "estimators.fa_predict",
                 None),
                (module, "fit_mog_fa", "estimators.mog_fa_fit", _mog_facts),
                (module, "mog_fa_posterior_mean_batch",
                 "estimators.mog_fa_predict", None),
                (module, "simulate_population", "bench.simulate_population",
                 None),
            ]
        hooks += [
            (bench, "jitter_population", "simulate.jitter", None),
            (bench, "extract_canonical_beats", "simulate.extract",
             lambda a, k, r: {"beats": int(r.shape[0])}),
            (bench, "save_json", "serialize.write", _bytes_facts),
            (cli, "make_samples", "bench.make_samples", None),
            (cli, "run_benchmark", "bench.run_benchmark", None),
            (cli, "save_dataset", "serialize.write", _bytes_facts),
            (cli, "save_matrix_csv", "serialize.write", _bytes_facts),
            (cli, "load_dataset", "serialize.read", _bytes_facts),
            (cli, "load_json", "serialize.read", _bytes_facts),
            # logsumexp, also imported from gmm, is a per-iteration helper
            # inside the EM loops, not a call into the gmm layer's work.
            (estimators, "fit_gmm", "gmm.fit", _gmm_facts),
        ]
        saved = []
        try:
            for module, attr, name, facts in hooks:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, facts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._last_cell = None


def _arg(fn, args, kwargs, name):
    """The value bound to parameter ``name`` (signatures see through wraps)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _total_beats(samples) -> int:
    if isinstance(samples, np.ndarray):
        return int(samples.shape[0] * samples.shape[1])
    return int(sum(np.shape(getattr(s, "beats", s))[0] for s in samples))


def _fa_facts(args, kwargs, model):
    return {"iters": model.n_iter, "converged": bool(model.converged)}


def _mog_facts(args, kwargs, model):
    return {"iters": model.fa.n_iter, "converged": bool(model.fa.converged)}


def _gmm_facts(args, kwargs, mixture):
    from ecgdenoise.gmm import fit_gmm

    return {"restarts": int(_arg(fit_gmm, args, kwargs, "n_restarts")),
            "converged": bool(mixture.converged)}


def _path_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _bytes_facts(args, kwargs, result):
    return {"bytes": _path_bytes(args[0])}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced unit
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def unit_metrics(all_spans: list[Span], unit: int) -> dict:
    """Per-layer metrics of one unit, from every span the tracer holds.

    Times are summed span durations (children included), counts are summed
    facts and ``*_frac`` are means over calls. A layer the workload never
    calls reads 0. ``bench.entries_*`` come from the unit's checks, not from
    spans (see ``worker.py``). Which end-to-end metric each should move:

    * ``wall_s`` on grid and pipeline: ``simulate.extract_*``,
      ``noise.estimate_*`` (and ``peak_rss_mb`` if residuals get stacked),
      ``estimators.fa_fit_s``; on grid alone ``bench.*``, the other
      ``estimators.*`` and ``gmm.*``; on pipeline alone ``serialize.*``
      (and ``peak_rss_mb``) and ``cli.*``; on trace ``simulate.integrate_s``,
      ``simulate.trace_samples_per_s`` and ``align.*``.
    * ``gain_db``: the EM iteration counts, converged fractions and GMM
      restarts on grid; ``noise.tau_rel_err`` on pipeline.
    """
    all_selfs = self_times(all_spans)
    spans = [s for s in all_spans if s.unit == unit]
    selfs = [t for s, t in zip(all_spans, all_selfs) if s.unit == unit]
    dur: dict[str, float] = {}
    facts: dict[str, list[dict]] = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        facts.setdefault(s.name, []).append(s.facts)

    def total(name, key):
        return sum(f.get(key, 0) for f in facts.get(name, []))

    def frac(name, key):
        values = [f[key] for f in facts.get(name, []) if key in f]
        return float(np.mean(values)) if values else 0.0

    d = lambda name: dur.get(name, 0.0)  # noqa: E731
    metrics = {
        "simulate.extract_s": d("simulate.extract"),
        "simulate.extract_beats_per_s": _rate(
            total("simulate.extract", "beats"), d("simulate.extract")),
        "simulate.integrate_s": d("simulate.integrate"),
        "simulate.trace_samples_per_s": _rate(
            total("simulate.integrate", "samples"), d("simulate.integrate")),
        "noise.estimate_s": d("noise.estimate"),
        "noise.estimate_calls": len(facts.get("noise.estimate", [])),
        "noise.estimate_beats_per_s": _rate(
            total("noise.estimate", "beats"), d("noise.estimate")),
        "noise.matern_s": d("noise.matern"),
        "noise.tau_rel_err": frac("noise.estimate", "tau_rel_err"),
        "bench.cell_sampling_s": d("bench.cell_sampling"),
        "estimators.oracle_s": d("estimators.oracle"),
        "estimators.fa_fit_s": d("estimators.fa_fit"),
        "estimators.fa_predict_s": d("estimators.fa_predict"),
        "estimators.mog_fa_fit_s": d("estimators.mog_fa_fit"),
        "estimators.mog_fa_predict_s": d("estimators.mog_fa_predict"),
        "estimators.fa_em_iters": total("estimators.fa_fit", "iters"),
        "estimators.fa_converged_frac": frac("estimators.fa_fit",
                                             "converged"),
        "estimators.mog_fa_em_iters": total("estimators.mog_fa_fit", "iters"),
        "estimators.mog_fa_converged_frac": frac("estimators.mog_fa_fit",
                                                 "converged"),
        "gmm.fit_s": d("gmm.fit"),
        "gmm.restarts": total("gmm.fit", "restarts"),
        "gmm.converged_frac": frac("gmm.fit", "converged"),
        "serialize.write_s": d("serialize.write"),
        "serialize.write_mb": total("serialize.write", "bytes") / 1e6,
        "serialize.read_s": d("serialize.read"),
        "serialize.read_mb_per_s": _rate(
            total("serialize.read", "bytes") / 1e6, d("serialize.read")),
        "cli.simulate_s": d("cli.simulate"),
        "cli.estimate_noise_s": d("cli.estimate_noise"),
        "cli.denoise_s": d("cli.denoise"),
        "align.detect_s": d("align.detect"),
        "align.align_s": d("align.align"),
        "align.beats": total("align.align", "beats"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.layer == layer)
    return metrics
