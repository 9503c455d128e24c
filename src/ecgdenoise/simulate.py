"""Synthetic single-lead ECG generation with the McSharry limit-cycle ODE.

A rotating (u, v) pair is attracted to the unit circle; the voltage x is
driven by five Gaussian-shaped angular bumps (P, Q, R, S, T) plus a linear
pull toward the baseline. Integration uses classical fixed-step RK4 with
step h = 1 / (4 fs), so every fourth state lands on the output grid.

(u, v) depends neither on x nor on the wave parameters, so traces sharing
``omega`` and a start share one phase path, stepped once; dx/dt is linear
in x, so each RK4 step on x is an affine map x -> rho x + c_k. The batch's
forcing, and from it c_k, is evaluated a chunk of steps at a time in three
buffers of about ``FORCING_CHUNK`` values each, reused for every chunk, so
no array is as large as (steps, traces).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import (IntegrationDivergedError, InvalidJitterError,
                     OffGridRateError, WindowTooLongError)

_TWO_PI = 2.0 * math.pi

#: Steps per output sample (h = 1 / (STRIDE * fs)).
STRIDE = 4

#: Sampling rate (Hz) of the benchmark.
DEFAULT_FS = 500.0

#: Retry budget when jittered positions violate the wave ordering.
JITTER_MAX_RETRIES = 100

#: Name of the integrator, recorded in benchmark reports and records.
BACKEND = "python"

#: (stage, trace) forcing values evaluated per chunk of RK4 steps: a chunk
#: is as many steps as fill this many, so each of the integrator's three
#: buffers holds about 512 kB whether the batch is one trace or 500.
FORCING_CHUNK = 1 << 16

#: Batches of up to this many traces take the step x -> c_k + rho x on
#: Python floats, one trace at a time (about 0.1 us a step); larger ones
#: take it on NumPy rows, all traces at once (about 3 us a step).
SCALAR_STEP_TRACES = 8

#: A stage phase this far inside (-pi, pi) of every trace's wave position
#: skips the wrap of ``phase - theta_i``; it covers the rounding there.
_WRAP_MARGIN = 1e-6


@dataclass(frozen=True)
class OdeParams:
    """Parameters of one subject's canonical beat.

    ``a``, ``b`` and ``theta`` hold the amplitude, width (radians) and
    angular position (radians, in (-pi, pi]) of the P, Q, R, S, T waves in
    that order. ``x0`` is the baseline voltage (mV) and ``omega`` the
    angular frequency (rad/s), i.e. one beat every 2 pi / omega seconds.
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    theta: tuple[float, ...]
    x0: float = 0.0
    omega: float = _TWO_PI

    def __post_init__(self):
        for name, values in (("a", self.a), ("b", self.b), ("theta", self.theta)):
            if len(values) != 5:
                raise ValueError(f"{name} must have exactly five wave entries")
            if not all(math.isfinite(val) for val in values):
                raise ValueError(f"{name} entries must be finite")
        if any(width <= 0 for width in self.b):
            raise ValueError("wave widths b must be strictly positive")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be strictly positive")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        theta = np.asarray(self.theta, dtype=float)
        if np.any(theta <= -math.pi) or np.any(theta > math.pi):
            raise ValueError("wave positions must lie in (-pi, pi]")
        gaps = np.diff(theta) % _TWO_PI
        if np.any(gaps <= 0) or gaps.sum() >= _TWO_PI:
            raise ValueError(
                "wave positions must be strictly increasing in the order "
                "P < Q < R < S < T on a common branch"
            )

    @property
    def period(self) -> float:
        """Cycle length 2 pi / omega in seconds."""
        return _TWO_PI / self.omega

    def as_arrays(self):
        """Wave parameters as float64 arrays of shape (5,)."""
        return (
            np.asarray(self.a, dtype=np.float64),
            np.asarray(self.b, dtype=np.float64),
            np.asarray(self.theta, dtype=np.float64),
        )

    def scaled(self, gain: float) -> "OdeParams":
        """Copy with all wave amplitudes and the baseline multiplied by ``gain``."""
        return replace(
            self,
            a=tuple(gain * ai for ai in self.a),
            x0=gain * self.x0,
        )


#: Widely used McSharry parameter set (60 bpm, baseline 0 mV).
DEFAULT_PARAMS = OdeParams(
    a=(1.2, -5.0, 30.0, -7.5, 0.75),
    b=(0.25, 0.1, 0.1, 0.1, 0.4),
    theta=(-math.pi / 3.0, -math.pi / 12.0, 0.0, math.pi / 12.0, math.pi / 2.0),
    x0=0.0,
    omega=_TWO_PI,
)


def _readonly(values) -> np.ndarray:
    """A read-only float64 view of ``values``: no copy where they are
    float64 already, and the caller's array stays writable."""
    view = np.asarray(values, dtype=np.float64).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class RawTrace:
    """A sampled voltage trace: ``values[k]`` is x(k / fs) in mV."""

    fs: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("trace must be a non-empty 1-D array")
        if not self.fs > 0:
            raise ValueError("fs must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trace values must be finite")

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class ThetaBeat:
    """A canonical beat: d voltage samples with the R peak at ``r_index``."""

    values: np.ndarray
    r_index: int

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("beat must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("beat values must be finite")
        if not 0 <= self.r_index < self.values.size:
            raise ValueError("r_index out of range")
        if int(np.argmax(self.values)) != self.r_index:
            raise ValueError("r_index must be the global argmax of the beat")

    @property
    def d(self) -> int:
        return self.values.size


def _rk4_rho(h: float) -> float:
    """RK4 amplification of dx/dt = -x over one step of size ``h``."""
    return 1.0 - h + h * h / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0


def _shared(values, name: str) -> float:
    values = np.unique(np.asarray(values, dtype=np.float64))
    if values.size != 1:
        raise ValueError(f"{name} must be shared by every trace of a batch")
    return float(values[0])


def _phase_path(omega: float, u: float, v: float, h: float, n_steps: int):
    """RK4 path of the phase point: the states, shape (n_steps + 1, 2), and
    the phase at the four stages of each step, shape (4 n_steps,)."""
    def slope(u, v):
        alpha = 1.0 - math.sqrt(u * u + v * v)
        return alpha * u - omega * v, alpha * v + omega * u

    h2, h6 = h / 2.0, h / 6.0
    states = array("d", (u, v))
    stages = array("d")
    for _ in range(n_steps):
        k1u, k1v = slope(u, v)
        u2, v2 = u + h2 * k1u, v + h2 * k1v
        k2u, k2v = slope(u2, v2)
        u3, v3 = u + h2 * k2u, v + h2 * k2v
        k3u, k3v = slope(u3, v3)
        u4, v4 = u + h * k3u, v + h * k3v
        k4u, k4v = slope(u4, v4)
        stages.extend((u, v, u2, v2, u3, v3, u4, v4))
        u, v = (u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))
        states.extend((u, v))
    stages = np.frombuffer(stages).reshape(-1, 2)
    phases = np.arctan2(stages[:, 1], stages[:, 0])
    return np.frombuffer(states).reshape(-1, 2), phases


def _wrap_runs(phases, theta) -> list:
    """Per wave i, the runs ``(start, stop)`` of stage phases at which some
    trace's ``phase - theta_i`` may leave [-pi, pi); the bounds come from
    the batch's least and greatest theta_i. At every other phase the wrap
    into (-pi, pi] leaves the difference as it is."""
    lo, hi = theta.min(axis=0), theta.max(axis=0)
    runs = []
    for i in range(theta.shape[1]):
        rows = np.flatnonzero((phases - hi[i] < _WRAP_MARGIN - math.pi)
                              | (phases - lo[i] >= math.pi - _WRAP_MARGIN))
        ends = np.flatnonzero(np.diff(rows) > 1)
        runs.append(list(zip(rows[np.r_[0, ends + 1]].tolist(),
                             (rows[np.r_[ends, -1]] + 1).tolist()))
                    if rows.size else [])
    return runs


def _baseline_minus_waves(phases, first, waves, runs, total, dth, g) -> None:
    """Write ``x0 - sum_i a_i dth_i exp(-dth_i^2 / (2 b_i^2))`` into
    ``total``, shape (phases, traces), with ``dth_i`` the phase minus
    ``theta_i`` wrapped into (-pi, pi] on the row runs ``runs[i]`` (the
    rows that need it, counted from ``first``, the index of ``phases[0]``
    in the runs). ``waves`` is ``(a, -2 b^2, theta, x0)`` with one row per
    wave; ``dth`` and ``g`` are scratch buffers of ``total``'s shape.
    Elementwise only, so no trace depends on the others."""
    a, neg_two_b_sq, theta, x0 = waves
    total.fill(0.0)
    for i in range(a.shape[0]):
        np.subtract(phases[:, None], theta[i], out=dth)
        for start, stop in runs[i]:
            start, stop = max(start - first, 0), min(stop - first, len(dth))
            if start >= stop:
                continue
            part, turns = dth[start:stop], g[start:stop]
            np.add(part, math.pi, out=turns)
            turns /= _TWO_PI
            np.floor(turns, out=turns)
            turns *= _TWO_PI
            part -= turns
            part[part == -math.pi] = math.pi
        np.multiply(dth, dth, out=g)
        g /= neg_two_b_sq[i]
        np.exp(g, out=g)
        dth *= a[i]
        g *= dth
        total += g
    np.subtract(x0, total, out=total)


def _first_nonfinite(rows: np.ndarray) -> np.ndarray:
    """Index of each column's first non-finite row; ``len(rows)`` where
    none is."""
    bad = ~np.isfinite(rows)
    return np.where(bad.any(axis=0), bad.argmax(axis=0), len(rows))


def _affine_steps(path, state, rho: float) -> None:
    """Overwrite row k of ``path`` (c_k) with x_{k+1} = c_k + rho x_k, from
    x_0 = ``state``, and leave the last row in ``state``."""
    if path.shape[1] > SCALAR_STEP_TRACES:
        previous = state
        for row in path:
            row += rho * previous
            previous = row
        state[:] = previous
        return
    for j, x in enumerate(state.tolist()):
        column = path[:, j].tolist()
        for k, c in enumerate(column):
            x = c + rho * x
            column[k] = x
        path[:, j] = column
        state[j] = x


def _rk4_mcsharry(a, b, theta, x0, omega, u0, v0, xinit, h, n_steps, stride):
    """Integrate McSharry systems that share one phase path with RK4.

    Arrays ``a``, ``b``, ``theta`` (n, 5) and ``x0``, ``xinit`` (n,) are per
    trace; ``omega``, ``u0`` and ``v0`` are shared (scalars, or arrays of
    equal entries). Returns the phase states ``u``, ``v`` (m,) and the
    voltages ``x`` (n, m) at every ``stride``-th step, m = n_steps // stride
    + 1. With the forcing g fixed at the four stage phases, an RK4 step on
    dx/dt = g - x is x -> rho x + c_k, c_k a weighted sum of those four g.
    The batch is stepped a chunk of steps at a time (``FORCING_CHUNK``),
    in three buffers reused for every chunk. Raises
    :class:`IntegrationDivergedError` naming the first non-finite step and
    trace.
    """
    if stride < 1 or n_steps < 0 or n_steps % stride != 0:
        raise ValueError("n_steps must be a non-negative multiple of stride")
    states, phases = _phase_path(_shared(omega, "omega"), _shared(u0, "u0"),
                                 _shared(v0, "v0"), h, n_steps)

    rho = _rk4_rho(h)
    h6 = h / 6.0
    w1 = h6 * (1.0 - h + h * h / 2.0 - h ** 3 / 4.0)
    w2 = h6 * (2.0 - h + h * h / 2.0)
    w3 = h6 * (2.0 - h)
    n = len(xinit)
    waves = (np.ascontiguousarray(a.T), -(2.0 * b.T * b.T),
             np.ascontiguousarray(theta.T), x0)
    wrap = _wrap_runs(phases, theta)
    chunk = max(stride, min(n_steps, FORCING_CHUNK // (4 * n))
                // stride * stride)
    total, dth, g = (np.empty((4 * chunk, n)) for _ in range(3))

    x = np.empty((n, n_steps // stride + 1))
    x[:, 0] = xinit
    state = np.array(xinit, dtype=np.float64)
    # row k of ``states`` is the phase after step k; a non-finite start
    # counts as step 1
    phase_diverged = max(int(_first_nonfinite(states).min()), 1)
    for first in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - first)
        rows = 4 * steps
        _baseline_minus_waves(phases[4 * first:4 * first + rows], 4 * first,
                              waves, wrap, total[:rows], dth[:rows],
                              g[:rows])
        forcing = total[:rows].reshape(steps, 4, n)
        # c_k, then x_{k+1} = c_k + rho x_k in place of c_k
        path = np.multiply(forcing[:, 0], w1, out=dth[:steps])
        term = g[:steps]
        for k, weight in ((1, w2), (2, w3), (3, h6)):
            path += np.multiply(forcing[:, k], weight, out=term)
        _affine_steps(path, state, rho)
        x[:, first // stride + 1:(first + steps) // stride + 1] = \
            path[stride - 1::stride].T
        if not np.isfinite(state).all():
            # a voltage that turns non-finite stays so, so this is the
            # first chunk with a non-finite step and it holds the earliest
            diverged = np.minimum(phase_diverged,
                                  first + 1 + _first_nonfinite(path))
            trace = int(np.argmin(diverged))
            raise IntegrationDivergedError(int(diverged[trace]), trace)
    if phase_diverged <= n_steps:
        raise IntegrationDivergedError(phase_diverged, 0)
    return states[::stride, 0], states[::stride, 1], x


def integrate_states(params: OdeParams, duration: float, fs: float,
                     initial_state=(-1.0, 0.0, 0.0)):
    """Integrate one system and return ``(t, u, v, x)`` sampled at ``fs``.

    Exposes the full state for limit-cycle diagnostics; most callers want
    :func:`integrate_mcsharry`, which keeps only the voltage.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    if not fs > 0:
        raise ValueError("fs must be positive")
    a, b, theta = params.as_arrays()
    n_samples = int(round(duration * fs))
    if n_samples < 1:
        raise ValueError("duration must cover at least one sample")
    h = 1.0 / (STRIDE * fs)
    u0, v0, x0 = (float(s) for s in initial_state)
    u, v, x = _rk4_mcsharry(a[None], b[None], theta[None],
                            np.array([params.x0]), params.omega, u0, v0,
                            np.array([x0]), h, n_samples * STRIDE, STRIDE)
    t = np.arange(n_samples + 1) / fs
    return t, u, v, x[0]


def integrate_mcsharry(params: OdeParams, duration: float, fs: float,
                       initial_state=(-1.0, 0.0, 0.0)) -> RawTrace:
    """Integrate the ODE and return the voltage trace sampled at ``fs``.

    Deterministic given its inputs. Raises
    :class:`IntegrationDivergedError` if the state becomes non-finite
    (the error names the offending RK4 step).
    """
    _, _, _, x = integrate_states(params, duration, fs, initial_state)
    return RawTrace(fs=fs, values=x)


def sample_jittered_params(base: OdeParams, jitter_fraction: float,
                           rng_seed) -> OdeParams:
    """Randomly perturb a parameter set to mimic subject-level variation.

    Amplitudes, widths and the baseline are multiplied by independent
    Uniform(1 - f, 1 + f) draws; each wave position is shifted by
    Uniform(-f |theta_i|, +f |theta_i|). Draws violating the wave-order
    invariant are rejected and resampled up to ``JITTER_MAX_RETRIES`` times.
    Deterministic given the seed. ``omega`` is never jittered.
    """
    if not 0 <= jitter_fraction < 1:
        raise ValueError("jitter_fraction must lie in [0, 1)")
    rng = np.random.default_rng(rng_seed)
    a, b, theta = base.as_arrays()
    theta_span = jitter_fraction * np.abs(theta)
    for _ in range(JITTER_MAX_RETRIES):
        factors = rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction, size=11)
        shifts = rng.uniform(-theta_span, theta_span)
        try:
            return replace(
                base,
                a=tuple(a * factors[:5]),
                b=tuple(b * factors[5:10]),
                theta=tuple(theta + shifts),
                x0=base.x0 * factors[10],
            )
        except ValueError:
            continue
    raise InvalidJitterError(
        f"no valid parameter draw in {JITTER_MAX_RETRIES} attempts "
        f"(jitter_fraction={jitter_fraction})"
    )


def jitter_population(base: OdeParams, jitter_fraction: float, n: int,
                      seed) -> list[OdeParams]:
    """Draw ``n`` independent jittered parameter sets.

    Each draw uses its own child seed (indexed by position), so results do
    not depend on how a caller partitions the work.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(n)
    return [sample_jittered_params(base, jitter_fraction, s) for s in children]


def check_window(d: int, r_offset: int, fs: float, period: float) -> None:
    """Raise unless a ``d``-sample window with its R peak at column
    ``r_offset`` fits inside one cycle of ``period`` seconds at ``fs``,
    and that cycle is a whole number of RK4 steps (``STRIDE fs period``
    an integer), so the samples read past its end stay on the grid."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0 <= r_offset < d:
        raise ValueError("r_offset must satisfy 0 <= r_offset < d")
    if not (math.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be finite and positive, not {fs}")
    if d > fs * period + 1e-9:
        raise WindowTooLongError(
            f"window of {d} samples exceeds one cycle "
            f"({fs * period:.3f} samples at fs={fs})"
        )
    steps = STRIDE * fs * period
    if abs(steps - round(steps)) > 1e-9 * steps:
        nearest = round(steps) / (STRIDE * period)
        raise OffGridRateError(
            f"fs={fs} gives {steps:.6g} RK4 steps per {period:.6g} s cycle, "
            f"not a whole number; the nearest valid fs is {nearest:.10g}"
        )


def extract_canonical_beats(params_batch, fs: float, d: int,
                            r_offset: int | None = None) -> np.ndarray:
    """Extract steady-state beats for a batch sharing one ``omega``.

    Returns an array of shape ``(len(params_batch), d)``; see
    :func:`extract_canonical_beat` for the single-beat contract. One cycle
    is integrated; :func:`check_window` refuses an ``fs`` at which it is
    not a whole number of RK4 steps.
    """
    params_batch = list(params_batch)
    if not params_batch:
        raise ValueError("params_batch must be non-empty")
    omega = params_batch[0].omega
    if any(p.omega != omega for p in params_batch):
        raise ValueError("batched extraction requires a shared omega")
    d = int(d)
    r_offset = d // 3 if r_offset is None else int(r_offset)
    period = _TWO_PI / omega
    check_window(d, r_offset, fs, period)

    n = len(params_batch)
    a = np.stack([np.asarray(p.a, dtype=np.float64) for p in params_batch])
    b = np.stack([np.asarray(p.b, dtype=np.float64) for p in params_batch])
    theta = np.stack([np.asarray(p.theta, dtype=np.float64) for p in params_batch])
    x0 = np.array([p.x0 for p in params_batch])

    h = 1.0 / (STRIDE * fs)
    steps_per_cycle = int(round(period / h))  # >= STRIDE, as d >= 1

    # x_zero: one cycle from voltage 0 and phase pi (half a cycle from R).
    # The one-cycle map on x is affine, x -> rho^steps x + x_zero[steps],
    # so the periodic orbit is x_zero[k] + rho^k x_init, no burn-in needed.
    # Sample j is step STRIDE * j from the start, read modulo the cycle;
    # only steps that are multiples of ``grid`` are read.
    grid = math.gcd(STRIDE, steps_per_cycle)
    _, _, x_zero = _rk4_mcsharry(a, b, theta, x0, omega, -1.0, 0.0,
                                 np.zeros(n), h, steps_per_cycle, grid)
    rho = _rk4_rho(h)
    x_init = x_zero[:, -1] / (1.0 - rho ** steps_per_cycle)
    steps = grid * np.arange(steps_per_cycle // grid)
    orbit = x_zero[:, :-1] + rho ** steps * x_init[:, None]

    def columns(samples):
        return (STRIDE * samples) % steps_per_cycle // grid

    # the R peak is searched over the second cycle's samples
    samples_per_cycle = steps_per_cycle / STRIDE
    lo = int(round(samples_per_cycle))
    hi = int(round(2 * samples_per_cycle))
    peaks = lo + np.argmax(orbit[:, columns(np.arange(lo, hi))], axis=1)
    window = columns(peaks[:, None] - r_offset + np.arange(d))
    return orbit[np.arange(n)[:, None], window]


def extract_canonical_beat(params: OdeParams, fs: float, d: int,
                           r_offset: int | None = None) -> ThetaBeat:
    """Extract one steady-state beat of length ``d`` sampled at ``fs``.

    The beat window places the R peak (the cycle's global maximum) at
    column ``r_offset`` (default ``d // 3``). Requires
    ``d <= fs * 2 pi / omega``, i.e. the window must fit inside one cycle.
    Deterministic: repeated extractions return identical vectors.
    """
    if r_offset is None:
        r_offset = int(d) // 3
    beats = extract_canonical_beats([params], fs, d, r_offset)
    return ThetaBeat(values=beats[0], r_index=int(r_offset))
