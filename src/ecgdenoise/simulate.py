"""Synthetic single-lead ECG generation with the McSharry limit-cycle ODE.

A rotating (u, v) pair is attracted to the unit circle; the voltage x is
driven by five Gaussian-shaped angular bumps (P, Q, R, S, T) plus a linear
pull toward the baseline. Integration uses classical fixed-step RK4 with
step h = 1 / (4 fs), so every fourth state lands on the output grid.

(u, v) depends neither on x nor on the wave parameters, so traces sharing
``omega`` and a start share one phase path, stepped once; dx/dt is linear
in x, so each RK4 step on x is an affine map x -> rho x + c_k.
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

#: Sampling rate (Hz) of the benchmark, and of datasets that do not state one.
DEFAULT_FS = 500.0

#: Retry budget when jittered positions violate the wave ordering.
JITTER_MAX_RETRIES = 100

#: Name of the integrator, recorded in benchmark reports and records.
BACKEND = "python"

#: Traces whose forcing is evaluated together. Each (4 steps, traces)
#: temporary of one cycle at 500 Hz then holds about 2 MB.
TRACE_BLOCK = 32


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
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


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

    @property
    def duration(self) -> float:
        return (self.values.size - 1) / self.fs


@dataclass(frozen=True)
class ThetaBeat:
    """A canonical beat: d voltage samples with the R peak at ``r_index``."""

    values: np.ndarray
    r_index: int
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("beat must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("beat values must be finite")
        if not self.fs > 0:
            raise ValueError("fs must be positive")
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


def _baseline_minus_waves(phases, a, b, theta, x0) -> np.ndarray:
    """``x0 - sum_i a_i dth_i exp(-dth_i^2 / (2 b_i^2))``, shape (phases,
    traces), with ``dth_i`` the phase minus ``theta_i`` wrapped into
    (-pi, pi]. Elementwise only, so no trace depends on its block."""
    total = np.zeros((phases.size, a.shape[0]))
    for i in range(a.shape[1]):
        dth = phases[:, None] - theta[:, i]
        turns = dth + math.pi
        turns /= _TWO_PI
        np.floor(turns, out=turns)
        turns *= _TWO_PI
        dth -= turns
        dth[dth == -math.pi] = math.pi
        g = np.multiply(dth, dth, out=turns)
        g /= -(2.0 * b[:, i] * b[:, i])
        np.exp(g, out=g)
        dth *= a[:, i]
        g *= dth
        total += g
    return np.subtract(x0, total, out=total)


def _divergence_steps(path: np.ndarray) -> np.ndarray:
    """First step after which each column of ``path`` (row k: the state
    after step k) is non-finite; ``len(path)`` where none is."""
    bad = ~np.isfinite(path)
    first = np.where(bad.any(axis=0), bad.argmax(axis=0), len(path))
    return np.maximum(first, 1)


def _rk4_mcsharry(a, b, theta, x0, omega, u0, v0, xinit, h, n_steps, stride):
    """Integrate McSharry systems that share one phase path with RK4.

    Arrays ``a``, ``b``, ``theta`` (n, 5) and ``x0``, ``xinit`` (n,) are per
    trace; ``omega``, ``u0`` and ``v0`` are shared (scalars, or arrays of
    equal entries). Returns the phase states ``u``, ``v`` (m,) and the
    voltages ``x`` (n, m) at every ``stride``-th step, m = n_steps // stride
    + 1. With the forcing g fixed at the four stage phases, an RK4 step on
    dx/dt = g - x is x -> rho x + c_k, c_k a weighted sum of those four g.
    Raises :class:`IntegrationDivergedError` naming the first non-finite
    step and trace.
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
    x = np.empty((n, n_steps // stride + 1))
    diverged = np.full(n, _divergence_steps(states).min())
    for lo in range(0, n, TRACE_BLOCK):
        block = slice(lo, lo + TRACE_BLOCK)
        g = _baseline_minus_waves(phases, a[block], b[block], theta[block],
                                  x0[block]).reshape(n_steps, 4, -1)
        path = np.empty((n_steps + 1, g.shape[2]))
        path[0] = xinit[block]
        path[1:] = w1 * g[:, 0] + w2 * g[:, 1] + w3 * g[:, 2] + h6 * g[:, 3]
        for k in range(n_steps):
            path[k + 1] += rho * path[k]
        x[block] = path[::stride].T
        diverged[block] = np.minimum(diverged[block], _divergence_steps(path))
    if diverged.min() <= n_steps:
        trace = int(np.argmin(diverged))
        raise IntegrationDivergedError(int(diverged[trace]), trace)
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
    return ThetaBeat(values=beats[0], r_index=int(r_offset), fs=fs)
