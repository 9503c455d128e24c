"""Shared-phase RK4 integrator against two reference steppers.

``rk4_mcsharry`` below steps every trace's full (u, v, x) state with
classical RK4 and evaluates the forcing at each stage, one step at a time.
``block_rk4_mcsharry`` is the earlier form of the shared-phase kernel: the
forcing of 32 traces at a time over every step, wrapped on every row, then
the affine recurrence over the whole (steps, traces) path. The chunked
kernel must match it bit for bit. ``four_cycle_extract`` builds beats on
the plain stepper without reading modulo the cycle: one calibration cycle,
then three more cycles sampled on the output grid, with the R peak
searched in the second.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ecgdenoise import simulate
from ecgdenoise.errors import IntegrationDivergedError
from ecgdenoise.simulate import (
    DEFAULT_PARAMS,
    FORCING_CHUNK,
    SCALAR_STEP_TRACES,
    STRIDE,
    _phase_path,
    _rk4_mcsharry,
    _rk4_rho,
    extract_canonical_beat,
    extract_canonical_beats,
    jitter_population,
)

#: More traces than take the scalar step; with these, 2400 steps span
#: several forcing chunks.
N_ROWS = SCALAR_STEP_TRACES + 27

_TWO_PI = 2.0 * np.pi


def _wrap_centered(dth):
    """Wrap angles into (-pi, pi]."""
    w = dth - _TWO_PI * np.floor((dth + np.pi) / _TWO_PI)
    return np.where(w == -np.pi, np.pi, w)


def _deriv(u, v, x, a, b, theta, x0, omega):
    r = np.sqrt(u * u + v * v)
    alpha = 1.0 - r
    du = alpha * u - omega * v
    dv = alpha * v + omega * u
    phi = np.arctan2(v, u)
    dth = _wrap_centered(phi[:, None] - theta)
    g = a * dth * np.exp(-(dth * dth) / (2.0 * b * b))
    # fixed left-to-right accumulation over the waves
    s = g[:, 0]
    for k in range(1, g.shape[1]):
        s = s + g[:, k]
    dx = -s - (x - x0)
    return du, dv, dx


def rk4_mcsharry(a, b, theta, x0, omega, u0, v0, xinit, h, n_steps, stride):
    """Integrate a batch of McSharry systems with classical fixed-step RK4.

    Parameters
    ----------
    a, b, theta : ndarray, shape (n, 5)
        Wave amplitudes, widths (radians) and angular positions (radians).
    x0, omega, u0, v0, xinit : ndarray, shape (n,)
        Baseline voltage, angular frequency and initial state per trace.
    h : float
        Step size in seconds.
    n_steps : int
        Number of RK4 steps; must be a multiple of ``stride``.
    stride : int
        Keep every ``stride``-th state (plus the initial one).

    Returns
    -------
    (u, v, x) : ndarrays of shape (n, n_steps // stride + 1)

    Raises
    ------
    IntegrationDivergedError
        If any trace reaches a non-finite state; the error names the step.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    omega = np.ascontiguousarray(omega, dtype=np.float64)
    u = np.array(u0, dtype=np.float64, copy=True)
    v = np.array(v0, dtype=np.float64, copy=True)
    x = np.array(xinit, dtype=np.float64, copy=True)
    n = u.shape[0]
    n_steps = int(n_steps)
    stride = int(stride)
    if stride < 1 or n_steps % stride != 0:
        raise ValueError("n_steps must be a non-negative multiple of stride")

    m = n_steps // stride + 1
    out_u = np.empty((n, m))
    out_v = np.empty((n, m))
    out_x = np.empty((n, m))
    out_u[:, 0] = u
    out_v[:, 0] = v
    out_x[:, 0] = x

    h6 = h / 6.0
    h2 = h / 2.0
    for k in range(n_steps):
        k1u, k1v, k1x = _deriv(u, v, x, a, b, theta, x0, omega)
        k2u, k2v, k2x = _deriv(u + h2 * k1u, v + h2 * k1v, x + h2 * k1x,
                               a, b, theta, x0, omega)
        k3u, k3v, k3x = _deriv(u + h2 * k2u, v + h2 * k2v, x + h2 * k2x,
                               a, b, theta, x0, omega)
        k4u, k4v, k4x = _deriv(u + h * k3u, v + h * k3v, x + h * k3x,
                               a, b, theta, x0, omega)
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)

        ok = np.isfinite(u) & np.isfinite(v) & np.isfinite(x)
        if not ok.all():
            raise IntegrationDivergedError(k + 1, int(np.flatnonzero(~ok)[0]))
        if (k + 1) % stride == 0:
            j = (k + 1) // stride
            out_u[:, j] = u
            out_v[:, j] = v
            out_x[:, j] = x

    return out_u, out_v, out_x


BLOCK = 32


def _block_forcing(phases, a, b, theta, x0):
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


def _block_divergence_steps(path):
    bad = ~np.isfinite(path)
    first = np.where(bad.any(axis=0), bad.argmax(axis=0), len(path))
    return np.maximum(first, 1)


def block_rk4_mcsharry(a, b, theta, x0, omega, u0, v0, xinit, h, n_steps,
                       stride):
    """The shared-phase kernel in blocks of ``BLOCK`` traces."""
    states, phases = _phase_path(omega, u0, v0, h, n_steps)
    rho = _rk4_rho(h)
    h6 = h / 6.0
    w1 = h6 * (1.0 - h + h * h / 2.0 - h ** 3 / 4.0)
    w2 = h6 * (2.0 - h + h * h / 2.0)
    w3 = h6 * (2.0 - h)
    n = len(xinit)
    x = np.empty((n, n_steps // stride + 1))
    diverged = np.full(n, _block_divergence_steps(states).min())
    for lo in range(0, n, BLOCK):
        block = slice(lo, lo + BLOCK)
        g = _block_forcing(phases, a[block], b[block], theta[block],
                           x0[block]).reshape(n_steps, 4, -1)
        path = np.empty((n_steps + 1, g.shape[2]))
        path[0] = xinit[block]
        path[1:] = w1 * g[:, 0] + w2 * g[:, 1] + w3 * g[:, 2] + h6 * g[:, 3]
        for k in range(n_steps):
            path[k + 1] += rho * path[k]
        x[block] = path[::stride].T
        diverged[block] = np.minimum(diverged[block],
                                     _block_divergence_steps(path))
    if diverged.min() <= n_steps:
        trace = int(np.argmin(diverged))
        raise IntegrationDivergedError(int(diverged[trace]), trace)
    return x


def four_cycle_extract(params_batch, fs, d, r_offset):
    """Beats from one calibration cycle plus three sampled cycles."""
    n = len(params_batch)
    a = np.stack([p.a for p in params_batch])
    b = np.stack([p.b for p in params_batch])
    theta = np.stack([p.theta for p in params_batch])
    x0 = np.array([p.x0 for p in params_batch])
    omegas = np.full(n, params_batch[0].omega)
    h = 1.0 / (STRIDE * fs)
    steps_per_cycle = int(round(_TWO_PI / params_batch[0].omega / h))
    start_u = np.full(n, -1.0)
    start_v = np.zeros(n)
    _, _, x_cal = rk4_mcsharry(a, b, theta, x0, omegas, start_u, start_v,
                               np.zeros(n), h, steps_per_cycle,
                               steps_per_cycle)
    rho = 1.0 - h + h * h / 2.0 - h ** 3 / 6.0 + h ** 4 / 24.0
    x_init = x_cal[:, -1] / (1.0 - rho ** steps_per_cycle)
    n_steps = 3 * steps_per_cycle
    n_steps += (-n_steps) % STRIDE
    _, _, x = rk4_mcsharry(a, b, theta, x0, omegas, start_u, start_v,
                           x_init, h, n_steps, STRIDE)
    samples_per_cycle = steps_per_cycle / STRIDE
    lo = int(round(samples_per_cycle))
    hi = int(round(2 * samples_per_cycle))
    starts = lo + np.argmax(x[:, lo:hi], axis=1) - r_offset
    return x[np.arange(n)[:, None], starts[:, None] + np.arange(d)]


def _population(n, seed=7, omega=DEFAULT_PARAMS.omega):
    base = replace(DEFAULT_PARAMS.scaled(27.5), omega=omega)
    return jitter_population(base, 0.3, n, seed=seed)


def _batch(params_batch, xinit):
    return (np.stack([p.a for p in params_batch]),
            np.stack([p.b for p in params_batch]),
            np.stack([p.theta for p in params_batch]),
            np.array([p.x0 for p in params_batch]),
            np.asarray(xinit, dtype=np.float64))


def _run_both(params_batch, xinit, start, h, n_steps, stride):
    a, b, theta, x0, xinit = _batch(params_batch, xinit)
    n = len(xinit)
    got = _rk4_mcsharry(a, b, theta, x0, params_batch[0].omega, start[0],
                        start[1], xinit, h, n_steps, stride)
    want = rk4_mcsharry(a, b, theta, x0, np.full(n, params_batch[0].omega),
                        np.full(n, start[0]), np.full(n, start[1]), xinit,
                        h, n_steps, stride)
    return got, want


class TestAgainstReference:
    @pytest.mark.parametrize("start", [(-1.0, 0.0), (0.8, 0.1), (0.3, -1.4)])
    def test_batch_matches_reference(self, start):
        # several chunks of row steps, each trace with its own waves
        n = N_ROWS
        xinit = np.random.default_rng(3).uniform(-1.0, 1.0, n)
        pop = _population(n)
        x, (ref_u, ref_v, ref_x) = _run_both(
            pop, xinit, start, h=1.0 / 2000.0, n_steps=2400, stride=4)
        assert x.shape == ref_x.shape == (n, 601)
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-10)
        # every trace's (u, v) is the one phase path, read every 4th step
        states, _ = _phase_path(pop[0].omega, *start, 1.0 / 2000.0, 2400)
        for column, ref in ((0, ref_u), (1, ref_v)):
            np.testing.assert_allclose(
                np.broadcast_to(states[::4, column], ref.shape), ref,
                rtol=0, atol=1e-10)

    def test_output_includes_initial_state(self):
        xinit = np.array([0.25, -0.5])
        x = _rk4_mcsharry(*_batch(_population(2), xinit)[:4],
                          DEFAULT_PARAMS.omega, 0.8, 0.1,
                          xinit, 1.0 / 2000.0, 400, 4)
        states, _ = _phase_path(DEFAULT_PARAMS.omega, 0.8, 0.1, 1.0 / 2000.0,
                                400)
        assert states.shape == (401, 2)
        assert tuple(states[0]) == (0.8, 0.1)
        assert x.shape == (2, 101)
        np.testing.assert_array_equal(x[:, 0], xinit)

    def test_bad_stride_rejected(self):
        args = _batch(_population(1), [0.0])
        for n_steps, stride in ((10, 4), (8, 0), (-4, 4)):
            with pytest.raises(ValueError):
                _rk4_mcsharry(*args[:4], DEFAULT_PARAMS.omega, -1.0, 0.0,
                              args[4], 1.0 / 2000.0, n_steps, stride)


class TestDivergence:
    def test_nonfinite_state_raises_with_step(self):
        with pytest.raises(IntegrationDivergedError) as err:
            _run_both(_population(2), [0.0, np.nan], (-1.0, 0.0),
                      1.0 / 2000.0, 100, 1)
        assert err.value.step >= 1
        assert err.value.trace_index == 1
        assert "step" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", ["xinit", "amplitude", "phase"])
    def test_error_names_the_reference_step_and_trace(self, poison):
        # the poisoned traces are not the first
        n = N_ROWS
        pop = _population(n)
        xinit = np.zeros(n)
        start = (-1.0, 0.0)
        if poison == "xinit":
            xinit[n - 2] = np.inf
        elif poison == "amplitude":
            pop[n - 1] = replace(pop[n - 1], a=(1.0, 1.0, 1e308, 1.0, 1.0))
        else:
            start = (1e200, 1e200)
        a, b, theta, x0, xinit = _batch(pop, xinit)
        with pytest.raises(IntegrationDivergedError) as want:
            rk4_mcsharry(a, b, theta, x0, np.full(n, pop[0].omega),
                         np.full(n, start[0]), np.full(n, start[1]), xinit,
                         1.0 / 2000.0, 40, 4)
        with pytest.raises(IntegrationDivergedError) as got:
            _rk4_mcsharry(a, b, theta, x0, pop[0].omega, start[0], start[1],
                          xinit, 1.0 / 2000.0, 40, 4)
        assert (got.value.step, got.value.trace_index) == \
            (want.value.step, want.value.trace_index)


class TestCanonicalBeats:
    @pytest.mark.parametrize("fs, omega, d", [
        (250.0, DEFAULT_PARAMS.omega, 250),  # a whole cycle
        (500.0, DEFAULT_PARAMS.omega, 493),
        # 500.25 samples per cycle: the grid does not close after a cycle
        (500.0, _TWO_PI * 2000.0 / 2001.0, 493),
    ], ids=["fs250", "fs500", "fs500-partial-sample"])
    def test_matches_four_cycle_extraction(self, fs, omega, d):
        pop = _population(6, seed=11, omega=omega)
        r_offset = d // 3
        got = extract_canonical_beats(pop, fs, d, r_offset)
        want = four_cycle_extract(pop, fs, d, r_offset)
        # The reference reads its second cycle, whose phase has drifted by
        # one cycle of RK4 phase error (about 8e-11 rad at fs = 250), so
        # the two agree to that drift relative to the beat's scale.
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-9 * scale

    def test_batch_across_blocks_matches_single(self):
        # row steps for the batch, scalar steps for each beat alone
        pop = _population(N_ROWS, seed=5)
        batch = extract_canonical_beats(pop, fs=250.0, d=200, r_offset=66)
        for row, params in zip(batch, pop):
            single = extract_canonical_beat(params, fs=250.0, d=200,
                                            r_offset=66)
            np.testing.assert_array_equal(row, single.values)


def _run_block(params_batch, xinit, start, h, n_steps, stride, theta=None):
    """The chunked kernel and the block kernel on one batch."""
    a, b, theta_batch, x0, xinit = _batch(params_batch, xinit)
    if theta is not None:
        theta_batch = theta
    args = (a, b, theta_batch, x0, params_batch[0].omega, start[0], start[1],
            xinit, h, n_steps, stride)
    return _rk4_mcsharry(*args), block_rk4_mcsharry(*args)


#: Strides per forcing chunk. From a start at phase pi, some waves need the
#: wrap on steps 0-2, the R wave moved to pi from a stage phase from step 8
#: on, and the S wave up to step 102-108, so these boundaries fall on each
#: side of the steps that need it; a chunk holding none skips the wrap.
CHUNK_STRIDES = {"one-stride": 1, "2-strides": 2, "3-strides": 3,
                 "26-strides": 26, "27-strides": 27}


@pytest.fixture(params=[None, *CHUNK_STRIDES.values()],
                ids=["chunk-default", *(f"chunk-{k}" for k in CHUNK_STRIDES)])
def chunk_budget(request, monkeypatch):
    """The forcing budget of a test's ``n`` traces: the default, or one
    that gives chunks of the param's number of strides."""
    budget = FORCING_CHUNK
    if request.param is not None:
        budget = 4 * request.getfixturevalue("n") * STRIDE * request.param
    monkeypatch.setattr(simulate, "FORCING_CHUNK", budget)
    return budget


class TestAgainstBlockKernel:
    """Bit equality with the block kernel, on the sizes the package runs."""

    @pytest.mark.parametrize("n", [300, 500], ids=["pipeline", "grid"])
    def test_population_cycle(self, n):
        # one cycle at 500 Hz from phase pi, as extract_canonical_beats runs
        pop = _population(n, seed=n)
        assert np.array_equal(*_run_block(pop, np.zeros(n), (-1.0, 0.0),
                                          1.0 / 2000.0, 2000, 4))

    @pytest.mark.parametrize("n", [3, N_ROWS], ids=["scalar", "rows"])
    @pytest.mark.parametrize("start", [(-1.0, 0.0), (-1.0, -0.0), (0.8, 0.1)])
    def test_phase_minus_theta_on_pi(self, n, start, chunk_budget):
        # (-1, +-0) starts at phase +-pi, where theta_R = 0 gives dth = +-pi;
        # two more traces put an R wave exactly pi from a later stage phase
        pop = _population(n, seed=2)
        h, n_steps = 1.0 / 2000.0, 400
        _, phases = _phase_path(pop[0].omega, *start, h, n_steps)
        theta = np.stack([p.theta for p in pop])
        hits = {}
        for phase in phases[7::13]:
            for sign in (1.0, -1.0):
                shifted = phase - sign * math.pi
                if phase - shifted == sign * math.pi:
                    hits.setdefault(sign, shifted)
        assert set(hits) == {1.0, -1.0}
        theta[0, 2], theta[1, 2] = hits[1.0], hits[-1.0]
        xinit = np.random.default_rng(4).uniform(-1.0, 1.0, n)
        assert np.array_equal(*_run_block(pop, xinit, start, h, n_steps, 4,
                                          theta=theta))

    def test_forty_second_trace(self):
        (pop_params,) = _population(1, seed=203)
        assert np.array_equal(*_run_block([pop_params], [0.0], (-1.0, 0.0),
                                          1.0 / 2000.0, 80000, STRIDE))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n", [3, N_ROWS], ids=["scalar", "rows"])
    @pytest.mark.parametrize("poison", ["xinit", "amplitude", "late",
                                        "phase"])
    def test_divergence_step_and_trace(self, n, poison, chunk_budget):
        pop = _population(n, seed=9)
        xinit = np.zeros(n)
        start = (-1.0, 0.0)
        if poison == "xinit":
            xinit[n - 2] = np.nan
        elif poison == "amplitude":
            pop[1] = replace(pop[1], a=(1.0, 1.0, 1e308, 1.0, 1.0))
        elif poison == "late":
            # the T wave's bump overflows only once the phase nears it
            pop[n - 1] = replace(pop[n - 1], a=(1.0, 1.0, 1.0, 1.0, 1e308))
        else:
            start = (1e200, 1e200)
        with pytest.raises(IntegrationDivergedError) as want:
            _run_block(pop, xinit, start, 1.0 / 2000.0, 400, 4)
        a, b, theta, x0, xinit = _batch(pop, xinit)
        with pytest.raises(IntegrationDivergedError) as got:
            _rk4_mcsharry(a, b, theta, x0, pop[0].omega, start[0], start[1],
                          xinit, 1.0 / 2000.0, 400, 4)
        assert (got.value.step, got.value.trace_index) == \
            (want.value.step, want.value.trace_index)

    def test_no_steps_by_traces_array(self):
        # 500 traces over one 500 Hz cycle: a (steps, traces) array would
        # take 8 MB; the kernel holds its output, three chunk buffers and
        # the phase path (about 0.2 MB)
        n, n_steps = 500, 2000
        a, b, theta, x0, xinit = _batch(_population(n), np.zeros(n))
        tracemalloc.start()
        try:
            _rk4_mcsharry(a, b, theta, x0, DEFAULT_PARAMS.omega, -1.0, 0.0,
                          xinit, 1.0 / 2000.0, n_steps, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = n * (n_steps // 4 + 1) * 8
        assert peak < output + 3 * FORCING_CHUNK * 8 + 2**20

    def test_forcing_split_at_each_wrap_edge(self):
        # one cycle from phase 0: the phase crosses +-pi mid-path, where the
        # T wave's phase - theta drops below -pi; a chunk boundary one row
        # either side of each row where some wave starts or stops needing
        # the wrap gives the block kernel's forcing bit for bit
        pop = _population(N_ROWS, seed=2)
        a, b, theta, x0, _ = _batch(pop, np.zeros(N_ROWS))
        _, phases = _phase_path(pop[0].omega, 1.0, 0.0, 1.0 / 2000.0, 2000)
        want = _block_forcing(phases, a, b, theta, x0)
        waves = (np.ascontiguousarray(a.T), -(2.0 * b.T * b.T),
                 np.ascontiguousarray(theta.T), x0)
        dth = phases[:, None, None] - theta
        needs = ((dth < -math.pi) | (dth >= math.pi)).any(axis=1)
        edges = np.flatnonzero(np.diff(needs, axis=0).any(axis=1)) + 1
        assert edges.size >= 2
        for split in np.unique(edges[:, None] + np.arange(-1, 2)):
            got = np.empty_like(want)
            for rows in (slice(0, split), slice(split, None)):
                simulate._baseline_minus_waves(
                    phases[rows], waves, got[rows],
                    np.empty_like(got[rows]), np.empty_like(got[rows]))
            assert np.array_equal(got, want), split
