"""McSharry simulation: parameter validation, dynamics, beats, jitter."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgdenoise.errors import (
    EcgDenoiseError,
    InvalidJitterError,
    OffGridRateError,
    WindowTooLongError,
)
from ecgdenoise import simulate
from ecgdenoise.simulate import (
    DEFAULT_PARAMS,
    MAX_CYCLE_STEPS,
    STRIDE,
    OdeParams,
    _phase_path,
    check_window,
    extract_canonical_beat,
    extract_canonical_beats,
    integrate_mcsharry,
    jitter_population,
    sample_jittered_params,
)


def logistic_radius(r0: float, t: float) -> float:
    """Closed-form radius of the limit-cycle attractor: dr/dt = r (1 - r)."""
    return r0 / (r0 + (1.0 - r0) * math.exp(-t))


def final_radius(duration: float, fs: float, start) -> float:
    """|(u, v)| at the last sample of a ``duration``-second trace at
    ``fs`` from phase point ``start``, stepped as ``integrate_mcsharry``
    steps it (every ``STRIDE``-th state is a sample)."""
    states, _ = _phase_path(DEFAULT_PARAMS.omega, *start, 1.0 / (STRIDE * fs),
                            int(round(duration * fs)) * STRIDE)
    return math.hypot(*states[::STRIDE][-1])


class TestOdeParams:
    def test_defaults_valid(self):
        p = DEFAULT_PARAMS
        assert p.period == pytest.approx(1.0)
        assert len(p.a) == len(p.b) == len(p.theta) == 5

    def test_wrong_wave_count(self):
        with pytest.raises(ValueError, match="five"):
            OdeParams(a=(1.0,) * 4, b=(0.1,) * 4, theta=(0.0, 0.1, 0.2, 0.3))

    def test_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            replace(DEFAULT_PARAMS, b=(0.25, 0.1, 0.0, 0.1, 0.4))

    def test_nonpositive_omega(self):
        with pytest.raises(ValueError, match="omega"):
            replace(DEFAULT_PARAMS, omega=0.0)

    def test_out_of_order_positions(self):
        theta = (-math.pi / 3, 0.0, -math.pi / 12, math.pi / 12, math.pi / 2)
        with pytest.raises(ValueError, match="increasing"):
            replace(DEFAULT_PARAMS, theta=theta)

    def test_scaled_multiplies_amplitudes_and_baseline(self):
        p = replace(DEFAULT_PARAMS, x0=0.5).scaled(2.0)
        assert p.a == tuple(2.0 * a for a in DEFAULT_PARAMS.a)
        assert p.x0 == 1.0
        assert p.b == DEFAULT_PARAMS.b


class TestIntegration:
    def test_zero_forcing_decays_to_baseline(self):
        p = replace(DEFAULT_PARAMS, a=(0.0,) * 5, x0=2.0)
        trace = integrate_mcsharry(p, duration=6.0, fs=100.0,
                                   initial_state=(-1.0, 0.0, 3.0))
        x = trace.values
        assert np.all(np.diff(x) < 0)  # monotone decay toward x0
        assert abs(x[-1] - 2.0) < 2e-2

    def test_default_beat_morphology(self):
        trace = integrate_mcsharry(DEFAULT_PARAMS, duration=6.0, fs=500.0)
        x = trace.values[2 * 500:]  # past the transient
        # one beat per second: count prominent maxima
        r_level = 0.5 * x.max()
        ups = np.flatnonzero((x[1:-1] > r_level) & (x[1:-1] >= x[2:])
                             & (x[1:-1] > x[:-2])) + 1
        assert 3 <= len(ups) <= 5
        # R strictly dominates every other deflection
        assert x.max() > 2.0 * np.abs(np.delete(x, ups)).max() / 2.0
        # both polarities present (Q/S negative, P/T positive)
        assert x.min() < -0.2 * x.max()

    def test_radius_matches_logistic_solution(self):
        # independent oracle: dr/dt = r (1 - r) solved in closed form
        r_end = final_radius(5.0, 500.0, (0.5, 0.0))
        assert r_end == pytest.approx(logistic_radius(0.5, 5.0), abs=1e-9)
        # the radius is still ~7e-3 away from 1 at t = 5 s ...
        assert abs(r_end - 1.0) < 1e-2
        # ... and within 1e-3 by t = 10 s
        assert abs(final_radius(10.0, 500.0, (0.5, 0.0)) - 1.0) < 1e-3

    @settings(max_examples=12, deadline=None)
    @given(
        r0=st.floats(min_value=0.11, max_value=1.99),
        phase=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_limit_cycle_attraction(self, r0, phase):
        start = (r0 * math.cos(phase), r0 * math.sin(phase))
        assert abs(final_radius(10.0, 100.0, start) - 1.0) < 1e-3

    def test_period_between_r_peaks(self):
        fs = 500.0
        trace = integrate_mcsharry(DEFAULT_PARAMS, duration=12.0, fs=fs)
        x = trace.values[int(3 * fs):]
        level = 0.6 * x.max()
        peaks = np.flatnonzero(
            (x[1:-1] > level) & (x[1:-1] >= x[2:]) & (x[1:-1] > x[:-2])
        ) + 1
        gaps = np.diff(peaks)
        expected = fs * DEFAULT_PARAMS.period
        assert np.all(np.abs(gaps - expected) <= 1.0)

    def test_rk4_convergence_order(self):
        from ecgdenoise.simulate import _rk4_mcsharry as rk4_mcsharry

        p = DEFAULT_PARAMS
        a, b, theta = p.as_arrays()
        args = (a[None], b[None], theta[None], np.array([p.x0]), p.omega,
                0.8, 0.1, np.array([0.02]))
        fs = 250.0

        def run(refine):
            h = 1.0 / (4.0 * fs * refine)
            x = rk4_mcsharry(*args, h, int(4 * fs * refine), 4 * refine)
            return x[0]

        reference = run(16)
        errs = [np.max(np.abs(run(k) - reference)) for k in (1, 2, 4)]
        orders = np.diff(np.log2(errs)) * -1.0
        assert np.all(orders >= 3.5)

    def test_wave_additivity_exact_superposition(self):
        # the voltage equation is linear in the forcing, so with x0 = 0 the
        # full trace equals the no-P trace plus the P-only trace exactly
        fs = 500.0
        full = integrate_mcsharry(DEFAULT_PARAMS, 6.0, fs).values
        no_p = integrate_mcsharry(
            replace(DEFAULT_PARAMS, a=(0.0,) + DEFAULT_PARAMS.a[1:]), 6.0, fs
        ).values
        p_only = integrate_mcsharry(
            replace(DEFAULT_PARAMS, a=(DEFAULT_PARAMS.a[0],) + (0.0,) * 4),
            6.0, fs,
        ).values
        np.testing.assert_allclose(full, no_p + p_only, atol=1e-12)

    def test_wave_additivity_removing_p(self):
        # zeroing a_P removes the P deflection; the QRS shape (window mean
        # removed, scaled by the QRS excursion) moves by well under 1%.
        # The raw window shifts more because the baseline-decay term
        # carries the P tail into the QRS.
        fs = 500.0
        d = 493
        r_off = 164
        full = extract_canonical_beat(DEFAULT_PARAMS, fs, d, r_off).values
        no_p = extract_canonical_beat(
            replace(DEFAULT_PARAMS, a=(0.0,) + DEFAULT_PARAMS.a[1:]), fs, d,
            r_off).values
        qrs = slice(r_off - 25, r_off + 25)
        diff = full[qrs] - no_p[qrs]
        shape_change = np.sqrt(np.mean((diff - diff.mean()) ** 2))
        qrs_scale = full[qrs].max() - full[qrs].min()
        assert shape_change < 0.01 * qrs_scale
        # the P window (before Q) loses its deflection
        p_window = slice(0, r_off - 40)
        full_p = full[p_window] - full[p_window].mean()
        no_p_p = no_p[p_window] - no_p[p_window].mean()
        assert np.abs(no_p_p).max() < 0.2 * np.abs(full_p).max()

    def test_invalid_durations(self):
        with pytest.raises(ValueError):
            integrate_mcsharry(DEFAULT_PARAMS, duration=0.0, fs=100.0)
        with pytest.raises(ValueError):
            integrate_mcsharry(DEFAULT_PARAMS, duration=1.0, fs=-5.0)


class TestJitter:
    def test_zero_jitter_is_identity(self):
        out = sample_jittered_params(DEFAULT_PARAMS, 0.0, rng_seed=0)
        assert out == DEFAULT_PARAMS

    def test_same_seed_same_output(self):
        a = sample_jittered_params(DEFAULT_PARAMS, 0.1, rng_seed=42)
        b = sample_jittered_params(DEFAULT_PARAMS, 0.1, rng_seed=42)
        assert a == b

    def test_monte_carlo_bounds(self):
        # 10k draws of a_R / base stay inside [0.9, 1.1] and spread out
        base_r = DEFAULT_PARAMS.a[2]
        ratios = np.array([
            sample_jittered_params(DEFAULT_PARAMS, 0.1, rng_seed=s).a[2] / base_r
            for s in np.random.SeedSequence(9).spawn(10_000)
        ])
        assert ratios.min() >= 0.9
        assert ratios.max() <= 1.1
        assert ratios.min() < 0.905 and ratios.max() > 1.095

    def test_r_position_never_moves(self):
        out = sample_jittered_params(DEFAULT_PARAMS, 0.3, rng_seed=1)
        assert out.theta[2] == 0.0
        assert out.omega == DEFAULT_PARAMS.omega

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            sample_jittered_params(DEFAULT_PARAMS, 1.0, rng_seed=0)

    def test_retry_budget_exhausted(self):
        # a generator that always shifts P above Q exhausts the retries
        class Adversarial(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.PCG64(0))

            def uniform(self, low=0.0, high=1.0, size=None):
                if size == 11:
                    return np.ones(11)  # amplitude/width factors: no-op
                out = np.zeros(np.broadcast(np.asarray(low),
                                            np.asarray(high)).shape)
                out[0] = np.broadcast_to(high, out.shape)[0]
                out[1] = np.broadcast_to(low, out.shape)[1]
                return out

        with pytest.raises(InvalidJitterError):
            sample_jittered_params(DEFAULT_PARAMS, 0.9, rng_seed=Adversarial())

    def test_population_is_order_independent(self):
        pop = jitter_population(DEFAULT_PARAMS, 0.1, 5, seed=11)
        again = jitter_population(DEFAULT_PARAMS, 0.1, 5, seed=11)
        assert pop == again


class TestChildSeeds:
    @pytest.mark.parametrize("kwargs", [
        {"entropy": 0}, {"entropy": 2**64 + 3},
        {"entropy": 7, "spawn_key": (2, 5)}, {"entropy": 7, "pool_size": 8}])
    def test_children_of_a_first_spawn(self, kwargs):
        # the streams of a first spawn, so seeded results stay as they were
        spawned = np.random.SeedSequence(**kwargs).spawn(4)
        seeds = [np.random.SeedSequence(**kwargs)]
        if list(kwargs) == ["entropy"]:  # an int: the default key and pool
            seeds.append(kwargs["entropy"])
        for seed in seeds:
            children = simulate._child_seeds(seed, 4)
            assert [c.spawn_key for c in children] == \
                [c.spawn_key for c in spawned]
            for child, reference in zip(children, spawned):
                np.testing.assert_array_equal(child.generate_state(8),
                                              reference.generate_state(8))


class TestExtractCanonicalBeat:
    def test_single_sample_window(self):
        beat = extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=1, r_offset=0)
        trace = integrate_mcsharry(DEFAULT_PARAMS, duration=16.0, fs=500.0)
        steady_peak = trace.values[-500:].max()  # last cycle: transient gone
        assert beat.values[0] == pytest.approx(steady_peak, abs=1e-6)

    def test_default_window_peak_at_offset(self):
        # the benchmark's window: d = 493, R at d // 3
        beat = extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=493,
                                      r_offset=164)
        assert beat.d == 493
        assert int(np.argmax(beat.values)) == 164

    def test_deterministic(self):
        a = extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=400,
                                   r_offset=133)
        b = extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=400,
                                   r_offset=133)
        np.testing.assert_array_equal(a.values, b.values)

    def test_successive_cycles_agree(self):
        # steady-state windows one cycle apart match to well under 1e-6 RMS
        fs, d, r_off = 500.0, 493, 164
        trace = integrate_mcsharry(DEFAULT_PARAMS, duration=20.0, fs=fs,
                                   initial_state=(-1.0, 0.0, 0.0))
        x = trace.values
        seg = x[int(16 * fs):]
        m = int(np.argmax(seg[:int(fs)])) + int(16 * fs)
        w1 = x[m - r_off: m - r_off + d]
        m2 = m + int(fs * DEFAULT_PARAMS.period)
        w2 = x[m2 - r_off: m2 - r_off + d]
        assert np.sqrt(np.mean((w1 - w2) ** 2)) < 1e-6
        # and the extracted beat matches those windows
        beat = extract_canonical_beat(DEFAULT_PARAMS, fs, d, r_off)
        assert np.sqrt(np.mean((beat.values - w1) ** 2)) < 1e-6

    def test_window_too_long(self):
        with pytest.raises(WindowTooLongError):
            extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=501,
                                   r_offset=167)

    def test_batch_matches_single(self):
        pop = jitter_population(DEFAULT_PARAMS, 0.1, 4, seed=5)
        batch = extract_canonical_beats(pop, fs=500.0, d=300, r_offset=100)
        for row, params in zip(batch, pop):
            single = extract_canonical_beat(params, fs=500.0, d=300, r_offset=100)
            np.testing.assert_array_equal(row, single.values)

    def test_bad_offset(self):
        with pytest.raises(ValueError):
            extract_canonical_beat(DEFAULT_PARAMS, fs=500.0, d=100, r_offset=100)

    def test_off_grid_rate_refused(self):
        # 4 * 333.3 * 1 s = 1333.2 RK4 steps per cycle; 1333 is nearest
        with pytest.raises(OffGridRateError, match="nearest valid fs is 333.25"):
            extract_canonical_beat(DEFAULT_PARAMS, fs=333.3, d=200,
                                   r_offset=66)

    def test_every_integer_rate_on_grid(self):
        for fs in range(1, 2001):
            check_window(1, 0, float(fs), DEFAULT_PARAMS.period)

    @pytest.mark.parametrize("fs", [0.0, -5.0, math.inf, math.nan])
    def test_bad_rate_refused(self, fs):
        with pytest.raises(ValueError, match="fs must be finite and positive"):
            check_window(1, 0, fs, DEFAULT_PARAMS.period)

    @pytest.mark.parametrize("fs", [1e308, 5e307])
    def test_uncountable_step_count_refused(self, fs):
        # 4 fs steps per cycle overflow to inf, which round() cannot take
        with pytest.raises(OffGridRateError) as err:
            check_window(2, 0, fs, DEFAULT_PARAMS.period)
        assert str(err.value).startswith(f"fs={fs} ")
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, EcgDenoiseError)

    def test_step_bound(self, monkeypatch):
        # 4e8 steps per 1 s cycle are refused, naming fs, before any step
        def no_steps(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(simulate, "_phase_path", no_steps)
        period = DEFAULT_PARAMS.period
        with pytest.raises(OffGridRateError, match=r"^fs=1e\+08 .*MAX_CYCLE"):
            extract_canonical_beat(DEFAULT_PARAMS, fs=1e8, d=2, r_offset=0)
        check_window(2, 0, MAX_CYCLE_STEPS / (STRIDE * period), period)
        with pytest.raises(OffGridRateError, match="MAX_CYCLE_STEPS"):
            check_window(2, 0, (MAX_CYCLE_STEPS + 1) / (STRIDE * period),
                         period)

    def test_mixed_omega_refused(self):
        pop = [DEFAULT_PARAMS, replace(DEFAULT_PARAMS, omega=6.5)]
        with pytest.raises(ValueError, match="shared omega"):
            extract_canonical_beats(pop, fs=500.0, d=100, r_offset=33)
