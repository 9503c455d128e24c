"""R-peak detection and beat alignment on simulated traces."""
import numpy as np
import pytest

from ecgdenoise.align import Delineation, align_beats, detect_r_peaks
from ecgdenoise.bench import DEFAULT_AMPLITUDE_GAIN, DEFAULT_JITTER
from ecgdenoise.errors import NoBeatsError
from ecgdenoise.simulate import (
    DEFAULT_PARAMS,
    RawTrace,
    integrate_mcsharry,
    sample_jittered_params,
)


@pytest.fixture(scope="module")
def long_trace():
    """A 30 s steady-state trace (first 10 s of transient sliced off)."""
    full = integrate_mcsharry(DEFAULT_PARAMS, duration=40.0, fs=500.0)
    return RawTrace(fs=full.fs, values=full.values[5000:])


class TestDetectRPeaks:
    def test_thirty_second_trace(self, long_trace):
        delineation = detect_r_peaks(long_trace, min_rr=0.3)
        n = delineation.n_beats
        assert 29 <= n <= 31
        gaps = np.diff(delineation.r)
        assert np.all(np.abs(gaps - 500.0 * DEFAULT_PARAMS.period) <= 1.0)

    def test_single_beat(self):
        trace = integrate_mcsharry(DEFAULT_PARAMS, duration=1.0, fs=500.0,
                                   initial_state=(-1.0, 0.0, 0.0))
        delineation = detect_r_peaks(trace, min_rr=0.3)
        assert delineation.n_beats == 1
        assert abs(int(delineation.r[0]) - int(np.argmax(trace.values))) <= 1

    def test_flat_trace_raises(self):
        trace = RawTrace(fs=100.0, values=np.zeros(500))
        with pytest.raises(NoBeatsError):
            detect_r_peaks(trace, min_rr=0.3)

    def test_too_short_trace(self):
        trace = RawTrace(fs=100.0, values=np.zeros(10))
        with pytest.raises(ValueError, match="shorter"):
            detect_r_peaks(trace, min_rr=0.5)

    def test_refractory_suppresses_close_peaks(self):
        x = np.zeros(1000)
        x[100] = 1.0
        x[120] = 0.9  # inside the refractory window of the stronger peak
        x[500] = 1.0
        trace = RawTrace(fs=100.0, values=x)
        delineation = detect_r_peaks(trace, min_rr=0.5)
        np.testing.assert_array_equal(delineation.r, [100, 500])

    @pytest.mark.parametrize("seed", [203, 205])
    def test_tall_t_wave_is_not_a_beat(self, seed):
        # these subjects' T waves reach about 85% of the R height 0.31 s
        # after R, past the refractory spacing; only slope tells them apart
        params = sample_jittered_params(
            DEFAULT_PARAMS.scaled(DEFAULT_AMPLITUDE_GAIN), DEFAULT_JITTER,
            rng_seed=seed)
        fs, duration = 250.0, 12.0
        trace = integrate_mcsharry(params, duration=duration, fs=fs)
        delineation = detect_r_peaks(trace)
        assert abs(delineation.n_beats - duration / params.period) <= 1
        gaps = np.diff(delineation.r)
        assert np.all(np.abs(gaps - fs * params.period) <= 1.0)

    def test_flat_slope_between_beats_ignored(self):
        # a broad bump as tall as the spikes has far gentler flanks
        t = np.arange(1000) / 100.0
        x = np.exp(-0.5 * ((t - 7.0) / 0.4) ** 2)
        x[[200, 500]] = 1.0
        delineation = detect_r_peaks(RawTrace(fs=100.0, values=x), min_rr=0.5)
        np.testing.assert_array_equal(delineation.r, [200, 500])

    def test_delineation_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Delineation(r=np.array([5, 5, 9]))
        with pytest.raises(ValueError, match="non-negative"):
            Delineation(r=np.array([-1, 5]))


class TestAlignBeats:
    def test_single_beat_row(self):
        x = np.zeros(300)
        x[150] = 1.0
        trace = RawTrace(fs=100.0, values=x)
        beats = align_beats(trace, Delineation(r=np.array([150])), d=60,
                            r_offset=20)
        assert beats.shape == (1, 60)
        assert int(np.argmax(beats[0])) == 20

    def test_noiseless_trace_rows_agree(self, long_trace):
        delineation = detect_r_peaks(long_trace, min_rr=0.3)
        beats = align_beats(long_trace, delineation, d=493, r_offset=164)
        assert beats.shape[0] >= 23
        diffs = beats - beats[-1]
        rms = np.sqrt(np.mean(diffs**2, axis=1))
        assert rms.max() < 1e-5

    def test_edge_beats_dropped(self):
        x = np.zeros(200)
        x[[5, 100, 195]] = 1.0
        trace = RawTrace(fs=100.0, values=x)
        beats = align_beats(trace, Delineation(r=np.array([5, 100, 195])),
                            d=40, r_offset=20)
        assert beats.shape == (1, 40)  # only the middle beat fits

    def test_all_beats_dropped_raises(self):
        x = np.zeros(50)
        x[25] = 1.0
        trace = RawTrace(fs=100.0, values=x)
        with pytest.raises(NoBeatsError):
            align_beats(trace, Delineation(r=np.array([25])), d=60, r_offset=30)

    def test_bad_offset_rejected(self):
        trace = RawTrace(fs=100.0, values=np.ones(100))
        delineation = Delineation(r=np.array([50]))
        with pytest.raises(ValueError, match="r_offset"):
            align_beats(trace, delineation, d=10, r_offset=10)

    def test_alignment_idempotent(self):
        # aligning an already-extracted beat row reproduces it exactly
        rng = np.random.default_rng(0)
        beat = rng.standard_normal(80)
        beat[30] = 10.0
        trace = RawTrace(fs=100.0, values=beat)
        out = align_beats(trace, Delineation(r=np.array([30])), d=80,
                          r_offset=30)
        np.testing.assert_array_equal(out[0], beat)

    def test_translation_invariance(self, long_trace):
        delineation = detect_r_peaks(long_trace, min_rr=0.3)
        beats = align_beats(long_trace, delineation, d=200, r_offset=60)
        shift = 37
        padded = np.concatenate([np.zeros(shift), long_trace.values])
        shifted = RawTrace(fs=long_trace.fs, values=padded)
        delineation2 = Delineation(r=delineation.r + shift)
        beats2 = align_beats(shifted, delineation2, d=200, r_offset=60)
        np.testing.assert_array_equal(beats, beats2)
