"""Matern covariance, noise sampling (``bench.simulate_cell_beats``),
whitening, and K/tau estimation."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecgdenoise
from ecgdenoise import noise, simulate_cell_beats
from ecgdenoise.bench import (
    GEMM_ROW_ALIGN,
    BenchmarkConfig,
    TauRegime,
    draw_cell,
    grid_seeds,
    simulate_population,
)
from ecgdenoise.errors import InsufficientReplicatesError, ZeroNoiseError
from ecgdenoise.estimators import FaModel, MogFaModel
from ecgdenoise.noise import (
    RESIDUAL_BLOCK_ROWS,
    CovarianceMatrix,
    EcgSample,
    estimate_noise,
    matern_covariance,
    unwhiten,
    whiten,
)
from ecgdenoise.simulate import RawTrace, ThetaBeat


def noise_beats(k, tau, n_beats, seed):
    """``n_beats`` noise beats of one recording at precision ``tau``: a
    one-row cell of ``simulate_cell_beats``, the sampler the grid runs."""
    return simulate_cell_beats(np.zeros((1, k.d)), k, np.array([tau]),
                               n_beats, seed)[0]


def _from_eigh(matrix):
    """The covariance of a symmetric matrix of trace d, decomposed by one
    dense ``eigh``."""
    return CovarianceMatrix._floored(*np.linalg.eigh(matrix))


class TestCovarianceMatrix:
    def test_identity(self):
        k = CovarianceMatrix(eigenvalues=np.ones(8), eigenvectors=np.eye(8))
        np.testing.assert_allclose(k.matrix, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(k.sqrt, np.eye(8), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semi-definite"):
            CovarianceMatrix._floored(np.array([-0.5, 2.5]), np.eye(2))

    def test_trace_normalized(self, rng):
        # rank 6 of 12: flooring raises six eigenvalues, and the trace is
        # restored to d after it
        a = rng.standard_normal((12, 6))
        m = a @ a.T
        k = _from_eigh(m * (12.0 / np.trace(m)))
        assert np.trace(k.matrix) == pytest.approx(12.0, abs=1e-9)

    def test_whitening_contract(self, small_k):
        k = small_k
        product = k.inv_sqrt @ k.matrix @ k.inv_sqrt
        np.testing.assert_allclose(product, np.eye(k.d), atol=1e-8)

    def test_rank_deficient_floored(self):
        # rank-1 outer product still yields usable square roots; the
        # whiten/unwhiten round trip stays tight even in the floored
        # directions (the sandwich identity itself is limited to
        # eps * lam_max / floor there)
        v = np.arange(1.0, 7.0)
        k = _from_eigh(np.outer(v, v) * (6.0 / (v @ v)))
        assert np.all(k.eigenvalues > 0)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(6)
        back = unwhiten(k, whiten(k, x))
        assert np.abs(back - x).max() < 1e-8


class TestMaternCovariance:
    def test_white_noise_limit(self):
        k = matern_covariance(d=10, fs=500.0, lengthscale=1e-9, smoothness=1.5)
        np.testing.assert_allclose(k.matrix, np.eye(10), atol=1e-10)
        assert np.trace(k.matrix) == pytest.approx(10.0, abs=1e-10)

    def test_two_by_two_closed_form(self):
        # nu = 1/2 kernel at lag 1/fs: exp(-(1/fs) / lengthscale)
        fs, ell = 500.0, 0.02
        k = matern_covariance(d=2, fs=fs, lengthscale=ell, smoothness=0.5)
        expected = np.exp(-(1.0 / fs) / ell)  # = exp(-0.1)
        assert expected == pytest.approx(0.9048374180359595)
        assert k.matrix[0, 1] == pytest.approx(expected, rel=1e-12)
        assert k.matrix[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_full_size_psd(self):
        k = matern_covariance(d=493, fs=500.0, lengthscale=0.02, smoothness=1.5)
        # independent oracle: eigendecompose the produced matrix
        eigs = np.linalg.eigvalsh(np.asarray(k.matrix))
        assert eigs.min() >= -1e-10
        assert np.trace(k.matrix) == pytest.approx(493.0, abs=1e-8)

    @pytest.mark.parametrize("name", ["fs", "lengthscale"])
    def test_infinite_scale_refused(self, name):
        # r = lag / (fs lengthscale) would be 0: an all-ones K
        given = {"d": 4, "fs": 500.0, "lengthscale": 0.02, "smoothness": 1.5}
        given[name] = math.inf
        with pytest.raises(ValueError, match=f"{name} must be finite, not inf"):
            matern_covariance(**given)

    def test_unsupported_smoothness(self):
        with pytest.raises(ValueError, match=r"0.5.*1.5.*2.5"):
            matern_covariance(d=4, fs=500.0, lengthscale=0.02, smoothness=2.0)

    def test_stationary_diagonal(self):
        k = matern_covariance(d=50, fs=500.0, lengthscale=0.05, smoothness=2.5)
        np.testing.assert_allclose(np.diag(k.matrix), 1.0, rtol=1e-10)


def _kernel(d, fs, lengthscale, smoothness):
    """The Matern kernel matrix, built entry by entry from the lags."""
    r = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) / fs
    r = r / lengthscale
    if smoothness == 0.5:
        return np.exp(-r)
    s = math.sqrt(2.0 * smoothness) * r
    if smoothness == 1.5:
        return (1.0 + s) * np.exp(-s)
    return (1.0 + s + (5.0 / 3.0) * r * r) * np.exp(-s)


class TestMaternHalves:
    """The two centrosymmetric half problems against one full ``eigh``."""

    @pytest.mark.parametrize("d", [1, 2, 3, 80, 493])
    @pytest.mark.parametrize("smoothness", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("lengthscale", [5e-4, 0.02])
    def test_matches_full_eigh(self, lengthscale, smoothness, d):
        # the benchmark's 0.5 ms noise and the module default 20 ms, 500 Hz
        k = matern_covariance(d, 500.0, lengthscale, smoothness)
        kernel = _kernel(d, 500.0, lengthscale, smoothness)
        full = _from_eigh(kernel)
        vecs = k.eigenvectors
        assert np.abs(vecs.T @ vecs - np.eye(d)).max() <= 1e-14
        assert np.all(np.diff(k.eigenvalues) >= 0)
        np.testing.assert_allclose(k.eigenvalues, full.eigenvalues,
                                   rtol=0, atol=1e-13)
        # A perturbation of eps |K| in an eigenvalue lam moves sqrt(lam)
        # by eps |K| / (2 sqrt(lam)): 2e-12 for the 20 ms nu = 5/2 kernel
        # (lam_min 6e-6), where the two square roots differ by 1.7e-13.
        lam = full.eigenvalues
        bound = max(1e-13, np.finfo(float).eps * lam.max()
                    / math.sqrt(lam.min()))
        assert np.abs(k.sqrt - full.sqrt).max() <= bound
        assert np.abs(k.sqrt @ k.sqrt - kernel).max() <= 1e-14 * d


class TestLazyFactors:
    def _eager(self, k):
        """The factors as built before they became lazy."""
        vals, vecs = k.eigenvalues, k.eigenvectors
        mat = (vecs * vals) @ vecs.T
        sqrt = (vecs * np.sqrt(vals)) @ vecs.T
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        return {"matrix": 0.5 * (mat + mat.T),
                "sqrt": 0.5 * (sqrt + sqrt.T),
                "inv_sqrt": 0.5 * (inv_sqrt + inv_sqrt.T)}

    @pytest.mark.parametrize("build", [
        lambda: matern_covariance(80, 200.0, 5e-4, 0.5),
        lambda: estimate_noise(
            np.random.default_rng(8).standard_normal((4, 3, 30)))[0],
    ], ids=["matern", "estimate_noise"])
    def test_bit_equal_read_only_and_built_once(self, build):
        k = build()
        assert not {"matrix", "sqrt", "inv_sqrt"} & vars(k).keys()
        for name, want in self._eager(k).items():
            got = getattr(k, name)
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            assert getattr(k, name) is got
        with pytest.raises(ValueError):
            k.sqrt[0, 0] = 1.0

    def test_unread_factors_are_not_built(self):
        k = matern_covariance(40, 200.0, 5e-4, 0.5)
        with mock.patch.object(CovarianceMatrix, "_symmetric",
                               wraps=k._symmetric) as build:
            noise_beats(k, 2.0, 3, seed=1)
            noise_beats(k, 3.0, 3, seed=2)
        assert build.call_count == 1
        assert set(vars(k)) & {"matrix", "inv_sqrt"} == set()


class TestSampleNoiseBeats:
    """``simulate_cell_beats``: row i of a cell is ``thetas[i]`` plus B
    draws from N(0, K / tau_i^2)."""

    def test_one_row_is_a_plain_draw(self, small_k):
        draws = np.random.default_rng(7).standard_normal((3, small_k.d))
        np.testing.assert_array_equal(noise_beats(small_k, 2.0, 3, seed=7),
                                      (draws @ small_k.sqrt) / 2.0)

    def test_vanishing_noise(self, small_k):
        beats = noise_beats(small_k, 1e9, 5, seed=1)
        assert np.abs(beats).max() < 1e-6

    def test_needs_a_beat(self, small_k):
        with pytest.raises(ValueError, match="n_beats must be at least 1"):
            noise_beats(small_k, 2.0, 0, seed=1)

    def test_monte_carlo_covariance(self, small_k):
        draws = noise_beats(small_k, 1.0, 50_000, seed=2)
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - small_k.matrix) / np.linalg.norm(small_k.matrix)
        assert rel < 0.05

    def test_each_row_at_its_own_tau(self, small_k, rng):
        # a multi-row cell: each row is centred on its theta, and its
        # noise has covariance K / tau_i^2 at its own tau
        thetas = rng.standard_normal((3, small_k.d))
        taus = np.array([1.0, 2.0, 5.0])
        n_beats = 20_000
        beats = simulate_cell_beats(thetas, small_k, taus, n_beats, seed=5)
        assert beats.shape == (3, n_beats, small_k.d)
        for theta, tau, row in zip(thetas, taus, beats):
            noise = row - theta
            # the diagonal of K is 1: each mean is N(0, 1 / (tau^2 B))
            assert np.abs(noise.mean(axis=0)).max() < \
                5.0 / (tau * np.sqrt(n_beats))
            emp = noise.T @ noise / n_beats
            target = small_k.matrix / tau**2
            assert np.linalg.norm(emp - target) / np.linalg.norm(target) \
                < 0.05

    def test_deterministic(self, small_k, rng):
        thetas = rng.standard_normal((2, small_k.d))
        taus = np.array([2.0, 3.0])
        a = simulate_cell_beats(thetas, small_k, taus, 3, seed=7)
        b = simulate_cell_beats(thetas, small_k, taus, 3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_tau_scaling(self, small_k):
        a = noise_beats(small_k, 1.0, 3, seed=7)
        b = noise_beats(small_k, 4.0, 3, seed=7)
        np.testing.assert_allclose(a / 4.0, b, rtol=1e-12)

    def test_precision_type(self, small_k):
        # one tau check: a sample's true tau and the sampler's taus
        beats = np.zeros((2, small_k.d))
        for bad in (0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite"):
                EcgSample("s", beats, tau=bad)
            with pytest.raises(ValueError, match="tau must be finite"):
                simulate_cell_beats(np.zeros((2, small_k.d)), small_k,
                                    np.array([2.0, bad]), 2, seed=0)
        sample = EcgSample("s", beats, tau=4)
        assert type(sample.tau) is float and sample.tau == 4.0
        assert type(EcgSample("s", beats, tau=np.float64(2.5)).tau) is float
        assert EcgSample("s", beats).tau is None


class TestReadOnlyViews:
    def test_caller_arrays_stay_writable(self, rng):
        # frozen objects hold read-only views of the arrays they are given:
        # no copy, and the caller's arrays are not frozen with them
        beats = rng.standard_normal((3, 5))
        theta = np.array([0.0, 1.0, 3.0, 2.0, 0.5])
        values = rng.standard_normal(40)
        mean, loadings = rng.standard_normal(5), rng.standard_normal((5, 2))
        loglik = np.array([-3.0, -2.0])
        weights, comp_means = np.ones(1), np.zeros((1, 2))
        comp_covs = np.eye(2)[None].copy()
        sample = EcgSample("x", beats, theta=ThetaBeat(theta))
        trace = RawTrace(fs=500.0, values=values)
        fa = FaModel(mean=mean, loadings=loadings, loglik_trace=loglik)
        mog = MogFaModel(fa=fa, weights=weights, comp_means=comp_means,
                         comp_covs=comp_covs)
        held = [(sample.beats, beats), (sample.theta.values, theta),
                (trace.values, values), (fa.mean, mean),
                (fa.loadings, loadings), (fa.loglik_trace, loglik),
                (mog.weights, weights), (mog.comp_means, comp_means),
                (mog.comp_covs, comp_covs)]
        for frozen, given in held:
            assert np.shares_memory(frozen, given)
            assert not frozen.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                frozen.flat[0] = 1.0
            assert given.flags.writeable
            given.flat[0] = 1.0


class TestWhiten:
    def test_identity_covariance(self):
        k = CovarianceMatrix(eigenvalues=np.ones(6), eigenvectors=np.eye(6))
        x = np.arange(6.0)
        np.testing.assert_allclose(whiten(k, x), x, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_round_trip(self, small_k, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(small_k.d)
        mu = rng.standard_normal(small_k.d)
        back = unwhiten(small_k, whiten(small_k, x, mu)) + mu
        assert np.abs(back - x).max() < 1e-8

    def test_whitened_noise_isotropic(self):
        # d = 16 keeps the expected Monte Carlo error sqrt(d / n) ~ 2.8%
        k = matern_covariance(d=16, fs=500.0, lengthscale=0.02, smoothness=1.5)
        tau = 2.0
        draws = noise_beats(k, tau, 20_000, seed=3)
        white = whiten(k, draws)
        emp = white.T @ white / white.shape[0]
        target = np.eye(k.d) / tau**2
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def _simulate_samples(k, taus, theta_rows, B, seed):
    samples = []
    for i, (tau, theta) in enumerate(zip(taus, theta_rows)):
        beats = simulate_cell_beats(theta[None], k, np.array([tau]), B,
                                    (seed, i))[0]
        samples.append(EcgSample(sample_id=f"s{i}", beats=beats))
    return samples


class TestEstimateNoise:
    def test_requires_two_beats(self, small_k):
        sample = EcgSample(sample_id="s0", beats=np.zeros((1, small_k.d)))
        with pytest.raises(InsufficientReplicatesError):
            estimate_noise([sample])

    def test_zero_noise_flagged(self, small_k):
        beats = np.tile(np.linspace(0, 1, small_k.d), (4, 1))
        with pytest.raises(ZeroNoiseError):
            estimate_noise([EcgSample(sample_id="s0", beats=beats)])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_scatter_refused(self, small_k, rng):
        # squares of 1e160 overflow float64: refused as such, no warning
        theta = rng.standard_normal((5, small_k.d))
        samples = _simulate_samples(small_k, [2.0] * 5, theta, B=4, seed=0)
        beats = np.stack([s.beats for s in samples]) * 1e160
        with pytest.raises(ValueError, match="overflows float64"):
            estimate_noise(beats)

    @pytest.mark.filterwarnings("error")
    def test_underflowing_trace_refused(self, rng):
        # squares of 1e-160 are subnormal: a trace whose reciprocal is inf
        beats = rng.standard_normal((5, 3, 20)) * 1e-160
        with pytest.raises(ZeroNoiseError, match="reciprocal is not finite"):
            estimate_noise(beats)

    def test_trace_exactly_d(self, small_k, rng):
        theta = rng.standard_normal((5, small_k.d))
        samples = _simulate_samples(small_k, [2.0] * 5, theta, B=4, seed=0)
        k_hat, _ = estimate_noise(samples)
        assert np.trace(k_hat.matrix) == pytest.approx(small_k.d, abs=1e-9)

    def test_recovers_k_and_tau(self, small_k, rng):
        n, B = 400, 12
        taus = rng.uniform(2.0, 20.0, n)
        theta = rng.standard_normal((n, small_k.d)) * 0.5
        samples = _simulate_samples(small_k, taus, theta, B=B, seed=1)
        k_hat, tau_hat = estimate_noise(samples)
        k_err = np.linalg.norm(k_hat.matrix - small_k.matrix)
        k_err /= np.linalg.norm(small_k.matrix)
        assert k_err < 0.10
        rel = np.abs(tau_hat - taus) / taus
        assert np.median(rel) < 0.10

    @pytest.mark.parametrize("seed", range(5))
    def test_taus_uncompressed_near_d_residual_rows(self, seed):
        # 30 recordings of B = 6 leave 150 residual rows for d = 80, too
        # few for a K_hat fitted to them to whiten them: each sample's
        # whitened energy would be partly its leverage, pulling the taus
        # together. tr(C_i) / d is unbiased whatever K is
        config = BenchmarkConfig(seed=seed, n_samples=30, d=80, fs=200.0,
                                 r_offset=26, n_beats_grid=(6,),
                                 tau_regimes=(TauRegime.uniform(2, 20),))
        population_seed, [cell] = grid_seeds(config)
        K = config.noise_covariance()
        beats, taus, _ = draw_cell(
            simulate_population(config, population_seed), K, *cell)
        _, tau_hat = estimate_noise(beats)
        assert np.median(np.abs(tau_hat - taus) / taus) < 0.10

    def test_scale_equivariance(self, small_k, rng):
        theta = rng.standard_normal((6, small_k.d))
        samples = _simulate_samples(small_k, [3.0] * 6, theta, B=5, seed=2)
        k1, t1 = estimate_noise(samples)
        scaled = [
            EcgSample(sample_id=s.sample_id, beats=10.0 * s.beats)
            for s in samples
        ]
        k2, t2 = estimate_noise(scaled)
        np.testing.assert_allclose(k1.matrix, k2.matrix, atol=1e-12)
        np.testing.assert_allclose(t1 / 10.0, t2, rtol=1e-7)

    def test_merge_order_invariant(self, rng):
        # well-conditioned K so fp non-associativity is not amplified by
        # the inverse; order of accumulation must not matter beyond 1e-9
        k = matern_covariance(d=32, fs=500.0, lengthscale=0.004,
                              smoothness=1.5)
        theta = rng.standard_normal((8, k.d))
        samples = _simulate_samples(k, [4.0] * 8, theta, B=6, seed=3)
        k1, t1 = estimate_noise(samples)
        perm = [5, 2, 7, 0, 3, 6, 1, 4]
        k2, t2 = estimate_noise([samples[i] for i in perm])
        np.testing.assert_allclose(k1.matrix, k2.matrix, atol=1e-9)
        np.testing.assert_allclose(t1[perm], t2, rtol=1e-9)


#: How far K_hat may sit from :func:`_loop_estimate_noise`'s, entry by
#: entry: the two sum the scatters in another order and decompose K_hat
#: by another eigensolver, each exact to a few ulps of K's largest entry,
#: which is at most 1.
K_HAT_ATOL = 1e-12


def _loop_estimate_noise(beat_sets):
    """Reference: one scatter and one trace per sample. K_hat is the
    dense Toeplitz matrix whose first row is the sum of S = sum C_i along
    each diagonal over tr(S), decomposed by one dense ``eigh``."""
    d = beat_sets[0].shape[1]
    scatters = [(r.T @ r) / (r.shape[0] - 1)
                for r in (b - b.mean(axis=0) for b in beat_sets)]
    total = sum(scatters, np.zeros((d, d)))
    row = np.array([np.trace(total, k) for k in range(d)]) / np.trace(total)
    lags = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    k_hat = _from_eigh(row[lags])
    taus = np.array([1.0 / math.sqrt(np.trace(c) / d) for c in scatters])
    return k_hat, taus


@st.composite
def ragged_beats(draw):
    """Per-sample (B_i, d) beat sets with mixed B_i >= 2."""
    d = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(2, 9), min_size=1, max_size=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.standard_normal(d) * 5.0
    return [theta + rng.standard_normal((b, d)) * rng.uniform(0.05, 2.0)
            for b in counts]


@st.composite
def scaled_ragged_beats(draw):
    """1 to 12 samples of width 1 to 64, each with its own B_i >= 2 and
    a noise scale spread over six decades."""
    d = draw(st.integers(1, 64))
    counts = draw(st.lists(st.integers(2, 9), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.standard_normal(d) * 5.0
    return [theta + rng.standard_normal((b, d)) * 10.0 ** rng.uniform(-3, 3)
            for b in counts]


class TestStationaryKHat:
    @settings(max_examples=60, deadline=None)
    @given(beat_sets=scaled_ragged_beats())
    def test_is_the_diagonal_average(self, beat_sets):
        k_hat, _ = estimate_noise(beat_sets)
        m, d = k_hat.matrix, k_hat.d
        assert np.array_equal(m, m.T)
        np.testing.assert_allclose(m[1:, 1:], m[:-1, :-1], rtol=0,
                                   atol=K_HAT_ATOL)
        assert abs(np.trace(m) - d) <= 1e-9 * d
        # the trace is restored after flooring by a factor of at most 1
        assert k_hat.eigenvalues.min() >= noise.EIGENVALUE_FLOOR * (1 - 1e-9)
        k_ref, _ = _loop_estimate_noise(beat_sets)
        np.testing.assert_allclose(m, k_ref.matrix, rtol=0, atol=K_HAT_ATOL)


class TestEstimateNoiseParity:
    @settings(max_examples=80, deadline=None)
    @given(beat_sets=ragged_beats(), block_rows=st.integers(1, 40))
    def test_ragged_matches_loop(self, beat_sets, block_rows):
        # small blocks split the samples over several blocks of one or more
        counts = np.array([b.shape[0] for b in beat_sets])
        with mock.patch.object(noise, "RESIDUAL_BLOCK_ROWS", block_rows):
            k_hat, taus = estimate_noise(beat_sets)
            blocks = [(first, stop, resid.shape[0]) for first, stop, resid
                      in noise._residual_blocks(beat_sets, counts,
                                                beat_sets[0].shape[1])]
        # the blocks cover the samples in order within the row bound
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == len(beat_sets)
        for first, stop, rows in blocks:
            assert rows == counts[first:stop].sum()
            assert rows <= max(block_rows, counts.max())
        k_ref, tau_ref = _loop_estimate_noise(beat_sets)
        np.testing.assert_allclose(k_hat.matrix, k_ref.matrix, rtol=0,
                                   atol=K_HAT_ATOL)
        np.testing.assert_allclose(taus, tau_ref, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), b=st.integers(2, 8), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_array_input_matches_loop(self, n, b, d, seed):
        beats = np.random.default_rng(seed).standard_normal((n, b, d))
        k_hat, taus = estimate_noise(beats)
        k_ref, tau_ref = _loop_estimate_noise(list(beats))
        np.testing.assert_allclose(k_hat.matrix, k_ref.matrix, rtol=0,
                                   atol=K_HAT_ATOL)
        np.testing.assert_allclose(taus, tau_ref, rtol=1e-12)
        samples = [EcgSample(sample_id=f"s{i}", beats=row)
                   for i, row in enumerate(beats)]
        k_list, tau_list = estimate_noise(samples)
        np.testing.assert_array_equal(k_list.matrix, k_hat.matrix)
        np.testing.assert_array_equal(tau_list, taus)

    def test_errors_name_the_sample(self, rng):
        good = rng.standard_normal((4, 6))
        with pytest.raises(InsufficientReplicatesError, match="sample 2"):
            estimate_noise([good, good, good[:1]])
        with pytest.raises(ZeroNoiseError, match="sample 1"):
            estimate_noise([good, np.tile(np.arange(6.0), (3, 1)), good])
        with pytest.raises(ValueError, match="same beat length"):
            estimate_noise([good, good[:, :5]])
        with pytest.raises(ValueError, match="non-empty"):
            estimate_noise([])


#: (N, B) cells across the sampler's blocks of about
#: ``RESIDUAL_BLOCK_ROWS`` rows: below one block, exactly one, ragged,
#: one block and one row, B larger than a block, and N=1.
BLOCK_SHAPES = [(5, 20), (64, 16), (100, 15), (41, 25), (2, 1500), (1, 7)]

def _cell_and_reference(d, n, n_beats):
    """A cell from the sampler, and its reference: one (N B, d) draw times
    K^{1/2}, scaled by 1 / tau and shifted by theta."""
    K = matern_covariance(d, 500.0, 0.0005, 0.5)
    rng = np.random.default_rng(n * n_beats)
    thetas = rng.standard_normal((n, d))
    taus = rng.uniform(2.0, 20.0, n)
    beats = simulate_cell_beats(thetas, K, taus, n_beats, seed=11)
    z = np.random.default_rng(11).standard_normal((n * n_beats, d))
    ref = ((z @ K.sqrt).reshape(n, n_beats, d) / taus[:, None, None]
           + thetas[:, None, :])
    return beats, ref


_AT_ONE_THREAD = """
import sys
import numpy as np
from test_noise import BLOCK_SHAPES, _cell_and_reference

for d in (80, 493):
    for n, b in BLOCK_SHAPES:
        beats, ref = _cell_and_reference(d, n, b)
        if not np.array_equal(beats, ref):
            sys.exit(f"d={d}, N={n}, B={b}: the beats differ")
"""


class TestSamplerBlocks:
    """``simulate_cell_beats`` colours its draws block by block; the beats
    are those of one (N B, d) draw and one product with K^{1/2}."""

    def test_equals_one_product_at_one_blas_thread(self):
        # a subprocess, as BLAS reads its thread count at import
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        paths = (Path(ecgdenoise.__file__).resolve().parents[1],
                 Path(__file__).resolve().parent, env.get("PYTHONPATH"))
        env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths if p)
        run = subprocess.run([sys.executable, "-c", _AT_ONE_THREAD], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("n, n_beats", BLOCK_SHAPES)
    def test_equals_one_product(self, n, n_beats):
        # at this process's BLAS thread count a blocked product may differ
        # from the one-shot one in the last bits; atol covers values near 0
        beats, ref = _cell_and_reference(80, n, n_beats)
        np.testing.assert_allclose(beats, ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())


@pytest.fixture(scope="module")
def grid_k():
    """The grid's default noise at its default width, d=493, with K^{1/2}
    built, so a measurement sees only the call it measures."""
    k = matern_covariance(493, 500.0, 0.0005, 0.5)
    k.sqrt
    return k


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestWorkingMemory:
    """Beyond their inputs and outputs, the sampler and the noise estimate
    hold about one block of rows and a few d x d arrays, at perfbench's
    pipeline cell (N=300, B=20, d=493)."""

    def test_sampler_holds_one_block_beyond_its_output(self, grid_k):
        rng = np.random.default_rng(3)
        thetas = rng.standard_normal((300, grid_k.d))
        taus = rng.uniform(2.0, 20.0, 300)
        beats, peak = _traced_peak(simulate_cell_beats, thetas, grid_k,
                                   taus, 20, 5)
        block = (RESIDUAL_BLOCK_ROWS + GEMM_ROW_ALIGN) * grid_k.d * 8
        # a second (N, B, d) array would add 23.7 MB
        assert peak - beats.nbytes <= block + 2**20

    def test_estimate_holds_one_block_and_two_matrices(self, grid_k):
        rng = np.random.default_rng(4)
        beats = simulate_cell_beats(rng.standard_normal((300, grid_k.d)),
                                    grid_k, rng.uniform(2.0, 20.0, 300), 20,
                                    6)
        _, peak = _traced_peak(estimate_noise, beats)
        d = grid_k.d
        # the residual block, the pooled scatter and one block's scatter
        assert peak <= RESIDUAL_BLOCK_ROWS * d * 8 + 2 * d * d * 8 + 2**20
