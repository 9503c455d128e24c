"""Matern covariance, noise sampling, whitening, and K/tau estimation."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecgdenoise import noise
from ecgdenoise.errors import InsufficientReplicatesError, ZeroNoiseError
from ecgdenoise.estimators import FaModel, MogFaModel
from ecgdenoise.noise import (
    INVERSE_RIDGE,
    CovarianceMatrix,
    EcgSample,
    estimate_noise,
    matern_covariance,
    sample_noise_beats,
    unwhiten,
    whiten,
)
from ecgdenoise.simulate import RawTrace, ThetaBeat


class TestCovarianceMatrix:
    def test_identity(self):
        k = CovarianceMatrix.identity(8)
        np.testing.assert_allclose(k.matrix, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(k.sqrt, np.eye(8), atol=1e-12)

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix.from_matrix(m)

    def test_rejects_indefinite(self):
        m = np.diag([1.0, -0.5])
        with pytest.raises(ValueError, match="positive semi-definite"):
            CovarianceMatrix.from_matrix(m)

    def test_rejects_nonpositive_trace(self):
        with pytest.raises(ValueError, match="trace"):
            CovarianceMatrix.from_matrix(np.diag([1.0, -1.0]))

    def test_trace_normalized(self, rng):
        a = rng.standard_normal((12, 12))
        k = CovarianceMatrix.from_matrix(a @ a.T)
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
        k = CovarianceMatrix.from_matrix(np.outer(v, v))
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
        full = CovarianceMatrix.from_matrix(kernel)
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
        lambda: CovarianceMatrix.from_matrix(_kernel(30, 500.0, 0.02, 2.5)),
    ], ids=["matern", "from_matrix"])
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
            sample_noise_beats(k, tau=2.0, B=3, rng_seed=1)
            sample_noise_beats(k, tau=3.0, B=3, rng_seed=2)
        assert build.call_count == 1
        assert set(vars(k)) & {"matrix", "inv_sqrt"} == set()


class TestSampleNoiseBeats:
    def test_vanishing_noise(self, small_k):
        beats = sample_noise_beats(small_k, tau=1e9, B=5, rng_seed=1)
        assert np.abs(beats).max() < 1e-6

    def test_monte_carlo_covariance(self, small_k):
        draws = sample_noise_beats(small_k, tau=1.0, B=50_000, rng_seed=2)
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - small_k.matrix) / np.linalg.norm(small_k.matrix)
        assert rel < 0.05

    def test_deterministic(self, small_k):
        a = sample_noise_beats(small_k, tau=2.0, B=3, rng_seed=7)
        b = sample_noise_beats(small_k, tau=2.0, B=3, rng_seed=7)
        np.testing.assert_array_equal(a, b)

    def test_tau_scaling(self, small_k):
        a = sample_noise_beats(small_k, tau=1.0, B=3, rng_seed=7)
        b = sample_noise_beats(small_k, tau=4.0, B=3, rng_seed=7)
        np.testing.assert_allclose(a / 4.0, b, rtol=1e-12)

    def test_precision_type(self, small_k):
        # one scalar tau check: a sample's true tau and the sampler's tau
        beats = np.zeros((2, small_k.d))
        for bad in (0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite"):
                EcgSample("s", beats, tau=bad)
            with pytest.raises(ValueError, match="tau must be finite"):
                sample_noise_beats(small_k, bad, 2, rng_seed=0)
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
        sample = EcgSample("x", beats, theta=ThetaBeat(theta, 2))
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
        k = CovarianceMatrix.identity(6)
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
        draws = sample_noise_beats(k, tau=tau, B=20_000, rng_seed=3)
        white = whiten(k, draws)
        emp = white.T @ white / white.shape[0]
        target = np.eye(k.d) / tau**2
        assert np.linalg.norm(emp - target) / np.linalg.norm(target) < 0.05


def _simulate_samples(k, taus, theta_rows, B, seed):
    samples = []
    for i, (tau, theta) in enumerate(zip(taus, theta_rows)):
        noise = sample_noise_beats(k, tau, B, rng_seed=(seed, i))
        samples.append(EcgSample(sample_id=f"s{i}", beats=theta + noise))
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

    def test_few_residual_rows_read_taus_unwhitened(self, small_k, rng):
        # 16 samples of B = 5 leave 64 = d residual degrees of freedom, so
        # tr(K_hat^{-1} C_i) would be the same for every sample; the taus
        # come from tr(C_i) / d, noisier than whitened energies when the
        # noise is this correlated, but not constant
        n, B = 16, 5
        taus = rng.uniform(2.0, 20.0, n)
        theta = rng.standard_normal((n, small_k.d)) * 0.5
        samples = _simulate_samples(small_k, taus, theta, B=B, seed=4)
        _, tau_hat = estimate_noise(samples)
        energy = np.array([np.sum((s.beats - s.beats.mean(axis=0)) ** 2)
                           for s in samples])
        np.testing.assert_allclose(
            tau_hat, 1.0 / np.sqrt(energy / ((B - 1) * small_k.d)),
            rtol=1e-12)
        assert np.median(np.abs(tau_hat - taus) / taus) < 0.25

    def test_sigma_fixed_point(self, small_k):
        # if the scatter equals sigma^2 K exactly, tr(K^{-1} C) / d = sigma^2
        sigma_sq = 0.25
        k_inv = (small_k.eigenvectors / (small_k.eigenvalues + 1e-8)
                 ) @ small_k.eigenvectors.T
        c_i = sigma_sq * np.asarray(small_k.matrix)
        est = np.einsum("ij,ji->", k_inv, c_i) / small_k.d
        assert est == pytest.approx(sigma_sq, rel=1e-5)

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


def _loop_estimate_noise(beat_sets):
    """Reference: one scatter and one quadratic form per sample."""
    d = beat_sets[0].shape[1]
    residuals = [b - b.mean(axis=0) for b in beat_sets]
    total = np.zeros((d, d))
    for resid in residuals:
        total += (resid.T @ resid) / (resid.shape[0] - 1)
    k_hat = CovarianceMatrix.from_matrix(
        total * (d / float(np.trace(total))))
    vals = k_hat.eigenvalues + INVERSE_RIDGE
    k_inv = (k_hat.eigenvectors / vals) @ k_hat.eigenvectors.T
    taus = np.empty(len(residuals))
    for i, resid in enumerate(residuals):
        sigma_sq = float(np.einsum("bi,ij,bj->", resid, k_inv, resid))
        taus[i] = 1.0 / math.sqrt(sigma_sq / ((resid.shape[0] - 1) * d))
    return k_hat, taus


# The parity tolerances hold while K_hat is well conditioned, which takes a
# few residual rows per dimension. With fewer, K_hat is floored to rank
# deficiency and the reference's explicit K^{-1} (entries up to
# 1 / INVERSE_RIDGE) loses about cond(K_hat) * eps to cancellation.
ROWS_PER_DIM = 3


@st.composite
def ragged_beats(draw):
    """Per-sample (B_i, d) beat sets with mixed B_i >= 2."""
    d = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(2, 9), min_size=1, max_size=10))
    assume(sum(b - 1 for b in counts) >= ROWS_PER_DIM * d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.standard_normal(d) * 5.0
    return [theta + rng.standard_normal((b, d)) * rng.uniform(0.05, 2.0)
            for b in counts]


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
                                   atol=1e-12)
        np.testing.assert_allclose(taus, tau_ref, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), b=st.integers(2, 8), d=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_array_input_matches_loop(self, n, b, d, seed):
        assume(n * (b - 1) >= ROWS_PER_DIM * d)
        beats = np.random.default_rng(seed).standard_normal((n, b, d))
        k_hat, taus = estimate_noise(beats)
        k_ref, tau_ref = _loop_estimate_noise(list(beats))
        np.testing.assert_allclose(k_hat.matrix, k_ref.matrix, rtol=0,
                                   atol=1e-12)
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
