"""Acceptance suite: the six headline criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). The simulation configurations were calibrated once and are pinned
here, seeds included, so every run is bit-reproducible:

* the estimator-table config (criteria 1, 3, 4): d = 493 at 500 Hz, base
  amplitudes scaled to millivolt beats (gain 27.5), jitter 0.3, near-white
  Matern noise (nu = 1/2, 0.5 ms), latent dimension 7;
* the oracle config (criterion 2) raises the gain to 36 and uses 48-atom
  priors pooled over ten replicate runs -- the population density is the
  free parameter that places the single-beat oracle error in its window;
* the noise-estimation config (criterion 5) uses a strongly correlated
  kernel (nu = 3/2, 40 ms) where covariance recovery at N = 500 is
  meaningful.
"""
import json
import math
import time

import numpy as np
import pytest

from ecgdenoise.bench import (
    BenchmarkConfig,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    draw_cell,
    grid_seeds,
    run_benchmark,
    simulate_cell_beats,
    simulate_population,
)
from ecgdenoise.estimators import (
    MogFaModel,
    fa_posterior_mean_batch,
    fit_factor_analysis,
    fit_mog_fa,
    mog_fa_posterior_mean_batch,
)
from ecgdenoise.noise import (
    estimate_noise,
    matern_covariance,
    unwhiten,
    whiten,
)
from ecgdenoise.simulate import DEFAULT_PARAMS, STRIDE, _phase_path

D = 493
PAPER_MLE_SINGLE = 123.21
PAPER_MLE_MULTI = 6.21
PAPER_FA_SINGLE = 2.38
PAPER_FA_MULTI = 1.35


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# pinned configurations
# ---------------------------------------------------------------------------

def _table_config(**overrides):
    base = dict(
        seed=11,
        n_samples=2000,
        n_beats_grid=(1, 20),
        tau_regimes=(TauRegime.fixed(2), TauRegime.fixed(20),
                     TauRegime.uniform(2, 20)),
        latent_dim=LatentDimRule("fixed", 7),
        estimators=(EstimatorSpec("mle"), EstimatorSpec("oracle_bayes"),
                    EstimatorSpec("fa", "truth"),
                    EstimatorSpec("fa", "estimated"),
                    EstimatorSpec("mog_fa", "truth")),
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


@pytest.fixture(scope="module")
def table_report():
    """Estimator table over the key regimes (about two minutes)."""
    return run_benchmark(_table_config())


@pytest.fixture(scope="module")
def mle_grid():
    """Criterion 1: MLE-only run over the full grid at N = 1000, timed."""
    config = _table_config(
        seed=29, n_samples=1000,
        tau_regimes=tuple(TauRegime.fixed(t) for t in (2, 5, 10, 15, 20))
        + (TauRegime.uniform(2, 20),),
        estimators=(EstimatorSpec("mle"),),
    )
    start = time.perf_counter()
    report = run_benchmark(config)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_runs():
    """Criterion 2: ten replicate oracle runs with 48-atom priors."""
    reports = []
    for child in np.random.SeedSequence(202408).spawn(10):
        seed = int(child.generate_state(1)[0] % (2**31))
        config = _table_config(
            seed=seed, n_samples=48, amplitude_gain=36.0,
            tau_regimes=tuple(TauRegime.fixed(t) for t in (2, 5, 10, 15, 20)),
            estimators=(EstimatorSpec("oracle_bayes"),),
        )
        reports.append(run_benchmark(config))
    return reports


class TestCriterion1MleAnalytic:
    def test_mle_reproduction_and_runtime(self, mle_grid):
        report, wall = mle_grid
        worst = 0.0
        for cell in report.cells:
            regime = cell["tau_regime"]
            if regime["kind"] != "fixed":
                continue
            analytic = D / (regime["value"] ** 2 * cell["n_beats"])
            rel = abs(cell["estimators"]["mle"]["mse"] - analytic) / analytic
            worst = max(worst, rel)
        single = report.result("tau=2", 1, "mle")["mse"]
        multi = report.result("tau=2", 20, "mle")["mse"]
        rel_single = abs(single - PAPER_MLE_SINGLE) / PAPER_MLE_SINGLE
        rel_multi = abs(multi - PAPER_MLE_MULTI) / PAPER_MLE_MULTI
        ok = worst <= 0.05 and rel_single <= 0.05 and rel_multi <= 0.05 \
            and wall < 120.0
        _criterion(1, ok,
                   f"MLE vs d/(tau^2 B): worst {worst:.2%}; "
                   f"123.21 ref {rel_single:.2%}; 6.21 ref {rel_multi:.2%}; "
                   f"runtime {wall:.1f}s (< 120s, N=1000)")


class TestCriterion2Oracle:
    def test_multi_beat_and_single_beat(self, oracle_runs):
        n_correct = total = 0
        worst_cell_mse = 0.0
        single_errors = []
        for report in oracle_runs:
            for tau in (2, 5, 10, 15, 20):
                result = report.result(f"tau={tau}", 20, "oracle_bayes")
                n = report.cell(f"tau={tau}", 20)["n_samples"]
                n_correct += result["atom_accuracy"] * n
                total += n
                worst_cell_mse = max(worst_cell_mse, result["mse"])
            single_errors.append(
                report.result("tau=2", 1, "oracle_bayes")["mse"])
        accuracy = n_correct / total
        pooled_single = float(np.mean(single_errors))
        ok = accuracy > 0.995 and worst_cell_mse < 0.01 \
            and 0.05 <= pooled_single <= 0.3
        _criterion(2, ok,
                   f"multi-beat accuracy {accuracy:.4f} (> 0.995), "
                   f"worst cell MSE {worst_cell_mse:.4f} (< 0.01); "
                   f"single-beat tau=2 MSE {pooled_single:.3f} in [0.05, 0.3]")


class TestCriterion3HighNoiseOrdering:
    def test_fa_beats_mle_and_matches_reference(self, table_report):
        fa_multi = table_report.result("tau=2", 20, "fa_truth")["mse"]
        fa_single = table_report.result("tau=2", 1, "fa_truth")["mse"]
        mle_multi = table_report.result("tau=2", 20, "mle")["mse"]
        mle_single = table_report.result("tau=2", 1, "mle")["mse"]
        ok = (fa_multi < mle_multi / 2.0
              and fa_single < 0.05 * mle_single
              and abs(fa_multi - PAPER_FA_MULTI) <= 0.3 * PAPER_FA_MULTI
              and abs(fa_single - PAPER_FA_SINGLE) <= 0.3 * PAPER_FA_SINGLE)
        _criterion(3, ok,
                   f"tau=2: FA B=20 {fa_multi:.3f} < MLE/2 {mle_multi / 2:.3f},"
                   f" FA B=1 {fa_single:.3f} < 5% MLE {0.05 * mle_single:.3f};"
                   f" refs 1.35/2.38 within 30%")

    def test_mixture_prior_no_worse_at_high_noise(self, table_report):
        fa = table_report.result("tau=2", 1, "fa_truth")["mse"]
        mog = table_report.result("tau=2", 1, "mog_fa_truth")["mse"]
        assert mog <= fa * 1.05


class TestCriterion4LowNoiseOrdering:
    def test_mle_wins_at_low_noise(self, table_report):
        mle = table_report.result("tau=20", 20, "mle")["mse"]
        fa = table_report.result("tau=20", 20, "fa_truth")["mse"]
        ok = mle < fa
        _criterion(4, ok,
                   f"tau=20, B=20: MLE {mle:.3f} < FA {fa:.3f} "
                   "(averaging wins in the low-noise regime)")


class TestCriterion5NoiseEstimation:
    def test_covariance_and_tau_recovery(self, table_report):
        config = BenchmarkConfig(
            seed=17, n_samples=500, n_beats_grid=(20,),
            tau_regimes=(TauRegime.uniform(2, 20),),
            lengthscale=0.04, smoothness=1.5,
            estimators=(EstimatorSpec("mle"),),
        )
        population_seed, [cell] = grid_seeds(config)
        thetas = simulate_population(config, population_seed)
        K = matern_covariance(config.d, config.fs, 0.04, 1.5)
        beats, taus, _ = draw_cell(thetas, K, *cell)
        k_hat, tau_hat = estimate_noise(beats)

        trace_exact = abs(np.trace(k_hat.matrix) - config.d) < 1e-9 * config.d
        k_err = np.linalg.norm(k_hat.matrix - K.matrix) \
            / np.linalg.norm(K.matrix)
        tau_err = float(np.median(np.abs(tau_hat - taus) / taus))

        fa_truth = table_report.result("tau~U(2,20)", 20, "fa_truth")["mse"]
        fa_est = table_report.result("tau~U(2,20)", 20, "fa_estimated")["mse"]
        downstream = abs(fa_est - fa_truth) / fa_truth

        ok = trace_exact and k_err < 0.10 and tau_err < 0.10 \
            and downstream < 0.10
        _criterion(5, ok,
                   f"tr(K)=d exact {trace_exact}; |K_hat-K|_F rel {k_err:.3f}"
                   f" (< 0.10); median tau error {tau_err:.3f} (< 0.10); "
                   f"FA estimated-vs-truth gap {downstream:.4f} (< 0.10)")


class TestCriterion6Properties:
    """Config-independent property checks, aggregated into one line."""

    def test_property_suite(self):
        rng = np.random.default_rng(99)
        k = matern_covariance(d=48, fs=500.0, lengthscale=0.004,
                              smoothness=1.5)
        checks = {}

        # EM monotonicity for FA and mixture FA
        q, _ = np.linalg.qr(rng.standard_normal((48, 3)))
        loadings = q * np.array([3.0, 2.0, 1.0])
        thetas = unwhiten(k, rng.standard_normal((200, 3)) @ loadings.T)
        means = thetas + np.stack([
            simulate_cell_beats(np.zeros((1, 48)), k, np.array([3.0]), 4,
                                (99, i))[0].mean(axis=0)
            for i in range(200)
        ])
        fa = fit_factor_analysis(means, k, taus=3.0, p=3, n_beats=4)
        mog = fit_mog_fa(fa, means, k, taus=3.0, n_components=2,
                         n_beats=4, rng_seed=7)
        for name, trace in (("fa", fa.loglik_trace),
                            ("mog", mog.fa.loglik_trace)):
            diffs = np.diff(trace)
            checks[f"em_monotone_{name}"] = bool(
                np.all(diffs >= -1e-9 * (1.0 + np.abs(trace[:-1])))
            )

        # whiten / unwhiten round trip
        x = rng.standard_normal(k.d)
        mu = rng.standard_normal(k.d)
        back = unwhiten(k, whiten(k, x, mu)) + mu
        checks["whiten_roundtrip"] = bool(np.abs(back - x).max() < 1e-8)

        # single-component mixture collapses to plain FA
        collapsed = MogFaModel.from_fa(fa)
        fa_est = fa_posterior_mean_batch(fa, means, k, 3.0, 4)
        mog_est = mog_fa_posterior_mean_batch(collapsed, means, k, 3.0, 4)
        rms = np.sqrt(np.mean((fa_est - mog_est) ** 2))
        checks["mog_c1_equals_fa"] = bool(rms < 1e-6)

        # shrinkage and affinity of the FA posterior map
        lhs = np.linalg.norm((fa_est - fa.mean) @ k.inv_sqrt, axis=1)
        rhs = np.linalg.norm((means - fa.mean) @ k.inv_sqrt, axis=1)
        checks["fa_shrinkage"] = bool(np.all(lhs <= rhs + 1e-12))
        x1, x2 = rng.standard_normal((2, k.d))
        f = lambda v: fa_posterior_mean_batch(fa, v[None], k, 3.0, 4)[0]
        combo = f(0.3 * x1 + 0.7 * x2)
        checks["fa_affine"] = bool(
            np.abs(combo - (0.3 * f(x1) + 0.7 * f(x2))).max() < 1e-10
        )

        # RK4 convergence order on the voltage trace
        from ecgdenoise.simulate import _rk4_mcsharry as rk4_mcsharry

        p = DEFAULT_PARAMS
        a, b, theta = p.as_arrays()
        args = (a[None], b[None], theta[None], np.array([p.x0]), p.omega,
                0.8, 0.1, np.array([0.02]))

        def run(refine):
            h = 1.0 / (1000.0 * refine)
            xs = rk4_mcsharry(*args, h, int(250 * refine) * 4, 4 * refine)
            return xs[0]

        reference = run(16)
        errors = [np.max(np.abs(run(s) - reference)) for s in (1, 2, 4)]
        orders = -np.diff(np.log2(errors))
        checks["rk4_order"] = bool(np.all(orders >= 3.5))

        # limit-cycle attraction at t = 10 s: the phase point after 1000
        # samples at 100 Hz, stepped as integrate_mcsharry steps it
        h = 1.0 / (STRIDE * 100.0)
        radii = []
        for r0, phase in ((0.15, 0.3), (0.7, -2.0), (1.9, 1.2)):
            states, _ = _phase_path(DEFAULT_PARAMS.omega, r0 * math.cos(phase),
                                    r0 * math.sin(phase), h, 1000 * STRIDE)
            radii.append(abs(math.hypot(*states[-1]) - 1.0))
        checks["limit_cycle"] = bool(max(radii) < 1e-3)

        # end-to-end benchmark determinism
        small = BenchmarkConfig(
            seed=5, n_samples=12, d=100, fs=500.0, r_offset=33,
            n_beats_grid=(1, 4), tau_regimes=(TauRegime.fixed(4),),
            latent_dim=LatentDimRule("fixed", 2),
            estimators=(EstimatorSpec("mle"), EstimatorSpec("fa", "truth")),
        )
        body_a = json.dumps(run_benchmark(small).body(), sort_keys=True)
        body_b = json.dumps(run_benchmark(small).body(), sort_keys=True)
        checks["benchmark_deterministic"] = body_a == body_b

        failed = [name for name, ok in checks.items() if not ok]
        _criterion(6, not failed,
                   "property suite "
                   + ("all checks hold: " + ", ".join(sorted(checks))
                      if not failed else "failed: " + ", ".join(failed)))


class TestAggregateInvariants:
    def test_oracle_dominates_every_cell(self, table_report):
        for cell in table_report.cells:
            oracle = cell["estimators"]["oracle_bayes"]["mse"]
            for name, result in cell["estimators"].items():
                if result["status"] == "ok":
                    assert oracle <= result["mse"] + 1e-9, \
                        f"{name} beats the oracle in {cell['tau_label']}"

    def test_more_beats_never_hurt_fa(self, table_report):
        for label in ("tau=2", "tau=20", "tau~U(2,20)"):
            single = table_report.result(label, 1, "fa_truth")["mse"]
            multi = table_report.result(label, 20, "fa_truth")["mse"]
            assert multi <= single + 1e-9
