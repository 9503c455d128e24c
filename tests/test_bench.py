"""Benchmark harness: config plumbing, determinism, error marking."""
import dataclasses
import json
import multiprocessing
import os
import re

import numpy as np
import pytest

from ecgdenoise import bench, cli, estimators
from ecgdenoise.bench import (
    BenchmarkConfig,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    denoise,
    run_benchmark,
)
from ecgdenoise.errors import (
    EcgDenoiseError,
    InsufficientReplicatesError,
    ZeroNoiseError,
)
from ecgdenoise.estimators import fit_factor_analysis, fit_mog_fa
from ecgdenoise.noise import CovarianceMatrix, matern_covariance


def one_worker(monkeypatch):
    """Run the grid's cells in this process, where a monkeypatched
    function can count its calls."""
    monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 1)


def small_config(**overrides):
    defaults = dict(
        seed=5,
        n_samples=40,
        d=100,
        fs=500.0,
        r_offset=33,
        n_beats_grid=(1, 4),
        tau_regimes=(TauRegime.fixed(4.0), TauRegime.uniform(2, 20)),
        latent_dim=LatentDimRule("fixed", 3),
        estimators=(EstimatorSpec("mle"), EstimatorSpec("oracle_bayes"),
                    EstimatorSpec("fa", "truth"),
                    EstimatorSpec("fa", "estimated")),
    )
    defaults.update(overrides)
    return BenchmarkConfig(**defaults)


class TestTauRegime:
    def test_parse_fixed(self):
        regime = TauRegime.parse("5")
        assert regime.kind == "fixed" and regime.value == 5.0
        assert regime.label == "tau=5"

    def test_parse_uniform(self):
        regime = TauRegime.parse("uniform:2,20")
        assert (regime.lo, regime.hi) == (2.0, 20.0)
        draws = regime.draw(100, np.random.default_rng(0))
        assert np.all((draws >= 2) & (draws <= 20))

    def test_round_trip(self):
        regime = TauRegime.uniform(2, 20)
        assert TauRegime.from_dict(regime.to_dict()) == regime

    @pytest.mark.parametrize("text", ["uniform:2", "uniform:2,5,9",
                                      "uniform:a,b", "two", ""])
    def test_malformed_text_names_the_form(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"tau regime {text!r} is neither a number nor of the form "
                f"'uniform:LO,HI'")):
            TauRegime.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            TauRegime.fixed(-1.0)
        with pytest.raises(ValueError):
            TauRegime.uniform(5, 2)

    @pytest.mark.parametrize("make", [
        lambda: TauRegime.fixed(np.inf),
        lambda: TauRegime.fixed(np.nan),
        lambda: TauRegime.uniform(2, np.inf),
        lambda: TauRegime.parse("inf"),
        lambda: TauRegime.parse("uniform:2,inf"),
        lambda: TauRegime.from_dict({"kind": "fixed", "value": np.inf}),
        lambda: TauRegime.from_dict({"kind": "uniform", "lo": 2,
                                     "hi": np.inf}),
    ], ids=["fixed", "fixed-nan", "uniform", "parse-fixed", "parse-uniform",
            "dict-fixed", "dict-uniform"])
    def test_infinite_tau_refused(self, make):
        # an infinite tau means noiseless beats, from which no noise can
        # be estimated; it is refused before any simulation
        with pytest.raises(ValueError,
                           match="(fixed|uniform) tau regime needs finite"):
            make()


class TestEstimatorSpec:
    def test_parse(self):
        spec = EstimatorSpec.parse("fa:estimated")
        assert spec.name == "fa_estimated" and spec.needs_estimation

    def test_default_noise_mode(self):
        assert EstimatorSpec.parse("mle").name == "mle"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimatorSpec.parse("vae")

    @pytest.mark.parametrize("kind", ["mle", "oracle_bayes"])
    def test_truth_only_kinds_refuse_estimated_noise(self, kind):
        # neither reads an estimate, so an entry named plain ``kind`` would
        # report what the truth mode gives
        with pytest.raises(ValueError, match=f"^{kind} has no 'estimated' "
                                             f"noise mode"):
            EstimatorSpec.parse(f"{kind}:estimated")
        assert EstimatorSpec.parse(f"{kind}:truth") == EstimatorSpec(kind)


class TestLatentDimRule:
    def test_parse_fixed(self):
        assert LatentDimRule.parse("7") == LatentDimRule("fixed", 7)

    def test_parse_scree(self):
        rule = LatentDimRule.parse("scree:-0.5")
        assert rule.mode == "scree" and rule.value == -0.5

    def test_fixed_choose(self):
        rule = LatentDimRule("fixed", 4)
        assert rule.choose((10, 8), np.zeros((10, 8))) == 4
        assert LatentDimRule("fixed", 4.0).choose((10, 8)) == 4

    @pytest.mark.parametrize("shape, p", [((4, 80), 3), ((10, 2), 2),
                                          ((8, 80), 7)])
    def test_fixed_capped_at_rank(self, shape, p):
        # N centred rows of width d have rank at most min(d, N - 1)
        assert LatentDimRule("fixed", 7).choose(shape) == p

    @pytest.mark.parametrize("value", [7.9, 0.5, True, np.bool_(True),
                                       np.inf, np.nan])
    def test_fixed_must_be_integral(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            LatentDimRule("fixed", value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_scree_cutoff_must_be_finite(self, value):
        with pytest.raises(ValueError, match=f"must be finite, not {value}"):
            LatentDimRule("scree", value)

    def test_scree_cutoff_stays_a_float(self):
        assert LatentDimRule("scree", -0.75).value == -0.75

    def test_scree_choose_caps_at_rank(self, rng):
        rule = LatentDimRule("scree", -0.8)
        data = rng.standard_normal((5, 20)) * 1e-3
        data[:, 0] += np.array([10.0, -10.0, 10.0, -10.0, 10.0])
        assert 1 <= rule.choose(data.shape, data) <= 4


class TestDenoise:
    def test_refusals(self):
        means = np.arange(12.0).reshape(3, 4)

        def run(text, **given):
            kwargs = dict(truth=None, estimate=None, thetas=None,
                          latent_dim=LatentDimRule("fixed", 1),
                          n_components=1, fit_seed=0)
            kwargs.update(given)
            return denoise(EstimatorSpec.parse(text), means, np.ones(3),
                           **kwargs)

        estimates, extra = run("mle")  # needs no noise and no ground truth
        np.testing.assert_array_equal(estimates, means)
        assert extra == {}
        with pytest.raises(EcgDenoiseError, match=re.escape(
                "fa_truth needs the true noise (K, taus); use "
                "fa:estimated")):
            run("fa:truth")
        # oracle_bayes has no estimated mode to point to
        with pytest.raises(EcgDenoiseError, match=re.escape(
                "oracle_bayes needs the true noise (K, taus)") + "$"):
            run("oracle_bayes")
        with pytest.raises(InsufficientReplicatesError, match="B >= 2"):
            run("mog_fa:estimated")
        truth = (matern_covariance(4, 500.0, 0.02, 1.5), np.ones(3))
        with pytest.raises(EcgDenoiseError, match="oracle_bayes needs the"):
            run("oracle_bayes", truth=truth)

    def test_scored_against_thetas(self, rng):
        # the error fields of a report entry, in the summed convention
        means, thetas = rng.standard_normal((2, 5, 4))
        _, extra = denoise(EstimatorSpec("mle"), means, np.ones(5),
                           truth=None, estimate=None, thetas=thetas,
                           latent_dim=LatentDimRule("fixed", 1),
                           n_components=1, fit_seed=0)
        errors = np.sum((means - thetas) ** 2, axis=1)
        assert extra == {"mse": errors.mean(),
                         "se": errors.std(ddof=1) / np.sqrt(5),
                         "mse_per_coordinate": errors.mean() / 4}

    @pytest.mark.parametrize("kind", ["fa", "mog_fa"])
    def test_fit_diagnostics(self, rng, kind):
        means = rng.standard_normal((30, 6))
        K, taus = matern_covariance(6, 500.0, 0.02, 1.5), np.full(30, 2.0)
        _, extra = denoise(EstimatorSpec(kind, "truth"), means, 1,
                           truth=(K, taus), estimate=None, thetas=None,
                           latent_dim=LatentDimRule("fixed", 2),
                           n_components=2, fit_seed=3)
        # a mog_fa entry describes the FA fit that its mixture extends
        model = fit_factor_analysis(means, K, taus, 2)
        assert extra["converged"] == model.converged
        assert extra["n_iter"] == model.n_iter
        assert extra["loglik"] == model.loglik_trace[-1]

    def test_mixture_diagnostics(self, rng):
        # a mog_fa entry says how its latent mixture fit went: the kept
        # restart's convergence, the best and worst of the 10 restarts'
        # final log-likelihoods and the re-seeds over all of them
        means = rng.standard_normal((30, 6))
        K, taus = matern_covariance(6, 500.0, 0.02, 1.5), np.full(30, 2.0)
        _, extra = denoise(EstimatorSpec("mog_fa", "truth"), means, 1,
                           truth=(K, taus), estimate=None, thetas=None,
                           latent_dim=LatentDimRule("fixed", 2),
                           n_components=3, fit_seed=3)
        fa = fit_factor_analysis(means, K, taus, 2)
        mixture = fit_mog_fa(fa, means, K, taus, n_components=3,
                             rng_seed=3).mixture_fit
        assert mixture.restart_logliks.shape == (10,)
        assert extra["gmm_converged"] == mixture.converged
        assert extra["gmm_loglik_best"] == mixture.loglik \
            == mixture.restart_logliks.max()
        assert extra["gmm_loglik_worst"] == mixture.restart_logliks.min()
        assert extra["gmm_reseeds"] == mixture.reseeds
        entry = {key: extra[key] for key in extra if key.startswith("gmm_")}
        assert json.loads(json.dumps(entry)) == entry


def _counting_fa_fits(monkeypatch):
    """Count every fit_factor_analysis call, from bench or from inside
    the estimators module (fit_mog_fa extends a fit and makes none)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit_factor_analysis(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_factor_analysis", counted)
    monkeypatch.setattr(estimators, "fit_factor_analysis", counted)
    return calls


class TestSharedFaFit:
    def test_one_fit_per_cell_and_noise_mode(self, monkeypatch):
        # fa_truth and mog_fa_truth share one fit per cell; fa_estimated
        # fits once per B = 20 cell and is refused before fitting at B = 1
        config = small_config(n_beats_grid=(1, 20),
                              estimators=BenchmarkConfig(seed=0).estimators)
        assert len(config.estimators) == 5
        one_worker(monkeypatch)
        want = run_benchmark(config)
        calls = _counting_fa_fits(monkeypatch)
        got = run_benchmark(config)
        assert len(calls) == 6
        assert json.dumps(got.body()) == json.dumps(want.body())

    def test_shared_fit_matches_a_separate_one(self, rng):
        means = rng.standard_normal((30, 6))
        K, taus = matern_covariance(6, 500.0, 0.02, 1.5), np.full(30, 2.0)
        kwargs = dict(truth=(K, taus), estimate=None, thetas=None,
                      latent_dim=LatentDimRule("fixed", 2), n_components=2,
                      fit_seed=3)
        fits = {}
        shared = [denoise(EstimatorSpec(kind, "truth"), means, 1,
                          fa_fits=fits, **kwargs)
                  for kind in ("fa", "mog_fa")]
        assert list(fits) == [("truth", 2)]
        for kind, (estimates, extra) in zip(("fa", "mog_fa"), shared):
            alone, alone_extra = denoise(EstimatorSpec(kind, "truth"), means,
                                         1, **kwargs)
            np.testing.assert_array_equal(estimates, alone)
            assert extra == alone_extra

    def test_mixture_entry_describes_the_shared_fit(self, rng):
        # mog_fa keeps the FA loadings, so in one cell its fit diagnostics
        # are the fa entry's
        means = rng.standard_normal((30, 6))
        K, taus = matern_covariance(6, 500.0, 0.02, 1.5), np.full(30, 2.0)
        fits = {}
        fa, mog = (denoise(EstimatorSpec(kind, "truth"), means, 1,
                           truth=(K, taus), estimate=None, thetas=None,
                           latent_dim=LatentDimRule("fixed", 2),
                           n_components=2, fit_seed=3, fa_fits=fits)[1]
                   for kind in ("fa", "mog_fa"))
        for key in ("converged", "n_iter", "loglik"):
            assert mog[key] == fa[key]

    def test_failed_fit_fails_every_entry_that_needs_it(self, monkeypatch):
        # one sample: the factor-analysis fit is refused, once per cell,
        # and both entries built on it carry its error
        one_worker(monkeypatch)
        calls = _counting_fa_fits(monkeypatch)
        config = small_config(
            n_samples=1, n_beats_grid=(1,), tau_regimes=(TauRegime.fixed(4),),
            estimators=(EstimatorSpec("mle"), EstimatorSpec("fa", "truth"),
                        EstimatorSpec("mog_fa", "truth")))
        results = run_benchmark(config).cells[0]["estimators"]
        assert len(calls) == 1
        assert results["mle"]["status"] == "ok"
        for name in ("fa_truth", "mog_fa_truth"):
            assert results[name] == {
                "status": "failed",
                "error": "ValueError: need an (N, d) matrix with N >= 2"}


class TestBenchmarkConfig:
    def test_seed_required(self):
        with pytest.raises(TypeError):
            BenchmarkConfig()
        with pytest.raises(ValueError):
            BenchmarkConfig(seed=None)
        with pytest.raises(ValueError, match=re.escape(
                "missing BenchmarkConfig key(s): ['seed']")):
            BenchmarkConfig.from_dict({"n_samples": 5})

    def test_dict_round_trip(self):
        config = small_config()
        again = BenchmarkConfig.from_dict(config.to_dict())
        assert again == config

    def test_every_field_is_typed_and_written(self):
        # a field without a type would skip canonical typing, and one
        # missing from to_dict would drop out of reports and manifests
        names = [f.name for f in dataclasses.fields(BenchmarkConfig)]
        assert set(bench._FIELD_TYPES) == set(names)
        assert list(small_config().to_dict()) == names

    def test_to_dict_is_plain_json(self):
        config = BenchmarkConfig(
            seed=1, n_beats_grid=[20], tau_regimes=["uniform:2,20"],
            estimators=["fa:estimated"],
            latent_dim={"mode": "scree", "value": 0.5})
        assert config.to_dict() == {
            "seed": 1, "n_samples": 1000, "n_beats_grid": [20],
            "tau_regimes": [{"kind": "uniform", "lo": 2.0, "hi": 20.0}],
            "d": 493, "fs": 500.0, "r_offset": 164, "jitter_fraction": 0.3,
            "amplitude_gain": 27.5, "lengthscale": 0.0005,
            "smoothness": 0.5, "estimators": ["fa:estimated"],
            "latent_dim": {"mode": "scree", "value": 0.5},
            "mog_components": 5}

    def test_noise_covariance_is_the_configs_matern_k(self):
        config = small_config(lengthscale=0.02, smoothness=1.5)
        np.testing.assert_array_equal(
            config.noise_covariance().matrix,
            matern_covariance(100, 500.0, 0.02, 1.5).matrix)

    def test_from_dict_parses_strings(self):
        config = BenchmarkConfig.from_dict({
            "seed": 3,
            "tau_regimes": ["2", "uniform:2,20"],
            "estimators": ["mle", "fa:estimated"],
            "latent_dim": {"mode": "fixed", "value": 5},
        })
        assert config.tau_regimes[0] == TauRegime.fixed(2)
        assert config.estimators[1].needs_estimation

    def test_duplicate_report_names_rejected(self):
        # mle is named without its noise mode, so these two specs would
        # share one report entry
        with pytest.raises(ValueError,
                           match=re.escape("share report name(s) ['mle']")):
            BenchmarkConfig.from_dict({
                "seed": 1, "estimators": ["mle", "mle:truth"]})
        with pytest.raises(ValueError, match="fa_truth"):
            BenchmarkConfig.from_dict({
                "seed": 1, "estimators": ["mle", "fa:truth", "fa"]})

    @pytest.mark.parametrize("grid, repeats", [
        ({"tau_regimes": ["2", "2"]}, "repeated tau regime(s) ['tau=2']"),
        ({"tau_regimes": ["2", "uniform:2,20", "2.0"]}, "['tau=2']"),
        ({"n_beats_grid": [20, 1, 20, 1]}, "repeated beat count(s) [1, 20]"),
    ], ids=["tau", "tau-same-label", "beats"])
    def test_duplicate_cells_rejected(self, grid, repeats):
        # report cells are keyed by (tau label, B): a repeat would write
        # cells that BenchmarkReport.cell and mse-table cannot tell apart
        with pytest.raises(ValueError, match=re.escape(repeats)):
            BenchmarkConfig.from_dict({"seed": 1, **grid})

    @pytest.mark.parametrize("overrides, match", [
        ({"mog_components": 0}, "mog_components"),
        ({"r_offset": -1}, "r_offset"),
        ({"r_offset": 100}, "r_offset"),  # d = 100
        ({"d": 501, "r_offset": 164}, "exceeds one cycle"),
        ({"d": 201, "fs": 200.0}, "exceeds one cycle"),
    ])
    def test_bad_values_rejected_up_front(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_config(**overrides)

    def test_whole_cycle_window_accepted(self):
        assert small_config(d=200, fs=200.0, mog_components=1).d == 200

    @pytest.mark.parametrize("field, value", [
        ("d", 80.0), ("seed", True), ("n_samples", 12.0), ("fs", "200"),
        ("n_beats_grid", (1, 2.0)), ("latent_dim", "3"),
    ])
    def test_built_config_refused_as_from_dict_refuses(self, field, value):
        # one type table: a config built in Python is refused with the
        # message a config file with the same value gets
        given = {"seed": 1, field: value}
        with pytest.raises(ValueError) as built:
            BenchmarkConfig(**given)
        with pytest.raises(ValueError) as read:
            BenchmarkConfig.from_dict(given)
        assert str(built.value) == str(read.value)
        assert str(built.value).startswith(
            f"BenchmarkConfig field {field!r} ")

    @pytest.mark.parametrize("given, canonical", [
        ({"fs": 200}, {"fs": 200.0}),
        ({"tau_regimes": [{"kind": "fixed", "value": 2}]},
         {"tau_regimes": [{"kind": "fixed", "value": 2.0}]}),
        ({"latent_dim": {"mode": "fixed", "value": 2.0}},
         {"latent_dim": {"mode": "fixed", "value": 2}}),
        ({"latent_dim": {"mode": "scree", "value": -1}},
         {"latent_dim": {"mode": "scree", "value": -1.0}}),
    ], ids=["fs", "tau", "fixed-latent-dim", "scree-cutoff"])
    def test_equal_values_give_equal_bodies(self, given, canonical):
        base = {"seed": 3, "n_samples": 6, "d": 40, "fs": 200.0,
                "r_offset": 13, "n_beats_grid": [2], "tau_regimes": ["2"],
                "estimators": ["mle", "fa:truth"]}
        config = BenchmarkConfig.from_dict({**base, **given})
        assert config == BenchmarkConfig.from_dict({**base, **canonical})
        assert json.dumps(config.to_dict()) == json.dumps(
            BenchmarkConfig.from_dict({**base, **canonical}).to_dict())
        bodies = [json.dumps(run_benchmark(BenchmarkConfig.from_dict(
            {**base, **overrides})).body(), sort_keys=True)
            for overrides in (given, canonical)]
        assert bodies[0] == bodies[1]

    def test_fields_are_stored_as_their_types(self):
        config = BenchmarkConfig(
            seed=np.int64(1), fs=500, n_beats_grid=[2, np.int64(3)],
            tau_regimes=[TauRegime("fixed", 2), TauRegime("uniform", lo=2,
                                                           hi=20)],
            latent_dim=LatentDimRule("fixed", 3.0))
        assert type(config.seed) is int and type(config.fs) is float
        assert config.n_beats_grid == (2, 3)
        assert all(type(b) is int for b in config.n_beats_grid)
        fixed, uniform = config.tau_regimes
        assert [type(v) for v in (fixed.value, uniform.lo, uniform.hi)] == \
            [float] * 3
        assert type(config.latent_dim.value) is int
        assert type(LatentDimRule("scree", -1).value) is float
        assert config == BenchmarkConfig(
            seed=1, fs=500.0, n_beats_grid=(2, 3),
            tau_regimes=(TauRegime.fixed(2.0), TauRegime.uniform(2.0, 20.0)),
            latent_dim=LatentDimRule("fixed", 3))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"\['bogus', 'extra'\]"):
            BenchmarkConfig.from_dict({"seed": 1, "bogus": 3, "extra": 0})
        with pytest.raises(ValueError, match="TauRegime.*'scale'"):
            BenchmarkConfig.from_dict({
                "seed": 1,
                "tau_regimes": [{"kind": "fixed", "value": 2, "scale": 1}]})
        with pytest.raises(ValueError, match="EstimatorSpec.*'mode'"):
            BenchmarkConfig.from_dict({
                "seed": 1, "estimators": [{"kind": "mle", "mode": "x"}]})


fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the cell pool forks its workers")


@pytest.fixture(scope="module")
def report():
    return run_benchmark(small_config())


class TestRunBenchmark:
    def test_all_cells_present(self, report):
        assert len(report.cells) == 4
        for cell in report.cells:
            assert set(cell["estimators"]) == {
                "mle", "oracle_bayes", "fa_truth", "fa_estimated"
            }

    def test_estimated_mode_fails_single_beat(self, report):
        result = report.result("tau=4", 1, "fa_estimated")
        assert result["status"] == "failed"
        assert "B >= 2" in result["error"]
        # and the rest of the cell is intact
        assert report.result("tau=4", 1, "mle")["status"] == "ok"

    def test_failed_noise_estimate_fails_only_estimated_entries(
            self, monkeypatch):
        def refuse(beats):
            raise ZeroNoiseError("sample 0 has zero residual energy")

        monkeypatch.setattr(bench, "estimate_noise", refuse)
        one_worker(monkeypatch)
        config = small_config(
            n_samples=10, n_beats_grid=(2,), tau_regimes=(TauRegime.fixed(4),),
            estimators=(EstimatorSpec("mle"), EstimatorSpec("fa", "truth"),
                        EstimatorSpec("fa", "estimated"),
                        EstimatorSpec("mog_fa", "estimated")),
            mog_components=2)
        [cell] = run_benchmark(config).cells
        results = cell["estimators"]
        for name in ("fa_estimated", "mog_fa_estimated"):
            assert results[name] == {
                "status": "failed",
                "error": "ZeroNoiseError: sample 0 has zero residual energy"}
        assert results["mle"]["status"] == results["fa_truth"]["status"] \
            == "ok"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, failed", [
        (1e-300, {"mle": "FloatRangeError", "oracle_bayes": "FloatRangeError",
                  "fa_truth": "FloatRangeError",
                  "mog_fa_truth": "FloatRangeError",
                  "fa_estimated": "ValueError"}),
        (1e300, {"fa_truth": "FloatRangeError",
                 "mog_fa_truth": "FloatRangeError",
                 "fa_estimated": "ZeroNoiseError"}),
    ], ids=["tiny-tau", "huge-tau"])
    def test_out_of_range_noise_fails_typed(self, monkeypatch, tau, failed):
        # at tau = 1e-300 the beats' squares overflow, and tau^2 B makes
        # psi inf; at 1e300 psi is 0 and the residuals vanish. Each entry
        # that cannot be computed fails; the report holds no inf or NaN
        one_worker(monkeypatch)
        config = BenchmarkConfig(seed=1, n_samples=4, d=40, fs=200.0,
                                 r_offset=10, n_beats_grid=(2,),
                                 tau_regimes=(TauRegime.fixed(tau),))
        [cell] = run_benchmark(config).cells
        results = cell["estimators"]
        assert len(results) == 5
        for name, result in results.items():
            if name in failed:
                assert result["status"] == "failed"
                assert result["error"].startswith(failed[name] + ": ")
            else:
                assert result["status"] == "ok"
                assert result["mse"] == 0.0
        json.dumps(cell, allow_nan=False)

    def test_mle_matches_analytic(self, report):
        result = report.result("tau=4", 4, "mle")
        analytic = 100 / (4.0**2 * 4)
        assert abs(result["mse"] - analytic) / analytic < 0.05

    def test_oracle_dominates(self, report):
        for cell in report.cells:
            oracle = cell["estimators"]["oracle_bayes"]["mse"]
            for name, result in cell["estimators"].items():
                if result["status"] == "ok":
                    assert oracle <= result["mse"] + 1e-12

    def test_summary_fields(self, report):
        result = report.result("tau=4", 4, "fa_truth")
        assert result["mse"] >= 0 and result["se"] >= 0
        assert result["latent_dim"] == 3
        assert result["mse_per_coordinate"] == pytest.approx(
            result["mse"] / 100
        )

    def test_deterministic_body(self, report):
        again = run_benchmark(small_config())
        assert json.dumps(report.body(), sort_keys=True) == \
            json.dumps(again.body(), sort_keys=True)
        assert report.meta["wall_clock_s"] != again.meta["wall_clock_s"] or True

    def test_timings_cover_the_run(self, report):
        # meta.timings lies outside body(), so the body digest above holds,
        # and its stages add up to the run's wall-clock time
        timings = report.meta["timings"]
        assert "timings" not in json.dumps(report.body())
        assert [(c["tau_label"], c["n_beats"]) for c in timings["cells"]] \
            == [(c["tau_label"], c["n_beats"]) for c in report.cells]
        wall = report.meta["wall_clock_s"]
        stages = timings["population_s"] + timings["covariance_s"]
        assert abs(stages + timings["cells_s"] - wall) <= 0.05 * wall
        if report.meta["workers"] == 1:
            total = stages
            for cell, entries in zip(timings["cells"], report.cells):
                assert set(cell["denoise_s"]) == set(entries["estimators"])
                total += cell["sampling_s"] + cell["noise_s"] \
                    + sum(cell["denoise_s"].values())
            assert abs(total - wall) <= 0.05 * wall

    @fork_only
    def test_pool_timings_cover_the_run(self, monkeypatch, report):
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 2)
        pooled = run_benchmark(small_config())
        assert pooled.meta["workers"] == 2
        timings = pooled.meta["timings"]
        assert [(c["tau_label"], c["n_beats"]) for c in timings["cells"]] \
            == [(c["tau_label"], c["n_beats"]) for c in report.cells]
        wall = pooled.meta["wall_clock_s"]
        total = timings["population_s"] + timings["covariance_s"] \
            + timings["cells_s"]
        assert abs(total - wall) <= 0.05 * wall

    def test_seed_changes_results(self, report):
        other = run_benchmark(small_config(seed=6))
        assert json.dumps(other.body()) != json.dumps(report.body())

    def test_report_written_atomically(self, tmp_path):
        out = tmp_path / "sub" / "report.json"
        run_benchmark(small_config(n_samples=10, n_beats_grid=(2,),
                                   tau_regimes=(TauRegime.fixed(4),),
                                   estimators=(EstimatorSpec("mle"),)),
                      out_path=out)
        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert document["mse_convention"] == "summed"
        assert not list(out.parent.glob("*.tmp"))


def _blas_env(monkeypatch, env):
    """Set exactly the BLAS thread variables of ``env``, with fork
    available."""
    for var in bench._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["fork", "spawn"])


class TestCellPool:
    @fork_only
    @pytest.mark.parametrize("config", [
        small_config(seed=5),
        small_config(seed=6, n_beats_grid=(1, 2, 4)),
        small_config(seed=7, estimators=BenchmarkConfig(seed=0).estimators),
        # the one-sample config whose factor-analysis fits fail
        small_config(
            n_samples=1, n_beats_grid=(1,), tau_regimes=(TauRegime.fixed(4),),
            estimators=(EstimatorSpec("mle"), EstimatorSpec("fa", "truth"),
                        EstimatorSpec("mog_fa", "truth"))),
    ], ids=["seed5", "seed6", "seed7", "one-sample"])
    def test_pool_body_matches_serial(self, monkeypatch, config):
        # workers inherit K through the fork, so it is never pickled. The
        # pickling is recorded, not refused: a pool whose task fails to
        # pickle can hang instead of raising
        pickled = []

        def record(self, protocol):
            pickled.append(self)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(CovarianceMatrix, "__reduce_ex__", record)
        one_worker(monkeypatch)
        serial = run_benchmark(config)
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 2)
        pooled = run_benchmark(config)
        assert (serial.meta["workers"], pooled.meta["workers"]) == (1, 2)
        assert json.dumps(pooled.body()) == json.dumps(serial.body())
        assert pickled == []
        if config.n_samples > 1:  # B = 1 cells refuse fa_estimated
            assert pooled.result("tau=4", 1, "fa_estimated")["status"] \
                == "failed"

    @pytest.mark.parametrize("env, cpus, n_cells, want", [
        ({}, 4, 4, 1),  # unset: OpenBLAS takes every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 5, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 4, 2),
        ({"MKL_NUM_THREADS": "1"}, 4, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "two"}, 4, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 4, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "0"}, 4, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 4, 4, 1),
    ])
    def test_cell_workers(self, monkeypatch, env, cpus, n_cells, want):
        _blas_env(monkeypatch, env)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert bench._cell_workers(n_cells) == want

    def test_cell_workers_without_affinity_or_fork(self, monkeypatch):
        _blas_env(monkeypatch, {"OPENBLAS_NUM_THREADS": "1"})
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert bench._cell_workers(4) == 3
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert bench._cell_workers(4) == 1

    @fork_only
    def test_no_process_outlives_the_run(self, monkeypatch):
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 2)
        run_benchmark(small_config(n_samples=10))
        assert multiprocessing.active_children() == []

    @fork_only
    def test_cell_error_reaches_the_caller(self, monkeypatch):
        sample = bench.simulate_cell_beats

        def fail_one_cell(thetas, K, taus, n_beats, seed):
            if n_beats == 4 and taus[0] != taus[-1]:  # the U(2, 20) cell
                raise RuntimeError("cell failed")
            return sample(thetas, K, taus, n_beats, seed)

        monkeypatch.setattr(bench, "simulate_cell_beats", fail_one_cell)
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 2)
        with pytest.raises(RuntimeError, match="cell failed"):
            run_benchmark(small_config(n_samples=10))
        assert multiprocessing.active_children() == []

    @fork_only
    def test_dead_worker_is_a_json_error(self, monkeypatch, capfd):
        sample = bench.simulate_cell_beats
        caller = os.getpid()

        def die_in_one_cell(thetas, K, taus, n_beats, seed):
            if n_beats == 4 and taus[0] != taus[-1] and os.getpid() != caller:
                os._exit(9)  # as the OOM killer would end it
            return sample(thetas, K, taus, n_beats, seed)

        monkeypatch.setattr(bench, "simulate_cell_beats", die_in_one_cell)
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: 2)
        code = cli.main([
            "benchmark", "--seed", "5", "--n-samples", "10", "--d", "100",
            "--fs", "500", "--r-offset", "33", "--taus", "4;uniform:2,20",
            "--beats-grid", "1,4", "--estimator", "mle"])
        out, err = capfd.readouterr()
        assert (code, err) == (1, "")
        error = json.loads(out)["error"]
        assert error["type"] == "WorkerDiedError"
        assert "tau~U(2,20), B=4" in error["message"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=fork_only)])
    def test_population_is_read_only(self, monkeypatch, workers):
        sample = bench.simulate_cell_beats

        def write_population(thetas, K, taus, n_beats, seed):
            thetas[0, 0] += 1.0
            return sample(thetas, K, taus, n_beats, seed)

        monkeypatch.setattr(bench, "simulate_cell_beats", write_population)
        monkeypatch.setattr(bench, "_cell_workers", lambda n_cells: workers)
        with pytest.raises(ValueError, match="read-only"):
            run_benchmark(small_config(n_samples=10))
        assert multiprocessing.active_children() == []
