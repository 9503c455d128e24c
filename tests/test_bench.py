"""Benchmark harness: config plumbing, determinism, error marking, plots."""
import json

import numpy as np
import pytest

from ecgdenoise.bench import (
    BenchmarkConfig,
    EstimatorSpec,
    LatentDimRule,
    TauRegime,
    emit_plot_data,
    mse,
    run_benchmark,
    sum_squared_error,
)
from ecgdenoise.errors import EmptyInputError
from ecgdenoise.noise import EcgSample, NoisePrecision


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


class TestMse:
    def test_identical_vectors(self):
        x = np.arange(5.0)
        assert mse(x, x) == 0.0

    def test_offset_by_one(self):
        x = np.arange(5.0)
        assert mse(x + 1.0, x) == 1.0
        assert sum_squared_error(x + 1.0, x) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(4))


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

    def test_validation(self):
        with pytest.raises(ValueError):
            TauRegime.fixed(-1.0)
        with pytest.raises(ValueError):
            TauRegime.uniform(5, 2)


class TestEstimatorSpec:
    def test_parse(self):
        spec = EstimatorSpec.parse("fa:estimated")
        assert spec.name == "fa_estimated" and spec.needs_estimation

    def test_default_noise_mode(self):
        assert EstimatorSpec.parse("mle").name == "mle"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EstimatorSpec.parse("vae")


class TestLatentDimRule:
    def test_parse_fixed(self):
        assert LatentDimRule.parse("7") == LatentDimRule("fixed", 7)

    def test_parse_scree(self):
        rule = LatentDimRule.parse("scree:-0.5")
        assert rule.mode == "scree" and rule.value == -0.5

    def test_fixed_choose(self):
        rule = LatentDimRule("fixed", 4)
        assert rule.choose(np.zeros((10, 8))) == 4

    def test_scree_choose_caps_at_rank(self, rng):
        rule = LatentDimRule("scree", -0.8)
        data = rng.standard_normal((5, 20)) * 1e-3
        data[:, 0] += np.array([10.0, -10.0, 10.0, -10.0, 10.0])
        assert 1 <= rule.choose(data) <= 4


class TestBenchmarkConfig:
    def test_seed_required(self):
        with pytest.raises(TypeError):
            BenchmarkConfig()
        with pytest.raises(ValueError):
            BenchmarkConfig(seed=None)

    def test_dict_round_trip(self):
        config = small_config()
        again = BenchmarkConfig.from_dict(config.to_dict())
        assert again == config

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
        # mle and oracle_bayes are named without their noise mode, so these
        # two specs would share one report entry
        with pytest.raises(ValueError, match="oracle_bayes"):
            small_config(estimators=(EstimatorSpec("oracle_bayes", "truth"),
                                     EstimatorSpec("oracle_bayes",
                                                   "estimated")))
        with pytest.raises(ValueError, match="fa_truth"):
            BenchmarkConfig.from_dict({
                "seed": 1, "estimators": ["mle", "fa:truth", "fa"]})

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


class TestEmitPlotData:
    def _sample(self, rng, tau=None):
        beats = rng.standard_normal((4, 30))
        return EcgSample(
            sample_id="s0", beats=beats,
            tau=NoisePrecision(tau) if tau else None,
        )

    def test_beats_overlay(self, tmp_path, rng):
        path = tmp_path / "overlay.csv"
        emit_plot_data(self._sample(rng), "beats-overlay", path,
                       reconstruction=np.zeros(30))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "series,x,y"
        series = {line.split(",")[0] for line in lines[1:]}
        assert series == {f"beat_{i:02d}" for i in range(4)} | {"reconstruction"}

    def test_tau_hist_conserves_counts(self, tmp_path, rng):
        samples = [
            EcgSample(sample_id=str(i), beats=rng.standard_normal((2, 8)),
                      tau=NoisePrecision(float(t)))
            for i, t in enumerate(rng.uniform(2, 20, 50))
        ]
        path = tmp_path / "tau.csv"
        emit_plot_data(samples, "tau-hist", path, bins=7)
        rows = [line.split(",") for line in
                path.read_text().strip().splitlines()[1:]]
        counts = [float(y) for series, _, y in rows if series == "tau_count"]
        assert sum(counts) == 50
        edges = [float(y) for series, _, y in rows if series == "tau_bin_edge"]
        assert len(edges) == 8

    def test_beat_count_hist(self, tmp_path, rng):
        samples = [
            EcgSample(sample_id=str(i), beats=rng.standard_normal((b, 8)))
            for i, b in enumerate([3, 3, 5])
        ]
        path = tmp_path / "counts.csv"
        emit_plot_data(samples, "beat-count-hist", path)
        rows = [line.split(",") for line in
                path.read_text().strip().splitlines()[1:]]
        assert [(float(x), float(y)) for _, x, y in rows] == [(3.0, 2.0), (5.0, 1.0)]

    def test_mse_table_from_report(self, tmp_path):
        report = run_benchmark(small_config(
            n_samples=10, n_beats_grid=(2,),
            tau_regimes=(TauRegime.fixed(4),),
            estimators=(EstimatorSpec("mle"),)))
        path = tmp_path / "table.csv"
        emit_plot_data(report, "mse-table", path)
        body = path.read_text()
        assert "mle|B=2" in body

    def test_empty_inputs_error(self, tmp_path, rng):
        with pytest.raises(EmptyInputError):
            emit_plot_data([], "tau-hist", tmp_path / "x.csv")
        with pytest.raises(EmptyInputError):
            emit_plot_data([self._sample(rng)], "tau-hist",
                           tmp_path / "y.csv")  # no tau values

    def test_unknown_kind(self, tmp_path, rng):
        with pytest.raises(ValueError, match="kind"):
            emit_plot_data(self._sample(rng), "spectrogram", tmp_path / "z.csv")
