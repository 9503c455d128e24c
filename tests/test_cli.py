"""End-to-end CLI: simulate, estimate-noise, denoise, benchmark, plot-data."""
import json

import numpy as np
import pytest

from ecgdenoise.cli import main
from ecgdenoise.serialize import load_json, load_matrix_csv

SIM_FLAGS = [
    "--n-samples", "12", "--beats", "6", "--d", "80", "--fs", "200",
    "--r-offset", "26", "--tau", "uniform:2,20", "--seed", "42",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = main(["simulate", *SIM_FLAGS, "--out", str(out)])
    assert code == 0
    return out


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


class TestSimulate:
    def test_dataset_layout(self, dataset):
        manifest = load_json(dataset / "manifest.json")
        assert manifest["n_samples"] == 12
        assert manifest["has_ground_truth"]
        beats, _ = load_matrix_csv(dataset / "beats" / "s00000.csv")
        assert beats.shape == (6, 80)

    def test_summary_on_stdout(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "simulate", *SIM_FLAGS, "--out", str(tmp_path / "ds2")
        ])
        assert code == 0
        assert payload["n_samples"] == 12

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", *SIM_FLAGS, "--out", str(a)])
        main(["simulate", *SIM_FLAGS, "--out", str(b)])
        beats_a, _ = load_matrix_csv(a / "beats" / "s00003.csv")
        beats_b, _ = load_matrix_csv(b / "beats" / "s00003.csv")
        np.testing.assert_array_equal(beats_a, beats_b)


class TestEstimateNoise:
    def test_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "noise"
        code, payload = run_json(capsys, [
            "estimate-noise", "--dataset", str(dataset), "--out", str(out)
        ])
        assert code == 0
        k_hat, _ = load_matrix_csv(out / "k_hat.csv")
        assert k_hat.shape == (80, 80)
        assert payload["trace"] == pytest.approx(80.0, abs=1e-6)
        assert payload["tau_median_relative_error"] < 0.5


class TestDenoise:
    @pytest.mark.parametrize("estimator", ["mle", "oracle_bayes",
                                           "fa:truth", "fa:estimated"])
    def test_estimators(self, dataset, tmp_path, capsys, estimator):
        out = tmp_path / f"{estimator.replace(':', '_')}.csv"
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(dataset), "--estimator", estimator,
            "--latent-dim", "3", "--out", str(out),
        ])
        assert code == 0
        estimates, row_ids = load_matrix_csv(out)
        assert estimates.shape == (12, 80)
        assert row_ids[0] == "s00000"
        assert payload["mse"] >= 0.0

    def test_oracle_beats_mle(self, dataset, tmp_path, capsys):
        _, mle = run_json(capsys, [
            "denoise", "--dataset", str(dataset), "--estimator", "mle",
            "--out", str(tmp_path / "m.csv"),
        ])
        _, oracle = run_json(capsys, [
            "denoise", "--dataset", str(dataset),
            "--estimator", "oracle_bayes",
            "--out", str(tmp_path / "o.csv"),
        ])
        assert oracle["mse"] <= mle["mse"] + 1e-12


class TestBenchmark:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "3", "--n-samples", "15",
            "--d", "80", "--fs", "200", "--r-offset", "26",
            "--taus", "4;uniform:2,20", "--beats-grid", "1,4",
            "--estimator", "mle", "--estimator", "fa:truth",
            "--latent-dim", "3", "--out", str(out),
        ])
        assert code == 0
        document = load_json(out)
        assert len(document["cells"]) == 4
        assert payload["cells"] == 4

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "n_samples": 8, "d": 80, "fs": 200, "r_offset": 26,
            "tau_regimes": ["4"], "n_beats_grid": [2],
            "estimators": ["mle"],
        }))
        out = tmp_path / "report.json"
        code, _ = run_json(capsys, [
            "benchmark", "--seed", "3", "--n-samples", "999",
            "--config", str(config_path), "--out", str(out),
        ])
        assert code == 0
        document = load_json(out)
        assert document["config"]["n_samples"] == 8  # file wins
        assert document["config"]["seed"] == 3  # flag fills the gap

    def test_unknown_config_key_is_json_error(self, tmp_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({"seed": 1, "bogus": 3}))
        code, payload = run_json(capsys, [
            "benchmark", "--config", str(config_path),
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert "bogus" in payload["error"]["message"]
        assert not (tmp_path / "r.json").exists()

    def test_duplicate_estimator_names_is_json_error(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "1", "--estimator", "oracle_bayes:truth",
            "--estimator", "oracle_bayes:estimated",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "oracle_bayes" in payload["error"]["message"]

    def test_missing_seed_is_error(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "seed" in payload["error"]["message"]


class TestPlotData:
    def test_beats_overlay_with_reconstruction(self, dataset, tmp_path, capsys):
        out = tmp_path / "overlay.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset", str(dataset),
            "--sample", "s00002", "--estimator", "fa:truth",
            "--latent-dim", "3", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "reconstruction" in text and "beat_00" in text

    def test_tau_hist(self, dataset, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "tau-hist", "--dataset", str(dataset),
            "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        counts = sum(float(r.split(",")[2]) for r in rows
                     if r.startswith("tau_count"))
        assert counts == 12

    def test_mse_table(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["benchmark", "--seed", "3", "--n-samples", "8",
              "--d", "80", "--fs", "200", "--r-offset", "26",
              "--taus", "4", "--beats-grid", "2",
              "--estimator", "mle", "--out", str(report)])
        capsys.readouterr()
        out = tmp_path / "table.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(report),
            "--out", str(out),
        ])
        assert code == 0
        assert "mle|B=2" in out.read_text()


class TestErrorHandling:
    def test_missing_dataset_yields_json_error(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(tmp_path / "nope"),
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_output_dir_env(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ECGDENOISE_OUTPUT_DIR", str(tmp_path))
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(dataset), "--estimator", "mle",
            "--out", "relative.csv",
        ])
        assert code == 0
        assert (tmp_path / "relative.csv").exists()
