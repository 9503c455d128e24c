"""End-to-end CLI: simulate, estimate-noise, denoise, benchmark, plot-data."""
import json
import shutil

import numpy as np
import pytest

from ecgdenoise import bench, cli, estimators
from ecgdenoise.cli import _true_covariance, main
from ecgdenoise.noise import EcgSample, matern_covariance
from ecgdenoise.serialize import (
    load_dataset,
    load_json,
    load_matrix_csv,
    save_dataset,
)

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


@pytest.fixture(scope="module")
def unlabelled(dataset, tmp_path_factory):
    """The same recordings saved with no true thetas or taus."""
    samples, manifest = load_dataset(dataset)
    out = tmp_path_factory.mktemp("cli") / "unlabelled"
    save_dataset(out, [EcgSample(sample_id=s.sample_id, beats=s.beats)
                       for s in samples],
                 manifest_extra={"d": manifest["d"]}, fs=manifest["fs"])
    return out


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def overlay_reconstruction(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([float(y) for series, _, y in rows
                     if series == "reconstruction"])


class TestSimulate:
    def test_dataset_layout(self, dataset):
        assert sorted(p.name for p in dataset.iterdir()) == [
            "beats.npy", "manifest.json", "taus.npy", "thetas.npy"]
        manifest = load_json(dataset / "manifest.json")
        assert manifest["n_samples"] == 12
        assert manifest["beat_counts"] == [6] * 12
        assert manifest["has_ground_truth"] and manifest["has_true_taus"]
        shapes = {name: np.load(dataset / name, allow_pickle=False).shape
                  for name in ("beats.npy", "thetas.npy", "taus.npy")}
        assert shapes == {"beats.npy": (72, 80), "thetas.npy": (12, 80),
                          "taus.npy": (12,)}

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
        files_a = {p.name: p.read_bytes() for p in a.iterdir()}
        files_b = {p.name: p.read_bytes() for p in b.iterdir()}
        assert len(files_a) == 4
        assert files_a == files_b

    def test_off_grid_rate_is_json_error(self, tmp_path, capsys):
        flags = list(SIM_FLAGS)
        flags[flags.index("--fs") + 1] = "333.3"
        code, payload = run_json(capsys, ["simulate", *flags,
                                          "--out", str(tmp_path / "ds")])
        assert code == 1
        assert payload["error"]["type"] == "OffGridRateError"
        assert "nearest valid fs is 333.25" in payload["error"]["message"]
        assert not (tmp_path / "ds").exists()


class TestInfiniteTau:
    """``tau`` = inf (noiseless beats) is refused before any simulation."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a population")

        monkeypatch.setattr(cli, "simulate_population", refuse)
        monkeypatch.setattr(bench, "simulate_population", refuse)

    def test_simulate(self, tmp_path, capsys):
        flags = list(SIM_FLAGS)
        flags[flags.index("--tau") + 1] = "inf"
        code, payload = run_json(capsys, ["simulate", *flags,
                                          "--out", str(tmp_path / "ds")])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": "fixed tau regime needs finite value > 0, not inf"}
        assert not (tmp_path / "ds").exists()

    def test_benchmark(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "3", "--n-samples", "15", "--d", "80",
            "--fs", "200", "--r-offset", "26", "--taus", "4;uniform:2,inf",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(
            "uniform tau regime needs finite 0 < lo < hi")
        assert not (tmp_path / "r.json").exists()


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

    @pytest.mark.parametrize("estimator", ["mle", "fa:estimated"])
    def test_no_ground_truth_needed(self, unlabelled, tmp_path, capsys,
                                    estimator):
        out = tmp_path / "est.csv"
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(unlabelled), "--estimator", estimator,
            "--latent-dim", "3", "--out", str(out),
        ])
        assert code == 0
        assert "mse" not in payload
        estimates, _ = load_matrix_csv(out)
        assert estimates.shape == (12, 80)
        if estimator == "mle":
            samples, _ = load_dataset(unlabelled)
            np.testing.assert_array_equal(
                estimates, np.stack([s.beat_mean for s in samples]))

    @pytest.mark.parametrize("estimator", ["fa:truth", "oracle_bayes"])
    def test_truth_spec_without_truth_is_json_error(self, unlabelled,
                                                    tmp_path, capsys,
                                                    estimator):
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(unlabelled), "--estimator", estimator,
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "EcgDenoiseError"
        assert not (tmp_path / "x.csv").exists()

    def test_fixed_latent_dim_capped_at_rank(self, tmp_path, capsys):
        # 4 centred rows have rank 3, below the default p = 7
        ds = tmp_path / "ds"
        for argv in (["simulate", "-n", "4", "-B", "3", "--d", "80",
                      "--fs", "200", "--r-offset", "26", "--seed", "1",
                      "--out", str(ds)],
                     ["estimate-noise", "--dataset", str(ds),
                      "--out", str(tmp_path / "noise")]):
            code, _ = run_json(capsys, argv)
            assert code == 0
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(ds), "--estimator", "fa:estimated",
            "--out", str(tmp_path / "estimates.csv"),
        ])
        assert code == 0
        assert payload["latent_dim"] == 3
        estimates, _ = load_matrix_csv(tmp_path / "estimates.csv")
        assert estimates.shape == (4, 80)

    @pytest.mark.parametrize("estimator, fit", [
        ("fa:truth", "FA fit"), ("mog_fa:truth", "mixture FA fit, stage 3")])
    def test_falling_loglik_is_json_error(self, dataset, tmp_path, capsys,
                                          monkeypatch, estimator, fit):
        fit_loadings = estimators._fit_loadings

        def falling(xw, psi, loadings, prior, *args):
            loadings, trace, converged = fit_loadings(xw, psi, loadings,
                                                      prior, *args)
            if estimator.startswith("mog_fa") and len(prior[0]) == 1:
                return loadings, trace, converged  # stage 1 stays as it was
            return loadings, np.append(trace, trace[-1] - 1.0), converged

        monkeypatch.setattr(estimators, "_fit_loadings", falling)
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(dataset), "--estimator", estimator,
            "--latent-dim", "3", "--components", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "NonMonotoneFitError"
        assert payload["error"]["message"].startswith(f"{fit}: ")
        assert not (tmp_path / "x.csv").exists()


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

    def test_bad_config_value_is_json_error(self, tmp_path, capsys,
                                            monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a population")

        monkeypatch.setattr(bench, "simulate_population", refuse)
        config_path = tmp_path / "c.json"
        for document, match in [
            ({"seed": 1, "mog_components": 0}, "mog_components"),
            ([1, 2], f"{config_path}: expected a JSON object"),
            ({"seed": 1, "n_samples": "5"},
             "'n_samples' must be an integer, not '5'"),
            ({"seed": 1, "tau_regimes": 5}, "'tau_regimes' must be a list"),
            ({"seed": 1, "fs": True}, "'fs' must be a number"),
            ({"seed": 1, "latent_dim": "3"}, "'latent_dim' must be an object"),
            ({"seed": 1, "estimators": [5]}, "unknown estimator '5'"),
            ({"seed": 1, "tau_regimes": [{"kind": "fixed", "value": "2"}]},
             "'tau_regimes' item 0 key 'value' must be a number, not '2'"),
            ({"seed": 1, "n_beats_grid": [None]},
             "'n_beats_grid' item 0 must be an integer, not None"),
            ({"seed": 1, "n_beats_grid": [20, 2.7]},
             "'n_beats_grid' item 1 must be an integer, not 2.7"),
            ({"seed": 1, "latent_dim": {"mode": "scree", "value": "x"}},
             "'latent_dim' key 'value' must be a number, not 'x'"),
        ]:
            config_path.write_text(json.dumps(document))
            code, payload = run_json(capsys, [
                "benchmark", "--config", str(config_path),
                "--out", str(tmp_path / "r.json"),
            ])
            assert code == 1
            assert payload["error"]["type"] == "ValueError"
            assert match in payload["error"]["message"]
            assert not (tmp_path / "r.json").exists()

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

    @pytest.mark.parametrize("estimator", ["mle", "oracle_bayes", "fa:truth",
                                           "mog_fa:truth"])
    def test_reconstruction_is_the_denoise_row(self, dataset, tmp_path,
                                               capsys, estimator):
        csv = tmp_path / "denoised.csv"
        code, _ = run_json(capsys, [
            "denoise", "--dataset", str(dataset), "--estimator", estimator,
            "--latent-dim", "3", "--out", str(csv),
        ])
        assert code == 0
        overlay = tmp_path / "overlay.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset", str(dataset),
            "--sample", "s00002", "--estimator", estimator,
            "--latent-dim", "3", "--out", str(overlay),
        ])
        assert code == 0
        estimates, row_ids = load_matrix_csv(csv)
        np.testing.assert_array_equal(overlay_reconstruction(overlay),
                                      estimates[row_ids.index("s00002")])

    def test_truth_spec_without_truth_is_json_error(self, unlabelled,
                                                    tmp_path, capsys):
        code, payload = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay",
            "--dataset", str(unlabelled), "--estimator", "fa:truth",
            "--out", str(tmp_path / "overlay.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "EcgDenoiseError"
        assert not (tmp_path / "overlay.csv").exists()

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

    def test_report_that_is_not_an_object_is_json_error(self, tmp_path,
                                                          capsys):
        report = tmp_path / "report.json"
        report.write_text("[]")
        code, payload = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(report),
            "--out", str(tmp_path / "table.csv"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": f"{report}: expected a JSON object, found list"}
        assert not (tmp_path / "table.csv").exists()


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


class TestDatasetChecks:
    @pytest.fixture()
    def copy(self, dataset, tmp_path):
        return shutil.copytree(dataset, tmp_path / "ds")

    @staticmethod
    def estimate_noise_error(capsys, copy):
        code, payload = run_json(capsys, [
            "estimate-noise", "--dataset", str(copy),
            "--out", str(copy / "noise"),
        ])
        assert code == 1
        assert not (copy / "noise").exists()
        return payload["error"]

    def test_missing_truth_row_is_json_error(self, copy, capsys):
        thetas = copy / "thetas.npy"
        np.save(thetas, np.load(thetas)[:-1])
        error = self.estimate_noise_error(capsys, copy)
        assert error["type"] == "ValueError"
        assert f"{thetas}: 11 rows" in error["message"]

    def test_short_beats_row_is_json_error(self, copy, capsys):
        beats = copy / "beats.npy"
        np.save(beats, np.load(beats)[:-1])  # beat_counts sum to 72
        error = self.estimate_noise_error(capsys, copy)
        assert f"{beats}: 71 rows" in error["message"]
        assert "beat_counts sum to 72" in error["message"]

    def test_narrow_beats_file_is_named(self, copy, capsys):
        beats = copy / "beats.npy"
        np.save(beats, np.load(beats)[:, :-1])
        error = self.estimate_noise_error(capsys, copy)
        assert f"{beats}: ground-truth beat length" in error["message"]

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
    def test_invalid_true_tau_is_json_error(self, copy, capsys, bad):
        taus = np.load(copy / "taus.npy")
        taus[3] = bad
        np.save(copy / "taus.npy", taus)
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(copy), "--estimator", "fa:truth",
            "--out", str(copy / "estimates.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(
            f"{copy / 'taus.npy'}: sample 's00003': tau must be finite and "
            f"strictly positive")
        assert not (copy / "estimates.csv").exists()

    @pytest.mark.parametrize("damage", ["truncated", "object"])
    def test_bad_beats_file_is_json_error(self, copy, capsys, damage):
        beats = copy / "beats.npy"
        if damage == "truncated":
            beats.write_bytes(beats.read_bytes()[:-8])
        else:
            np.save(beats, np.array([{"beat": 1}], dtype=object),
                    allow_pickle=True)
        error = self.estimate_noise_error(capsys, copy)
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{beats}: ")

    def test_duplicate_sample_id_is_json_error(self, copy, capsys):
        manifest = load_json(copy / "manifest.json")
        manifest["sample_ids"][1] = manifest["sample_ids"][0]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        error = self.estimate_noise_error(capsys, copy)
        assert error["type"] == "InvalidSampleIdError"
        assert "sample id 's00000' appears twice" in error["message"]

    def test_padded_sample_id_is_json_error(self, copy, capsys):
        # a CSV reader strips the line, so ' s00001' would come back as
        # 's00001' in estimates.csv and tau_hat.csv
        manifest = load_json(copy / "manifest.json")
        manifest["sample_ids"][1] = " s00001"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        error = self.estimate_noise_error(capsys, copy)
        assert error["type"] == "InvalidSampleIdError"
        assert "sample id ' s00001'" in error["message"]

    def test_manifest_that_is_not_an_object_is_json_error(self, copy,
                                                           capsys):
        manifest = load_json(copy / "manifest.json")
        (copy / "manifest.json").write_text(json.dumps([manifest]))
        error = self.estimate_noise_error(capsys, copy)
        assert error == {
            "type": "ValueError",
            "message": f"{copy / 'manifest.json'}: expected a JSON object, "
                       f"found list"}

    def test_old_layout_is_json_error(self, copy, capsys):
        (copy / "beats.npy").unlink()
        (copy / "beats").mkdir()
        error = self.estimate_noise_error(capsys, copy)
        assert error["type"] == "ValueError"
        assert f"{copy / 'beats.npy'} is missing" in error["message"]
        assert "re-run `ecgdenoise simulate`" in error["message"]

    @pytest.mark.parametrize("estimator", ["fa:estimated", "fa:truth"])
    def test_manifest_without_d(self, dataset, copy, tmp_path, capsys,
                                estimator):
        manifest = load_json(copy / "manifest.json")
        del manifest["d"]
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code, _ = run_json(capsys, [
            "estimate-noise", "--dataset", str(copy),
            "--out", str(copy / "noise"),
        ])
        assert code == 0
        for name, source in (("a.csv", dataset), ("b.csv", copy)):
            code, _ = run_json(capsys, [
                "denoise", "--dataset", str(source), "--estimator", estimator,
                "--latent-dim", "3", "--out", str(tmp_path / name),
            ])
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_missing_fs_is_resolved_once(self, copy):
        manifest = load_json(copy / "manifest.json")
        manifest["fs"] = None
        (copy / "manifest.json").write_text(json.dumps(manifest))
        samples, loaded = load_dataset(copy)
        K = _true_covariance(loaded, manifest["d"])
        assert samples[0].theta.fs == loaded["fs"] == 500.0
        expected = matern_covariance(
            manifest["d"], 500.0, manifest["matern"]["lengthscale"],
            manifest["matern"]["smoothness"])
        np.testing.assert_array_equal(K.matrix, expected.matrix)
