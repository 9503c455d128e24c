"""File formats: CSV matrices, dataset directories, model documents."""
import re

import numpy as np
import pytest

from ecgdenoise.estimators import FaModel, MogFaModel, fit_factor_analysis, fit_mog_fa
from ecgdenoise.noise import EcgSample, NoisePrecision, matern_covariance
from ecgdenoise.serialize import (
    load_dataset,
    load_json,
    load_matrix_csv,
    save_dataset,
    save_json,
    save_matrix_csv,
    load_model,
    save_model,
)


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        matrix = rng.standard_normal((5, 7)) * np.pi
        path = tmp_path / "m.csv"
        save_matrix_csv(path, matrix, row_ids=[f"r{i}" for i in range(5)])
        loaded, row_ids = load_matrix_csv(path)
        np.testing.assert_array_equal(loaded, matrix)  # %.17g round-trips
        assert row_ids == ["r0", "r1", "r2", "r3", "r4"]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="row_id"):
            load_matrix_csv(path)

    def test_cell_count_checked_against_header(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("row_id,c0,c1\na,1,2\nb,3\n")
        with pytest.raises(ValueError, match=r"short\.csv: line 3 has 2 "):
            load_matrix_csv(path)
        path.write_text("row_id,c0,c1\na,1,2,3\n")
        with pytest.raises(ValueError, match="line 2 has 4 cells"):
            load_matrix_csv(path)

    def test_row_id_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)), row_ids=["a"])

    def test_no_temp_files_left(self, tmp_path):
        save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


class TestDataset:
    def test_round_trip(self, tmp_path, rng):
        d = 40
        thetas = rng.standard_normal((3, d))
        peak = np.argmax(thetas, axis=1)
        taus = np.array([2.0, 5.0, 9.0])
        samples = [
            EcgSample(sample_id=f"s{i}", beats=thetas[i] + 0.01 *
                      rng.standard_normal((4, d)),
                      tau=NoisePrecision(taus[i]))
            for i in range(3)
        ]
        save_dataset(tmp_path / "ds", samples,
                     manifest_extra={"d": d, "seed": 1},
                     thetas=thetas, taus=taus, r_offset=None, fs=100.0)
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert manifest["n_samples"] == 3
        assert manifest["has_ground_truth"]
        for i, (sample, original) in enumerate(zip(loaded, samples)):
            np.testing.assert_array_equal(sample.beats, original.beats)
            np.testing.assert_array_equal(sample.theta.values, thetas[i])
            assert float(sample.tau) == taus[i]
            assert sample.theta.r_index == peak[i]

    @staticmethod
    def _write(directory, rng, fs=100.0):
        thetas = rng.standard_normal((3, 8))
        samples = [EcgSample(sample_id=f"s{i}", beats=np.zeros((2, 8)))
                   for i in range(3)]
        save_dataset(directory, samples, manifest_extra={"d": 8},
                     thetas=thetas, taus=[2.0, 3.0, 4.0], r_offset=None,
                     fs=fs)

    @pytest.mark.parametrize("name", ["thetas.csv", "taus.csv"])
    def test_truth_rows_match_manifest(self, tmp_path, rng, name):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop s2
        with pytest.raises(ValueError, match=f"{name}.*2 row ids.*3 sample"):
            load_dataset(tmp_path / "ds")
        lines[1], lines[2] = lines[2], lines[1]  # s1 before s0
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=name):
            load_dataset(tmp_path / "ds")

    def test_narrow_beats_file_is_named(self, tmp_path, rng):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / "beats" / "s1.csv"
        save_matrix_csv(path, np.zeros((2, 7)))  # thetas have 8 columns
        message = re.escape(f"{path}: ground-truth beat length")
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "ds")

    def test_missing_fs_defaults_to_500_hz(self, tmp_path, rng):
        self._write(tmp_path / "ds", rng, fs=None)
        assert load_json(tmp_path / "ds" / "manifest.json")["fs"] is None
        samples, manifest = load_dataset(tmp_path / "ds")
        assert manifest["fs"] == 500.0
        assert all(s.theta.fs == 500.0 for s in samples)

    def test_rejects_non_dataset(self, tmp_path):
        save_json(tmp_path / "ds" / "manifest.json", {"kind": "other"})
        with pytest.raises(ValueError, match="dataset"):
            load_dataset(tmp_path / "ds")


@pytest.fixture(scope="module")
def k_small():
    return matern_covariance(d=24, fs=500.0, lengthscale=0.004,
                             smoothness=1.5)


class TestModelDocuments:
    def test_fa_round_trip(self, tmp_path, k_small, rng):
        beats = rng.standard_normal((30, 24))
        model = fit_factor_analysis(beats, k_small, taus=2.0, p=3)
        path = tmp_path / "fa.json"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, FaModel)
        np.testing.assert_array_equal(loaded.loadings, model.loadings)
        np.testing.assert_array_equal(loaded.mean, model.mean)
        assert loaded.converged == model.converged
        assert loaded.n_iter == model.n_iter

    def test_older_fa_document_loads(self, tmp_path, k_small, rng):
        model = fit_factor_analysis(rng.standard_normal((30, 24)), k_small,
                                    taus=2.0, p=3)
        path = tmp_path / "fa.json"
        save_model(path, model)
        document = load_json(path)
        document["fa"]["noise_diag"] = [1.0] * 24  # as older documents have
        save_json(path, document)
        loaded = load_model(path)
        for name in ("mean", "loadings", "loglik_trace"):
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(model, name))
        assert loaded.converged == model.converged

    def test_mog_round_trip(self, tmp_path, k_small, rng):
        beats = rng.standard_normal((30, 24))
        model = fit_mog_fa(beats, k_small, taus=2.0, p=2, n_components=2,
                           rng_seed=0)
        path = tmp_path / "mog.json"
        save_model(path, model)
        loaded = load_model(path)
        assert isinstance(loaded, MogFaModel)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        np.testing.assert_array_equal(loaded.comp_covs, model.comp_covs)
        np.testing.assert_array_equal(loaded.fa.loadings, model.fa.loadings)

    def test_schema_version_checked(self, tmp_path):
        save_json(tmp_path / "m.json", {"schema_version": 99, "kind": "fa"})
        with pytest.raises(ValueError, match="schema"):
            load_model(tmp_path / "m.json")

    def test_unknown_payload_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "m.json", object())

    def test_json_helpers(self, tmp_path):
        save_json(tmp_path / "x.json", {"b": 1, "a": [1, 2]})
        assert load_json(tmp_path / "x.json") == {"b": 1, "a": [1, 2]}
