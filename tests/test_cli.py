"""End-to-end CLI: simulate, estimate-noise, denoise, benchmark, plot-data."""
import dataclasses
import json
import logging
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecgdenoise import bench, cli, estimators, simulate
from ecgdenoise.bench import (
    BenchmarkConfig,
    EstimatorSpec,
    TauRegime,
    run_benchmark,
)
from ecgdenoise.cli import main
from ecgdenoise.noise import Recordings
from ecgdenoise.serialize import (
    load_dataset,
    load_json,
    load_matrix_csv,
    save_dataset,
    save_matrix_csv,
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
def dataset60(tmp_path_factory):
    """The 60-recording draw that the grid-match test compares."""
    out = tmp_path_factory.mktemp("cli") / "ds60"
    flags = list(SIM_FLAGS)
    flags[flags.index("--n-samples") + 1] = "60"
    assert main(["simulate", *flags, "--out", str(out)]) == 0
    return out


#: Fit settings recorded in the small fixtures: p = 3, 2 mixture components.
SMALL_FIT = {"latent_dim": {"mode": "fixed", "value": 3}, "mog_components": 2}


@pytest.fixture(scope="module")
def small_fit(dataset, tmp_path_factory):
    """The dataset with ``SMALL_FIT`` in its recorded config."""
    out = shutil.copytree(dataset, tmp_path_factory.mktemp("cli") / "small")
    manifest = load_json(out / "manifest.json")
    manifest["config"].update(SMALL_FIT)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return out


@pytest.fixture(scope="module")
def unlabelled(small_fit, tmp_path_factory):
    """The same recordings and record saved with no true thetas or taus."""
    recordings, manifest = load_dataset(small_fit)
    out = tmp_path_factory.mktemp("cli") / "unlabelled"
    save_dataset(out, dataclasses.replace(recordings, thetas=None, taus=None),
                 manifest_extra={"config": manifest["config"]})
    return out


@pytest.fixture(scope="module")
def configless(dataset, tmp_path_factory):
    """The same recordings and ground truth saved with no config, so with
    no record of the noise model that drew them."""
    samples, _ = load_dataset(dataset)
    out = tmp_path_factory.mktemp("cli") / "configless"
    save_dataset(out, samples, manifest_extra={})
    return out


def test_load_dataset_gives_what_perfbench_reads(dataset):
    # perfbench's pipeline check and tracer read the loaded dataset through
    # these names alone, and they change only with the benchmark's own
    # definition: a 2-tuple whose first item has a length and yields
    # recordings with an id, beats, their mean and count, tau and theta
    loaded = cli.load_dataset(dataset)
    assert isinstance(loaded, tuple) and len(loaded) == 2
    recordings = loaded[0]
    assert len(recordings) == 12
    items = list(recordings)
    assert len(items) == 12
    for sample in items:
        assert isinstance(sample.sample_id, str)
        assert sample.beats.shape == (6, 80) and sample.n_beats == 6
        np.testing.assert_array_equal(sample.beat_mean,
                                      sample.beats.mean(axis=0))
        assert isinstance(sample.tau, float)
        assert sample.theta.values.shape == (80,)


def run_json(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out)
    return code, payload


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """A one-cell benchmark report of mle."""
    out = tmp_path_factory.mktemp("cli") / "report.json"
    assert main(["benchmark", "--seed", "3", "--n-samples", "8", "--d", "80",
                 "--fs", "200", "--r-offset", "26", "--taus", "4",
                 "--beats-grid", "2", "--estimator", "mle",
                 "--out", str(out)]) == 0
    return out


class Captured(Exception):
    """Raised by a stand-in with the config that a command built."""


def capture_config(monkeypatch, name):
    """Replace ``cli.<name>`` by a stand-in that raises ``Captured``."""
    def capture(config, *args, **kwargs):
        raise Captured(config)

    monkeypatch.setattr(cli, name, capture)


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

    def test_verbose_logs_that_call_alone(self, tmp_path, capsys):
        # three calls in one process: only the one given -v logs INFO, to
        # the stderr of that call, and each leaves the logging as it was
        package, root = logging.getLogger("ecgdenoise"), logging.getLogger()
        before = (package.level, package.handlers[:], root.handlers[:])
        errors = []
        for name, verbose in (("a", []), ("b", ["-v"]), ("c", [])):
            assert main([*verbose, "simulate", *SIM_FLAGS, "--out",
                         str(tmp_path / name)]) == 0
            errors.append(capsys.readouterr().err)
            assert (package.level, package.handlers, root.handlers) == before
        assert errors == [
            "", f"INFO ecgdenoise: wrote dataset to {tmp_path / 'b'}\n", ""]

    def test_verbose_logs_once_under_a_root_handler(self, tmp_path, capsys):
        # an embedding program's root handler does not write the records
        # of a call again, and gets them back once the call returns
        root, package = logging.getLogger(), logging.getLogger("ecgdenoise")
        handler = logging.StreamHandler(sys.stderr)
        root.addHandler(handler)
        try:
            assert main(["-v", "simulate", *SIM_FLAGS, "--out",
                         str(tmp_path / "a")]) == 0
            assert capsys.readouterr().err == (
                f"INFO ecgdenoise: wrote dataset to {tmp_path / 'a'}\n")
            assert package.propagate
            package.warning("after")
        finally:
            root.removeHandler(handler)
        assert capsys.readouterr().err == "after\n"

    def test_dataset_is_its_recorded_grid_cell(self, dataset60, tmp_path,
                                               capsys):
        # the grid that the manifest's config describes has one cell,
        # drawn from the same seeds as the dataset and fitted with the same
        # settings and fit seed, so denoise reports the grid's entries
        record = load_json(dataset60 / "manifest.json")["config"]
        config = BenchmarkConfig.from_dict(record)
        assert config.to_dict() == record
        estimators = ["mle:truth", "oracle_bayes:truth", "fa:truth",
                      "fa:estimated", "mog_fa:truth"]
        assert record["estimators"] == estimators  # the five defaults
        [cell] = run_benchmark(config).cells
        out = tmp_path / "x.csv"
        for estimator in estimators:
            code, payload = run_json(capsys, [
                "denoise", "--dataset", str(dataset60),
                "--estimator", estimator, "--out", str(out),
            ])
            assert code == 0
            entry = dict(cell["estimators"][payload["estimator"]])
            assert entry.pop("status") == "ok"
            assert payload == {"estimates": str(out),
                               "estimator": payload["estimator"], **entry}

    def test_unset_flags_take_config_defaults(self, monkeypatch):
        # simulate states only its own -n, -B and --tau defaults
        capture_config(monkeypatch, "simulate_population")
        with pytest.raises(Captured) as info:
            main(["simulate", "--seed", "5"])
        assert info.value.args[0] == BenchmarkConfig(
            seed=5, n_samples=100, n_beats_grid=(20,),
            tau_regimes=(TauRegime.uniform(2, 20),))

    def test_omitted_r_offset_is_a_third_of_d(self, tmp_path, capsys):
        flags = ["simulate", "-n", "4", "-B", "3", "--d", "80", "--fs", "200",
                 "--seed", "1"]
        code, _ = run_json(capsys, [*flags, "--out", str(tmp_path / "a")])
        assert code == 0
        manifest = load_json(tmp_path / "a" / "manifest.json")
        assert manifest["config"]["r_offset"] == 26
        code, _ = run_json(capsys, [*flags, "--r-offset", "26",
                                    "--out", str(tmp_path / "b")])
        assert code == 0
        assert all((tmp_path / "a" / name).read_bytes()
                   == (tmp_path / "b" / name).read_bytes()
                   for name in ("beats.npy", "thetas.npy", "manifest.json"))

    def test_existing_out_is_overwritten(self, dataset, tmp_path, capsys):
        # each file replaces its namesake; a file of another name stays
        out = tmp_path / "ds"
        out.mkdir()
        for name in ("beats.npy", "manifest.json", "thetas.npy", "notes.txt"):
            (out / name).write_text("old")
        code, _ = run_json(capsys, ["simulate", *SIM_FLAGS, "--out", str(out)])
        assert code == 0
        assert (out / "notes.txt").read_text() == "old"
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "notes.txt"} == \
            {p.name: p.read_bytes() for p in dataset.iterdir()}
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]

    def test_malformed_tau_is_json_error(self, tmp_path, capsys):
        flags = list(SIM_FLAGS)
        flags[flags.index("--tau") + 1] = "uniform:2"
        code, payload = run_json(capsys, ["simulate", *flags,
                                          "--out", str(tmp_path / "ds")])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": "tau regime 'uniform:2' is neither a number nor of "
                       "the form 'uniform:LO,HI'"}
        assert not (tmp_path / "ds").exists()

    def test_off_grid_rate_is_json_error(self, tmp_path, capsys):
        flags = list(SIM_FLAGS)
        flags[flags.index("--fs") + 1] = "333.3"
        code, payload = run_json(capsys, ["simulate", *flags,
                                          "--out", str(tmp_path / "ds")])
        assert code == 1
        assert payload["error"]["type"] == "OffGridRateError"
        assert "nearest valid fs is 333.25" in payload["error"]["message"]
        assert not (tmp_path / "ds").exists()


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail on any population simulation, so a refusal must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a population")

    monkeypatch.setattr(cli, "simulate_population", refuse)
    monkeypatch.setattr(bench, "simulate_population", refuse)


@pytest.mark.usefixtures("no_simulation")
class TestInfiniteTau:
    """``tau`` = inf (noiseless beats) is refused before any simulation."""

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


class TestSubnormalTau:
    """At tau = 1e-310 the noisy beats overflow float64: a typed error and
    no RuntimeWarning."""

    @staticmethod
    def run(tmp_path, *argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(
            Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "ecgdenoise.cli", *argv, "-n", "4",
             "--d", "40", "--fs", "200", "--r-offset", "10", "--seed", "1"],
            capture_output=True, cwd=tmp_path, env=env, timeout=120)
        return done.returncode, json.loads(done.stdout), done.stderr

    ERROR = "the noisy beats overflow float64 at tau 1e-310"

    def test_simulate(self, tmp_path):
        code, payload, stderr = self.run(tmp_path, "simulate", "-B", "2",
                                         "--tau", "1e-310", "--out", "ds")
        assert (code, stderr) == (1, b"")
        assert payload["error"] == {"type": "FloatRangeError",
                                    "message": self.ERROR}
        assert list(tmp_path.iterdir()) == []

    def test_benchmark_fails_that_cell_only(self, tmp_path):
        code, _, stderr = self.run(tmp_path, "benchmark", "--taus",
                                   "1e-310;2", "--beats-grid", "2",
                                   "--out", "r.json")
        assert code == 0
        assert b"RuntimeWarning" not in stderr  # the log names each entry
        tiny, two = json.loads((tmp_path / "r.json").read_text())["cells"]
        assert set(tiny["estimators"]) == set(two["estimators"])
        for entry in tiny["estimators"].values():
            assert entry == {"status": "failed",
                             "error": f"FloatRangeError: {self.ERROR}"}
        for entry in two["estimators"].values():
            assert entry["status"] == "ok"


@pytest.mark.usefixtures("no_simulation")
class TestBadNoiseModel:
    """A noise model with no Matern K is refused before any simulation."""

    def test_simulate(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "simulate", *SIM_FLAGS, "--smoothness", "0.7",
            "--out", str(tmp_path / "ds")])
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(
            "smoothness 0.7 unsupported")
        assert not (tmp_path / "ds").exists()

    def test_benchmark(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "3", "--n-samples", "1000",
            "--lengthscale", "0", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert payload["error"] == {"type": "ValueError",
                                    "message": "lengthscale must be positive"}
        assert not (tmp_path / "r.json").exists()

    def test_nan_lengthscale_is_named_not_finite(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "3", "--lengthscale=nan",
            "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": "lengthscale must be finite, not nan"}
        assert not (tmp_path / "r.json").exists()


@pytest.mark.usefixtures("no_simulation")
class TestBadGain:
    """A gain that takes the wave amplitudes out of float64's finite range,
    or that is not positive, is refused by its own name before any
    simulation."""

    @pytest.mark.parametrize("gain, message", [
        ("1e308", "amplitude_gain must scale the wave amplitudes to finite "
                  "values, not 1e+308"),
        ("inf", "amplitude_gain must scale the wave amplitudes to finite "
                "values, not inf"),
        ("nan", "amplitude_gain must scale the wave amplitudes to finite "
                "values, not nan"),
        ("0", "amplitude_gain must be positive, not 0.0"),
        ("-1", "amplitude_gain must be positive, not -1.0"),
    ], ids=["1e308", "inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_refused_naming_the_gain(self, tmp_path, capsys, command, gain,
                                     message):
        flags = SIM_FLAGS if command == "simulate" else ["--seed", "3"]
        out = tmp_path / "out"
        code, payload = run_json(capsys, [
            command, *flags, f"--gain={gain}", "--out", str(out)])
        assert code == 1
        assert payload["error"] == {"type": "ValueError", "message": message}
        assert not out.exists()


class TestEstimateNoise:
    def test_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "noise"
        code, payload = run_json(capsys, [
            "estimate-noise", "--dataset", str(dataset), "--out", str(out)
        ])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["k_hat.npy",
                                                         "tau_hat.csv"]
        assert payload["k_hat"] == str(out / "k_hat.npy")
        k_hat = np.load(out / "k_hat.npy", allow_pickle=False)
        assert (k_hat.shape, k_hat.dtype) == ((80, 80), np.float64)
        np.testing.assert_array_equal(k_hat, k_hat.T)
        assert np.trace(k_hat) == payload["trace"]
        assert payload["trace"] == pytest.approx(80.0, abs=1e-6)
        assert payload["tau_median_relative_error"] < 0.5


    def test_existing_out_is_overwritten(self, dataset, tmp_path, capsys):
        argv = ["estimate-noise", "--dataset", str(dataset), "--out"]
        assert run_json(capsys, [*argv, str(tmp_path / "fresh")])[0] == 0
        out = tmp_path / "noise"
        out.mkdir()
        for name in ("k_hat.npy", "tau_hat.csv", "notes.txt"):
            (out / name).write_text("old")
        assert run_json(capsys, [*argv, str(out)])[0] == 0
        assert (out / "notes.txt").read_text() == "old"
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "notes.txt"} == \
            {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh",
                                                              "noise"]

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new-out", "existing-out"])
    def test_failed_write_leaves_no_output(self, dataset, tmp_path, capsys,
                                           monkeypatch, existing):
        # tau_hat.csv fails to write after k_hat.npy is written
        def failing(*args):
            raise OSError(27, "File too large")

        monkeypatch.setattr(cli, "save_matrix_csv", failing)
        out = tmp_path / "noise"
        if existing:
            out.mkdir()
            (out / "keep.txt").write_text("kept")
        code, payload = run_json(capsys, [
            "estimate-noise", "--dataset", str(dataset), "--out", str(out)
        ])
        assert code == 1
        assert payload["error"] == {"type": "OSError",
                                    "message": "[Errno 27] File too large"}
        if existing:
            assert [p.name for p in tmp_path.iterdir()] == ["noise"]
            assert [p.name for p in out.iterdir()] == ["keep.txt"]
        else:
            assert list(tmp_path.iterdir()) == []


class TestDenoise:
    @pytest.mark.parametrize("estimator", ["mle", "oracle_bayes",
                                           "fa:truth", "fa:estimated"])
    def test_estimators(self, small_fit, tmp_path, capsys, estimator):
        out = tmp_path / f"{estimator.replace(':', '_')}.csv"
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(small_fit), "--estimator", estimator,
            "--out", str(out),
        ])
        assert code == 0
        estimates, row_ids = load_matrix_csv(out)
        assert estimates.shape == (12, 80)
        assert row_ids[0] == "s00000"
        assert payload["mse"] >= 0.0
        if estimator.startswith("fa"):  # p as the record sets it
            assert payload["latent_dim"] == 3

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
            "--out", str(out),
        ])
        assert code == 0
        assert "mse" not in payload
        assert payload.get("latent_dim", 3) == 3
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

    @pytest.mark.parametrize("estimator",
                             ["fa:truth", "mog_fa:truth", "oracle_bayes"])
    def test_configless_dataset_refuses_truth(self, configless, tmp_path,
                                              capsys, estimator):
        out = tmp_path / "x.csv"
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(configless), "--estimator", estimator,
            "--out", str(out),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "EcgDenoiseError",
            "message": f"{configless / 'manifest.json'} records no config "
                       f"and so no noise model; use an :estimated "
                       f"estimator"}
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["mle", "fa:estimated"])
    def test_configless_dataset_runs_without_truth(self, dataset, configless,
                                                   tmp_path, capsys,
                                                   estimator):
        # simulate records benchmark's default fit settings, which are
        # those of a dataset with no record
        for name, source in (("a.csv", dataset), ("b.csv", configless)):
            code, _ = run_json(capsys, [
                "denoise", "--dataset", str(source), "--estimator", estimator,
                "--out", str(tmp_path / name),
            ])
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_configless_dataset_fits_with_benchmark_defaults(
            self, configless, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(configless),
            "--estimator", "mog_fa:estimated", "--out", str(out),
        ])
        assert code == 0
        recordings, _ = load_dataset(configless)
        defaults = BenchmarkConfig(seed=0)
        _, extra = bench.denoise(
            EstimatorSpec("mog_fa", "estimated"), recordings,
            latent_dim=defaults.latent_dim,
            n_components=defaults.mog_components, fit_seed=0)
        assert payload == {"estimates": str(out),
                           "estimator": "mog_fa_estimated", **extra}

    @pytest.mark.parametrize("flag", ["--latent-dim 3", "--components 2",
                                      "--seed 0"])
    def test_fit_flags_are_refused(self, small_fit, tmp_path, capsys, flag):
        # the fit settings come from the dataset's record
        with pytest.raises(SystemExit) as exit_info:
            main(["denoise", "--dataset", str(small_fit), *flag.split(),
                  "--out", str(tmp_path / "x.csv")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kind", ["mle", "oracle_bayes"])
    def test_truth_only_kind_with_estimated_noise_is_json_error(
            self, dataset, tmp_path, capsys, kind):
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(dataset),
            "--estimator", f"{kind}:estimated",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": f"{kind} has no 'estimated' noise mode: it runs only "
                       f"as {kind}:truth"}
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["denoise", "benchmark"])
    def test_empty_noise_mode_is_json_error(self, dataset, tmp_path, capsys,
                                            command):
        # "fa:" names no noise mode; it does not mean fa:truth
        source = ["--dataset", str(dataset)] if command == "denoise" \
            else ["--seed", "1"]
        code, payload = run_json(capsys, [
            command, *source, "--estimator", "fa:",
            "--out", str(tmp_path / "out")])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": "unknown noise mode '' in estimator 'fa:'"}
        assert not (tmp_path / "out").exists()

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
        ("fa:truth", "FA fit"), ("mog_fa:truth", "FA fit")])
    def test_falling_loglik_is_json_error(self, small_fit, tmp_path, capsys,
                                          monkeypatch, estimator, fit):
        # mog_fa's one loadings fit is its stage-1 FA fit
        squarem = estimators._squarem

        def falling(*args):
            loadings, trace, converged = squarem(*args)
            return loadings, np.append(trace, trace[-1] - 1.0), converged

        monkeypatch.setattr(estimators, "_squarem", falling)
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(small_fit), "--estimator", estimator,
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

    def test_unset_flags_take_config_defaults(self, monkeypatch):
        capture_config(monkeypatch, "run_benchmark")
        with pytest.raises(Captured) as info:
            main(["benchmark", "--seed", "5"])
        assert info.value.args[0] == BenchmarkConfig(seed=5)

    @pytest.mark.parametrize("grid, repeats", [
        (["--taus", "2;2.0"], "tau regime(s) ['tau=2']"),
        (["--beats-grid", "2,2"], "beat count(s) [2]"),
    ], ids=["taus", "beats-grid"])
    def test_repeated_cells_is_json_error(self, tmp_path, capsys, grid,
                                          repeats):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "1", *grid, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert repeats in payload["error"]["message"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flag, text, form", [
        ("--beats-grid", "1,x", "comma-separated integers"),
        ("--latent-dim", "x", "a positive integer or 'scree[:CUTOFF]'"),
        ("--latent-dim", "scree:x", "a positive integer or 'scree[:CUTOFF]'"),
        ("--latent-dim", "0", "a positive integer or 'scree[:CUTOFF]'"),
        ("--latent-dim", "screech", "a positive integer or 'scree[:CUTOFF]'"),
        ("--latent-dim", "scree:nan", "a positive integer or 'scree[:CUTOFF]'"),
    ], ids=["beats-grid", "latent-dim", "scree-cutoff", "latent-dim-zero",
            "scree-prefix", "scree-nan"])
    def test_malformed_grid_flag_is_named(self, tmp_path, capsys, flag, text,
                                          form):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "1", flag, text,
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": f"{flag} takes {form}, not {text!r}"}
        assert not (tmp_path / "r.json").exists()

    def test_malformed_taus_is_json_error(self, tmp_path, capsys):
        code, payload = run_json(capsys, [
            "benchmark", "--seed", "1", "--taus", "2;uniform:2",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": "tau regime 'uniform:2' is neither a number nor of "
                       "the form 'uniform:LO,HI'"}
        assert not (tmp_path / "r.json").exists()

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
            "benchmark", "--seed", "1", "--estimator", "mle:truth",
            "--estimator", "mle", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1
        assert "share report name(s) ['mle']" in payload["error"]["message"]

    @pytest.mark.parametrize("flag", ["-B", "--beats", "--tau"])
    def test_simulate_only_flags_are_refused(self, tmp_path, capsys, flag):
        # the grid's beat counts and tau regimes are --beats-grid and --taus
        with pytest.raises(SystemExit) as exit_info:
            main(["benchmark", "--seed", "1", flag, "3",
                  "--out", str(tmp_path / "r.json")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

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
             "TauRegime key 'value' must be a number, not '2'"),
            ({"seed": 1, "n_beats_grid": [None]},
             "'n_beats_grid' item 0 must be an integer, not None"),
            ({"seed": 1, "n_beats_grid": [20, 2.7]},
             "'n_beats_grid' item 1 must be an integer, not 2.7"),
            ({"seed": 1, "latent_dim": {"mode": "scree", "value": "x"}},
             "LatentDimRule key 'value' must be a number, not 'x'"),
            ({"seed": 1, "tau_regimes": [{"value": 2}]},
             "missing TauRegime key(s): ['kind']"),
            ({"seed": 1, "estimators": [{}]},
             "missing EstimatorSpec key(s): ['kind']"),
            ({"seed": 1, "latent_dim": {"value": 3}},
             "missing LatentDimRule key(s): ['mode']"),
            ({"seed": 1, "latent_dim": {"mode": "fixed"}},
             "missing LatentDimRule key(s): ['value']"),
            ({"seed": 1, "latent_dim": {"mode": "scree", "value": np.nan}},
             "scree slope cutoff must be finite, not nan"),
            ({"seed": 1, "lengthscale": np.inf},
             "lengthscale must be finite, not inf"),
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
    def test_beats_overlay(self, dataset, tmp_path, capsys):
        # without --sample and --estimates: the first sample's beats
        out = tmp_path / "overlay.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset", str(dataset),
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,x,y"
        rows = [line.split(",") for line in lines[1:]]
        assert {series for series, _, _ in rows} == {
            f"beat_{b:02d}" for b in range(6)}
        samples, _ = load_dataset(dataset)
        np.testing.assert_array_equal(
            np.array([float(y) for _, _, y in rows]).reshape(6, 80),
            samples[0].beats)

    def test_beats_overlay_with_reconstruction(self, small_fit, tmp_path,
                                               capsys):
        csv = tmp_path / "denoised.csv"
        code, _ = run_json(capsys, ["denoise", "--dataset", str(small_fit),
                                    "--estimator", "fa:truth",
                                    "--out", str(csv)])
        assert code == 0
        out = tmp_path / "overlay.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset", str(small_fit),
            "--sample", "s00002", "--estimates", str(csv), "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "reconstruction" in text and "beat_00" in text

    @pytest.mark.parametrize("estimator", ["mle", "oracle_bayes", "fa:truth",
                                           "mog_fa:truth"])
    def test_reconstruction_is_the_denoise_row(self, small_fit, tmp_path,
                                               capsys, estimator):
        csv = tmp_path / "denoised.csv"
        code, _ = run_json(capsys, [
            "denoise", "--dataset", str(small_fit), "--estimator", estimator,
            "--out", str(csv),
        ])
        assert code == 0
        overlay = tmp_path / "overlay.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset",
            str(small_fit), "--sample", "s00002", "--estimates", str(csv),
            "--out", str(overlay),
        ])
        assert code == 0
        estimates, row_ids = load_matrix_csv(csv)
        np.testing.assert_array_equal(overlay_reconstruction(overlay),
                                      estimates[row_ids.index("s00002")])

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "mse-table"], "mse-table needs --report"),
        (["--kind", "beats-overlay", "--sample", "s99999"],
         "sample 's99999' not in dataset"),
        (["--kind", "beats-overlay", "--sample", ""],
         "sample '' not in dataset"),
    ], ids=["mse-table-no-report", "overlay-unknown-sample",
            "overlay-empty-sample"])
    def test_refusal_writes_nothing(self, dataset, tmp_path, capsys, argv,
                                    message):
        out = tmp_path / "plot.csv"
        code, payload = run_json(capsys, [
            "plot-data", *argv, "--dataset", str(dataset), "--out", str(out)])
        assert code == 1
        assert payload["error"]["message"] == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["beat-count-hist", "--dataset", "@ds", "--report", "nothere.json"],
         "report"),
        (["beat-count-hist", "--dataset", "@ds", "--bins", "20"], "bins"),
        (["mse-table", "--report", "@report", "--dataset", "@ds"], "dataset"),
        (["mse-table", "--report", "@report", "--sample", "zzz"], "sample"),
        (["beats-overlay", "--dataset", "@ds", "--report", "@report"],
         "report"),
        (["beats-overlay", "--dataset", "@ds", "--bins", "5"], "bins"),
        (["tau-hist", "--dataset", "@ds", "--sample", "s00000"], "sample"),
        (["tau-hist", "--dataset", "@ds", "--estimates", "e.csv"],
         "estimates"),
    ], ids=["count-report", "count-bins", "table-dataset", "table-sample",
            "overlay-report", "overlay-bins", "tau-sample", "tau-estimates"])
    def test_input_the_kind_does_not_read_is_refused(
            self, dataset, report, tmp_path, capsys, argv, flag):
        files = {"@ds": str(dataset), "@report": str(report)}
        kind, *rest = argv
        code, payload = run_json(capsys, [
            "plot-data", "--kind", kind, *[files.get(a, a) for a in rest],
            "--out", str(tmp_path / "plot.csv")])
        assert code == 1
        assert payload["error"] == {
            "type": "EcgDenoiseError",
            "message": f"--kind {kind} does not read --{flag}"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--estimator fa:truth",
                                      "--latent-dim 3"])
    def test_fit_flags_are_refused(self, dataset, tmp_path, capsys, flag):
        # plot-data runs no estimator; --estimates takes denoise's CSV
        with pytest.raises(SystemExit) as exit_info:
            main(["plot-data", "--kind", "beats-overlay", "--dataset",
                  str(dataset), *flag.split(),
                  "--out", str(tmp_path / "overlay.csv")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "overlay.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda m, ids: (m[::-1], ids[::-1]),
        lambda m, ids: (m[1:], ids[1:]),
        lambda m, ids: (m[:, :-1], ids),
    ], ids=["other-order", "missing-row", "other-width"])
    def test_estimates_of_other_data_is_json_error(self, dataset, tmp_path,
                                                   capsys, edit):
        samples, _ = load_dataset(dataset)
        csv = tmp_path / "estimates.csv"
        save_matrix_csv(csv, *edit(np.stack([s.beat_mean for s in samples]),
                                   [s.sample_id for s in samples]))
        code, payload = run_json(capsys, [
            "plot-data", "--kind", "beats-overlay", "--dataset", str(dataset),
            "--estimates", str(csv), "--out", str(tmp_path / "overlay.csv"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "EcgDenoiseError",
            "message": f"{csv} is not what denoise writes for this dataset: "
                       f"one row per sample id, in order, of width 80"}
        assert not (tmp_path / "overlay.csv").exists()

    def test_tau_hist(self, dataset, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "tau-hist", "--dataset", str(dataset),
            "--out", str(out),
        ])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        counts = [float(r.split(",")[2]) for r in rows
                  if r.startswith("tau_count")]
        assert (len(counts), sum(counts)) == (20, 12)  # 20 bins by default

    def test_tau_hist_conserves_counts(self, dataset, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "tau-hist", "--dataset", str(dataset),
            "--bins", "7", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        counts = [float(y) for series, _, y in rows if series == "tau_count"]
        edges = [float(y) for series, _, y in rows if series == "tau_bin_edge"]
        assert (len(counts), sum(counts), len(edges)) == (7, 12, 8)

    def test_beat_count_hist(self, tmp_path, capsys, rng):
        recordings = Recordings(["0", "1", "2"], rng.standard_normal((11, 8)),
                                [3, 3, 5])
        save_dataset(tmp_path / "ds", recordings, manifest_extra={})
        out = tmp_path / "counts.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "beat-count-hist", "--dataset",
            str(tmp_path / "ds"), "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(float(x), float(y)) for _, x, y in rows] == [(3.0, 2.0),
                                                              (5.0, 1.0)]

    def test_empty_inputs_error(self, unlabelled, tmp_path, capsys):
        # no true taus give no histogram, and no ok entry no table
        no_cells = tmp_path / "no-cells.json"
        no_cells.write_text(json.dumps({"cells": []}))
        for source, message in [
                (["--kind", "tau-hist", "--dataset", str(unlabelled)],
                 "no tau values available"),
                (["--kind", "mse-table", "--report", str(no_cells)],
                 "nothing to write for kind 'mse-table'")]:
            code, payload = run_json(capsys, [
                "plot-data", *source, "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert payload["error"] == {"type": "EmptyInputError",
                                        "message": message}
            assert not (tmp_path / "x.csv").exists()

    def test_unknown_kind(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plot-data", "--kind", "spectrogram", "--dataset",
                  str(dataset), "--out", str(tmp_path / "x.csv")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'spectrogram'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_mse_table(self, report, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(report),
            "--out", str(out),
        ])
        assert code == 0
        assert "mle|B=2" in out.read_text()
        # the table reads only the report's cells
        cells_only = tmp_path / "cells.json"
        cells_only.write_text(json.dumps({"cells": load_json(report)["cells"]}))
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(cells_only),
            "--out", str(tmp_path / "again.csv"),
        ])
        assert code == 0
        assert (tmp_path / "again.csv").read_text() == out.read_text()

    def test_mse_table_from_report(self, tmp_path, capsys):
        # a report that the library's run_benchmark wrote
        report = tmp_path / "report.json"
        run_benchmark(BenchmarkConfig(
            seed=5, n_samples=10, d=100, fs=500.0, r_offset=33,
            n_beats_grid=(2,), tau_regimes=(TauRegime.fixed(4),),
            estimators=(EstimatorSpec("mle"),)), out_path=report)
        out = tmp_path / "table.csv"
        code, _ = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(report),
            "--out", str(out),
        ])
        assert code == 0
        assert "mle|B=2" in out.read_text()

    @pytest.mark.parametrize("key", ["cells", "tau_regime", "status"])
    def test_report_without_a_key_is_json_error(self, report, tmp_path,
                                                capsys, key):
        document = load_json(report)
        [cell] = document["cells"]
        for holder in (document, cell, cell["estimators"]["mle"]):
            holder.pop(key, None)
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(document))
        code, payload = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(damaged),
            "--out", str(tmp_path / "table.csv"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "EcgDenoiseError",
            "message": f"{damaged}: the key {key!r} is missing"}
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize("damage", [
        lambda document: document.update(cells=5),
        lambda document: document.update(cells=[5]),
        lambda document: document["cells"][0].update(tau_regime=5),
        lambda document: document["cells"][0]["estimators"].update(mle=3),
        lambda document: document["cells"][0]["estimators"]["mle"].update(
            mse="1.5"),
        lambda document: document["cells"][0]["estimators"]["mle"].update(
            mse=True),
    ], ids=["cells", "cell", "tau-regime", "entry", "mse-text", "mse-bool"])
    def test_malformed_report_is_json_error(self, report, tmp_path, capsys,
                                            damage):
        document = load_json(report)
        damage(document)
        damaged = tmp_path / "damaged.json"
        damaged.write_text(json.dumps(document))
        code, payload = run_json(capsys, [
            "plot-data", "--kind", "mse-table", "--report", str(damaged),
            "--out", str(tmp_path / "table.csv"),
        ])
        assert code == 1
        assert payload["error"]["type"] == "EcgDenoiseError"
        assert payload["error"]["message"].startswith(
            f"{damaged}: not a benchmark report: ")
        assert not (tmp_path / "table.csv").exists()

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

    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "4", "-B", "3", "--d", "80", "--fs", "200",
         "--r-offset", "26", "--seed", "1", "--out", "ds"],
        ["estimate-noise", "--dataset", "nope", "--out", "noise"],
    ], ids=["summary", "error-document"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_quietly(self, tmp_path, argv, unbuffered):
        # the reader is gone before the command writes: a buffered stdout
        # fails on the exit flush, an unbuffered one inside the write
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=str(
            Path(cli.__file__).resolve().parents[1]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ecgdenoise.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, cwd=tmp_path,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "2", "-B", "2", "--fs", "1e308", "--seed", "1"],
        ["benchmark", "-n", "2", "--fs", "5e307", "--seed", "1"],
    ], ids=["simulate", "benchmark"])
    def test_uncountable_rate_is_json_error(self, argv, tmp_path, capsys):
        # 4 fs RK4 steps per 1 s cycle overflow to inf
        code, payload = run_json(capsys, [*argv,
                                          "--out", str(tmp_path / "out")])
        assert code == 1
        assert payload["error"]["type"] == "OffGridRateError"
        assert f"fs={float(argv[argv.index('--fs') + 1])}" in \
            payload["error"]["message"]
        assert not (tmp_path / "out").exists()

    def test_rate_with_too_many_steps_is_json_error(self, monkeypatch,
                                                    tmp_path, capsys):
        # 4e8 RK4 steps per 1 s cycle: refused up front, naming fs; were it
        # not, the stub stops the integration before it takes the memory
        def no_steps(*args):
            raise AssertionError("integration started")

        monkeypatch.setattr(simulate, "_phase_path", no_steps)
        code, payload = run_json(capsys, [
            "simulate", "-n", "1", "-B", "2", "--fs", "1e8", "--seed", "1",
            "--out", str(tmp_path / "fast")])
        assert code == 1
        assert payload["error"]["type"] == "OffGridRateError"
        assert payload["error"]["message"].startswith("fs=1e+08 ")
        assert not (tmp_path / "fast").exists()

    def test_out_of_memory_is_json_error(self, monkeypatch, tmp_path,
                                         capsys):
        # numpy's failed allocation is a private MemoryError subclass; the
        # document names the builtin
        class _ArrayMemoryError(MemoryError):
            pass

        def no_memory(*args):
            raise _ArrayMemoryError("Unable to allocate 677. MiB")

        monkeypatch.setattr(cli, "draw_cell", no_memory)
        code = main(["simulate", "-n", "2", "-B", "2", "--d", "80", "--fs",
                     "200", "--r-offset", "26", "--seed", "1",
                     "--out", str(tmp_path / "oom")])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {
            "type": "MemoryError", "message": "Unable to allocate 677. MiB"}}
        assert not (tmp_path / "oom").exists()

    def test_capped_address_space_is_json_error(self, tmp_path):
        # the child alone runs under a 500 MB address-space limit, which
        # its (2, 100000, 493) cell of 789 MB cannot fit in
        def cap():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (500_000 * 1024, hard))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(
            Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "ecgdenoise.cli", "simulate", "-n", "2",
             "-B", "100000", "--seed", "1", "--out", "oom"],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
            preexec_fn=cap)
        assert (done.returncode, done.stderr) == (1, b"")
        assert json.loads(done.stdout)["error"]["type"] == "MemoryError"
        assert not (tmp_path / "oom").exists()

    def test_capped_file_size_leaves_no_dataset(self, tmp_path):
        # the child alone may write files of 100 KiB at most, and its
        # beats.npy is 768 KB: no dataset directory and no staging one
        def cap():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (100 * 1024, hard))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(
            Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "ecgdenoise.cli", "simulate", "-n", "4",
             "-B", "300", "--d", "80", "--fs", "200", "--r-offset", "26",
             "--seed", "1", "--out", "big-ds"],
            capture_output=True, cwd=tmp_path, env=env, timeout=120,
            preexec_fn=cap)
        assert (done.returncode, done.stderr) == (1, b"")
        assert json.loads(done.stdout)["error"] == {
            "type": "OSError", "message": "[Errno 27] File too large"}
        assert list(tmp_path.iterdir()) == []


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
        assert error["message"] == (
            f"{thetas}: thetas must hold one row per recording, 12")

    def test_short_beats_row_is_json_error(self, copy, capsys):
        beats = copy / "beats.npy"
        np.save(beats, np.load(beats)[:-1])  # beat_counts sum to 72
        error = self.estimate_noise_error(capsys, copy)
        assert error["message"] == (
            f"{beats}: beats of shape (71, 80), but the counts sum to 72 rows")

    def test_narrow_beats_file_is_named(self, copy, capsys):
        beats = copy / "beats.npy"
        np.save(beats, np.load(beats)[:, :-1])
        error = self.estimate_noise_error(capsys, copy)
        assert error["message"] == (
            f"{beats}: sample 's00000': ground-truth beat length 80 does not "
            f"match the beats' 79")

    @pytest.mark.parametrize("command", [
        ["estimate-noise", "--out", "noise"],
        ["denoise", "--estimator", "mle", "--out", "estimates.csv"],
    ], ids=["estimate-noise", "denoise"])
    def test_nonfinite_beat_is_json_error(self, copy, capsys, command):
        beats = copy / "beats.npy"
        values = np.load(beats)
        values[7, 40] = np.nan  # a beat of the second recording
        np.save(beats, values)
        before = sorted(p.name for p in copy.parent.rglob("*"))
        *argv, out = command
        code, payload = run_json(capsys, [*argv, str(copy / out),
                                          "--dataset", str(copy)])
        assert code == 1
        assert payload["error"] == {
            "type": "ValueError",
            "message": f"{beats}: sample 's00001': beats must be finite"}
        assert sorted(p.name for p in copy.parent.rglob("*")) == before

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

    def test_older_noise_model_record_is_json_error(self, copy, capsys):
        # an earlier simulate recorded the noise model as loose keys
        manifest = load_json(copy / "manifest.json")
        config = manifest.pop("config")
        manifest.update(n_beats=6, d=config["d"], seed=config["seed"],
                        matern={"lengthscale": config["lengthscale"],
                                "smoothness": config["smoothness"]})
        (copy / "manifest.json").write_text(json.dumps(manifest))
        code, payload = run_json(capsys, [
            "denoise", "--dataset", str(copy), "--estimator", "fa:truth",
            "--out", str(copy / "estimates.csv"),
        ])
        assert code == 1
        assert payload["error"] == {
            "type": "EcgDenoiseError",
            "message": f"{copy / 'manifest.json'} has a noise-model record "
                       f"that is no longer read; re-run `ecgdenoise "
                       f"simulate`"}
        assert not (copy / "estimates.csv").exists()

    @pytest.mark.parametrize("edit, problem", [
        ({"d": 81}, "the recorded config has d=81, the beats have width 80"),
        ({"lengthscale": None}, "the recorded config lacks ['lengthscale']"),
        ({"n_beats_grid": [6, 20]},
         "the recorded config has 2 grid cells; a dataset is one"),
        ({"mog_components": 0},
         "the recorded config: mog_components must be >= 1"),
        ({"n_samples": 13}, "the recorded config has 13 recordings of 6 "
                            "beats, the data has 12 of 6"),
        ({"n_beats_grid": [20]}, "the recorded config has 12 recordings of "
                                 "20 beats, the data has 12 of 6"),
    ], ids=["other-width", "incomplete", "two-cells", "bad-value",
            "other-count", "other-beats"])
    def test_config_that_cannot_give_k_is_json_error(self, copy, capsys,
                                                      edit, problem):
        # the record gives K and the fit settings, so it is checked on
        # every run, mle's too
        manifest = load_json(copy / "manifest.json")
        for key, value in edit.items():
            if value is None:
                del manifest["config"][key]
            else:
                manifest["config"][key] = value
        (copy / "manifest.json").write_text(json.dumps(manifest))
        for estimator in ("fa:truth", "mle"):
            code, payload = run_json(capsys, [
                "denoise", "--dataset", str(copy), "--estimator", estimator,
                "--out", str(copy / "estimates.csv"),
            ])
            assert code == 1
            assert payload["error"] == {
                "type": "EcgDenoiseError",
                "message": f"{copy / 'manifest.json'}: {problem}"}
            assert not (copy / "estimates.csv").exists()
