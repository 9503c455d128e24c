"""File formats: CSV matrices, dataset directories, JSON documents."""
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgdenoise import serialize
from ecgdenoise.errors import EmptyInputError, InvalidSampleIdError
from ecgdenoise.noise import EcgSample
from ecgdenoise.simulate import ThetaBeat
from ecgdenoise.serialize import (
    load_dataset,
    load_json,
    load_matrix_csv,
    save_dataset,
    save_json,
    save_matrix_csv,
    save_npy,
    save_series_csv,
)


def assert_same(a, b):
    """Equal shape, dtype and bytes: exact, -0.0 and all."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype)
    assert a.tobytes() == b.tobytes()


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
        save_matrix_csv(tmp_path / "m.csv", np.zeros((2, 2)), ["a", "b"])
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


class _Unprintable:
    """A row id that fails when the writer formats it."""

    def __str__(self):
        raise RuntimeError("no text for this id")


class TestStreamedWrites:
    """Writers stream to a temp file that replaces the target only once
    the whole file is written."""

    def test_matrix_error_partway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.ones((2, 3)), ["a", "b"])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="no text"):
            save_matrix_csv(path, np.zeros((3, 3)),
                            ["x", "y", _Unprintable()])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]

    def test_series_error_partway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "s.csv"
        save_series_csv(path, [("a", 0.0, 1.0)])
        before = path.read_bytes()
        with pytest.raises(ValueError):  # "%.17g" of a string
            save_series_csv(path, [("b", 0.0, 1.0), ("b", 1.0, "two")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_series_bytes(self, tmp_path):
        save_series_csv(tmp_path / "s.csv", [("a", 0.1, -0.0), ("b", 2, 3)])
        assert (tmp_path / "s.csv").read_text() == \
            "series,x,y\na,0.10000000000000001,-0\nb,2,3\n"

    @pytest.mark.parametrize("rows", [7, 3], ids=["over-long", "short"])
    def test_npy_blocks_must_fill_the_shape(self, tmp_path, rows):
        path = tmp_path / "a.npy"
        with pytest.raises(ValueError, match=f"hold {rows * 4} values, "
                                             r"shape \(5, 4\) needs 20"):
            save_npy(path, [np.zeros((rows, 4))], (5, 4))
        assert list(tmp_path.iterdir()) == []
        save_npy(path, [np.ones((5, 4))], (5, 4))
        with pytest.raises(ValueError):
            save_npy(path, [np.zeros((1, 4)), np.zeros((rows - 1, 4))], (5, 4))
        np.testing.assert_array_equal(np.load(path), np.ones((5, 4)))
        assert [p.name for p in tmp_path.iterdir()] == ["a.npy"]


def per_value_csv(matrix, row_ids) -> str:
    """The CSV text written one ``%.17g`` per value."""
    n, d = matrix.shape
    lines = ["row_id," + ",".join(f"c{j}" for j in range(d))]
    for rid, row in zip(row_ids, matrix):
        lines.append(str(rid) + "," + ",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e308, -1e308, np.finfo(float).max, 0.1, -1.0 / 3.0]


@st.composite
def csv_matrices(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 7))
    value = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False,
                                                     allow_infinity=False)
    return draw(hnp.arrays(np.float64, (n, d), elements=value))


class TestCsvText:
    @settings(max_examples=80, deadline=None)
    @given(csv_matrices())
    def test_bytes_equal_per_value_format(self, matrix):
        row_ids = [f"r{i}" for i in range(matrix.shape[0])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            save_matrix_csv(path, matrix, row_ids)
            text = path.read_bytes()
        assert text == per_value_csv(matrix, row_ids).encode()

    @pytest.mark.parametrize("values", [
        np.array(EDGE_VALUES)[None], np.array(EDGE_VALUES)[:, None],
        np.array([[-0.0]])], ids=["one-row", "one-column", "one-value"])
    def test_edge_values_in_one_row_and_one_column(self, tmp_path, values):
        row_ids = [str(i) for i in range(values.shape[0])]
        save_matrix_csv(tmp_path / "m.csv", values, row_ids)
        assert (tmp_path / "m.csv").read_text() == \
            per_value_csv(values, row_ids)
        assert_same(load_matrix_csv(tmp_path / "m.csv")[0], values)


class TestDataset:
    def test_round_trip(self, tmp_path, rng):
        d = 40
        thetas = rng.standard_normal((3, d))
        taus = np.array([2.0, 5.0, 9.0])
        samples = [
            EcgSample(sample_id=f"s{i}", beats=thetas[i] + 0.01 *
                      rng.standard_normal((4, d)),
                      theta=ThetaBeat(thetas[i]), tau=taus[i])
            for i in range(3)
        ]
        save_dataset(tmp_path / "ds", samples,
                     manifest_extra={"d": d, "seed": 1})
        loaded, manifest = load_dataset(tmp_path / "ds")
        assert manifest["n_samples"] == 3
        assert manifest["beat_counts"] == [4, 4, 4]
        assert manifest["has_ground_truth"] and manifest["has_true_taus"]
        assert "r_offset" not in manifest
        for i, (sample, original) in enumerate(zip(loaded, samples)):
            np.testing.assert_array_equal(sample.beats, original.beats)
            np.testing.assert_array_equal(sample.theta.values, thetas[i])
            assert float(sample.tau) == taus[i]
        # every sample's beats are a view of the one loaded array
        stacked = loaded[0].beats.base
        assert stacked.size == 12 * d
        assert all(s.beats.base is stacked for s in loaded)

    def test_beats_file_is_the_stacked_array(self, tmp_path, rng):
        samples = [EcgSample(sample_id=f"s{i}",
                             beats=rng.standard_normal((b, 5)))
                   for i, b in enumerate((3, 1, 2))]
        save_dataset(tmp_path / "ds", samples, manifest_extra={})
        expected = tmp_path / "expected.npy"
        np.save(expected, np.concatenate([s.beats for s in samples]))
        assert (tmp_path / "ds" / "beats.npy").read_bytes() == \
            expected.read_bytes()
        assert sorted(p.name for p in (tmp_path / "ds").iterdir()) == \
            ["beats.npy", "manifest.json"]

    @staticmethod
    def _write(directory, rng):
        thetas = rng.standard_normal((3, 8))
        samples = [EcgSample(sample_id=f"s{i}", beats=np.zeros((2, 8)),
                             theta=ThetaBeat(thetas[i]), tau=i + 2.0)
                   for i in range(3)]
        save_dataset(directory, samples, manifest_extra={"d": 8})

    @pytest.mark.parametrize("name", ["thetas.npy", "taus.npy"])
    def test_truth_rows_match_manifest(self, tmp_path, rng, name):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / name
        np.save(path, np.load(path)[:-1])  # drop s2
        with pytest.raises(ValueError,
                           match=f"{name}: 2 rows, but the manifest has 3 "):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
    def test_invalid_true_tau_is_named(self, tmp_path, rng, bad):
        self._write(tmp_path / "ds", rng)
        taus = tmp_path / "ds" / "taus.npy"
        np.save(taus, np.array([2.0, bad, 4.0]))
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value).startswith(
            f"{taus}: sample 's1': tau must be finite and strictly positive")

    @pytest.mark.parametrize("bad, message", [
        (np.inf, "beat values must be finite"),
    ], ids=["inf"])
    def test_invalid_theta_is_named(self, tmp_path, rng, bad, message):
        self._write(tmp_path / "ds", rng)
        thetas = tmp_path / "ds" / "thetas.npy"
        values = np.zeros((3, 8))
        values[2, 0] = bad
        np.save(thetas, values)
        with pytest.raises(ValueError) as info:
            load_dataset(tmp_path / "ds")
        assert str(info.value) == f"{thetas}: sample 's2': {message}"

    def test_manifest_r_offset_is_not_read(self, tmp_path, rng):
        # a manifest of an earlier version has an r_offset key: it still
        # loads, and the key decides nothing about the thetas
        self._write(tmp_path / "ds", rng)
        written, _ = load_dataset(tmp_path / "ds")
        manifest = load_json(tmp_path / "ds" / "manifest.json")
        manifest["r_offset"] = 5
        save_json(tmp_path / "ds" / "manifest.json", manifest)
        loaded, loaded_manifest = load_dataset(tmp_path / "ds")
        assert loaded_manifest["r_offset"] == 5
        for before, after in zip(written, loaded):
            assert_same(after.theta.values, before.theta.values)

    def test_narrow_beats_file_is_named(self, tmp_path, rng):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / "beats.npy"
        np.save(path, np.zeros((6, 7)))  # thetas have 8 columns
        message = re.escape(f"{path}: sample 's0': ground-truth beat length "
                            f"8 does not match the beats' 7")
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "ds")

    def test_beats_rows_match_beat_counts(self, tmp_path, rng):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / "beats.npy"
        np.save(path, np.zeros((5, 8)))  # beat_counts sum to 6
        message = re.escape(f"{path}: 5 rows, but the manifest's "
                            f"beat_counts sum to 6")
        with pytest.raises(ValueError, match=message):
            load_dataset(tmp_path / "ds")

    @pytest.mark.parametrize("name", ["beats.npy", "thetas.npy", "taus.npy"])
    @pytest.mark.parametrize("damage", ["truncated", "empty", "int64",
                                        "ndim", "object", "npz"])
    def test_bad_array_file_is_named(self, tmp_path, rng, name, damage):
        self._write(tmp_path / "ds", rng)
        path = tmp_path / "ds" / name
        array = np.load(path)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-3])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "int64":
            np.save(path, array.astype(np.int64))
        elif damage == "ndim":
            # beats and thetas flattened to 1-D; taus made 2-D
            np.save(path, array.ravel() if array.ndim == 2 else array[:, None])
        elif damage == "npz":
            with open(path, "wb") as handle:
                np.savez(handle, array=array)
        else:
            np.save(path, np.array([None] * len(array), dtype=object),
                    allow_pickle=True)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            load_dataset(tmp_path / "ds")

    def test_old_layout_is_refused(self, tmp_path):
        directory = tmp_path / "ds"
        save_matrix_csv(directory / "beats" / "s0.csv", np.zeros((2, 8)),
                        ["0", "1"])
        save_json(directory / "manifest.json", {
            "schema_version": 1, "kind": "ecgdenoise-dataset",
            "n_samples": 1, "sample_ids": ["s0"], "has_ground_truth": False,
            "has_true_taus": False, "r_offset": None, "fs": None,
        })
        message = re.escape(f"{directory / 'beats.npy'} is missing") + \
            ".*re-run `ecgdenoise simulate`"
        with pytest.raises(ValueError, match=message):
            load_dataset(directory)

    @pytest.mark.parametrize("ids, bad", [
        (["x", "x"], "'x'"),
        (["a", ""], "''"),
        (["a,b"], "'a,b'"),
        (["a\nb"], "'a\\\\nb'"),
        (["a\rb"], "'a\\\\rb'"),
        ([" a", "b"], "' a'"),
        (["a", "b "], "'b '"),
        (["\ta"], "'\\\\ta'"),
    ])
    def test_bad_sample_ids_are_refused_on_save(self, tmp_path, ids, bad):
        samples = [EcgSample(sample_id=sid, beats=np.full((2, 3), float(i)))
                   for i, sid in enumerate(ids)]
        with pytest.raises(InvalidSampleIdError, match=f"sample id {bad}"):
            save_dataset(tmp_path / "ds", samples, manifest_extra={})
        assert not (tmp_path / "ds").exists()

    def test_id_with_a_path_writes_no_file_for_it(self, tmp_path):
        sample = EcgSample(sample_id="../escape", beats=np.ones((2, 3)))
        save_dataset(tmp_path / "ds", [sample], manifest_extra={})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]
        loaded, _ = load_dataset(tmp_path / "ds")
        assert loaded[0].sample_id == "../escape"

    @pytest.mark.parametrize("edit, match", [
        ({"sample_ids": ["s0", "s0", "s2"]}, "sample id 's0' appears twice"),
        ({"sample_ids": ["s0", "s,1", "s2"]}, "sample id 's,1'"),
        ({"sample_ids": "s0"}, "sample ids must be a list"),
        ({"n_samples": 2}, "n_samples is 2 but there are 3 sample_ids"),
        ({"beat_counts": [2, 4]}, "beat_counts"),
        ({"beat_counts": [2, 0, 4]}, "beat_counts"),
        ({"beat_counts": [2, 2.0, 2]}, "beat_counts"),
        ({"beat_counts": [2, True, 3]}, "beat_counts"),
        ({"beat_counts": None}, "beat_counts"),
    ])
    def test_manifest_checked_against_sample_ids(self, tmp_path, rng, edit,
                                                 match):
        self._write(tmp_path / "ds", rng)
        manifest = load_json(tmp_path / "ds" / "manifest.json")
        manifest.update(edit)
        save_json(tmp_path / "ds" / "manifest.json", manifest)
        with pytest.raises(ValueError, match=match):
            load_dataset(tmp_path / "ds")

    def test_ragged_widths_and_bad_truth_are_refused_on_save(self, tmp_path):
        samples = [EcgSample(sample_id="a", beats=np.zeros((2, 3))),
                   EcgSample(sample_id="b", beats=np.zeros((2, 4)))]
        with pytest.raises(ValueError, match="'b' has beats of width 4"):
            save_dataset(tmp_path / "ds", samples, manifest_extra={})
        # truth is saved for every sample or for none: the first sample
        # without it is named
        theta = ThetaBeat(np.ones(3))
        mixed = [EcgSample("a", np.zeros((2, 3)), theta=theta, tau=2.0),
                 EcgSample("b", np.zeros((2, 3)), tau=2.0),
                 EcgSample("c", np.zeros((2, 3)), theta=theta)]
        with pytest.raises(ValueError, match=re.escape(
                "sample 'b' has no theta but others have one")):
            save_dataset(tmp_path / "ds", mixed, manifest_extra={})
        with pytest.raises(ValueError, match=re.escape(
                "sample 'c' has no tau but others have one")):
            save_dataset(tmp_path / "ds", mixed[::2], manifest_extra={})
        with pytest.raises(EmptyInputError):
            save_dataset(tmp_path / "ds", [], manifest_extra={})
        assert not (tmp_path / "ds").exists()  # nothing was written

    @staticmethod
    def _fail_second_write(monkeypatch):
        """``save_npy`` raises the ``ulimit -f`` error for thetas.npy."""
        save_npy = serialize.save_npy

        def failing(path, *args):
            if Path(path).name == "thetas.npy":
                raise OSError(27, "File too large")
            return save_npy(path, *args)

        monkeypatch.setattr(serialize, "save_npy", failing)

    @pytest.mark.parametrize("out", ["ds", "new/deeper/ds"])
    def test_failed_write_leaves_nothing(self, tmp_path, rng, monkeypatch,
                                         out):
        # no dataset directory, no staging one, no parent made for them
        self._fail_second_write(monkeypatch)
        with pytest.raises(OSError, match="File too large"):
            self._write(tmp_path / out, rng)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_dataset(self, tmp_path, rng,
                                                  monkeypatch):
        # beats.npy, written before the failure, would change the beats
        self._write(tmp_path / "ds", rng)
        before = {p.name: p.read_bytes() for p in (tmp_path / "ds").iterdir()}
        self._fail_second_write(monkeypatch)
        other = [EcgSample(sample_id="s0", beats=np.ones((2, 8)),
                           theta=ThetaBeat(np.ones(8)), tau=2.0)]
        with pytest.raises(OSError, match="File too large"):
            save_dataset(tmp_path / "ds", other, manifest_extra={"d": 8})
        assert list(tmp_path.iterdir()) == [tmp_path / "ds"]
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "ds").iterdir()} == before

    def test_manifest_is_returned_as_written(self, tmp_path, rng):
        # nothing is filled in: a simulated dataset's rate is the one in
        # the config its manifest records
        self._write(tmp_path / "ds", rng)
        _, manifest = load_dataset(tmp_path / "ds")
        assert manifest == load_json(tmp_path / "ds" / "manifest.json")
        assert "fs" not in manifest

    def test_rejects_non_dataset(self, tmp_path):
        save_json(tmp_path / "ds" / "manifest.json", {"kind": "other"})
        with pytest.raises(ValueError, match="dataset"):
            load_dataset(tmp_path / "ds")


class TestJsonDocuments:
    def test_json_helpers(self, tmp_path):
        save_json(tmp_path / "x.json", {"b": 1, "a": [1, 2]})
        assert load_json(tmp_path / "x.json") == {"b": 1, "a": [1, 2]}
        (tmp_path / "list.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'list.json'}: expected a JSON object")):
            load_json(tmp_path / "list.json")


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
SAMPLE_ID = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
    min_size=1, max_size=6).filter(lambda sid: sid == sid.strip())


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE)


@st.composite
def datasets(draw):
    """Ragged samples, each carrying a theta, a tau, both or neither, the
    same for every sample; returns them with their parts."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 9))
    counts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    ids = draw(st.lists(SAMPLE_ID, min_size=n, max_size=n, unique=True))
    beats = [draw(finite_arrays((b, d))) for b in counts]
    thetas = draw(st.none() | finite_arrays((n, d)))
    taus = draw(st.none() | hnp.arrays(
        np.float64, (n,), elements=st.floats(min_value=1e-3, max_value=1e3)))
    samples = [EcgSample(sid, beats[i],
                         None if thetas is None else ThetaBeat(thetas[i]),
                         None if taus is None else taus[i])
               for i, sid in enumerate(ids)]
    return samples, (ids, beats, thetas, taus)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(datasets())
    def test_dataset_round_trips_exactly(self, case):
        samples, (ids, beats, thetas, taus) = case
        with tempfile.TemporaryDirectory() as tmp:
            save_dataset(Path(tmp) / "ds", samples, manifest_extra={})
            loaded, _ = load_dataset(Path(tmp) / "ds")
        assert [s.sample_id for s in loaded] == ids
        for i, sample in enumerate(loaded):
            assert_same(sample.beats, beats[i])
            if thetas is None:
                assert sample.theta is None
            else:
                assert_same(sample.theta.values, thetas[i])
            if taus is None:
                assert sample.tau is None
            else:
                assert_same(float(sample.tau), taus[i])

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_loaded_samples_save_to_the_same_files(self, case):
        # the samples as loaded carry everything the dataset holds: saved
        # again, they give its arrays byte for byte and its manifest
        samples, _ = case
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first", Path(tmp) / "second"
            save_dataset(first, samples, manifest_extra={"x": 1})
            loaded, manifest = load_dataset(first)
            save_dataset(second, loaded, manifest_extra={"x": 1})
            written = sorted(p.name for p in first.iterdir())
            assert sorted(p.name for p in second.iterdir()) == written
            for name in set(written) - {"manifest.json"}:
                assert (first / name).read_bytes() == \
                    (second / name).read_bytes()
            assert load_json(second / "manifest.json") == manifest
