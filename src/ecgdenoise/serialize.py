"""File formats: headered CSV matrices and plot series, datasets, JSON.

Per-sample matrices are CSV with a ``row_id`` first column and each
value as ``%.17g``, which round-trips float64 exactly; plot series are
``series,x,y`` CSV rows.
Datasets are a directory with a ``manifest.json`` plus float64 ``.npy``
arrays: ``beats.npy`` holds every recording's beats stacked in manifest
order, split by the manifest's ``beat_counts``; ``thetas.npy`` (N, d) and
``taus.npy`` (N,) hold the ground truth the samples carry, and a simulated
dataset's manifest holds the ``BenchmarkConfig`` that drew it under
``config``. Benchmark reports are JSON documents with a ``schema_version``
field. Writes are atomic (temp + rename).
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, InvalidSampleIdError
from .noise import EcgSample, _as_tau
from .simulate import ThetaBeat

SCHEMA_VERSION = 1

_FLOAT_FMT = "%.17g"  # round-trips float64 exactly


@contextmanager
def _atomic_file(path, mode: str = "w"):
    """A handle on a temp file that replaces ``path`` when the block ends
    without an exception; otherwise the temp file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix_csv(path, matrix, row_ids) -> None:
    """Write a matrix as headered CSV, first column the row id; each value
    is ``%.17g``, one format operation per row, and each line goes to the
    file as it is formatted."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n, d = matrix.shape
    if len(row_ids) != n:
        raise ValueError("row_ids length does not match the matrix")
    row_format = ",".join([_FLOAT_FMT] * d)
    with _atomic_file(path) as handle:
        handle.write("row_id," + ",".join(f"c{j}" for j in range(d)) + "\n")
        for rid, row in zip(row_ids, matrix):
            handle.write(str(rid) + "," + row_format % tuple(row.tolist())
                         + "\n")


def load_matrix_csv(path):
    """Read a headered CSV matrix; returns ``(matrix, row_ids)``. A row
    whose cell count differs from the header's raises ``ValueError``."""
    with open(path) as handle:
        header = handle.readline().strip()
        if not header.startswith("row_id"):
            raise ValueError(f"{path}: expected a 'row_id' CSV header")
        n_cells = header.count(",") + 1
        row_ids = []
        rows = []
        for line_no, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n_cells:
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} cells, "
                    f"the header has {n_cells}"
                )
            row_ids.append(cells[0])
            rows.append([float(v) for v in cells[1:]])
    return np.asarray(rows, dtype=np.float64), row_ids


def save_series_csv(path, rows) -> None:
    """Write long-format ``series,x,y`` CSV, one line per (series, x, y)
    row; x and y are ``%.17g``. Each line goes to the file as it is
    formatted."""
    with _atomic_file(path) as handle:
        handle.write("series,x,y\n")
        for series, x, y in rows:
            handle.write(f"{series},{x:.17g},{y:.17g}\n")


def save_json(path, document: dict) -> None:
    with _atomic_file(path) as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    """A JSON object read from ``path``; any other top level raises
    ``ValueError`` naming the path."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError(f"{path}: expected a JSON object, found "
                         f"{type(document).__name__}")
    return document


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

BEATS_FILE = "beats.npy"
THETAS_FILE = "thetas.npy"
TAUS_FILE = "taus.npy"


def _check_sample_ids(sample_ids, where) -> None:
    """Ids name CSV rows, so each must be non-empty, unique and free of
    commas, line breaks and leading or trailing whitespace (which a CSV
    reader strips)."""
    if not isinstance(sample_ids, list):
        raise ValueError(f"{where}: sample ids must be a list of strings")
    seen = set()
    for sid in sample_ids:
        if (not isinstance(sid, str) or not sid or sid != sid.strip()
                or any(c in sid for c in ",\r\n")):
            raise InvalidSampleIdError(
                f"{where}: sample id {sid!r} must be a non-empty string "
                f"without commas, CR, LF or leading or trailing whitespace")
        if sid in seen:
            raise InvalidSampleIdError(
                f"{where}: sample id {sid!r} appears twice")
        seen.add(sid)


def _check_manifest(manifest: dict, where) -> list:
    """The manifest's beat counts, after checking them and ``n_samples``
    against ``sample_ids``."""
    sample_ids = manifest.get("sample_ids")
    _check_sample_ids(sample_ids, where)
    if manifest.get("n_samples") != len(sample_ids):
        raise ValueError(f"{where}: n_samples is {manifest.get('n_samples')!r}"
                         f" but there are {len(sample_ids)} sample_ids")
    counts = manifest.get("beat_counts")
    if (not isinstance(counts, list) or len(counts) != len(sample_ids)
            or not all(type(c) is int and c >= 1 for c in counts)):
        raise ValueError(f"{where}: beat_counts must hold one positive "
                         f"integer per sample id")
    return counts


def save_npy(path, blocks, shape) -> None:
    """Write ``blocks`` in order as one little-endian float64 ``.npy`` array
    of ``shape``, streaming each block rather than concatenating them.
    Blocks that hold more or fewer values than ``shape`` raise
    ``ValueError``, and ``path`` is left as it was."""
    header = {"descr": "<f8", "fortran_order": False, "shape": tuple(shape)}
    expected = math.prod(header["shape"])
    with _atomic_file(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        written = 0
        for block in blocks:
            values = np.ascontiguousarray(block, dtype="<f8")
            handle.write(values.data)
            written += values.size
        if written != expected:
            raise ValueError(f"{path}: the blocks hold {written} values, "
                             f"shape {header['shape']} needs {expected}")


def _load_npy(path, ndim: int, n_rows: int, rows_from: str) -> np.ndarray:
    """A float64 ``.npy`` array of ``ndim`` dimensions and ``n_rows`` rows,
    the count that ``rows_from`` states; anything else (truncated, pickled,
    another dtype) raises ``ValueError`` naming ``path``."""
    try:
        array = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(array, np.ndarray):  # an .npz archive
        array.close()
        raise ValueError(f"{path}: not a single .npy array")
    if array.dtype != np.float64 or array.ndim != ndim:
        raise ValueError(f"{path}: expected a {ndim}-D float64 array, "
                         f"found {array.ndim}-D {array.dtype}")
    if array.shape[0] != n_rows:
        raise ValueError(f"{path}: {array.shape[0]} rows, but {rows_from}")
    return array


def save_dataset(directory, samples, manifest_extra: dict) -> None:
    """Write ``samples`` under ``directory``, with the ground truth they
    carry: ``thetas.npy`` from their ``theta`` and ``taus.npy`` from their
    ``tau``, each written when every sample has one. A list in which
    only some samples have one is refused, naming the first without.

    The beats of all samples must share one width. The manifest is
    written last, once every array is in place.
    """
    directory = Path(directory)
    if not samples:
        raise EmptyInputError("a dataset needs at least one sample")
    sample_ids = [s.sample_id for s in samples]
    _check_sample_ids(sample_ids, directory)
    n, d = len(samples), samples[0].d
    for sample in samples:
        if sample.d != d:
            raise ValueError(f"{directory}: sample {sample.sample_id!r} has "
                             f"beats of width {sample.d}, the first has {d}")
    carried = {}
    for name in ("theta", "tau"):
        missing = [s.sample_id for s in samples if getattr(s, name) is None]
        if 0 < len(missing) < n:
            raise ValueError(f"{directory}: sample {missing[0]!r} has no "
                             f"{name} but others have one")
        carried[name] = not missing
    beat_counts = [s.n_beats for s in samples]
    save_npy(directory / BEATS_FILE, (s.beats for s in samples),
             (sum(beat_counts), d))
    if carried["theta"]:
        save_npy(directory / THETAS_FILE,
                 (s.theta.values for s in samples), (n, d))
    if carried["tau"]:
        save_npy(directory / TAUS_FILE, [[s.tau for s in samples]], (n,))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ecgdenoise-dataset",
        "n_samples": n,
        "sample_ids": sample_ids,
        "beat_counts": beat_counts,
        "has_ground_truth": carried["theta"],
        "has_true_taus": carried["tau"],
    }
    manifest.update(manifest_extra)
    save_json(directory / "manifest.json", manifest)


def load_dataset(directory):
    """Read a dataset directory; returns ``(samples, manifest)``.

    Each sample's beats are a read-only row slice of ``beats.npy``. Truth
    arrays hold one row per manifest sample id, in order, and each row is
    carried on its sample. A bad value raises ValueError naming its file
    and sample id.
    """
    directory = Path(directory)
    manifest = load_json(directory / "manifest.json")
    if manifest.get("kind") != "ecgdenoise-dataset":
        raise ValueError(f"{directory}: not an ecgdenoise dataset")
    beats_path = directory / BEATS_FILE
    if not beats_path.exists() and (directory / "beats").is_dir():
        raise ValueError(
            f"{beats_path} is missing: {directory} has the older layout of "
            f"one CSV per recording under beats/, which is no longer read; "
            f"re-run `ecgdenoise simulate` to write the dataset again"
        )
    counts = _check_manifest(manifest, directory / "manifest.json")
    sample_ids = manifest["sample_ids"]
    n, n_beats = len(sample_ids), sum(counts)
    beats = _load_npy(beats_path, 2, n_beats,
                      f"the manifest's beat_counts sum to {n_beats}")
    per_sample = f"the manifest has {n} sample_ids"
    thetas_path, taus_path = directory / THETAS_FILE, directory / TAUS_FILE
    thetas = taus = None
    if manifest.get("has_ground_truth"):
        thetas = _load_npy(thetas_path, 2, n, per_sample)
    if manifest.get("has_true_taus"):
        taus = _load_npy(taus_path, 1, n, per_sample)
    ends = np.cumsum(counts)
    samples = []
    for i, sid in enumerate(sample_ids):
        theta = tau = None
        try:  # ``source`` names the file of the value being checked
            if thetas is not None:
                source = thetas_path
                theta = ThetaBeat(values=thetas[i])
            if taus is not None:
                source = taus_path
                tau = _as_tau(taus[i])
            source = beats_path
            samples.append(EcgSample(sid, beats[ends[i] - counts[i]:ends[i]],
                                     theta, tau))
        except ValueError as exc:
            raise ValueError(f"{source}: sample {sid!r}: {exc}") from exc
    return samples, manifest
