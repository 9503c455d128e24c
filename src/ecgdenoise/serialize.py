"""File formats: headered CSV matrices and plot series, datasets, JSON.

Per-sample matrices are CSV with a ``row_id`` first column and each
value as ``%.17g``, which round-trips float64 exactly; plot series are
``series,x,y`` CSV rows.
Datasets are a directory with a ``manifest.json`` plus float64 ``.npy``
arrays: ``beats.npy`` holds every recording's beats stacked in manifest
order, split by the manifest's ``beat_counts``; ``thetas.npy`` (N, d) and
``taus.npy`` (N,) hold the ground truth the recordings carry, and a simulated
dataset's manifest holds the ``BenchmarkConfig`` that drew it under
``config``. Benchmark reports are JSON documents with a ``schema_version``
field. Writes are atomic (temp + rename). A dataset, and any other set
of files that belong together, is written in a
:func:`staged_directory` and moved in place only once every file is.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .errors import InvalidRecordingsError, InvalidSampleIdError
from .noise import Recordings

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


@contextmanager
def staged_directory(directory):
    """A new sibling directory to write the files of ``directory`` in.

    They move to ``directory`` when the block ends without an exception:
    the staging directory is renamed to it, or, if it exists, each file
    replaces its namesake there. On an exception they are removed, with
    every directory made for them, so a failed write leaves nothing.
    """
    directory = Path(directory)
    missing = [parent for parent in directory.parents if not parent.exists()]
    directory.parent.mkdir(parents=True, exist_ok=True)
    # private (0700), as are the files that _atomic_file writes (0600)
    stage = Path(tempfile.mkdtemp(prefix=f".{directory.name}.",
                                  suffix=".tmp", dir=directory.parent))
    try:
        yield stage
        if directory.exists():
            for path in stage.iterdir():
                os.replace(path, directory / path.name)
            stage.rmdir()
        else:
            os.replace(stage, directory)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in missing:  # deepest first, each empty now
            with suppress(OSError):
                parent.rmdir()
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

#: The :class:`Recordings` arrays a dataset holds, each as ``<name>.npy``.
DATASET_ARRAYS = ("beats", "thetas", "taus")


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


def save_npy(path, array) -> None:
    """Write ``array`` as a little-endian float64 ``.npy`` file, the bytes
    of ``np.save``, with the file's own write errors."""
    values = np.ascontiguousarray(array, dtype="<f8")
    header = {"descr": "<f8", "fortran_order": False, "shape": values.shape}
    with _atomic_file(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        handle.write(values.data)


def _load_npy(path, ndim: int) -> np.ndarray:
    """A float64 ``.npy`` array of ``ndim`` dimensions; anything else
    (truncated, pickled, another dtype) raises ``ValueError`` naming
    ``path``."""
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
    return array


def save_dataset(directory, recordings, manifest_extra: dict) -> None:
    """Write ``recordings`` under ``directory``: each of their
    ``DATASET_ARRAYS`` that they hold as ``<name>.npy``, as it is. Their
    ids must name CSV rows (:func:`_check_sample_ids`).

    The files are written in a :func:`staged_directory`, the manifest
    last, so a failed write leaves no partial dataset.
    """
    directory = Path(directory)
    sample_ids = list(recordings.ids)
    _check_sample_ids(sample_ids, directory)
    with staged_directory(directory) as stage:
        for name in DATASET_ARRAYS:
            if (values := getattr(recordings, name)) is not None:
                save_npy(stage / f"{name}.npy", values)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "kind": "ecgdenoise-dataset",
            "n_samples": len(sample_ids),
            "sample_ids": sample_ids,
            "beat_counts": recordings.counts.tolist(),
            "has_ground_truth": recordings.thetas is not None,
            "has_true_taus": recordings.taus is not None,
        }
        manifest.update(manifest_extra)
        save_json(stage / "manifest.json", manifest)


def load_dataset(directory):
    """Read a dataset directory; returns ``(recordings, manifest)``.

    The :class:`Recordings` hold the arrays as read, checked by their
    constructor: truth arrays have one row per manifest sample id, in
    order. An array that does not fit, or a bad value, raises ValueError
    naming its file and, for a bad value, its sample id.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = load_json(manifest_path)
    if manifest.get("kind") != "ecgdenoise-dataset":
        raise ValueError(f"{directory}: not an ecgdenoise dataset")
    paths = {name: directory / f"{name}.npy" for name in DATASET_ARRAYS}
    if not paths["beats"].exists() and (directory / "beats").is_dir():
        raise ValueError(
            f"{paths['beats']} is missing: {directory} has the older layout "
            f"of one CSV per recording under beats/, which is no longer "
            f"read; re-run `ecgdenoise simulate` to write the dataset again"
        )
    counts = _check_manifest(manifest, manifest_path)
    beats, thetas, taus = _load_npy(paths["beats"], 2), None, None
    if manifest.get("has_ground_truth"):
        thetas = _load_npy(paths["thetas"], 2)
    if manifest.get("has_true_taus"):
        taus = _load_npy(paths["taus"], 1)
    try:
        recordings = Recordings(manifest["sample_ids"], beats, counts,
                                thetas, taus)
    except InvalidRecordingsError as exc:
        raise ValueError(f"{paths.get(exc.field, manifest_path)}: "
                         f"{exc}") from exc
    return recordings, manifest
