"""File formats: headered CSV matrices, dataset directories, JSON documents.

Matrices are CSV with a ``row_id`` first column. Datasets are a directory
with a ``manifest.json`` plus per-sample beat matrices (and ground truth
when simulated). Reports and fitted models are JSON documents carrying a
``schema_version`` field. Writes are atomic (temp file + rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .estimators import FaModel, MogFaModel
from .noise import EcgSample, NoisePrecision
from .simulate import DEFAULT_FS, ThetaBeat

SCHEMA_VERSION = 1

_FLOAT_FMT = "%.17g"  # round-trips float64 exactly


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_matrix_csv(path, matrix, row_ids=None) -> None:
    """Write a matrix as headered CSV, first column the row id."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n, d = matrix.shape
    if row_ids is None:
        row_ids = [str(i) for i in range(n)]
    if len(row_ids) != n:
        raise ValueError("row_ids length does not match the matrix")
    lines = ["row_id," + ",".join(f"c{j}" for j in range(d))]
    for rid, row in zip(row_ids, matrix):
        lines.append(str(rid) + "," + ",".join(_FLOAT_FMT % v for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


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


def save_json(path, document: dict) -> None:
    _atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# dataset directories
# ---------------------------------------------------------------------------

def save_dataset(directory, samples, manifest_extra: dict,
                 thetas=None, taus=None, r_offset: int | None = None,
                 fs: float | None = None) -> None:
    """Write samples (and ground truth when given) under ``directory``."""
    directory = Path(directory)
    (directory / "beats").mkdir(parents=True, exist_ok=True)
    sample_ids = [s.sample_id for s in samples]
    for sample in samples:
        save_matrix_csv(directory / "beats" / f"{sample.sample_id}.csv",
                        sample.beats)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ecgdenoise-dataset",
        "n_samples": len(samples),
        "sample_ids": sample_ids,
        "has_ground_truth": thetas is not None,
        "has_true_taus": taus is not None,
        "r_offset": r_offset,
        "fs": fs,
    }
    manifest.update(manifest_extra)
    if thetas is not None:
        save_matrix_csv(directory / "thetas.csv", thetas, sample_ids)
    if taus is not None:
        save_matrix_csv(directory / "taus.csv",
                        np.asarray(taus, dtype=np.float64)[:, None],
                        sample_ids)
    save_json(directory / "manifest.json", manifest)


def _load_truth(path, sample_ids):
    matrix, row_ids = load_matrix_csv(path)
    if row_ids != sample_ids:
        raise ValueError(
            f"{path}: its {len(row_ids)} row ids do not match the "
            f"manifest's {len(sample_ids)} sample_ids"
        )
    return matrix


def load_dataset(directory):
    """Read a dataset directory; returns ``(samples, manifest)``.

    Ground-truth files hold one row per manifest sample id, in order. The
    returned manifest's ``fs`` is ``DEFAULT_FS`` where the file has none.
    """
    directory = Path(directory)
    manifest = load_json(directory / "manifest.json")
    if manifest.get("kind") != "ecgdenoise-dataset":
        raise ValueError(f"{directory}: not an ecgdenoise dataset")
    sample_ids = manifest["sample_ids"]
    thetas = taus = None
    if manifest.get("has_ground_truth"):
        thetas = _load_truth(directory / "thetas.csv", sample_ids)
    if manifest.get("has_true_taus"):
        taus = _load_truth(directory / "taus.csv", sample_ids)[:, 0]
    fs = manifest["fs"] = manifest.get("fs") or DEFAULT_FS
    r_offset = manifest.get("r_offset")
    samples = []
    for i, sid in enumerate(sample_ids):
        path = directory / "beats" / f"{sid}.csv"
        beats, _ = load_matrix_csv(path)
        theta = None
        if thetas is not None:
            r_idx = int(np.argmax(thetas[i])) if r_offset is None else int(r_offset)
            theta = ThetaBeat(values=thetas[i], r_index=r_idx, fs=fs)
        tau = NoisePrecision(float(taus[i])) if taus is not None else None
        try:
            samples.append(EcgSample(sample_id=sid, beats=beats, theta=theta,
                                     tau=tau))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return samples, manifest


# ---------------------------------------------------------------------------
# fitted models
# ---------------------------------------------------------------------------

def _fa_payload(model: FaModel) -> dict:
    return {
        "mean": model.mean.tolist(),
        "loadings": model.loadings.tolist(),
        "loglik_trace": model.loglik_trace.tolist(),
        "converged": bool(model.converged),
        "latent_dim": model.latent_dim,
        "n_iter": model.n_iter,
    }


def _fa_from_payload(payload: dict) -> FaModel:
    """Keys other than the model's fields, such as the all-ones noise
    diagonal that older documents carry, are ignored."""
    return FaModel(
        mean=np.asarray(payload["mean"]),
        loadings=np.asarray(payload["loadings"]),
        loglik_trace=np.asarray(payload["loglik_trace"]),
        converged=bool(payload["converged"]),
    )


def save_model(path, model) -> None:
    """Serialize a fitted FA or mixture-FA model to a JSON document."""
    if isinstance(model, MogFaModel):
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "mog_fa",
            "fa": _fa_payload(model.fa),
            "weights": model.weights.tolist(),
            "comp_means": model.comp_means.tolist(),
            "comp_covs": model.comp_covs.tolist(),
        }
    elif isinstance(model, FaModel):
        document = {
            "schema_version": SCHEMA_VERSION,
            "kind": "fa",
            "fa": _fa_payload(model),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    save_json(path, document)


def load_model(path):
    document = load_json(path)
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version")
    fa = _fa_from_payload(document["fa"])
    if document["kind"] == "fa":
        return fa
    if document["kind"] == "mog_fa":
        return MogFaModel(
            fa=fa,
            weights=np.asarray(document["weights"]),
            comp_means=np.asarray(document["comp_means"]),
            comp_covs=np.asarray(document["comp_covs"]),
        )
    raise ValueError(f"{path}: unknown model kind {document['kind']!r}")
