"""R-peak detection and fixed-length beat alignment.

Beats are found on the slope of the trace, as in the derivative stage of
Pan & Tompkins (IEEE TBME 32(3), 1985): the narrow QRS complex has flanks
several times steeper than a T wave of similar height, so a tall T wave is
not counted as a second beat. Rows of the aligned matrix are windows of
length d with the R peak pinned at a common column.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoBeatsError
from .simulate import RawTrace

#: A slope peak starts a beat only if it reaches this fraction of the
#: steepest slope in the trace.
SLOPE_FRACTION = 0.5


@dataclass(frozen=True)
class Delineation:
    """The sample index of each beat's R peak."""

    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.int64)
        r.flags.writeable = False
        object.__setattr__(self, "r", r)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("r must be a non-empty index vector")
        if np.any(np.diff(r) <= 0):
            raise ValueError("r indices must be strictly increasing")
        if r[0] < 0:
            raise ValueError("r indices must be non-negative")

    @property
    def n_beats(self) -> int:
        return self.r.size


def detect_r_peaks(trace: RawTrace, min_rr: float = 0.3) -> Delineation:
    """Locate one R peak per beat.

    Beats are local maxima of the absolute first difference that reach
    ``SLOPE_FRACTION`` of its maximum, accepted greedily by slope subject
    to a ``min_rr`` refractory spacing. Each beat spans the samples
    nearer to its slope peak than to a neighbouring one (a lone beat spans
    the trace), and its R peak is the beat's maximum, the convention of
    :func:`~ecgdenoise.simulate.extract_canonical_beats`, so aligned
    beats line up with canonical ones. Raises :class:`NoBeatsError` when
    the trace has no slope.
    """
    x = trace.values
    fs = trace.fs
    if x.size < fs * min_rr:
        raise ValueError("trace shorter than one refractory period")
    slope = np.abs(np.diff(x))
    if slope.size == 0 or not slope.max() > 0:
        raise NoBeatsError("flat trace: no R peaks")
    threshold = SLOPE_FRACTION * float(slope.max())
    padded = np.concatenate(([-1.0], slope, [-1.0]))
    inner = padded[1:-1]
    candidates = np.flatnonzero(
        (inner > padded[:-2]) & (inner >= padded[2:]) & (inner >= threshold))

    min_gap = min_rr * fs
    order = np.lexsort((candidates, -slope[candidates]))  # slope desc, index asc
    kept: list[int] = []
    for idx in candidates[order]:
        if all(abs(int(idx) - k) >= min_gap for k in kept):
            kept.append(int(idx))

    q = np.sort(np.asarray(kept, dtype=np.int64))
    edges = np.empty(q.size + 1, dtype=np.int64)
    edges[0], edges[-1] = 0, x.size
    if q.size > 1:
        edges[1:-1] = (q[:-1] + q[1:] + 1) // 2
        edges[0] = max(0, 2 * q[0] - edges[1])
        edges[-1] = min(x.size, 2 * q[-1] - edges[-2] + 1)
    r = [lo + int(np.argmax(x[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    return Delineation(r=np.asarray(r, dtype=np.int64))


def align_beats(trace: RawTrace, delineation: Delineation, d: int,
                r_offset: int) -> np.ndarray:
    """Cut the trace into R-aligned rows of length ``d``.

    Beat b occupies ``[r_b - r_offset, r_b - r_offset + d)``; windows that
    would cross the trace boundary are dropped rather than padded (padding
    would corrupt downstream covariance estimates). Raises
    :class:`NoBeatsError` if every beat is dropped.
    """
    d = int(d)
    r_offset = int(r_offset)
    if d < 1:
        raise ValueError("d must be at least 1")
    if not 0 <= r_offset < d:
        raise ValueError("r_offset must satisfy 0 <= r_offset < d")
    x = trace.values
    starts = delineation.r - r_offset
    keep = (starts >= 0) & (starts + d <= x.size)
    starts = starts[keep]
    if starts.size == 0:
        raise NoBeatsError("every beat window crosses the trace boundary")
    cols = starts[:, None] + np.arange(d)
    return x[cols]
