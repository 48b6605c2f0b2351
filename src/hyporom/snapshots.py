"""Snapshot matrices: collection, windowing, concatenation and CSV export.

One SnapshotMatrix holds the trajectory of a single variable: column n is
the field at time ``times[n]`` and ``dts[n]`` is the gap to the next
column.  Cell variables have n_cells rows; interface variables (the HLL
fan coefficients and Roe averages) have n_cells + 1 rows.

In memory the data is column-major (Fortran order), however it was made:
recorded, concatenated or copied.  A column, and so a window's
column range, is one contiguous block, which is the layout LAPACK reads.
The recorder writes each column in place into fixed-size column-major
blocks per variable, and ``finalize`` joins them one variable at a time.

A matrix owns its data and makes it read-only: the recorder and
``concat_parametric`` hand it arrays that nothing else holds, and the
constructor takes an F-order float array as it is, without a copy.  To
edit snapshots, build a new matrix (``dataclasses.replace(m, data=...)``).
Since the data cannot change, a matrix keeps, per window column range,
the small SVD of that slice's triangle R (``window_svds``, filled by
``pod.thin_svd``), so builds at several mode caps on one recording
decompose each window's triangle once.  The kept SVDs are freed with the
matrix; a new matrix starts with none.  A deep copy's data is writable,
so builds neither use nor extend what the copy carried over.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptySlice, IoError, NonMonotoneTime, ShapeMismatch,
                     TooFewSnapshots)

# Columns per recorder block, chosen on the 1600-cell dam breaks of the
# benchmark (a block of one field is 3.3 MB).  From 512 columns a block
# passes the 4 MB from which numpy asks Linux for huge pages, and peak RSS
# rose by 15-40 MB; at 32-64 columns a variable's freed blocks leave holes
# too small for its matrix, so recording peaked at two copies again.
_BLOCK_COLS = 256


@dataclass
class SnapshotMatrix:
    variable_id: str
    data: np.ndarray          # n_rows x n_cols, F order; column n at times[n]
    times: np.ndarray
    dts: np.ndarray
    # (start, stop) -> the ``kept`` dict of ``pod.thin_svd`` for that slice
    window_svds: dict = field(default_factory=dict, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        self.data = np.asfortranarray(self.data, dtype=float)
        self.data.flags.writeable = False
        self.times = np.asarray(self.times, dtype=float)
        self.dts = np.asarray(self.dts, dtype=float)
        if self.data.ndim != 2:
            raise ShapeMismatch("snapshot data must be 2-D")
        n_cols = self.data.shape[1]
        if self.times.shape != (n_cols,) or self.dts.shape != (max(n_cols - 1, 0),):
            raise ShapeMismatch("times/dts lengths inconsistent with data")
        gaps = np.diff(self.times)
        if np.any(gaps <= 0.0):
            raise NonMonotoneTime("snapshot times must be strictly increasing")
        scale = np.maximum(np.abs(gaps), np.abs(self.dts))
        if np.any(np.abs(gaps - self.dts) > 1e-12 * np.maximum(scale, 1e-300)):
            raise ShapeMismatch("dts do not match time gaps")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def window(self, start: int, stop: int) -> np.ndarray:
        """Column slice [start, stop): a contiguous view of the data."""
        if stop <= start:
            raise EmptySlice("empty snapshot window")
        return self.data[:, start:stop]


class SnapshotRecorder:
    """Single-writer builder appending one column per recorded time.

    Each variable's columns go straight into column-major blocks of
    ``_BLOCK_COLS`` columns; a field is checked when it is recorded, so a
    bad one fails at its own column, not after the whole run.
    """

    def __init__(self):
        self._blocks: dict[str, list[np.ndarray]] = {}
        self._times: list[float] = []

    @property
    def n_recorded(self) -> int:
        return len(self._times)

    def record(self, fields: dict[str, np.ndarray], t: float) -> None:
        n = len(self._times)
        if n and t <= self._times[-1]:
            raise NonMonotoneTime(
                f"record at t={t} not after previous t={self._times[-1]}")
        if n and fields.keys() != self._blocks.keys():
            raise ShapeMismatch("recorded variables changed between columns")
        columns = {}
        for name, values in fields.items():
            col = np.asarray(values, dtype=float)
            if col.ndim != 1:
                raise ShapeMismatch(f"field {name!r} at column {n} has shape "
                                    f"{col.shape}, not 1-D")
            if n and col.shape[0] != self._blocks[name][0].shape[0]:
                raise ShapeMismatch(
                    f"field {name!r} at column {n} has {col.shape[0]} rows, "
                    f"earlier columns {self._blocks[name][0].shape[0]}")
            columns[name] = col
        j = n % _BLOCK_COLS
        for name, col in columns.items():
            blocks = self._blocks.setdefault(name, [])
            if j == 0:
                blocks.append(np.empty((col.shape[0], _BLOCK_COLS), order="F"))
            blocks[-1][:, j] = col
        self._times.append(float(t))

    def finalize(self) -> dict[str, SnapshotMatrix]:
        """The recorded matrices; empties the recorder.  Each variable's
        blocks are freed as they are copied out, so the extra memory is one
        variable's matrix, not a second copy of every matrix."""
        times = np.array(self._times)
        dts = np.diff(times)
        n = len(times)
        out = {}
        for name in list(self._blocks):
            blocks = self._blocks.pop(name)
            data = np.empty((blocks[0].shape[0], n), order="F")
            for start in range(0, n, _BLOCK_COLS):
                stop = min(start + _BLOCK_COLS, n)
                data[:, start:stop] = blocks.pop(0)[:, :stop - start]
            out[name] = SnapshotMatrix(variable_id=name, data=data,
                                       times=times, dts=dts)
        self._times = []
        return out


@dataclass(frozen=True)
class WindowPartition:
    """Disjoint, contiguous column ranges covering 0..n_cols-1 (half-open)."""

    n_windows: int
    ranges: tuple = field(default_factory=tuple)  # ((start, stop), ...)


def partition_uniform(n_cols: int, n_windows: int) -> WindowPartition:
    """Uniform split; the remainder goes one column per window from the first."""
    if n_windows < 1:
        raise TooFewSnapshots("need at least one window")
    if n_cols < 2 * n_windows:
        raise TooFewSnapshots(
            f"{n_cols} columns cannot fill {n_windows} windows of >= 2")
    base, extra = divmod(n_cols, n_windows)
    ranges = []
    start = 0
    for v in range(n_windows):
        size = base + (1 if v < extra else 0)
        ranges.append((start, start + size))
        start += size
    return WindowPartition(n_windows=n_windows, ranges=tuple(ranges))


def concat_parametric(matrices: list[SnapshotMatrix]) -> SnapshotMatrix:
    """Horizontal concatenation of training snapshot matrices.

    Times of later blocks are shifted so the result stays strictly
    increasing (the seam gap repeats the previous block's last dt); POD
    only consumes the data columns.
    """
    if not matrices:
        raise ShapeMismatch("need at least one snapshot matrix")
    first = matrices[0]
    for m in matrices[1:]:
        if m.n_rows != first.n_rows:
            raise ShapeMismatch("row counts differ between training blocks")
        if m.variable_id != first.variable_id:
            raise ShapeMismatch("variable ids differ between training blocks")
    data = np.empty((first.n_rows, sum(m.n_cols for m in matrices)),
                    order="F")
    times, dts = [], []
    col = 0
    for k, m in enumerate(matrices):
        data[:, col:col + m.n_cols] = m.data
        col += m.n_cols
        if k == 0:
            times.append(m.times)
            dts.append(m.dts)
        else:
            seam = dts[-1][-1] if len(dts[-1]) else 1.0
            times.append(m.times - m.times[0] + times[-1][-1] + seam)
            dts.append(np.concatenate(([seam], m.dts)))
    return SnapshotMatrix(first.variable_id, data,
                          np.concatenate(times), np.concatenate(dts))


def export_csv(matrix: SnapshotMatrix, path) -> None:
    """One row per snapshot: t followed by the row values (by index)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            header = ",".join(str(i) for i in range(matrix.n_rows))
            fh.write(f"t,{header}\n")
            for n in range(matrix.n_cols):
                row = ",".join(repr(float(v)) for v in matrix.data[:, n])
                fh.write(f"{float(matrix.times[n])!r},{row}\n")
    except OSError as exc:
        raise IoError(str(exc)) from exc
