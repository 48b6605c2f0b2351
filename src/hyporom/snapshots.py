"""Snapshot matrices: collection, windowing, concatenation and persistence.

One SnapshotMatrix holds the trajectory of a single variable: column n is
the field at time ``times[n]`` and ``dts[n]`` is the gap to the next
column.  Cell variables have n_cells rows; interface variables (the HLL
fan coefficients and Roe averages) have n_cells + 1 rows.

Binary container (little-endian, CRC32 trailer), fixed 64-byte header:

    magic 8s  | u32 version | u32 n_rows | u32 n_cols
    u8 id_len | 35s variable id (zero padded) | f64 param_tag (NaN = none)
    f64 data row-major | f64 times[n_cols] | f64 dts[n_cols-1] | u32 crc32
"""

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (ChecksumMismatch, EmptySlice, FormatVersionMismatch,
                     IoError, NonMonotoneTime, ShapeMismatch, TooFewSnapshots)

SNAPSHOT_MAGIC = b"HYPSNAP1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIII B 35s d")
_ID_MAX = 35


@dataclass
class SnapshotMatrix:
    variable_id: str
    data: np.ndarray          # n_rows x n_cols, column n = field at times[n]
    times: np.ndarray
    dts: np.ndarray
    param_tag: float | None = None
    block_tags: tuple = ()    # provenance of concatenated training blocks

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=float)
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
        """Column slice [start, stop) as a plain array."""
        if stop <= start:
            raise EmptySlice("empty snapshot window")
        return self.data[:, start:stop]


class SnapshotRecorder:
    """Single-writer builder appending one column per recorded time."""

    def __init__(self):
        self._columns: dict[str, list[np.ndarray]] = {}
        self._times: list[float] = []

    @property
    def n_recorded(self) -> int:
        return len(self._times)

    def record(self, fields: dict[str, np.ndarray], t: float) -> None:
        if self._times and t <= self._times[-1]:
            raise NonMonotoneTime(
                f"record at t={t} not after previous t={self._times[-1]}")
        if self._times and set(fields) != set(self._columns):
            raise ShapeMismatch("recorded variables changed between columns")
        for name, values in fields.items():
            self._columns.setdefault(name, []).append(
                np.array(values, dtype=float, copy=True))
        self._times.append(float(t))

    def finalize(self, param_tag: float | None = None) -> dict[str, SnapshotMatrix]:
        times = np.array(self._times)
        dts = np.diff(times)
        return {
            name: SnapshotMatrix(variable_id=name,
                                 data=np.column_stack(cols),
                                 times=times, dts=dts, param_tag=param_tag)
            for name, cols in self._columns.items()
        }


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
    if len(matrices) == 1:
        return SnapshotMatrix(first.variable_id, first.data.copy(),
                              first.times.copy(), first.dts.copy(),
                              param_tag=None,
                              block_tags=((first.param_tag, first.n_cols),))
    datas, times, dts, tags = [], [], [], []
    for k, m in enumerate(matrices):
        datas.append(m.data)
        if k == 0:
            times.append(m.times)
            dts.append(m.dts)
        else:
            seam = dts[-1][-1] if len(dts[-1]) else 1.0
            times.append(m.times - m.times[0] + times[-1][-1] + seam)
            dts.append(np.concatenate(([seam], m.dts)))
        tags.append((m.param_tag, m.n_cols))
    return SnapshotMatrix(first.variable_id, np.hstack(datas),
                          np.concatenate(times), np.concatenate(dts),
                          param_tag=None, block_tags=tuple(tags))


def _pack_header(matrix: SnapshotMatrix) -> bytes:
    ident = matrix.variable_id.encode("utf-8")
    if len(ident) > _ID_MAX:
        raise IoError(f"variable id longer than {_ID_MAX} bytes")
    tag = np.nan if matrix.param_tag is None else float(matrix.param_tag)
    return _HEADER.pack(SNAPSHOT_MAGIC, FORMAT_VERSION, matrix.n_rows,
                        matrix.n_cols, len(ident), ident.ljust(_ID_MAX, b"\0"),
                        tag)


def save_snapshots(matrix: SnapshotMatrix, path) -> None:
    payload = _pack_header(matrix)
    payload += matrix.data.astype("<f8").tobytes(order="C")
    payload += matrix.times.astype("<f8").tobytes()
    payload += matrix.dts.astype("<f8").tobytes()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
            fh.write(struct.pack("<I", crc))
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_snapshots(path) -> SnapshotMatrix:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(blob) < _HEADER.size + 4:
        raise ChecksumMismatch("file too short")
    body, (crc_stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise ChecksumMismatch("CRC32 mismatch (truncated or corrupt file)")
    magic, version, n_rows, n_cols, id_len, ident, tag = \
        _HEADER.unpack_from(body, 0)
    if magic != SNAPSHOT_MAGIC:
        raise IoError("not a snapshot file")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"unsupported version {version}")
    need = _HEADER.size + 8 * (n_rows * n_cols + n_cols + max(n_cols - 1, 0))
    if len(body) != need:
        raise ChecksumMismatch("payload size inconsistent with header")
    off = _HEADER.size
    data = np.frombuffer(body, "<f8", n_rows * n_cols, off).reshape(n_rows, n_cols)
    off += 8 * n_rows * n_cols
    times = np.frombuffer(body, "<f8", n_cols, off)
    off += 8 * n_cols
    dts = np.frombuffer(body, "<f8", max(n_cols - 1, 0), off)
    return SnapshotMatrix(variable_id=ident[:id_len].decode("utf-8"),
                          data=data.copy(), times=times.copy(), dts=dts.copy(),
                          param_tag=None if np.isnan(tag) else float(tag))


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
