"""Reduced-operator containers, window time averages and the tensor
assembly kernel.

Every assembled operator is dt-free: viscosity terms carry nu factored
out and wave-speed data enters through snapshots, so one assembly serves
the whole replayed time-step sequence (and any Manning coefficient,
which multiplies the friction operators online as g*n_b^2).

Every M x M x M tensor is one ``project_outer`` call: a GEMM of the test
functions against the row-wise outer products of two mode sets, taken
over row blocks of bounded size.  Finite-difference stencils act on the
test functions (``stencil_weights``), never on the n x M x M products.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptySlice, ShapeMismatch

# Bytes of one row block's outer-product intermediate in project_outer.
_BLOCK_BYTES = 4 * 2**20


def time_average(window_data: np.ndarray) -> np.ndarray:
    """Arithmetic mean across the columns of a snapshot slice."""
    window_data = np.asarray(window_data, dtype=float)
    if window_data.ndim != 2 or window_data.shape[1] == 0:
        raise EmptySlice("cannot average an empty snapshot slice")
    return window_data.mean(axis=1)


@dataclass
class TimeAverages:
    """Window-mean fields keyed by variable id (recomputable from slices)."""

    fields: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.fields[name]


@dataclass
class RomOperators:
    system: str                      # transport | burgers | swe_lf | swe_hll
    window_index: int
    m: int
    matrices: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)
    tensors3: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.m
        for name, arr in self.matrices.items():
            if arr.shape != (m, m):
                raise ShapeMismatch(f"matrix {name} has shape {arr.shape}, want ({m},{m})")
        for name, arr in self.vectors.items():
            if arr.shape != (m,):
                raise ShapeMismatch(f"vector {name} has shape {arr.shape}, want ({m},)")
        for name, arr in self.tensors3.items():
            if arr.shape != (m, m, m):
                raise ShapeMismatch(f"tensor {name} has shape {arr.shape}, want ({m},{m},{m})")


def pad_rows(arr: np.ndarray, left_factor: float = 1.0,
             right_factor: float = 1.0) -> np.ndarray:
    """Prepend/append ghost rows scaled from the edge rows.

    With unit factors this is the free-boundary replication; the scalar
    systems pass their stationary-extension factors instead.
    """
    arr = np.asarray(arr, dtype=float)
    return np.concatenate([arr[:1] * left_factor, arr, arr[-1:] * right_factor],
                          axis=0)


def contract_quadratic(operand: np.ndarray, left: np.ndarray,
                       right: np.ndarray) -> np.ndarray:
    """sum_j sum_{l,k} T^j_{plk} left[j,l] right[j,k] in one GEMV.

    ``operand`` holds the tensors T^j side by side (p x K*L*R), and
    ``left``/``right`` their K input pairs as rows; a single p x L x R
    tensor with 1-D ``left`` and ``right`` is the case K = 1, taken as
    two BLAS products instead.  The GEMV runs against the row-wise outer
    products of the pairs.
    """
    if left.ndim == 1:
        return (operand @ right) @ left
    outer = left[:, :, None] * right[:, None, :]
    return operand.reshape(len(operand), -1) @ outer.reshape(-1)


def stencil_weights(phi: np.ndarray, coefs: dict) -> np.ndarray:
    """Rows w[j] = sum_s c_s phi[j - s] for j = 0 .. n - 1 + max(s), with
    phi taken as zero outside its n rows (shifts s >= 0).

    sum_i phi[i] (sum_s c_s x[i + s]) equals w.T @ x for any x with
    n + max(s) rows, so a stencil over padded rows moves onto the modes.
    """
    n = phi.shape[0]
    out = np.zeros((n + max(coefs), phi.shape[1]))
    for shift, coef in coefs.items():
        out[shift:shift + n] += coef * phi
    return out


def project_outer(weights: np.ndarray, left: np.ndarray,
                  right: np.ndarray) -> np.ndarray:
    """T_plk = sum_i weights[i,p] left[i,l] right[i,k] as blocked GEMMs.

    Rows are taken in blocks whose outer-product intermediate holds about
    _BLOCK_BYTES, so memory stays bounded for any n while each block is
    one BLAS product of shape (p, rows) x (rows, l*k).
    """
    n, p = weights.shape
    l, k = left.shape[1], right.shape[1]
    rows = max(1, _BLOCK_BYTES // (8 * l * k))
    out = np.zeros((p, l * k))
    for s in range(0, n, rows):
        e = s + rows
        outer = left[s:e, :, None] * right[s:e, None, :]
        out += weights[s:e].T @ outer.reshape(-1, l * k)
    return out.reshape(p, l, k)
