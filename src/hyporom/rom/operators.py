"""Compiled reduced operators, window time averages and the tensor
assembly kernel.

Every assembled operator is dt-free: viscosity terms carry nu factored
out and wave-speed data enters through snapshots, so one assembly serves
the whole replayed time-step sequence (and any Manning coefficient,
which multiplies the friction operators online as g*n_b^2).

Every M x M x M tensor is one ``project_outer`` call: a GEMM of the test
functions against the row-wise outer products of two mode sets, taken
over row blocks of bounded size.  Finite-difference stencils act on the
test functions (``stencil_weights``), never on the n x M x M products.

Every system compiles each window into one step shape
(``compile_terms``).  The state x stacks the coefficients of the
conserved variables (w, or h then q).  With xa = [x; refreshed DEIM
coefficients; 1], the M-blocks of xa in the order ``inputs`` names them
(transport and Burgers read x alone):

    z     = (scale0 + dt * scale1) * xa[gather]
    x_new = x + lin @ z[:n_lin]
            + contract_quadratic(operand, z[left], xa[right])
              in the rows of each output block that holds tensors

``lin`` holds every matrix and vector term side by side, each in the rows
of the equation it feeds and zero elsewhere.  ``z`` is every scaled
input: the inputs of the n_lin columns of ``lin``, then the left member
of each tensor pair.  ``scale0`` carries the dt-free factors (the
viscosity nu/2) and ``scale1`` the factors per unit dt (for example
-1/(2dx) for an advective stencil).  Each output block's tensors are the
column blocks of one operand, contracted in one GEMV.  Because the
factors multiply the inputs, not the operators, the named entries of
``matrices``, ``vectors`` and ``tensors3`` are views into these arrays,
bitwise the assembled operators.  Which terms a window holds, and which
inputs its step reads, is decided by its assembler alone.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import EmptySlice

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


class Term(NamedTuple):
    """One window operator and where it enters the step."""

    array: np.ndarray
    out: str            # the output block it feeds, e.g. "w" or "q"
    inputs: tuple       # () vector, (a,) matrix on a, (a, b) tensor on a x b
    fixed: float        # factor per step (the viscosity nu/2)
    per_dt: float       # factor per unit dt


@dataclass
class RomOperators:
    """A window's compiled step (module docstring) and named views of its
    operators."""

    system: str                      # transport | burgers | swe_lf | swe_hll
    window_index: int
    m: int
    inputs: tuple                    # the M-blocks of xa, in order
    lin: np.ndarray
    gather: np.ndarray
    scale0: np.ndarray
    scale1: np.ndarray
    quad: tuple                      # (rows, operand, left, right) per block
    matrices: dict
    vectors: dict
    tensors3: dict


def compile_terms(terms: dict, inputs: tuple, outputs: tuple, m: int,
                  **fields) -> RomOperators:
    """Pack the terms into the step arrays.  ``inputs`` names the M-blocks
    of xa in order, ``outputs`` those of x; terms are popped as they are
    copied, so no operator is held twice."""
    start = {name: i * m for i, name in enumerate(inputs)}
    one = len(inputs) * m
    rows = {out: slice(i * m, (i + 1) * m) for i, out in enumerate(outputs)}
    linear = [name for name, t in terms.items() if len(t.inputs) < 2]
    n_cols = sum(m if terms[name].inputs else 1 for name in linear)
    lin = np.zeros((len(outputs) * m, n_cols))
    matrices, vectors, tensors = {}, {}, {}
    gather, scale0, scale1 = [], [], []
    col = 0
    for name in linear:
        t = terms.pop(name)
        width = m if t.inputs else 1
        block = lin[rows[t.out], col:col + width]
        block[:] = t.array.reshape(m, width)
        if t.inputs:
            matrices[name] = block
            gather.append(start[t.inputs[0]] + np.arange(m))
        else:
            vectors[name] = block[:, 0]
            gather.append([one])
        scale0.append(np.full(width, t.fixed))
        scale1.append(np.full(width, t.per_dt))
        col += width

    # The left member of each tensor pair is gathered and scaled with the
    # linear inputs, after them; the right member is read from xa as is.
    quad = []
    first = n_cols
    for out in outputs:
        names = [name for name, t in terms.items() if t.out == out]
        if not names:
            continue
        operand = np.empty((m, len(names) * m * m))
        right = []
        for j, name in enumerate(names):
            t = terms.pop(name)
            block = operand[:, j * m * m:(j + 1) * m * m]
            block[:] = t.array.reshape(m, m * m)
            tensors[name] = block.reshape(m, m, m)
            gather.append(start[t.inputs[0]] + np.arange(m))
            right.append(start[t.inputs[1]] + np.arange(m))
            scale0.append(np.zeros(m))
            scale1.append(np.full(m, t.per_dt))
        left = first + np.arange(len(names) * m).reshape(len(names), m)
        first += len(names) * m
        quad.append((rows[out], operand, left, np.array(right)))

    return RomOperators(m=m, inputs=inputs, matrices=matrices,
                        vectors=vectors, tensors3=tensors, lin=lin,
                        gather=np.concatenate(gather),
                        scale0=np.concatenate(scale0),
                        scale1=np.concatenate(scale1), quad=tuple(quad),
                        **fields)


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
    tensor with 1-D ``left`` and ``right`` is the case K = 1.  The GEMV
    runs against the row-wise outer products of the pairs.
    """
    outer = left[..., :, None] * right[..., None, :]
    return operand.reshape(len(operand), -1) @ outer.reshape(-1)


def advance(x: np.ndarray, xa: np.ndarray, ops: RomOperators, dt: float,
            contract=contract_quadratic) -> np.ndarray:
    """x plus the window's compiled increment at the inputs xa.  A step
    with tensors passes the ``contract_quadratic`` of its own module,
    which is the name the benchmark tracer wraps."""
    z = (ops.scale0 + dt * ops.scale1) * xa[ops.gather]
    incr = ops.lin @ z[:ops.lin.shape[1]]
    for rows, operand, left, right in ops.quad:
        incr[rows] += contract(operand, z[left], xa[right])
    return x + incr


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
