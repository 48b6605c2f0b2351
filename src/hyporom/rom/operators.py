"""Reduced-operator containers and window time averages.

Every assembled operator is dt-free: viscosity terms carry nu factored
out and wave-speed data enters through snapshots, so one assembly serves
the whole replayed time-step sequence (and any Manning coefficient,
which multiplies the friction operators online as g*n_b^2).
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptySlice, ShapeMismatch


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
    linearization: str | None = None
    coeff_mode: str | None = None

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


def contract_quadratic(tensor: np.ndarray, left: np.ndarray,
                       right: np.ndarray) -> np.ndarray:
    """(T a b)_p = sum_{l,k} T_{plk} a_l b_k via two BLAS products."""
    return (tensor @ right) @ left

