"""Discrete empirical interpolation: greedy point selection and the
inverse of the interpolation matrix.

Offline, indices are chosen one per mode by maximizing the interpolation
residual of each new mode on the points picked so far (ties go to the
smallest index, so index sets are deterministic and nested), and the
inverse of the small M x M matrix U_I = P^T U is stored.  The nonlinear
field is evaluated only at those points; its coefficients are
c = U_I^-1 values (``deim_online_values``).  The reduced SWE models fold
that inverse into their operators once per window
(``rom.context.fold_interpolants``), so their online step reads the
point values themselves and solves nothing.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (EvaluationError, ShapeMismatch,
                     SingularInterpolationMatrix)

_PIVOT_RTOL = 1e-14


@dataclass
class DeimInterpolant:
    basis: np.ndarray            # n_rows x m, the caller's modes (not copied)
    indices: np.ndarray          # m distinct row indices
    solve_matrix: np.ndarray     # inverse of basis[indices]
    condition_estimate: float = float("nan")

    @property
    def m(self) -> int:
        return self.basis.shape[1]

    @property
    def n_rows(self) -> int:
        return self.basis.shape[0]


def _factor(small: np.ndarray) -> np.ndarray:
    # LAPACK getrf directly: an exactly zero pivot only sets ``info``
    # (no warning to filter), and the relative pivot check below covers it.
    lu, piv, _ = scipy.linalg.lapack.dgetrf(small)
    diag = np.abs(np.diag(lu))
    if diag.min() <= _PIVOT_RTOL * max(diag.max(), 1e-300):
        raise SingularInterpolationMatrix(
            "interpolation matrix is numerically singular")
    # Applied once to the identity: the explicit inverse is what the
    # reduced operators fold in, so no step solves with it.
    return scipy.linalg.lu_solve((lu, piv), np.eye(small.shape[0]),
                                 check_finite=False)


def deim_offline(modes: np.ndarray) -> DeimInterpolant:
    """Greedy index selection over the columns of ``modes``."""
    modes = np.asarray(modes, dtype=float)
    if modes.ndim != 2 or modes.shape[1] < 1:
        raise ShapeMismatch("modes must be a 2-D matrix with >= 1 column")
    n, m = modes.shape
    indices = [int(np.argmax(np.abs(modes[:, 0])))]
    for j in range(1, m):
        u = modes[:, :j]
        sub = u[indices, :]
        try:
            coef = np.linalg.solve(sub, modes[indices, j])
        except np.linalg.LinAlgError as exc:
            raise SingularInterpolationMatrix(str(exc)) from exc
        resid = modes[:, j] - u @ coef
        pick = int(np.argmax(np.abs(resid)))
        if pick in indices:
            raise SingularInterpolationMatrix(
                "greedy residual vanished; modes are linearly dependent")
        indices.append(pick)
    idx = np.array(indices, dtype=int)
    small = modes[idx, :]
    inverse = _factor(small)
    cond = float(np.linalg.norm(small, 1) * np.linalg.norm(inverse, 1))
    return DeimInterpolant(basis=modes, indices=idx,
                           solve_matrix=inverse, condition_estimate=cond)


def deim_online_values(interp: DeimInterpolant, values: np.ndarray) -> np.ndarray:
    """Coefficients from the field values at the interpolation points;
    each column of a 2-D ``values`` is one field's point values."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or len(values) != interp.m:
        raise EvaluationError(
            f"expected {interp.m} point values, got {values.shape}")
    if not np.isfinite(values).all():
        raise EvaluationError("non-finite value at an interpolation point")
    return interp.solve_matrix @ values

