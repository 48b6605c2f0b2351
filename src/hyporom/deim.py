"""Discrete empirical interpolation: greedy point selection + small solves.

Offline, indices are chosen one per mode by maximizing the interpolation
residual of each new mode on the points picked so far (ties go to the
smallest index, so index sets are deterministic and nested).  Online, the
nonlinear field is evaluated only at those points and the coefficients
solve U_I c = values with the stored inverse of the small M x M matrix.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EvaluationError, SingularInterpolationMatrix

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
    # The online stage solves with this matrix every step; applying the
    # factorization once to the identity turns each solve into a matvec.
    return scipy.linalg.lu_solve((lu, piv), np.eye(small.shape[0]),
                                 check_finite=False)


def deim_offline(modes: np.ndarray) -> DeimInterpolant:
    """Greedy index selection over the columns of ``modes``."""
    modes = np.asarray(modes, dtype=float)
    if modes.ndim != 2 or modes.shape[1] < 1:
        raise ValueError("modes must be a 2-D matrix with >= 1 column")
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
    """Coefficients from the field values at the interpolation points."""
    values = np.asarray(values, dtype=float)
    if values.shape != (interp.basis.shape[1],):
        raise EvaluationError(
            f"expected {interp.basis.shape[1]} point values, "
            f"got {values.shape}")
    if not np.isfinite(values).all():
        raise EvaluationError("non-finite value at an interpolation point")
    return interp.solve_matrix @ values


def deim_online(interp: DeimInterpolant, pointwise_eval) -> np.ndarray:
    """Coefficients from a pointwise evaluator ``index -> value``."""
    try:
        values = np.array([pointwise_eval(int(i)) for i in interp.indices],
                          dtype=float)
    except EvaluationError:
        raise
    except Exception as exc:
        raise EvaluationError(str(exc)) from exc
    return deim_online_values(interp, values)


def deim_reconstruct(interp: DeimInterpolant, coeffs: np.ndarray) -> np.ndarray:
    """Full-field approximation U c (interpolates exactly at the points)."""
    return interp.basis @ np.asarray(coeffs, dtype=float)
