"""POD bases: SVD of snapshot slices, mode selection, projection, transfer.

The decomposition is a thin SVD of the slice itself (numerically better
conditioned than eigendecomposing the Gram matrix the criterion is
usually stated with; the left singular vectors coincide).  Mode signs are
normalized so each mode's largest-magnitude entry is positive, making
bases deterministic across runs and platforms.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (AllZeroSpectrum, BreakdownInEigensolve, EmptySlice,
                     ShapeMismatch)

# Numerical-rank rule: sigma_i below this multiple of sigma_1 counts as zero.
RANK_RTOL = 1e-13
_ORTHO_TOL = 1e-12


@dataclass
class PodBasis:
    variable_id: str
    modes: np.ndarray                 # n_rows x m, orthonormal columns
    singular_values: np.ndarray       # all retained sigma (>= m entries)
    window_index: int = 0
    energy_captured: float = 1.0
    eps_pod: float = float("nan")
    is_fallback: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.modes = np.ascontiguousarray(self.modes, dtype=float)
        self.singular_values = np.asarray(self.singular_values, dtype=float)
        if self.modes.ndim != 2:
            raise ShapeMismatch("modes must be 2-D")
        if np.any(np.diff(self.singular_values) > 0.0):
            raise ValueError("singular values must be non-increasing")
        gram = self.modes.T @ self.modes
        if not np.allclose(gram, np.eye(self.m), atol=_ORTHO_TOL):
            raise ValueError("modes are not orthonormal")

    @property
    def n_rows(self) -> int:
        return self.modes.shape[0]

    @property
    def m(self) -> int:
        return self.modes.shape[1]


def numerical_rank(singular_values: np.ndarray, n_rows: int, n_cols: int) -> int:
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    cutoff = max(n_rows, n_cols) * s[0] * RANK_RTOL
    return int(np.sum(s > cutoff))


def select_modes(singular_values, eps_pod: float, m_max: int | None = None) -> int:
    """Smallest M with cumulative energy >= 1 - eps_pod^2 (capped by m_max)."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or not np.any(s > 0.0):
        raise AllZeroSpectrum("cannot select modes from a zero spectrum")
    if not 0.0 < eps_pod < 1.0:
        raise ValueError("eps_pod must lie in (0, 1)")
    r = numerical_rank(s, len(s), len(s))
    energy = np.cumsum(s[:r] ** 2)
    target = (1.0 - eps_pod ** 2) * energy[-1]
    m = int(np.searchsorted(energy, target - 1e-15 * energy[-1]) + 1)
    m = min(m, r)
    if m_max is not None:
        m = min(m, int(m_max))
    return max(m, 1)


def thin_svd(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors (signs fixed) and singular values of a slice."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise EmptySlice("snapshot slice is empty")
    try:
        u, s, _ = np.linalg.svd(data, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise BreakdownInEigensolve(str(exc)) from exc
    return _fix_signs(u), s


def compute_basis(data: np.ndarray, eps_pod: float, *, variable_id: str = "",
                  window_index: int = 0, m_max: int | None = None) -> PodBasis:
    """POD basis of a snapshot slice via thin SVD."""
    data = np.asarray(data, dtype=float)
    u, s = thin_svd(data)
    m = select_modes(s, eps_pod, m_max=m_max)
    r = numerical_rank(s, *data.shape)
    total = float(np.sum(s[:r] ** 2))
    captured = float(np.sum(s[:m] ** 2) / total)
    return PodBasis(variable_id=variable_id, modes=u[:, :m].copy(),
                    singular_values=s[:max(r, m)].copy(),
                    window_index=window_index, energy_captured=captured,
                    eps_pod=eps_pod)


def fallback_basis(n_rows: int, m: int = 1, *, variable_id: str = "",
                   window_index: int = 0) -> PodBasis:
    """Deterministic basis for an identically-zero snapshot slice.

    Any orthonormal set represents the zero trajectory exactly (all
    coefficients vanish); the leading canonical vectors are used so runs
    are reproducible.
    """
    modes = np.zeros((n_rows, m))
    modes[np.arange(m), np.arange(m)] = 1.0
    return PodBasis(variable_id=variable_id, modes=modes,
                    singular_values=np.zeros(m), window_index=window_index,
                    energy_captured=1.0, is_fallback=True)


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    out = modes.copy()
    for k in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, k]))
        if out[lead, k] < 0.0:
            out[:, k] = -out[:, k]
    return out


def project(basis: PodBasis, fld: np.ndarray) -> np.ndarray:
    fld = np.asarray(fld, dtype=float)
    if fld.shape != (basis.n_rows,):
        raise ShapeMismatch(f"field length {fld.shape} vs {basis.n_rows} rows")
    return basis.modes.T @ fld


def lift(basis: PodBasis, coeffs: np.ndarray) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.m,):
        raise ShapeMismatch(f"coefficient length {coeffs.shape} vs m={basis.m}")
    return basis.modes @ coeffs


def window_transfer(coeffs: np.ndarray, basis_from: PodBasis,
                    basis_to: PodBasis) -> np.ndarray:
    """Continuity-of-projection jump condition between window bases."""
    if basis_from.n_rows != basis_to.n_rows:
        raise ShapeMismatch("bases live on different meshes")
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis_from.m,):
        raise ShapeMismatch("coefficient length does not match source basis")
    return basis_to.modes.T @ (basis_from.modes @ coeffs)

