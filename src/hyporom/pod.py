"""POD bases: SVD of snapshot slices, mode selection, lifting, transfer.

The decomposition is a thin SVD of the slice itself (numerically better
conditioned than eigendecomposing the Gram matrix the criterion is
usually stated with; the left singular vectors coincide).  The slice is
first reduced to its triangular factor R by a blocked Householder QR
(``dgeqrt``): each block of columns is factored by the recursive panel
QR of Elmroth & Gustavson (IBM J. Res. Dev. 44(4), 2000), which keeps
the panel work in matrix-matrix products, and its reflectors are kept
in compact-WY form, Q_b = I - V T V^T (Schreiber & Van Loan, SIAM J.
Sci. Stat. Comput. 10(1), 1989).  Then the small R is decomposed, and
Q is applied block by block (``dgemqrt``) to only the k leading left
singular vectors of R that a build can keep; every singular value is
still computed, so rank and energy tests see the whole spectrum.  Mode
signs are normalized so each mode's largest-magnitude entry is
positive, making bases deterministic across runs and platforms.

The small SVD of R depends on R alone, not on k (Chan's R-SVD, ACM
TOMS 8(1), 1982), so builds that decompose the same window slice at
several mode caps (a cap sweep over one recording) reuse it.  A
snapshot matrix registers its data array with ``memoize_slices``;
``thin_svd`` then keeps, for each slice that is a view of that array,
a digest of R with its left singular vectors and singular values
(p x p + p floats for a slice of min(rows, cols) = p), and a later
call on the same slice skips the small SVD when its freshly factored R
has that digest.  The QR and the application of Q run on every call,
so the result is bitwise that of a fresh decomposition, also after the
data was edited in place (R, and so the digest, then differ).  The
kept SVDs are freed with the array; pooled copies and other arrays
are never kept.
"""

import hashlib
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (AllZeroSpectrum, BreakdownInEigensolve, EmptySlice,
                     ShapeMismatch)

# Numerical-rank rule: sigma_i below this multiple of sigma_1 counts as zero.
RANK_RTOL = 1e-13
_ORTHO_TOL = 1e-12
# Column block of the window QR, capped at min(rows, cols).  On a
# 1600 x 148 dam-break window slice (1 BLAS thread, 2-core shared host),
# dgeqrt took 1.4 ms at 32 against 1.8 ms at 16, 1.5 at 48, 1.6 at 64
# and 2.2 as one block of 148, and dgeqrf 3.3-3.5 ms; on a busier run,
# 16-64 were within noise of each other (2.3-3.3 ms), one block took
# 3.0-4.5 ms and dgeqrf 4.5-6.0 ms.
_QR_BLOCK = 32
# Small SVDs of the slices of registered arrays: id(array) -> {slice key:
# (digest of R, u_r, s)}.  An array's entry is dropped when it is freed.
_SLICE_SVDS: dict[int, dict] = {}


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


def thin_svd(data: np.ndarray, k: int | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Leading k left singular vectors (signs fixed) and all singular
    values of a slice.  k is clamped to [1, min(rows, cols)], like the
    mode count of ``select_modes``; k = None forms all min(rows, cols)
    vectors."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise EmptySlice("snapshot slice is empty")
    if not np.isfinite(data).all():
        raise BreakdownInEigensolve("snapshot slice holds NaN or Inf")
    n, c = data.shape
    p = min(n, c)
    k = p if k is None else min(max(int(k), 1), p)
    qr, t, info = lapack.dgeqrt(min(_QR_BLOCK, p), data)
    _check_info("dgeqrt", info)
    u_r, s = _small_svd(np.triu(qr[:p]), data)
    lead = np.zeros((n, k), order="F")
    lead[:p] = u_r[:, :k]
    u, info = lapack.dgemqrt(qr[:, :p], t, lead, overwrite_c=1)
    _check_info("dgemqrt", info)
    return _fix_signs(u), s


def memoize_slices(array: np.ndarray) -> None:
    """Let ``thin_svd`` keep the small SVD of each slice viewing
    ``array`` for as long as the array lives."""
    key = id(array)
    if key not in _SLICE_SVDS:
        _SLICE_SVDS[key] = {}
        weakref.finalize(array, _SLICE_SVDS.pop, key, None)


def _slice_memo(data: np.ndarray):
    """(memo, slice key) when ``data`` views a registered array, else
    (None, None).  An id found in the memo is the live registered array:
    its entry goes when the array is freed, before the id can be reused."""
    base = data.base
    while isinstance(base, np.ndarray):
        memo = _SLICE_SVDS.get(id(base))
        if memo is not None:
            offset = (data.__array_interface__["data"][0]
                      - base.__array_interface__["data"][0])
            return memo, (offset, data.shape, data.strides)
        base = base.base
    return None, None


def _small_svd(r: np.ndarray, data: np.ndarray):
    """Left singular vectors and singular values of the triangle R of
    ``data``, reused from an earlier call on the same slice when R is
    bitwise what it was then.  The caller gets its own copy of s."""
    memo, key = _slice_memo(data)
    if memo is not None:
        digest = hashlib.sha256(np.ascontiguousarray(r)).digest()
        entry = memo.get(key)
        if entry is not None and entry[0] == digest:
            return entry[1], entry[2].copy()
    try:
        u_r, s, _ = scipy.linalg.svd(r, full_matrices=False,
                                     check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise BreakdownInEigensolve(str(exc)) from exc
    if memo is not None:
        memo[key] = (digest, u_r, s.copy())
    return u_r, s


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise BreakdownInEigensolve(f"{routine} returned info={info}")


def pod_basis(u: np.ndarray, s: np.ndarray, rank: int, m: int, *,
              variable_id: str = "", window_index: int = 0,
              eps_pod: float = float("nan")) -> PodBasis:
    """Basis of the first m columns of u, with the spectrum up to
    max(rank, m) and the energy fraction those modes capture.  m may
    exceed rank when a unified mode count pads a rank-deficient slice."""
    total = float(np.sum(s[:max(rank, 1)] ** 2))
    captured = float(np.sum(s[:m] ** 2) / total) if total > 0 else 1.0
    return PodBasis(variable_id=variable_id, modes=u[:, :m],
                    singular_values=s[:max(rank, m)].copy(),
                    window_index=window_index,
                    energy_captured=min(captured, 1.0), eps_pod=eps_pod)


def compute_basis(data: np.ndarray, eps_pod: float, *, variable_id: str = "",
                  window_index: int = 0, m_max: int | None = None) -> PodBasis:
    """POD basis of a snapshot slice via thin SVD."""
    data = np.asarray(data, dtype=float)
    u, s = thin_svd(data, m_max)
    rank = numerical_rank(s, *data.shape)
    m = select_modes(s, eps_pod, m_max=m_max)
    return pod_basis(u, s, rank, m, variable_id=variable_id,
                     window_index=window_index, eps_pod=eps_pod)


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
    """Flip each column so its largest-magnitude entry is positive."""
    cols = np.arange(modes.shape[1])
    lead = modes[np.argmax(np.abs(modes), axis=0), cols]
    modes *= np.where(lead < 0.0, -1.0, 1.0)
    return modes


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

