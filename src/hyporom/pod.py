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
several mode caps (a cap sweep over one recording) can share it.  A
caller that owns an immutable slice passes ``thin_svd`` a dict for it
(``kept``): the first call stores the left singular vectors and singular
values of R there (p x p + p floats for a slice of min(rows, cols) = p),
and later calls reuse them.  The QR and the application of Q run on
every call, so the result is bitwise that of a fresh decomposition.  The
caller keeps the dict only as long as the slice cannot change: a
recording keeps one per (variable, window) slice of its read-only data,
the derived variables included (see ``snapshots`` and ``rom.driver``).

The three LAPACK routines (``dgeqrt``, ``dgesdd`` of R with jobz 'S'
and the workspace it asks for, ``dgemqrt``) are called through
``ctypes`` on the addresses ``scipy.linalg.cython_lapack`` exports
(``_lapack``), which releases the interpreter lock for each call;
scipy's f2py wrappers hold it, so two threads calling them take turns.
The results are bitwise those of the wrappers.  ``SliceSvd`` splits a
decomposition into the checks and allocations, made by the thread that
builds it, and ``factor``, which a worker thread can run:
``rom.driver`` decomposes each window's slices in two fixed halves, the
second on a worker, so the bases are bitwise the same on one CPU or
many.
"""

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import (AllZeroSpectrum, BreakdownInEigensolve, ConfigError,
                     EmptySlice, ShapeMismatch)

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


@dataclass(eq=False)
class PodBasis:
    modes: np.ndarray                 # n_rows x m, orthonormal columns
    singular_values: np.ndarray       # all retained sigma (>= m entries)
    energy_captured: float = 1.0
    is_fallback: bool = False

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
        raise ConfigError("eps_pod must lie in (0, 1)")
    r = numerical_rank(s, len(s), len(s))
    energy = np.cumsum(s[:r] ** 2)
    target = (1.0 - eps_pod ** 2) * energy[-1]
    m = int(np.searchsorted(energy, target - 1e-15 * energy[-1]) + 1)
    m = min(m, r)
    if m_max is not None:
        m = min(m, int(m_max))
    return max(m, 1)


class SliceSvd:
    """The R-SVD of one slice in two steps.  Construction checks the
    slice, clamps k to [1, min(rows, cols)] (k = None forms all
    min(rows, cols) vectors) and allocates every array the decomposition
    writes, starting with the F-ordered copy the QR factors in place.
    ``factor`` then runs the three LAPACK calls without the GIL and
    allocates no array of the slice's size, so a worker thread can run it
    while the thread that built the object works on.  ``result`` gives
    what ``thin_svd`` returns.  ``kept`` and ``overwrite`` are as in
    ``thin_svd``."""

    def __init__(self, data: np.ndarray, k: int | None = None,
                 kept: dict | None = None, overwrite: bool = False):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.size == 0:
            raise EmptySlice("snapshot slice is empty")
        if not np.isfinite(data).all():
            raise BreakdownInEigensolve("snapshot slice holds NaN or Inf")
        n, c = data.shape
        self.p = p = min(n, c)
        self.k = p if k is None else min(max(int(k), 1), p)
        self.kept = kept
        nb = min(_QR_BLOCK, p)
        if overwrite and data.flags.f_contiguous and data.flags.writeable:
            self.qr = data
        else:
            self.qr = np.array(data, order="F")
        self.t = np.zeros((nb, p), order="F")
        self.work = np.empty(nb * c)        # k <= c: serves dgemqrt too
        self.lead = np.zeros((n, self.k), order="F")
        if not kept:
            # R in the upper trapezoid, zeros below; its thin SVD.
            self.upper = np.triu(np.ones((p, c), dtype=bool))
            self.r = np.zeros((p, c), order="F")
            self.s = np.empty(p)
            self.u = np.empty((p, p), order="F")
            self.vt = np.empty((p, c), order="F")
            self.svd_work = np.empty(_lapack.gesdd_lwork(p, c))
            self.iwork = np.empty(8 * p, dtype=np.intc)

    def factor(self) -> None:
        qr, t, p = self.qr, self.t, self.p
        _check_info("dgeqrt", _lapack.geqrt(qr, t, self.work))
        if self.kept:
            u_r, s = self.kept["svd"]
            self.s = s.copy()
        else:
            np.copyto(self.r, qr[:p], where=self.upper)
            _check_info("dgesdd", _lapack.gesdd(self.r, self.s, self.u,
                                                self.vt, self.svd_work,
                                                self.iwork))
            u_r = self.u
            if self.kept is not None:
                self.kept["svd"] = (u_r, self.s.copy())
        self.lead[:p] = u_r[:, :self.k]
        _check_info("dgemqrt", _lapack.gemqrt(qr, t, self.lead, self.work))

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        return _fix_signs(self.lead), self.s


def thin_svd(data: np.ndarray, k: int | None = None,
             kept: dict | None = None,
             overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Leading k left singular vectors (signs fixed) and all singular
    values of a slice.  k is clamped to [1, min(rows, cols)], like the
    mode count of ``select_modes``; k = None forms all min(rows, cols)
    vectors.  ``kept``, if given, holds the small SVD of this slice's R
    across calls: filled by the first call, reused by later ones.  With
    ``overwrite`` the caller hands the slice over: an F-ordered writable
    one is factored in place, without a copy, and holds the QR factors
    afterwards."""
    svd = SliceSvd(data, k, kept, overwrite)
    svd.factor()
    return svd.result()


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise BreakdownInEigensolve(f"{routine} returned info={info}")


def pod_basis(u: np.ndarray, s: np.ndarray, rank: int, m: int) -> PodBasis:
    """Basis of the first m columns of u, with the spectrum up to
    max(rank, m) and the energy fraction those modes capture.  m may
    exceed rank when a unified mode count pads a rank-deficient slice."""
    total = float(np.sum(s[:max(rank, 1)] ** 2))
    captured = float(np.sum(s[:m] ** 2) / total) if total > 0 else 1.0
    return PodBasis(modes=u[:, :m], singular_values=s[:max(rank, m)].copy(),
                    energy_captured=min(captured, 1.0))


def fallback_basis(n_rows: int, m: int = 1) -> PodBasis:
    """Deterministic basis for an identically-zero snapshot slice.

    Any orthonormal set represents the zero trajectory exactly (all
    coefficients vanish); the leading canonical vectors are used so runs
    are reproducible.
    """
    modes = np.zeros((n_rows, m))
    modes[np.arange(m), np.arange(m)] = 1.0
    return PodBasis(modes=modes, singular_values=np.zeros(m),
                    is_fallback=True)


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

