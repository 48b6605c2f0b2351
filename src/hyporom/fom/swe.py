"""Shallow water equations with bathymetry and Manning friction.

    h_t + q_x = 0
    q_t + (q^2/h + g h^2/2)_x = -g h z_x - g n_b^2 q|q| / h^(7/3)

Two first-order schemes, both exactly well-balanced for water at rest
(u = 0, eta = h + z constant): a PVM-0 flux whose viscosity acts on the
free surface eta, and the HLL flux with per-interface fan coefficients.
Free boundaries replicate (h, q, z) into the ghost cells, which is the
stationary extension of a lake-at-rest edge state.

The pointwise closures ``hll_fan``, ``friction_kernel`` and
``bed_profile`` are defined here once; the reduced model calls them at
its DEIM points and in its assemblers.

``SweModel`` (fom/driver.py) is the entry to the schemes.  A ``SweState``
is checked when it is built (finite values, positive depth) and owns
read-only arrays, so every state a step reads or returns is valid.  The
auxiliary snapshots of a run (u, f, the HLL fan) are derived from its
recorded h and q afterwards by the same closures (``_derived_fields``).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (ConfigError, DegenerateWaveFan, NonFiniteState,
                      NonPositiveDepth, ShapeMismatch)
from ..fluxes import FluxChoice, pvm0_constant
from ..grid import Grid1D

_FAN_TOL = 1e-12
# Columns per block of ``_derived_fields``.  On the HLL recording of the
# 1600-cell dam break (739 columns, 1 BLAS thread, 2-core shared host;
# three runs, median of 7 each) the derivation took 0.055-0.067 s at 16
# columns, 0.055-0.060 s at 32, 0.063-0.079 s at 64 and 0.11-0.14 s at
# 256: a small block's temporaries stay in cache.
_DERIVE_COLS = 16


def flat_bottom(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class SweParams:
    g: float = 9.81
    n_b: float = 0.0
    nu: float = 0.9
    bathymetry: Callable = flat_bottom

    def __post_init__(self):
        if self.g <= 0.0:
            raise ConfigError("gravity must be positive")
        if self.n_b < 0.0:
            raise ConfigError("Manning coefficient must be >= 0")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError("nu must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class SweState:
    """Depth h and discharge q per cell.  Construction checks the state
    and makes both arrays read-only in place (a float array is kept, not
    copied), so a state is valid for its whole life; to edit one, build a
    new state."""

    h: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if h.shape != q.shape:
            raise ShapeMismatch("h and q must have the same shape")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(q))):
            raise NonFiniteState("SWE state contains NaN/Inf")
        if np.any(h <= 0.0):
            raise NonPositiveDepth("water depth must be positive everywhere")
        h.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "q", q)

    def __reduce__(self):
        return SweState, (self.h, self.q)


def lake_at_rest(params: SweParams, grid: Grid1D, eta: float = 0.0) -> SweState:
    """Water-at-rest state with free surface eta over the given bathymetry."""
    h = eta - params.bathymetry(grid.centers)
    return SweState(h=h, q=np.zeros_like(h))


def _max_speed(state: SweState, g: float) -> float:
    u = state.q / state.h
    c = np.sqrt(g * state.h)
    return float(np.max(np.abs(u) + c))


def _roe(h_l, h_r, u_l, u_r, root_l, root_r):
    """Roe averages of positive depths, given their square roots."""
    h_tilde = 0.5 * (h_l + h_r)
    u_tilde = (root_r * u_r + root_l * u_l) / (root_r + root_l)
    return h_tilde, u_tilde


def _fan_coeffs(s_l, s_r):
    """(alpha0, alpha1) of float-array fans (S_L, S_R).  Each interface is
    degenerate when its gap is below _FAN_TOL * max(1, |S_L|, |S_R|) of
    its own speeds."""
    gap = s_r - s_l
    abs_l = np.abs(s_l)
    abs_r = np.abs(s_r)
    if (gap < _FAN_TOL * np.maximum(1.0, np.maximum(abs_l, abs_r))).any():
        raise DegenerateWaveFan("HLL wave speeds are not separated")
    return (s_r * abs_l - s_l * abs_r) / gap, (abs_r - abs_l) / gap


def hll_fan(h_l, h_r, u_l, u_r, root_l, root_r, c_l, c_r, g):
    """(h_tilde, u_tilde, alpha0, alpha1) of the interfaces between the
    given left and right depths, velocities, sqrt(h) and sqrt(g h).  The
    Davis speed estimates take the one-sided speeds and the Roe speed, so
    the Roe averages are formed once and serve both."""
    h_t, u_t = _roe(h_l, h_r, u_l, u_r, root_l, root_r)
    c_t = np.sqrt(g * h_t)
    s_l = np.minimum(u_l - c_l, u_t - c_t)
    s_r = np.maximum(u_r + c_r, u_t + c_t)
    a0, a1 = _fan_coeffs(s_l, s_r)
    return h_t, u_t, a0, a1


def friction_kernel(h, q):
    """Manning friction kernel |q| / h^(7/3)."""
    return np.abs(q) / h ** (7.0 / 3.0)


def _pad(a: np.ndarray) -> np.ndarray:
    """Cell array extended by one ghost cell per side replicating the edge."""
    return np.concatenate(([a[0]], a, [a[-1]]))


def bed_profile(params: SweParams, grid: Grid1D):
    """Ghost-replicated bed zg and its jump zg[1:] - zg[:-1] at every
    interface: everything the schemes read of the bathymetry."""
    zg = _pad(np.asarray(params.bathymetry(grid.centers), dtype=float))
    return zg, np.diff(zg)


def _fan(hg, ug, g):
    """``hll_fan`` at every interface of a state's ghost-padded h and u."""
    root = np.sqrt(hg)
    c = np.sqrt(g * hg)
    return hll_fan(hg[:-1], hg[1:], ug[:-1], ug[1:], root[:-1], root[1:],
                   c[:-1], c[1:], g)


def interface_fan(state: SweState, params: SweParams, grid: Grid1D):
    """(h_tilde, u_tilde, alpha0, alpha1) at all n_cells+1 interfaces of
    the state, ghosts replicated: the fan data an HLL step uses."""
    hg = _pad(state.h)
    return _fan(hg, _pad(state.q) / hg, params.g)


def _derived_fields(h, q, g: float, hll: bool) -> dict:
    """u = q/h, f = ``friction_kernel`` and, with ``hll``, the fan at the
    n_cells+1 interfaces of every column of the recorded h and q, formed
    ``_DERIVE_COLS`` columns at a time into F-order arrays.  Each column
    is bitwise what the closures give for its own state."""
    n, cols = h.shape
    fan = ("alpha0", "alpha1", "htilde", "utilde") if hll else ()
    out = {name: np.empty((n + (name in fan), cols), order="F")
           for name in ("u", "f") + fan}
    for start in range(0, cols, _DERIVE_COLS):
        blk = slice(start, start + _DERIVE_COLS)
        hb, qb = h[:, blk], q[:, blk]
        np.divide(qb, hb, out=out["u"][:, blk])
        out["f"][:, blk] = friction_kernel(hb, qb)
        if hll:
            hg = _pad(hb)
            (out["htilde"][:, blk], out["utilde"][:, blk],
             out["alpha0"][:, blk], out["alpha1"][:, blk]) = \
                _fan(hg, _pad(qb) / hg, g)
    return out


def _friction(state: SweState, params: SweParams, dt: float) -> np.ndarray:
    if params.n_b == 0.0:
        return np.zeros_like(state.q)
    return dt * params.g * params.n_b ** 2 * state.q * np.abs(state.q) \
        / state.h ** (7.0 / 3.0)


def _bed_slope(hg, dz, lam, g):
    # Centered path-conservative source: -(g dt / 4 dx) * sum of side terms.
    h = hg[1:-1]
    side = (hg[2:] + h) * dz[1:] + (h + hg[:-2]) * dz[:-1]
    return -0.25 * g * lam * side


def _lf_step(state: SweState, params: SweParams, grid: Grid1D, dt: float,
             flux: FluxChoice, bed) -> SweState:
    """PVM-0 step of the state over the bed ``bed_profile`` gives."""
    dx = grid.dx
    lam = dt / dx
    g = params.g
    hg, qg = _pad(state.h), _pad(state.q)
    etag = hg + bed[0]
    h, q = state.h, state.q

    if flux is FluxChoice.RUSANOV:
        ug = qg / hg
        root = np.sqrt(hg)
        h_t, u_t = _roe(hg[:-1], hg[1:], ug[:-1], ug[1:], root[:-1], root[1:])
        a0 = np.abs(u_t) + np.sqrt(g * h_t)
    else:
        a0 = np.full(grid.n_cells + 1, pvm0_constant(flux, params.nu, dx, dt))

    eta_jump = etag[1:] - etag[:-1]
    q_jump = qg[1:] - qg[:-1]

    h_new = h - 0.5 * lam * (qg[2:] - qg[:-2]) \
        + 0.5 * lam * (a0[1:] * eta_jump[1:] - a0[:-1] * eta_jump[:-1])

    mom = qg * qg / hg + 0.5 * g * hg * hg
    q_new = q - 0.5 * lam * (mom[2:] - mom[:-2]) \
        + 0.5 * lam * (a0[1:] * q_jump[1:] - a0[:-1] * q_jump[:-1]) \
        + _bed_slope(hg, bed[1], lam, g) \
        - _friction(state, params, dt)

    return SweState(h=h_new, q=q_new)


def _hll_step(state: SweState, params: SweParams, grid: Grid1D, dt: float,
              bed) -> SweState:
    """HLL step of the state over the bed ``bed_profile`` gives."""
    lam = dt / grid.dx
    g = params.g
    hg, qg = _pad(state.h), _pad(state.q)
    etag = hg + bed[0]
    h, q = state.h, state.q

    h_t, u_t, a0, a1 = _fan(hg, qg / hg, g)
    # Momentum weight of the degree-1 term applied to the eta jump.
    wgt = -u_t * u_t + g * h_t

    eta_jump = etag[1:] - etag[:-1]
    q_jump = qg[1:] - qg[:-1]

    h_new = h - 0.5 * lam * (qg[2:] - qg[:-2]) \
        + 0.5 * lam * (a0[1:] * eta_jump[1:] - a0[:-1] * eta_jump[:-1]) \
        + 0.5 * lam * (a1[1:] * q_jump[1:] - a1[:-1] * q_jump[:-1])

    mom = qg * qg / hg + 0.5 * g * hg * hg
    q_new = q - 0.5 * lam * (mom[2:] - mom[:-2]) \
        + 0.5 * lam * (a1[1:] * wgt[1:] * eta_jump[1:]
                       - a1[:-1] * wgt[:-1] * eta_jump[:-1]) \
        + 0.5 * lam * (a0[1:] * q_jump[1:] - a0[:-1] * q_jump[:-1]) \
        + lam * (a1[1:] * u_t[1:] * q_jump[1:]
                 - a1[:-1] * u_t[:-1] * q_jump[:-1]) \
        + _bed_slope(hg, bed[1], lam, g) \
        - _friction(state, params, dt)

    return SweState(h=h_new, q=q_new)
