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
is checked when it is built (non-empty 1-D arrays, finite values,
positive depth) and owns read-only arrays, so every state a step reads
or returns is valid.  The check is one pass for the common valid state
(min and max of h, finiteness of q); only a failing state is examined
again, to raise the typed error, NaN/Inf before a non-positive depth.

Arithmetic contract: the step, its CFL speed and the fan are bitwise
pinned to a copy, in tests/oracles.py, of the form that allocated one
array per operation.  Each product at an interface is formed once over
the n_cells + 1 interfaces and then differenced across each cell, sums
keep their order of evaluation, and temporaries are reused in place
(``out=`` arithmetic); none of this changes a bit of the result.

A run records h and q only.  The auxiliary snapshots (u, f, the HLL
fan) are pointwise functions of them, formed by the same closures from
any column range of the recorded matrices (``derived_fields``): the
offline stage derives each window's slices, ``hyporom fom run`` the
whole recording.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (ConfigError, DegenerateWaveFan, NonFiniteState,
                      NonPositiveDepth, ShapeMismatch)
from ..fluxes import FluxChoice, pvm0_constant
from ..grid import Grid1D

_FAN_TOL = 1e-12
# Columns per block of ``derived_fields``.  Deriving all six fields of the
# HLL recording of the 1600-cell dam break (739 columns, 1 BLAS thread,
# 2-core shared host; three runs, median of 7 each) took 0.055-0.067 s at
# 16 columns, 0.055-0.060 s at 32, 0.063-0.079 s at 64 and 0.11-0.14 s at
# 256: a small block's temporaries stay in cache.  The offline stage
# derives per window slice (148-149 columns in the benchmark's 5-window
# builds), so a block never spans two windows.
_DERIVE_COLS = 16
# The interface fields of ``derived_fields``, in the order ``_fan`` gives
# them; they have n_cells + 1 rows.
FAN_FIELDS = ("htilde", "utilde", "alpha0", "alpha1")


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
        if h.ndim != 1 or h.size == 0:
            raise ShapeMismatch(
                f"h and q must be non-empty 1-D arrays, got shape {h.shape}")
        # Two reductions over h (NaN fails both comparisons) and one
        # finiteness pass over q; the typed checks run only on failure.
        if not (h.min() > 0.0 and h.max() < np.inf and np.isfinite(q).all()):
            if not (np.isfinite(h).all() and np.isfinite(q).all()):
                raise NonFiniteState("SWE state contains NaN/Inf")
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
    """max |u| + sqrt(g h) over the cells."""
    speed = np.divide(state.q, state.h)
    np.abs(speed, out=speed)
    c = np.multiply(state.h, g)
    np.sqrt(c, out=c)
    speed += c
    return float(speed.max())


def _roe(h_l, h_r, u_l, u_r, root_l, root_r):
    """Roe averages of positive depths, given their square roots."""
    h_tilde = np.add(h_l, h_r)
    h_tilde *= 0.5
    u_tilde = np.multiply(root_r, u_r)
    buf = np.multiply(root_l, u_l)
    u_tilde += buf
    np.add(root_r, root_l, out=buf)
    u_tilde /= buf
    return h_tilde, u_tilde


def _fan_coeffs(s_l, s_r):
    """(alpha0, alpha1) of float-array fans (S_L, S_R).  Each interface is
    degenerate when its gap is below _FAN_TOL * max(1, |S_L|, |S_R|) of
    its own speeds.  The coefficients are formed in s_r and |s_r|, and
    s_l is overwritten: pass arrays made for the call."""
    gap = np.subtract(s_r, s_l)
    abs_l = np.abs(s_l)
    abs_r = np.abs(s_r)
    tol = np.maximum(abs_l, abs_r)
    np.maximum(1.0, tol, out=tol)
    tol *= _FAN_TOL
    if (gap < tol).any():
        raise DegenerateWaveFan("HLL wave speeds are not separated")
    # alpha0 = (S_R |S_L| - S_L |S_R|) / gap, alpha1 = (|S_R| - |S_L|) / gap
    s_r *= abs_l
    s_l *= abs_r
    s_r -= s_l
    s_r /= gap
    abs_r -= abs_l
    abs_r /= gap
    return s_r, abs_r


def hll_fan(h_l, h_r, u_l, u_r, root_l, root_r, c_l, c_r, g):
    """(h_tilde, u_tilde, alpha0, alpha1) of the interfaces between the
    given left and right depths, velocities, sqrt(h) and sqrt(g h), float
    arrays of one shape with at least one dimension (the fan is formed in
    place, in arrays of that shape).  The Davis speed estimates take the
    one-sided speeds and the Roe speed, so the Roe averages are formed
    once and serve both.  The inputs are only read; every array returned
    is new."""
    h_t, u_t = _roe(h_l, h_r, u_l, u_r, root_l, root_r)
    c_t = np.multiply(h_t, g)
    np.sqrt(c_t, out=c_t)
    s_l = np.subtract(u_l, c_l)
    buf = np.subtract(u_t, c_t)
    np.minimum(s_l, buf, out=s_l)
    s_r = np.add(u_r, c_r)
    np.add(u_t, c_t, out=buf)
    np.maximum(s_r, buf, out=s_r)
    a0, a1 = _fan_coeffs(s_l, s_r)
    return h_t, u_t, a0, a1


def friction_kernel(h, q):
    """Manning friction kernel |q| / h^(7/3)."""
    return np.abs(q) / h ** (7.0 / 3.0)


def _pad(a: np.ndarray) -> np.ndarray:
    """Cell array (or block of cell columns) extended by one ghost cell per
    side replicating the edge."""
    out = np.empty((a.shape[0] + 2,) + a.shape[1:])
    out[1:-1] = a
    out[0] = a[0]
    out[-1] = a[-1]
    return out


def bed_profile(params: SweParams, grid: Grid1D):
    """Ghost-replicated bed zg and its jump zg[1:] - zg[:-1] at every
    interface: everything the schemes read of the bathymetry."""
    zg = _pad(np.asarray(params.bathymetry(grid.centers), dtype=float))
    return zg, np.diff(zg)


def _fan(hg, ug, g):
    """``hll_fan`` at every interface of a state's ghost-padded h and u."""
    root = np.sqrt(hg)
    c = np.multiply(hg, g)
    np.sqrt(c, out=c)
    return hll_fan(hg[:-1], hg[1:], ug[:-1], ug[1:], root[:-1], root[1:],
                   c[:-1], c[1:], g)


def derived_fields(h, q, g: float, names) -> dict:
    """The auxiliary fields ``names`` of the columns of h and q, each a new
    F-order array: u = q/h and f = ``friction_kernel`` with n_cells rows,
    the ``FAN_FIELDS`` at the n_cells+1 interfaces (ghosts replicated).
    They are formed ``_DERIVE_COLS`` columns at a time, one fan per block
    for all fan fields, so each column is bitwise what the closures give
    for its own state, whichever columns are derived together."""
    n, cols = h.shape
    out = {name: np.empty((n + (name in FAN_FIELDS), cols), order="F")
           for name in names}
    fan = [(k, out[name]) for k, name in enumerate(FAN_FIELDS) if name in out]
    for start in range(0, cols, _DERIVE_COLS):
        blk = slice(start, start + _DERIVE_COLS)
        hb, qb = h[:, blk], q[:, blk]
        if "u" in out:
            np.divide(qb, hb, out=out["u"][:, blk])
        if "f" in out:
            out["f"][:, blk] = friction_kernel(hb, qb)
        if fan:
            hg = _pad(hb)
            values = _fan(hg, _pad(qb) / hg, g)
            for k, a in fan:
                a[:, blk] = values[k]
    return out


def _jumps(hg, qg, zg):
    """Jumps of eta = h + z and of q at the n_cells + 1 interfaces."""
    etag = np.add(hg, zg)
    return np.subtract(etag[1:], etag[:-1]), np.subtract(qg[1:], qg[:-1])


def _centered(x, fg, scale):
    """x - scale * (fg[2:] - fg[:-2]) of a cell array x and the
    ghost-padded flux fg: the centered part of a step."""
    out = np.subtract(fg[2:], fg[:-2])
    out *= scale
    np.subtract(x, out, out=out)
    return out


def _add_diff(acc, prod, scale, buf):
    """acc += scale * (prod[1:] - prod[:-1]) of an interface product,
    through the cell-sized buffer buf."""
    np.subtract(prod[1:], prod[:-1], out=buf)
    buf *= scale
    acc += buf


def _momentum_flux(hg, qg, g):
    """q^2/h + g h^2/2 of the padded cells."""
    mom = np.multiply(qg, qg)
    mom /= hg
    pressure = np.multiply(hg, 0.5 * g)
    pressure *= hg
    mom += pressure
    return mom


def _bed_slope(hg, dz, lam, g):
    # Centered path-conservative source: -(g dt / 4 dx) * sum of the side
    # terms (h_left + h_right) * dz of the cell's two interfaces.
    side = np.add(hg[1:], hg[:-1])
    side *= dz
    src = np.add(side[1:], side[:-1])
    src *= -0.25 * g * lam
    return src


def _add_sources(q_new, state: SweState, params: SweParams, hg, dz,
                 lam: float, dt: float) -> None:
    """Add the bed slope source to q_new, then subtract Manning friction
    dt g n_b^2 q|q| / h^(7/3) (none when n_b = 0)."""
    q_new += _bed_slope(hg, dz, lam, params.g)
    if params.n_b == 0.0:
        return
    q = state.q
    friction = np.multiply(q, dt * params.g * params.n_b ** 2)
    friction *= np.abs(q)
    friction /= state.h ** (7.0 / 3.0)
    q_new -= friction


def _lf_step(state: SweState, params: SweParams, grid: Grid1D, dt: float,
             flux: FluxChoice, bed) -> SweState:
    """PVM-0 step of the state over the bed ``bed_profile`` gives."""
    dx = grid.dx
    lam = dt / dx
    half = 0.5 * lam
    g = params.g
    hg, qg = _pad(state.h), _pad(state.q)
    eta_jump, q_jump = _jumps(hg, qg, bed[0])

    if flux is FluxChoice.RUSANOV:
        ug = qg / hg
        root = np.sqrt(hg)
        h_t, a0 = _roe(hg[:-1], hg[1:], ug[:-1], ug[1:], root[:-1], root[1:])
        # alpha0 = |u_t| + sqrt(g h_t)
        np.abs(a0, out=a0)
        h_t *= g
        a0 += np.sqrt(h_t, out=h_t)
    else:
        a0 = pvm0_constant(flux, params.nu, dx, dt)
    eta_jump *= a0
    q_jump *= a0

    buf = np.empty_like(state.h)
    h_new = _centered(state.h, qg, half)
    _add_diff(h_new, eta_jump, half, buf)
    q_new = _centered(state.q, _momentum_flux(hg, qg, g), half)
    _add_diff(q_new, q_jump, half, buf)
    _add_sources(q_new, state, params, hg, bed[1], lam, dt)
    return SweState(h=h_new, q=q_new)


def _hll_step(state: SweState, params: SweParams, grid: Grid1D, dt: float,
              bed) -> SweState:
    """HLL step of the state over the bed ``bed_profile`` gives."""
    lam = dt / grid.dx
    half = 0.5 * lam
    g = params.g
    hg, qg = _pad(state.h), _pad(state.q)
    eta_jump, q_jump = _jumps(hg, qg, bed[0])

    h_t, u_t, a0, a1 = _fan(hg, qg / hg, g)
    # Momentum weight -u_t^2 + g h_t of the degree-1 term on the eta jump.
    wgt = np.negative(u_t)
    wgt *= u_t
    h_t *= g
    wgt += h_t

    buf = np.empty_like(state.h)
    prod = np.multiply(a0, eta_jump)
    h_new = _centered(state.h, qg, half)
    _add_diff(h_new, prod, half, buf)
    np.multiply(a1, q_jump, out=prod)
    _add_diff(h_new, prod, half, buf)

    q_new = _centered(state.q, _momentum_flux(hg, qg, g), half)
    np.multiply(a1, wgt, out=prod)
    prod *= eta_jump
    _add_diff(q_new, prod, half, buf)
    np.multiply(a0, q_jump, out=prod)
    _add_diff(q_new, prod, half, buf)
    np.multiply(a1, u_t, out=prod)
    prod *= q_jump
    _add_diff(q_new, prod, lam, buf)
    _add_sources(q_new, state, params, hg, bed[1], lam, dt)
    return SweState(h=h_new, q=q_new)
