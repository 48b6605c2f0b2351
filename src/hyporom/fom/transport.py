"""Linear advection with a linear source term: w_t + c w_x = alpha*w.

The scheme is the first-order exactly well-balanced update built from the
equilibrium reconstruction w*(x) = w_i exp((alpha/c)(x - x_i)); interface
values carry the weights e^{+-alpha*dx/(2c)} so every member of the
stationary family is a discrete fixed point.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteState, UnsupportedSystem
from ..fluxes import FluxChoice, pvm0_constant
from ..grid import Grid1D


@dataclass(frozen=True)
class TransportParams:
    c: float
    alpha: float = 0.0
    nu: float = 0.9

    def __post_init__(self):
        if self.c == 0.0:
            raise ConfigError("advection speed c must be nonzero")
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError("nu must lie in (0, 1]")


def transport_stationary(params: TransportParams, anchor_value: float,
                         anchor_x: float, x):
    """Stationary solution through (anchor_x, anchor_value) evaluated at x."""
    return anchor_value * np.exp((params.alpha / params.c) * (np.asarray(x) - anchor_x))


def transport_max_speed(w: np.ndarray, params: TransportParams) -> float:
    if not np.all(np.isfinite(w)):
        raise NonFiniteState("transport state contains NaN/Inf")
    return abs(params.c)


def ghost_factors(params: TransportParams, dx: float) -> tuple[float, float]:
    """Stationary-extension scale factors for the left/right ghost cells."""
    r = params.alpha * dx / params.c
    return np.exp(-r), np.exp(r)


def _interface_alpha0(params, grid, dt, flux):
    n_if = grid.n_cells + 1
    if flux is FluxChoice.RUSANOV:
        # Roe matrix of a linear flux is c itself at every interface.
        return np.full(n_if, abs(params.c))
    return np.full(n_if, pvm0_constant(flux, params.nu, grid.dx, dt))


def transport_step(w: np.ndarray, params: TransportParams, grid: Grid1D,
                   dt: float, flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS
                   ) -> np.ndarray:
    """One explicit EWB step; free boundaries via stationary-extension ghosts."""
    if flux is FluxChoice.HLL:
        raise UnsupportedSystem("HLL flux is only defined for the SWE system")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NonFiniteState("transport state contains NaN/Inf")
    dx = grid.dx
    c, alpha = params.c, params.alpha
    em = np.exp(-alpha * dx / (2.0 * c))
    ep = np.exp(alpha * dx / (2.0 * c))
    gl, gr = ghost_factors(params, dx)
    wg = np.concatenate(([w[0] * gl], w, [w[-1] * gr]))

    adv = wg[2:] * em + w * (ep - em) - wg[:-2] * ep
    # Reconstructed jump at interface j (left cell j-1, right cell j).
    jump = wg[1:] * em - wg[:-1] * ep
    a0 = _interface_alpha0(params, grid, dt, flux)
    visc = a0[1:] * jump[1:] - a0[:-1] * jump[:-1]
    src = w * (ep - em)

    lam = dt / dx
    return w - 0.5 * c * lam * adv + 0.5 * lam * visc + c * lam * src
