"""Burgers equation with a quadratic source: w_t + (w^2/2)_x = alpha*w^2.

Equilibria are w*(x) = w_i exp(alpha(x - x_i)); the flux part acts on w^2
with weights e^{+-alpha*dx} while the viscosity acts on w with half
exponents, so the scheme is exactly well-balanced for the whole family.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteState, UnsupportedSystem
from ..fluxes import FluxChoice, pvm0_constant
from ..grid import Grid1D


@dataclass(frozen=True)
class BurgersParams:
    alpha: float = 0.0
    nu: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ConfigError("nu must lie in (0, 1]")


def burgers_stationary(params: BurgersParams, anchor_value: float,
                       anchor_x: float, x):
    return anchor_value * np.exp(params.alpha * (np.asarray(x) - anchor_x))


def burgers_max_speed(w: np.ndarray, params: BurgersParams) -> float:
    if not np.all(np.isfinite(w)):
        raise NonFiniteState("burgers state contains NaN/Inf")
    return float(np.max(np.abs(w)))


def ghost_factors(params: BurgersParams, dx: float) -> tuple[float, float]:
    r = params.alpha * dx
    return np.exp(-r), np.exp(r)


def burgers_step(w: np.ndarray, params: BurgersParams, grid: Grid1D,
                 dt: float, flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS
                 ) -> np.ndarray:
    if flux is FluxChoice.HLL:
        raise UnsupportedSystem("HLL flux is only defined for the SWE system")
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NonFiniteState("burgers state contains NaN/Inf")
    dx = grid.dx
    alpha = params.alpha
    Em = np.exp(-alpha * dx)
    Ep = np.exp(alpha * dx)
    em = np.exp(-alpha * dx / 2.0)
    ep = np.exp(alpha * dx / 2.0)
    gl, gr = ghost_factors(params, dx)
    wg = np.concatenate(([w[0] * gl], w, [w[-1] * gr]))
    wg2 = wg * wg
    w2 = w * w

    adv = wg2[2:] * Em + w2 * (Ep - Em) - wg2[:-2] * Ep
    jump = wg[1:] * em - wg[:-1] * ep
    if flux is FluxChoice.RUSANOV:
        a0 = np.abs(0.5 * (wg[1:] + wg[:-1]))  # Roe speed of the quadratic flux
    else:
        a0 = np.full(grid.n_cells + 1, pvm0_constant(flux, params.nu, dx, dt))
    visc = a0[1:] * jump[1:] - a0[:-1] * jump[:-1]
    src = w2 * (Ep - Em)

    lam = dt / dx
    return w - 0.25 * lam * adv + 0.5 * lam * visc + 0.5 * lam * src
