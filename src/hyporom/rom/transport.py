"""Galerkin reduction of the transport scheme: three M x M operators.

A carries the advective stencil, B the viscous one (nu factored out),
C the source weights; ghosts use the same stationary-extension factors
as the full-order step, so the reduced update is its exact projection.
"""

import numpy as np

from ..fom.transport import TransportParams, ghost_factors
from ..grid import Grid1D
from ..pod import PodBasis
from .operators import RomOperators, pad_rows


def assemble_transport_rom(basis: PodBasis, params: TransportParams,
                           grid: Grid1D, window_index: int = 0) -> RomOperators:
    phi = basis.modes
    dx = grid.dx
    c, alpha = params.c, params.alpha
    em = np.exp(-alpha * dx / (2.0 * c))
    ep = np.exp(alpha * dx / (2.0 * c))
    gl, gr = ghost_factors(params, dx)
    phig = pad_rows(phi, gl, gr)

    adv = phig[2:] * em + phig[1:-1] * (ep - em) - phig[:-2] * ep
    vis = phig[2:] * em - phig[1:-1] * (ep + em) + phig[:-2] * ep
    a_mat = phi.T @ adv
    b_mat = phi.T @ vis
    c_mat = (ep - em) * (phi.T @ phi)

    return RomOperators(system="transport", window_index=window_index,
                        m=basis.m,
                        matrices={"A": a_mat, "B": b_mat, "C": c_mat},
                        scalars={"dx": dx, "c": c, "alpha": alpha,
                                 "nu": params.nu})


def rom_transport_step(w_hat: np.ndarray, ops: RomOperators,
                       dt: float) -> np.ndarray:
    s = ops.scalars
    lam = dt / s["dx"]
    c = s["c"]
    mats = ops.matrices
    return (w_hat - 0.5 * c * lam * (mats["A"] @ w_hat)
            + 0.5 * s["nu"] * (mats["B"] @ w_hat)
            + c * lam * (mats["C"] @ w_hat))
