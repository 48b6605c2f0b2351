"""Galerkin reduction of the Burgers scheme: quadratic terms become
M x M x M tensors contracted with the coefficient vector twice per step.

Each tensor is one ``project_outer`` call (a GEMM over bounded row
blocks); the three-point advection stencil is applied to the test
functions with ``stencil_weights``.
"""

import numpy as np

from ..fom.burgers import BurgersParams, ghost_factors
from ..grid import Grid1D
from ..pod import PodBasis
from .operators import (RomOperators, contract_quadratic, pad_rows,
                        project_outer, stencil_weights)


def assemble_burgers_rom(basis: PodBasis, params: BurgersParams,
                         grid: Grid1D, window_index: int = 0) -> RomOperators:
    phi = basis.modes
    dx = grid.dx
    alpha = params.alpha
    big_em = np.exp(-alpha * dx)
    big_ep = np.exp(alpha * dx)
    em = np.exp(-alpha * dx / 2.0)
    ep = np.exp(alpha * dx / 2.0)
    gl, gr = ghost_factors(params, dx)
    phig = pad_rows(phi, gl, gr)

    # Quadratic products of padded modes; the ghost rows already carry the
    # stationary-extension scaling, so squares inherit it squared.
    adv = stencil_weights(phi, {2: big_em, 1: big_ep - big_em, 0: -big_ep})
    a_t = project_outer(adv, phig, phig)
    c_t = (big_ep - big_em) * project_outer(phi, phi, phi)
    vis = phig[2:] * em - phig[1:-1] * (ep + em) + phig[:-2] * ep
    b_mat = phi.T @ vis

    return RomOperators(system="burgers", window_index=window_index,
                        m=basis.m, matrices={"B": b_mat},
                        tensors3={"A": a_t, "C": c_t},
                        scalars={"dx": dx, "alpha": alpha, "nu": params.nu})


def rom_burgers_step(w_hat: np.ndarray, ops: RomOperators, dt: float,
                     nu: float | None = None) -> np.ndarray:
    s = ops.scalars
    lam = dt / s["dx"]
    if nu is None:
        nu = s["nu"]
    quad_a = contract_quadratic(ops.tensors3["A"], w_hat, w_hat)
    quad_c = contract_quadratic(ops.tensors3["C"], w_hat, w_hat)
    return (w_hat - 0.25 * lam * quad_a
            + 0.5 * nu * (ops.matrices["B"] @ w_hat)
            + 0.5 * lam * quad_c)
