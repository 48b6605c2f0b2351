"""Galerkin reduction of the Burgers scheme: quadratic terms become
M x M x M tensors contracted with the coefficient vector.

Each tensor is one ``project_outer`` call (a GEMM over bounded row
blocks); the three-point advection stencil is applied to the test
functions with ``stencil_weights``.  The step is the compiled form of
operators.py: B (nu factored out, factor nu/2 per step) in the linear
block, and the tensors A (-1/(4dx) per unit dt) and C (1/(2dx)) on
(w, w) contracted together in one GEMV.
"""

import numpy as np

from ..fom.burgers import BurgersParams, ghost_factors
from ..grid import Grid1D
from ..pod import PodBasis
from .operators import (RomOperators, Term, advance, compile_terms,
                        contract_quadratic, pad_rows, project_outer,
                        stencil_weights)


def assemble_burgers_rom(basis: PodBasis, params: BurgersParams,
                         grid: Grid1D) -> RomOperators:
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
    vis = phig[2:] * em - phig[1:-1] * (ep + em) + phig[:-2] * ep
    terms = {
        "B": Term(phi.T @ vis, "w", ("w",), 0.5 * params.nu, 0.0),
        "A": Term(project_outer(adv, phig, phig), "w", ("w", "w"),
                  0.0, -0.25 / dx),
        "C": Term((big_ep - big_em) * project_outer(phi, phi, phi), "w",
                  ("w", "w"), 0.0, 0.5 / dx)}
    return compile_terms(terms, ("w",), ("w",), basis.m)


def rom_burgers_step(x: np.ndarray, ops: RomOperators, ctx: None,
                     dt: float) -> np.ndarray:
    return advance(x, x, ops, dt, contract_quadratic)
