"""Galerkin reduction of the transport scheme: three M x M operators.

A carries the advective stencil (factor -c/(2dx) per unit dt), B the
viscous one (nu factored out, factor nu/2 per step), C the source
weights (c/dx per unit dt); ghosts use the same stationary-extension
factors as the full-order step, so the reduced update is its exact
projection.  The step is the compiled linear block of operators.py.
"""

import numpy as np

from ..fom.transport import TransportParams, ghost_factors
from ..grid import Grid1D
from ..pod import PodBasis
from .operators import RomOperators, Term, advance, compile_terms, pad_rows


def assemble_transport_rom(basis: PodBasis, params: TransportParams,
                           grid: Grid1D) -> RomOperators:
    phi = basis.modes
    dx = grid.dx
    c, alpha = params.c, params.alpha
    em = np.exp(-alpha * dx / (2.0 * c))
    ep = np.exp(alpha * dx / (2.0 * c))
    gl, gr = ghost_factors(params, dx)
    phig = pad_rows(phi, gl, gr)

    adv = phig[2:] * em + phig[1:-1] * (ep - em) - phig[:-2] * ep
    vis = phig[2:] * em - phig[1:-1] * (ep + em) + phig[:-2] * ep
    terms = {
        "A": Term(phi.T @ adv, "w", ("w",), 0.0, -0.5 * c / dx),
        "B": Term(phi.T @ vis, "w", ("w",), 0.5 * params.nu, 0.0),
        "C": Term((ep - em) * (phi.T @ phi), "w", ("w",), 0.0, c / dx)}
    return compile_terms(terms, ("w",), ("w",), basis.m)


def rom_transport_step(x: np.ndarray, ops: RomOperators, ctx: None,
                       dt: float) -> np.ndarray:
    return advance(x, x, ops, dt)
