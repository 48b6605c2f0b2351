"""Reduced SWE model: the core both fluxes share, and the PVM-0
(modified Lax-Friedrichs) viscosity.

The PVM-0 and HLL schemes differ only in their numerical viscosity, so
one core serves both (``assemble_swe``, ``step_swe``).  Per window it
holds A (mass flux) for the h-equation and, for the q-equation, E
(pressure), G (bed slope), the momentum flux and a friction operator H.
The momentum flux and H come in three flavours:

    tav             u and the friction kernel replaced by window means;
                    Dbar matrix + friction vector H
    deim_u_tav_f    u updated by DEIM, |u|/h^(4/3) window-averaged;
                    D tensor + friction matrix H
    deim_u_deim_f   u and f = |q|/h^(7/3) both updated by DEIM;
                    D tensor + friction tensor H

The step reads the flavour off the operators the window holds.  PVM-0
adds its constant-coefficient viscosity, scaled by nu: B and the
bathymetry vector C on h, F on q; the HLL fan terms are in swe_hll.py.

The tensors E, D and H are each one ``project_outer`` call (a GEMM over
bounded row blocks, see operators.py); for E and D the central
difference of the padded products is moved onto the q test functions.
"""

import numpy as np

from ..errors import MissingAuxBasis, UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import (LIN_DEIM_U_TAV_F, LIN_TAV, LINEARIZATIONS,
                      SweRomContext, refresh_f, refresh_u)
from .operators import (RomOperators, TimeAverages, contract_quadratic,
                        pad_rows, project_outer, stencil_weights)

# Central difference over padded rows, x[i+2] - x[i], moved onto the modes.
_CENTRAL = {2: 1, 0: -1}


def bed_rows(params: SweParams, grid: Grid1D) -> np.ndarray:
    """Bathymetry at the cell centres with replicated ghost rows."""
    return pad_rows(np.asarray(params.bathymetry(grid.centers), dtype=float))


def assemble_swe(system: str, bases: dict, params: SweParams, grid: Grid1D,
                 linearization: str, averages: TimeAverages, window_index: int,
                 matrices: dict, vectors: dict, tensors: dict) -> RomOperators:
    """Window operators: the flux's own viscosity blocks (the three dicts)
    plus A, E, G, the momentum flux and friction H, which every flux
    shares."""
    if linearization not in LINEARIZATIONS:
        raise UnsupportedSystem(f"unknown linearization {linearization!r}")
    phih = bases["h"].modes
    phiq = bases["q"].modes
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    zg = bed_rows(params, grid)
    z = zg[1:-1]
    central = stencil_weights(phiq, _CENTRAL)

    matrices["A"] = phih.T @ (phiqg[2:] - phiqg[:-2])
    tensors["E"] = project_outer(central, phihg, phihg)
    dz_r = (zg[2:] - z)[:, None]
    dz_l = (z - zg[:-2])[:, None]
    matrices["G"] = phiq.T @ ((phihg[2:] + phih) * dz_r
                              + (phih + phihg[:-2]) * dz_l)

    if linearization == LIN_TAV:
        weighted = pad_rows(averages["u"])[:, None] * phiqg
        matrices["Dbar"] = phiq.T @ (weighted[2:] - weighted[:-2])
    else:
        if "u" not in bases:
            raise MissingAuxBasis(f"{linearization} needs a u basis")
        tensors["D"] = project_outer(central, pad_rows(bases["u"].modes),
                                     phiqg)

    if params.n_b > 0.0:
        if linearization == LIN_TAV:
            u_bar = averages["u"]
            vectors["H"] = phiq.T @ (np.abs(u_bar) * u_bar
                                     / averages["h"] ** (1.0 / 3.0))
        elif linearization == LIN_DEIM_U_TAV_F:
            kern = np.abs(averages["u"]) / averages["h"] ** (4.0 / 3.0)
            matrices["H"] = phiq.T @ (kern[:, None] * phiq)
        else:
            if "f" not in bases:
                raise MissingAuxBasis("deim_u_deim_f needs an f basis")
            tensors["H"] = project_outer(phiq, phiq, bases["f"].modes)

    return RomOperators(system=system, window_index=window_index,
                        m=bases["h"].m, matrices=matrices, vectors=vectors,
                        tensors3=tensors,
                        scalars={"dx": grid.dx, "g": params.g,
                                 "n_b": params.n_b, "nu": params.nu})


def step_swe(h_hat: np.ndarray, q_hat: np.ndarray, ops: RomOperators,
             ctx: SweRomContext, dt: float, visc_h, visc_q):
    """One reduced step: the shared fluxes, bed slope and friction plus the
    flux's viscosity increments ``visc_h`` and ``visc_q``."""
    s = ops.scalars
    lam = dt / s["dx"]
    g = s["g"]
    mats, vecs, tens = ops.matrices, ops.vectors, ops.tensors3

    h_new = h_hat - 0.5 * lam * (mats["A"] @ q_hat) + visc_h

    if "Dbar" in mats:
        flux_u = mats["Dbar"] @ q_hat
    else:
        u_hat = refresh_u(ctx, h_hat, q_hat)
        flux_u = contract_quadratic(tens["D"], u_hat, q_hat)

    gnb2 = g * s["n_b"] ** 2
    if "H" in vecs:
        friction = gnb2 * vecs["H"]
    elif "H" in mats:
        friction = gnb2 * (mats["H"] @ q_hat)
    elif "H" in tens:
        f_hat = refresh_f(ctx, h_hat, q_hat)
        friction = gnb2 * contract_quadratic(tens["H"], q_hat, f_hat)
    else:
        friction = 0.0

    q_new = (q_hat - 0.5 * lam * flux_u
             - 0.25 * g * lam * contract_quadratic(tens["E"], h_hat, h_hat)
             + visc_q
             - 0.25 * g * lam * (mats["G"] @ h_hat)
             - dt * friction)
    return h_new, q_new


def assemble_swe_lf_rom(bases: dict, params: SweParams, grid: Grid1D,
                        linearization: str, averages: TimeAverages,
                        window_index: int = 0) -> RomOperators:
    phih = bases["h"].modes
    phiq = bases["q"].modes
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    zg = bed_rows(params, grid)
    return assemble_swe(
        "swe_lf", bases, params, grid, linearization, averages, window_index,
        matrices={"B": phih.T @ (phihg[2:] - 2.0 * phih + phihg[:-2]),
                  "F": phiq.T @ (phiqg[2:] - 2.0 * phiq + phiqg[:-2])},
        vectors={"C": phih.T @ (zg[2:] - 2.0 * zg[1:-1] + zg[:-2])},
        tensors={})


def rom_swe_lf_step(h_hat: np.ndarray, q_hat: np.ndarray, ops: RomOperators,
                    ctx: SweRomContext, dt: float):
    half_nu = 0.5 * ops.scalars["nu"]
    return step_swe(h_hat, q_hat, ops, ctx, dt,
                    half_nu * (ops.matrices["B"] @ h_hat + ops.vectors["C"]),
                    half_nu * (ops.matrices["F"] @ q_hat))
