"""Reduced SWE model for the PVM-0 (modified Lax-Friedrichs) scheme.

Operators (per window): A, B and the bathymetry vector C drive the
h-equation; D (momentum flux), E (pressure), F (viscosity), G (bed
slope) and a friction operator drive the q-equation.  The friction and
the u-weighted flux come in three flavours:

    tav             u and the friction kernel replaced by window means;
                    Dbar matrix + friction vector H
    deim_u_tav_f    u updated by DEIM, |u|/h^(4/3) window-averaged;
                    D tensor + friction matrix H
    deim_u_deim_f   u and f = |q|/h^(7/3) both updated by DEIM;
                    D tensor + friction tensor H

The tensors E, D and H are each one ``project_outer`` call (a GEMM over
bounded row blocks, see operators.py); for E and D the central
difference of the padded products is moved onto the q test functions.
"""

import numpy as np

from ..errors import MissingAuxBasis
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import (LIN_DEIM_U_TAV_F, LIN_TAV, LINEARIZATIONS,
                      SweRomContext, refresh_f, refresh_u)
from .operators import (RomOperators, TimeAverages, contract_quadratic,
                        pad_rows, project_outer, stencil_weights)

# Central difference over padded rows, x[i+2] - x[i], moved onto the modes.
_CENTRAL = {2: 1, 0: -1}


def _h_equation(phih, phiq, z, zg):
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    a_mat = phih.T @ (phiqg[2:] - phiqg[:-2])
    b_mat = phih.T @ (phihg[2:] - 2.0 * phih + phihg[:-2])
    c_vec = phih.T @ (zg[2:] - 2.0 * z + zg[:-2])
    return a_mat, b_mat, c_vec


def _q_equation(phih, phiq, z, zg):
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    e_t = project_outer(stencil_weights(phiq, _CENTRAL), phihg, phihg)
    f_mat = phiq.T @ (phiqg[2:] - 2.0 * phiq + phiqg[:-2])
    dz_r = (zg[2:] - z)[:, None]
    dz_l = (z - zg[:-2])[:, None]
    g_mat = phiq.T @ ((phihg[2:] + phih) * dz_r + (phih + phihg[:-2]) * dz_l)
    return e_t, f_mat, g_mat


def _momentum_flux(phiq, phiu):
    """D tensor: central difference of the reconstructed u*q product."""
    return project_outer(stencil_weights(phiq, _CENTRAL), pad_rows(phiu),
                         pad_rows(phiq))


def _momentum_flux_tav(phiq, u_bar):
    phiqg = pad_rows(phiq)
    weighted = pad_rows(u_bar)[:, None] * phiqg
    return phiq.T @ (weighted[2:] - weighted[:-2])


def _friction_ops(linearization, phiq, bases, averages):
    """Friction operator H as one (table, name, array) entry: a vector,
    matrix or tensor depending on the linearization."""
    if linearization == LIN_TAV:
        kern = np.abs(averages["u"]) * averages["u"] / averages["h"] ** (1.0 / 3.0)
        return "vectors", "H", phiq.T @ kern
    if linearization == LIN_DEIM_U_TAV_F:
        kern = np.abs(averages["u"]) / averages["h"] ** (4.0 / 3.0)
        return "matrices", "H", phiq.T @ (kern[:, None] * phiq)
    if "f" not in bases:
        raise MissingAuxBasis("deim_u_deim_f needs an f basis")
    phif = bases["f"].modes
    return "tensors3", "H", project_outer(phiq, phiq, phif)


def assemble_swe_lf_rom(bases: dict, params: SweParams, grid: Grid1D,
                        linearization: str, averages: TimeAverages,
                        window_index: int = 0) -> RomOperators:
    if linearization not in LINEARIZATIONS:
        raise ValueError(f"unknown linearization {linearization!r}")
    phih = bases["h"].modes
    phiq = bases["q"].modes
    z = np.asarray(params.bathymetry(grid.centers), dtype=float)
    zg = pad_rows(z)

    a_mat, b_mat, c_vec = _h_equation(phih, phiq, z, zg)
    e_t, f_mat, g_mat = _q_equation(phih, phiq, z, zg)

    matrices = {"A": a_mat, "B": b_mat, "F": f_mat, "G": g_mat}
    vectors = {"C": c_vec}
    tensors = {"E": e_t}

    if linearization == LIN_TAV:
        matrices["Dbar"] = _momentum_flux_tav(phiq, averages["u"])
    else:
        if "u" not in bases:
            raise MissingAuxBasis(f"{linearization} needs a u basis")
        tensors["D"] = _momentum_flux(phiq, bases["u"].modes)

    if params.n_b > 0.0:
        table, name, value = _friction_ops(linearization, phiq, bases, averages)
        {"matrices": matrices, "vectors": vectors,
         "tensors3": tensors}[table][name] = value

    return RomOperators(system="swe_lf", window_index=window_index,
                        m=bases["h"].m, matrices=matrices, vectors=vectors,
                        tensors3=tensors,
                        scalars={"dx": grid.dx, "g": params.g,
                                 "n_b": params.n_b, "nu": params.nu},
                        linearization=linearization)


def friction_term(ops: RomOperators, ctx: SweRomContext, h_hat, q_hat,
                  f_hat=None):
    """g n_b^2 times the reduced friction for the active linearization."""
    s = ops.scalars
    if s["n_b"] == 0.0:
        return 0.0
    gnb2 = s["g"] * s["n_b"] ** 2
    lin = ops.linearization
    if lin == LIN_TAV:
        return gnb2 * ops.vectors["H"]
    if lin == LIN_DEIM_U_TAV_F:
        return gnb2 * (ops.matrices["H"] @ q_hat)
    if f_hat is None:
        f_hat = refresh_f(ctx, h_hat, q_hat)
    return gnb2 * contract_quadratic(ops.tensors3["H"], q_hat, f_hat)


def rom_swe_lf_step(h_hat: np.ndarray, q_hat: np.ndarray, ops: RomOperators,
                    ctx: SweRomContext, dt: float,
                    nu: float | None = None):
    s = ops.scalars
    lam = dt / s["dx"]
    g = s["g"]
    if nu is None:
        nu = s["nu"]
    mats, vecs, tens = ops.matrices, ops.vectors, ops.tensors3

    h_new = (h_hat - 0.5 * lam * (mats["A"] @ q_hat)
             + 0.5 * nu * (mats["B"] @ h_hat)
             + 0.5 * nu * vecs["C"])

    if ops.linearization == LIN_TAV:
        flux_u = mats["Dbar"] @ q_hat
    else:
        u_hat = refresh_u(ctx, h_hat, q_hat)
        flux_u = contract_quadratic(tens["D"], u_hat, q_hat)

    q_new = (q_hat - 0.5 * lam * flux_u
             - 0.25 * g * lam * contract_quadratic(tens["E"], h_hat, h_hat)
             + 0.5 * nu * (mats["F"] @ q_hat)
             - 0.25 * g * lam * (mats["G"] @ h_hat)
             - dt * friction_term(ops, ctx, h_hat, q_hat))
    return h_new, q_new
