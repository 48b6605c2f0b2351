"""Reduced SWE model for the HLL flux.

The h-equation reuses A from the PVM-0 assembly and adds U_1..U_3 for
the fan-coefficient viscosity; the q-equation reuses D, E, G and adds
U_4..U_7.  Interface Roe means (u_tilde, h_tilde) are always window
averages; the fan coefficients alpha0/alpha1 are either window averages
baked into U matrices (coeff_mode "tav") or DEIM-updated coefficients
contracted against U tensors (coeff_mode "deim").
"""

import numpy as np

from ..errors import MissingAuxBasis
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import (COEFF_DEIM, COEFF_TAV, LIN_TAV, LINEARIZATIONS,
                      SweRomContext, refresh_alphas, refresh_u)
from .operators import RomOperators, TimeAverages, contract_quadratic, pad_rows
from .swe_lf import (_h_equation, _momentum_flux, _momentum_flux_tav,
                     _friction_ops, _q_equation, friction_term)


def _jumps(phi):
    """Mode jumps at the n_cells+1 interfaces (ghosts replicated)."""
    phig = pad_rows(phi)
    return phig[1:] - phig[:-1]


def _fan_matrix(phi_out, coef, jumps):
    """sum_i phi_out[i,p] (coef[i+1] jumps[i+1,k] - coef[i] jumps[i,k])."""
    weighted = coef[:, None] * jumps
    return phi_out.T @ (weighted[1:] - weighted[:-1])


def _fan_vector(phi_out, coef, dz):
    weighted = coef * dz
    return phi_out.T @ (weighted[1:] - weighted[:-1])


def _fan_tensor(phi_out, coef_modes, jumps):
    """DEIM variant: coefficient basis columns replace the averaged field."""
    prod = np.einsum("jl,jk->jlk", coef_modes, jumps)
    return np.einsum("ip,ilk->plk", phi_out, prod[1:] - prod[:-1])


def _fan_tensor_vec(phi_out, coef_modes, dz):
    prod = coef_modes * dz[:, None]
    return phi_out.T @ (prod[1:] - prod[:-1])


def assemble_swe_hll_rom(bases: dict, params: SweParams, grid: Grid1D,
                         linearization: str, coeff_mode: str,
                         averages: TimeAverages,
                         window_index: int = 0) -> RomOperators:
    if linearization not in LINEARIZATIONS:
        raise ValueError(f"unknown linearization {linearization!r}")
    if coeff_mode not in (COEFF_TAV, COEFF_DEIM):
        raise ValueError(f"unknown coeff_mode {coeff_mode!r}")
    phih = bases["h"].modes
    phiq = bases["q"].modes
    z = np.asarray(params.bathymetry(grid.centers), dtype=float)
    zg = pad_rows(z)
    dz = zg[1:] - zg[:-1]

    a_mat, _, _ = _h_equation(phih, phiq, z, zg)
    e_t, _, g_mat = _q_equation(phih, phiq, z, zg)

    dh = _jumps(phih)
    dq = _jumps(phiq)
    # Momentum weight of the degree-1 fan term, from window-mean Roe data.
    u_t = averages["utilde"]
    h_t = averages["htilde"]
    wgt = -u_t * u_t + params.g * h_t

    matrices = {"A": a_mat, "G": g_mat}
    vectors = {}
    tensors = {"E": e_t}

    if coeff_mode == COEFF_TAV:
        a0 = averages["alpha0"]
        a1 = averages["alpha1"]
        matrices["U1"] = _fan_matrix(phih, a0, dh)
        matrices["U2"] = _fan_matrix(phih, a1, dq)
        vectors["U3"] = _fan_vector(phih, a0, dz)
        matrices["U4"] = _fan_matrix(phiq, a1 * wgt, dh)
        matrices["U5"] = _fan_matrix(phiq, a0, dq)
        matrices["U6"] = _fan_matrix(phiq, 2.0 * a1 * u_t, dq)
        vectors["U7"] = _fan_vector(phiq, a1 * wgt, dz)
    else:
        if "alpha0" not in bases or "alpha1" not in bases:
            raise MissingAuxBasis("coeff_mode 'deim' needs alpha0/alpha1 bases")
        ca0 = bases["alpha0"].modes
        ca1 = bases["alpha1"].modes
        tensors["U1"] = _fan_tensor(phih, ca0, dh)
        tensors["U2"] = _fan_tensor(phih, ca1, dq)
        matrices["U3"] = _fan_tensor_vec(phih, ca0, dz)
        tensors["U4"] = _fan_tensor(phiq, ca1 * wgt[:, None], dh)
        tensors["U5"] = _fan_tensor(phiq, ca0, dq)
        tensors["U6"] = _fan_tensor(phiq, 2.0 * ca1 * u_t[:, None], dq)
        matrices["U7"] = _fan_tensor_vec(phiq, ca1 * wgt[:, None], dz)

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

    return RomOperators(system="swe_hll", window_index=window_index,
                        m=bases["h"].m, matrices=matrices, vectors=vectors,
                        tensors3=tensors,
                        scalars={"dx": grid.dx, "g": params.g,
                                 "n_b": params.n_b, "nu": params.nu},
                        linearization=linearization, coeff_mode=coeff_mode)


def rom_swe_hll_step(h_hat: np.ndarray, q_hat: np.ndarray, ops: RomOperators,
                     ctx: SweRomContext, dt: float):
    s = ops.scalars
    lam = dt / s["dx"]
    g = s["g"]
    mats, vecs, tens = ops.matrices, ops.vectors, ops.tensors3

    if ops.coeff_mode == COEFF_TAV:
        m1 = mats["U1"] @ h_hat
        m2 = mats["U2"] @ q_hat
        m3 = vecs["U3"]
        m4 = mats["U4"] @ h_hat
        m5 = mats["U5"] @ q_hat
        m6 = mats["U6"] @ q_hat
        m7 = vecs["U7"]
    else:
        a0_hat, a1_hat = refresh_alphas(ctx, h_hat, q_hat)
        m1 = contract_quadratic(tens["U1"], a0_hat, h_hat)
        m2 = contract_quadratic(tens["U2"], a1_hat, q_hat)
        m3 = mats["U3"] @ a0_hat
        m4 = contract_quadratic(tens["U4"], a1_hat, h_hat)
        m5 = contract_quadratic(tens["U5"], a0_hat, q_hat)
        m6 = contract_quadratic(tens["U6"], a1_hat, q_hat)
        m7 = mats["U7"] @ a1_hat

    h_new = (h_hat - 0.5 * lam * (mats["A"] @ q_hat)
             + 0.5 * lam * (m1 + m2 + m3))

    if ops.linearization == LIN_TAV:
        flux_u = mats["Dbar"] @ q_hat
    else:
        u_hat = refresh_u(ctx, h_hat, q_hat)
        flux_u = contract_quadratic(tens["D"], u_hat, q_hat)

    q_new = (q_hat - 0.5 * lam * flux_u
             - 0.25 * g * lam * contract_quadratic(tens["E"], h_hat, h_hat)
             + 0.5 * lam * (m4 + m5 + m6 + m7)
             - 0.25 * g * lam * (mats["G"] @ h_hat)
             - dt * friction_term(ops, ctx, h_hat, q_hat))
    return h_new, q_new
