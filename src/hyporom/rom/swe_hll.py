"""Reduced SWE model for the HLL flux.

The HLL scheme shares the PVM-0 model core (A, E, G, momentum flux and
friction; ``assemble_swe``/``step_swe`` in swe_lf.py) and differs only
in its viscosity: per-interface fan coefficients alpha0/alpha1 instead
of a constant nu.  They enter through U_1..U_3 on h and U_4..U_7 on q,
scaled by dt/dx.  Interface Roe means (u_tilde, h_tilde) are always
window averages; the fan coefficients are either window averages baked
into U matrices (coeff_mode "tav") or DEIM-updated coefficients
contracted against U tensors (coeff_mode "deim").  Each U tensor is one
``project_outer`` call with the interface difference moved onto the test
functions.
"""

import numpy as np

from ..errors import MissingAuxBasis, UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import COEFF_MODES, COEFF_TAV, SweRomContext, refresh_alphas
# Not called here; kept because the benchmark tracer wraps it by this name.
from .context import refresh_u  # noqa: F401
from .operators import (RomOperators, TimeAverages, contract_quadratic,
                        pad_rows, project_outer, stencil_weights)
from .swe_lf import assemble_swe, bed_rows, step_swe


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
    """DEIM variant: coefficient basis columns replace the averaged field;
    the interface difference x[i+1] - x[i] moves onto phi_out."""
    return project_outer(stencil_weights(phi_out, {1: 1, 0: -1}),
                         coef_modes, jumps)


def _fan_tensor_vec(phi_out, coef_modes, dz):
    prod = coef_modes * dz[:, None]
    return phi_out.T @ (prod[1:] - prod[:-1])


def assemble_swe_hll_rom(bases: dict, params: SweParams, grid: Grid1D,
                         linearization: str, coeff_mode: str,
                         averages: TimeAverages,
                         window_index: int = 0) -> RomOperators:
    if coeff_mode not in COEFF_MODES:
        raise UnsupportedSystem(f"unknown coeff_mode {coeff_mode!r}")
    phih = bases["h"].modes
    phiq = bases["q"].modes
    zg = bed_rows(params, grid)
    dz = zg[1:] - zg[:-1]
    dh = _jumps(phih)
    dq = _jumps(phiq)
    # Momentum weight of the degree-1 fan term, from window-mean Roe data.
    u_t = averages["utilde"]
    h_t = averages["htilde"]
    wgt = -u_t * u_t + params.g * h_t

    matrices, vectors, tensors = {}, {}, {}
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

    return assemble_swe("swe_hll", bases, params, grid, linearization,
                        averages, window_index, matrices, vectors, tensors)


def rom_swe_hll_step(h_hat: np.ndarray, q_hat: np.ndarray, ops: RomOperators,
                     ctx: SweRomContext, dt: float):
    lam = dt / ops.scalars["dx"]
    mats, vecs, tens = ops.matrices, ops.vectors, ops.tensors3

    if "U1" in mats:
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

    return step_swe(h_hat, q_hat, ops, ctx, dt, 0.5 * lam * (m1 + m2 + m3),
                    0.5 * lam * (m4 + m5 + m6 + m7))
