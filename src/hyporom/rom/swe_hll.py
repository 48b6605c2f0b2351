"""Reduced SWE model for the HLL flux.

The HLL scheme shares the PVM-0 model core (A, E, G, momentum flux and
friction; ``assemble_swe``/``step_swe`` in swe_lf.py) and differs only
in its viscosity: per-interface fan coefficients alpha0/alpha1 instead
of a constant nu.  They enter through U_1..U_3 on h and U_4..U_7 on q,
scaled by dt/(2dx).  Interface Roe means (u_tilde, h_tilde) are always
window averages; the fan coefficients are either window averages baked
into U matrices and vectors (coeff_mode "tav") or DEIM-updated
coefficients contracted against U tensors, with U_3 and U_7 matrices on
the coefficients (coeff_mode "deim").  Each U tensor is one
``project_outer`` call with the interface difference moved onto the test
functions.  The U terms are compiled with the shared ones; the fan
coefficients are the step's last inputs, after u and f.
"""

import numpy as np

from ..errors import MissingAuxBasis, UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import COEFF_MODES, COEFF_TAV, SweRomContext, refresh_alphas
# Not called here; kept because the benchmark tracer wraps them by these
# names.
from .context import refresh_u  # noqa: F401
from .operators import contract_quadratic  # noqa: F401
from .operators import (RomOperators, Term, pad_rows, project_outer,
                        stencil_weights)
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
                         averages: dict,
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
    fan = 0.5 / grid.dx

    if coeff_mode == COEFF_TAV:
        a0 = averages["alpha0"]
        a1 = averages["alpha1"]
        terms = {
            "U1": Term(_fan_matrix(phih, a0, dh), "h", ("h",), 0.0, fan),
            "U2": Term(_fan_matrix(phih, a1, dq), "h", ("q",), 0.0, fan),
            "U3": Term(_fan_vector(phih, a0, dz), "h", (), 0.0, fan),
            "U4": Term(_fan_matrix(phiq, a1 * wgt, dh), "q", ("h",), 0.0, fan),
            "U5": Term(_fan_matrix(phiq, a0, dq), "q", ("q",), 0.0, fan),
            "U6": Term(_fan_matrix(phiq, 2.0 * a1 * u_t, dq), "q", ("q",),
                       0.0, fan),
            "U7": Term(_fan_vector(phiq, a1 * wgt, dz), "q", (), 0.0, fan)}
    else:
        if "alpha0" not in bases or "alpha1" not in bases:
            raise MissingAuxBasis("coeff_mode 'deim' needs alpha0/alpha1 bases")
        ca0 = bases["alpha0"].modes
        ca1 = bases["alpha1"].modes
        terms = {
            "U1": Term(_fan_tensor(phih, ca0, dh), "h", ("alpha0", "h"),
                       0.0, fan),
            "U2": Term(_fan_tensor(phih, ca1, dq), "h", ("alpha1", "q"),
                       0.0, fan),
            "U3": Term(_fan_tensor_vec(phih, ca0, dz), "h", ("alpha0",),
                       0.0, fan),
            "U4": Term(_fan_tensor(phiq, ca1 * wgt[:, None], dh), "q",
                       ("alpha1", "h"), 0.0, fan),
            "U5": Term(_fan_tensor(phiq, ca0, dq), "q", ("alpha0", "q"),
                       0.0, fan),
            "U6": Term(_fan_tensor(phiq, 2.0 * ca1 * u_t[:, None], dq), "q",
                       ("alpha1", "q"), 0.0, fan),
            "U7": Term(_fan_tensor_vec(phiq, ca1 * wgt[:, None], dz), "q",
                       ("alpha1",), 0.0, fan)}

    return assemble_swe("swe_hll", bases, params, grid, linearization,
                        averages, window_index, terms, coeff_mode)


def rom_swe_hll_step(x: np.ndarray, ops: RomOperators, ctx: SweRomContext,
                     dt: float) -> np.ndarray:
    return step_swe(x, ops, ctx, dt, refresh_alphas)
