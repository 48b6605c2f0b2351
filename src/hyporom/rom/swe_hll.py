"""Reduced SWE model for the HLL flux.

The HLL scheme shares the PVM-0 model core (A, E, G, momentum flux and
friction; ``assemble_swe``/``step_swe`` in swe_lf.py) and differs only
in its viscosity: per-interface fan coefficients alpha0/alpha1 instead
of a constant nu.  They enter through U_1..U_3 on h and U_4..U_7 on q,
scaled by dt/(2dx).  Interface Roe means (u_tilde, h_tilde) are always
window averages; the fan coefficients are either window averages baked
into U matrices and vectors (coeff_mode "tav") or DEIM-updated
coefficients contracted against U tensors, with U_3 and U_7 matrices on
the coefficients (coeff_mode "deim"); once folded, the step reads the
coefficients' point values instead.  The DEIM point values are the
full-order ``hll_fan`` of the sampled flanking cells (``refresh_alphas``
in context.py).  The U terms are the viscosity ``assemble_swe`` asks
for; it hands them the padded modes and the full-order ``bed_profile``
and compiles them with the shared terms.  Every U operator moves the
interface difference of its product onto the test functions; each U
tensor is one ``project_outer`` call.  The fan coefficients are the
step's last inputs, after u and f.
"""

import numpy as np

from ..errors import UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import COEFF_MODES, COEFF_TAV, SweRomContext, refresh_alphas
# Not called here; kept because the benchmark tracer wraps them by these
# names.
from .context import refresh_u  # noqa: F401
from .operators import contract_quadratic  # noqa: F401
from .operators import RomOperators, Term, project_outer, stencil_weights
from .swe_lf import assemble_swe, step_swe


def _fan_diff(phi_out, prod):
    """sum_i phi_out[i,p] (prod[i+1] - prod[i]): the interface difference
    of a per-interface product, moved onto the test functions."""
    return phi_out.T @ np.diff(prod, axis=0)


def _fan_tensor(phi_out, coef_modes, jumps):
    """DEIM variant: coefficient basis columns replace the averaged field;
    the interface difference x[i+1] - x[i] moves onto phi_out."""
    return project_outer(stencil_weights(phi_out, {1: 1, 0: -1}),
                         coef_modes, jumps)


def assemble_swe_hll_rom(bases: dict, params: SweParams, grid: Grid1D,
                         linearization: str, coeff_mode: str,
                         averages: dict) -> RomOperators:
    if coeff_mode not in COEFF_MODES:
        raise UnsupportedSystem(f"unknown coeff_mode {coeff_mode!r}")
    # Momentum weight of the degree-1 fan term, from window-mean Roe data.
    u_t = averages["utilde"]
    h_t = averages["htilde"]
    wgt = -u_t * u_t + params.g * h_t
    fan = 0.5 / grid.dx

    def viscosity(phih, phiq, phihg, phiqg, zg, dz):
        # Mode jumps at the n_cells+1 interfaces (ghosts replicated).
        dh = np.diff(phihg, axis=0)
        dq = np.diff(phiqg, axis=0)
        if coeff_mode == COEFF_TAV:
            a0 = averages["alpha0"]
            a1 = averages["alpha1"]
            a0c, a1c = a0[:, None], a1[:, None]
            return {
                "U1": Term(_fan_diff(phih, a0c * dh), "h", ("h",), 0.0, fan),
                "U2": Term(_fan_diff(phih, a1c * dq), "h", ("q",), 0.0, fan),
                "U3": Term(_fan_diff(phih, a0 * dz), "h", (), 0.0, fan),
                "U4": Term(_fan_diff(phiq, a1c * wgt[:, None] * dh), "q",
                           ("h",), 0.0, fan),
                "U5": Term(_fan_diff(phiq, a0c * dq), "q", ("q",), 0.0, fan),
                "U6": Term(_fan_diff(phiq, 2.0 * a1c * u_t[:, None] * dq),
                           "q", ("q",), 0.0, fan),
                "U7": Term(_fan_diff(phiq, a1 * wgt * dz), "q", (), 0.0,
                           fan)}
        ca0 = bases["alpha0"].modes
        ca1 = bases["alpha1"].modes
        return {
            "U1": Term(_fan_tensor(phih, ca0, dh), "h", ("alpha0", "h"),
                       0.0, fan),
            "U2": Term(_fan_tensor(phih, ca1, dq), "h", ("alpha1", "q"),
                       0.0, fan),
            "U3": Term(_fan_diff(phih, ca0 * dz[:, None]), "h",
                       ("alpha0",), 0.0, fan),
            "U4": Term(_fan_tensor(phiq, ca1 * wgt[:, None], dh), "q",
                       ("alpha1", "h"), 0.0, fan),
            "U5": Term(_fan_tensor(phiq, ca0, dq), "q", ("alpha0", "q"),
                       0.0, fan),
            "U6": Term(_fan_tensor(phiq, 2.0 * ca1 * u_t[:, None], dq), "q",
                       ("alpha1", "q"), 0.0, fan),
            "U7": Term(_fan_diff(phiq, ca1 * wgt[:, None] * dz[:, None]),
                       "q", ("alpha1",), 0.0, fan)}

    return assemble_swe(bases, params, grid, linearization, averages,
                        viscosity, coeff_mode)


def rom_swe_hll_step(x: np.ndarray, ops: RomOperators, ctx: SweRomContext,
                     dt: float) -> np.ndarray:
    return step_swe(x, ops, ctx, dt, refresh_alphas)
