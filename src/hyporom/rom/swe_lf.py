"""Reduced SWE model: the core both fluxes share, the PVM-0 (modified
Lax-Friedrichs) viscosity, and the compiled step.

The PVM-0 and HLL schemes differ only in their numerical viscosity, so
one assembler serves both (``assemble_swe``).  Per window it builds A
(mass flux) for the h-equation and, for the q-equation, E (pressure), G
(bed slope), the momentum flux and a friction operator H.  The momentum
flux and H come in three flavours:

    tav             u and the friction kernel replaced by window means;
                    Dbar matrix + friction vector H
    deim_u_tav_f    u updated by DEIM, |u|/h^(4/3) window-averaged;
                    D tensor + friction matrix H
    deim_u_deim_f   u and f = |q|/h^(7/3) both updated by DEIM;
                    D tensor + friction tensor H

PVM-0 adds its constant-coefficient viscosity, scaled by nu/2: B and the
bathymetry vector C on h, F on q; the HLL fan terms are in swe_hll.py.
The tensors E, D and H are each one ``project_outer`` call (a GEMM over
bounded row blocks, see operators.py); for E and D the central
difference of the padded products is moved onto the q test functions.

The assembler then compiles the window into the step shape of
operators.py on x = [h_hat; q_hat].  Its inputs, ``swe_inputs``, are h
and q, then the DEIM-refreshed coefficients its terms read, in the order
u, f, alpha0, alpha1.  That tuple, kept as ``ops.inputs``, also names the
setup's bases, the context's samples and the step's refreshes.  The
per-dt factors are -1/(2dx) for A and D, -g/(4dx) for E and G, -g n_b^2
for H and 1/(2dx) for the HLL fans; the PVM-0 terms carry nu/2 as their
fixed factor.
"""

import numpy as np

from ..errors import MissingAuxBasis, UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import (COEFF_DEIM, LIN_DEIM_U_DEIM_F, LIN_DEIM_U_TAV_F,
                      LIN_TAV, LINEARIZATIONS, SweRomContext, refresh_f,
                      refresh_u)
from .operators import (RomOperators, Term, TimeAverages, advance,
                        compile_terms, contract_quadratic, pad_rows,
                        project_outer, stencil_weights)

# Central difference over padded rows, x[i+2] - x[i], moved onto the modes.
_CENTRAL = {2: 1, 0: -1}
# Last entry of xa: the input of every constant-vector column.
_ONE = np.ones(1)


def bed_rows(params: SweParams, grid: Grid1D) -> np.ndarray:
    """Bathymetry at the cell centres with replicated ghost rows."""
    return pad_rows(np.asarray(params.bathymetry(grid.centers), dtype=float))


def swe_inputs(linearization: str, coeff_mode: str | None,
               n_b: float) -> tuple:
    """The M-blocks of a SWE window's step inputs, in order: h, q, u
    unless u is window-averaged, f for DEIM friction with n_b > 0 (f
    feeds only the friction tensor), and the DEIM fan coefficients."""
    inputs = ("h", "q")
    if linearization != LIN_TAV:
        inputs += ("u",)
    if linearization == LIN_DEIM_U_DEIM_F and n_b > 0.0:
        inputs += ("f",)
    if coeff_mode == COEFF_DEIM:
        inputs += ("alpha0", "alpha1")
    return inputs


def assemble_swe(system: str, bases: dict, params: SweParams, grid: Grid1D,
                 linearization: str, averages: TimeAverages, window_index: int,
                 terms: dict, coeff_mode: str | None = None) -> RomOperators:
    """Window operators, compiled: the flux's own viscosity ``terms`` plus
    A, E, G, the momentum flux and friction H, which every flux shares.
    ``coeff_mode`` is the HLL fan coefficients' mode (None for PVM-0)."""
    if linearization not in LINEARIZATIONS:
        raise UnsupportedSystem(f"unknown linearization {linearization!r}")
    inputs = swe_inputs(linearization, coeff_mode, params.n_b)
    missing = [name for name in inputs if name not in bases]
    if missing:
        raise MissingAuxBasis(f"{linearization} with coeff_mode "
                              f"{coeff_mode!r} needs bases {missing}")
    phih = bases["h"].modes
    phiq = bases["q"].modes
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    zg = bed_rows(params, grid)
    z = zg[1:-1]
    central = stencil_weights(phiq, _CENTRAL)
    dx, g = grid.dx, params.g

    terms["A"] = Term(phih.T @ (phiqg[2:] - phiqg[:-2]), "h", ("q",),
                      0.0, -0.5 / dx)
    terms["E"] = Term(project_outer(central, phihg, phihg), "q", ("h", "h"),
                      0.0, -0.25 * g / dx)
    dz_r = (zg[2:] - z)[:, None]
    dz_l = (z - zg[:-2])[:, None]
    terms["G"] = Term(phiq.T @ ((phihg[2:] + phih) * dz_r
                                + (phih + phihg[:-2]) * dz_l),
                      "q", ("h",), 0.0, -0.25 * g / dx)

    if linearization == LIN_TAV:
        weighted = pad_rows(averages["u"])[:, None] * phiqg
        terms["Dbar"] = Term(phiq.T @ (weighted[2:] - weighted[:-2]), "q",
                             ("q",), 0.0, -0.5 / dx)
    else:
        terms["D"] = Term(project_outer(central, pad_rows(bases["u"].modes),
                                        phiqg), "q", ("u", "q"), 0.0, -0.5 / dx)

    if params.n_b > 0.0:
        gnb2 = g * params.n_b ** 2
        if linearization == LIN_TAV:
            u_bar = averages["u"]
            terms["H"] = Term(phiq.T @ (np.abs(u_bar) * u_bar
                                        / averages["h"] ** (1.0 / 3.0)),
                              "q", (), 0.0, -gnb2)
        elif linearization == LIN_DEIM_U_TAV_F:
            kern = np.abs(averages["u"]) / averages["h"] ** (4.0 / 3.0)
            terms["H"] = Term(phiq.T @ (kern[:, None] * phiq), "q", ("q",),
                              0.0, -gnb2)
        else:
            terms["H"] = Term(project_outer(phiq, phiq, bases["f"].modes),
                              "q", ("q", "f"), 0.0, -gnb2)

    return compile_terms(terms, inputs, ("h", "q"), bases["h"].m,
                         system=system, window_index=window_index)


def step_swe(x: np.ndarray, ops: RomOperators, ctx: SweRomContext,
             dt: float, refresh_fans) -> np.ndarray:
    """One reduced step of the packed state x = [h_hat; q_hat].  The
    refreshed coefficients are stacked in the order of ``ops.inputs``;
    the fan refresh, which yields alpha0 and alpha1 at once, is passed by
    the HLL entry point, which owns its name."""
    pts = ctx.rows @ x.reshape(2, -1, 1)
    xa = [x]
    for name in ops.inputs[2:]:
        if name == "u":
            xa.append(refresh_u(ctx, pts))
        elif name == "f":
            xa.append(refresh_f(ctx, pts))
        elif name == "alpha0":
            xa.extend(refresh_fans(ctx, pts))
    xa.append(_ONE)
    return advance(x, np.concatenate(xa), ops, dt, contract_quadratic)


def assemble_swe_lf_rom(bases: dict, params: SweParams, grid: Grid1D,
                        linearization: str, averages: TimeAverages,
                        window_index: int = 0) -> RomOperators:
    phih = bases["h"].modes
    phiq = bases["q"].modes
    phihg = pad_rows(phih)
    phiqg = pad_rows(phiq)
    zg = bed_rows(params, grid)
    half_nu = 0.5 * params.nu
    return assemble_swe(
        "swe_lf", bases, params, grid, linearization, averages, window_index,
        terms={
            "B": Term(phih.T @ (phihg[2:] - 2.0 * phih + phihg[:-2]), "h",
                      ("h",), half_nu, 0.0),
            "C": Term(phih.T @ (zg[2:] - 2.0 * zg[1:-1] + zg[:-2]), "h", (),
                      half_nu, 0.0),
            "F": Term(phiq.T @ (phiqg[2:] - 2.0 * phiq + phiqg[:-2]), "q",
                      ("q",), half_nu, 0.0)})


def rom_swe_lf_step(x: np.ndarray, ops: RomOperators, ctx: SweRomContext,
                    dt: float) -> np.ndarray:
    return step_swe(x, ops, ctx, dt, None)
