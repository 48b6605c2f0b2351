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

The assembler then compiles the window into one step shape on the packed
state x = [h_hat; q_hat].  With xa = [x; refreshed DEIM coefficients; 1]:

    z     = (scale0 + dt * scale1) * xa[gather]
    x_new = x + lin @ z[:n_lin]
            + contract_quadratic(operand, z[left], xa[right])
              in the rows of each output block (h, q) that holds tensors

``lin`` holds every matrix and vector term side by side, each in the rows
of the equation it feeds and zero elsewhere.  ``z`` is every scaled
input: the inputs of the n_lin columns of ``lin``, then the left member
of each tensor pair.  ``scale0`` carries the dt-free PVM-0 viscosity
nu/2 and ``scale1`` the factors per unit dt (-1/(2dx) for A and D,
-g/(4dx) for E and G, -g n_b^2 for H, 1/(2dx) for the HLL fans).  Each
block's tensors are the column blocks of one operand, contracted in one
GEMV.  Because the factors multiply the inputs, not the operators, the
named entries of ``matrices``, ``vectors`` and ``tensors3`` are views
into these arrays, bitwise the assembled operators.  Both fluxes step
through ``step_swe``; which terms a window holds is decided by the
assembler alone.  f is an input only of the friction tensor, so a
frictionless deim_u_deim_f window neither samples nor refreshes it
(``build_swe_context``).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import MissingAuxBasis, UnsupportedSystem
from ..fom.swe import SweParams
from ..grid import Grid1D
from .context import (LIN_DEIM_U_DEIM_F, LIN_DEIM_U_TAV_F, LIN_TAV,
                      LINEARIZATIONS, SweRomContext, refresh_f, refresh_u)
from .operators import (RomOperators, TimeAverages, contract_quadratic,
                        pad_rows, project_outer, stencil_weights)

# Central difference over padded rows, x[i+2] - x[i], moved onto the modes.
_CENTRAL = {2: 1, 0: -1}
# Last entry of xa: the input of every constant-vector column.
_ONE = np.ones(1)


class Term(NamedTuple):
    """One window operator and where it enters the step."""

    array: np.ndarray
    out: str            # the equation it feeds: "h" or "q"
    inputs: tuple       # () vector, (a,) matrix on a, (a, b) tensor on a x b
    fixed: float        # factor per step (the PVM-0 viscosity nu/2)
    per_dt: float       # factor per unit dt


@dataclass
class SweOperators(RomOperators):
    """Window operators and their compiled step (module docstring)."""

    lin: np.ndarray | None = None
    gather: np.ndarray | None = None
    scale0: np.ndarray | None = None
    scale1: np.ndarray | None = None
    quad: tuple = ()                # (rows, operand, left, right) per block


def bed_rows(params: SweParams, grid: Grid1D) -> np.ndarray:
    """Bathymetry at the cell centres with replicated ghost rows."""
    return pad_rows(np.asarray(params.bathymetry(grid.centers), dtype=float))


def _compile(terms: dict, inputs: tuple, m: int, **fields) -> SweOperators:
    """Pack the terms into the step arrays.  ``inputs`` names the M-blocks
    of xa in order; terms are popped as they are copied, so no operator
    is held twice."""
    start = {name: i * m for i, name in enumerate(inputs)}
    one = len(inputs) * m
    rows = {"h": slice(0, m), "q": slice(m, 2 * m)}
    linear = [name for name, t in terms.items() if len(t.inputs) < 2]
    n_cols = sum(m if terms[name].inputs else 1 for name in linear)
    lin = np.zeros((2 * m, n_cols))
    matrices, vectors, tensors = {}, {}, {}
    gather, scale0, scale1 = [], [], []
    col = 0
    for name in linear:
        t = terms.pop(name)
        width = m if t.inputs else 1
        block = lin[rows[t.out], col:col + width]
        block[:] = t.array.reshape(m, width)
        if t.inputs:
            matrices[name] = block
            gather.append(start[t.inputs[0]] + np.arange(m))
        else:
            vectors[name] = block[:, 0]
            gather.append([one])
        scale0.append(np.full(width, t.fixed))
        scale1.append(np.full(width, t.per_dt))
        col += width

    # The left member of each tensor pair is gathered and scaled with the
    # linear inputs, after them; the right member is read from xa as is.
    quad = []
    first = n_cols
    for out in ("h", "q"):
        names = [name for name, t in terms.items() if t.out == out]
        if not names:
            continue
        operand = np.empty((m, len(names) * m * m))
        right = []
        for j, name in enumerate(names):
            t = terms.pop(name)
            block = operand[:, j * m * m:(j + 1) * m * m]
            block[:] = t.array.reshape(m, m * m)
            tensors[name] = block.reshape(m, m, m)
            gather.append(start[t.inputs[0]] + np.arange(m))
            right.append(start[t.inputs[1]] + np.arange(m))
            scale0.append(np.zeros(m))
            scale1.append(np.full(m, t.per_dt))
        left = first + np.arange(len(names) * m).reshape(len(names), m)
        first += len(names) * m
        quad.append((rows[out], operand, left, np.array(right)))

    return SweOperators(m=m, matrices=matrices, vectors=vectors,
                        tensors3=tensors, lin=lin,
                        gather=np.concatenate(gather),
                        scale0=np.concatenate(scale0),
                        scale1=np.concatenate(scale1), quad=tuple(quad),
                        **fields)


def assemble_swe(system: str, bases: dict, params: SweParams, grid: Grid1D,
                 linearization: str, averages: TimeAverages, window_index: int,
                 terms: dict, fan_inputs: tuple = ()) -> SweOperators:
    """Window operators, compiled: the flux's own viscosity ``terms`` plus
    A, E, G, the momentum flux and friction H, which every flux shares.
    ``fan_inputs`` names the fan coefficients the flux's terms read, which
    the step stacks after the u and f coefficients."""
    if linearization not in LINEARIZATIONS:
        raise UnsupportedSystem(f"unknown linearization {linearization!r}")
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

    inputs = ("h", "q")
    if linearization == LIN_TAV:
        weighted = pad_rows(averages["u"])[:, None] * phiqg
        terms["Dbar"] = Term(phiq.T @ (weighted[2:] - weighted[:-2]), "q",
                             ("q",), 0.0, -0.5 / dx)
    else:
        if "u" not in bases:
            raise MissingAuxBasis(f"{linearization} needs a u basis")
        terms["D"] = Term(project_outer(central, pad_rows(bases["u"].modes),
                                        phiqg), "q", ("u", "q"), 0.0, -0.5 / dx)
        inputs += ("u",)
    if linearization == LIN_DEIM_U_DEIM_F and "f" not in bases:
        raise MissingAuxBasis("deim_u_deim_f needs an f basis")

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
            inputs += ("f",)

    return _compile(terms, inputs + fan_inputs, bases["h"].m, system=system,
                    window_index=window_index,
                    scalars={"dx": dx, "g": g, "n_b": params.n_b,
                             "nu": params.nu})


def step_swe(x: np.ndarray, ops: SweOperators, ctx: SweRomContext,
             dt: float, refresh_fans) -> np.ndarray:
    """One reduced step of the packed state x = [h_hat; q_hat].  The fan
    refresh is passed by the HLL entry point, which owns its name."""
    pts = ctx.rows @ x.reshape(2, -1, 1)
    xa = [x]
    if ctx.u_samples is not None:
        xa.append(refresh_u(ctx, pts))
    if ctx.f_samples is not None:
        xa.append(refresh_f(ctx, pts))
    if ctx.a0_samples is not None:
        xa.extend(refresh_fans(ctx, pts))
    xa.append(_ONE)
    xa = np.concatenate(xa)
    z = (ops.scale0 + dt * ops.scale1) * xa[ops.gather]
    incr = ops.lin @ z[:ops.lin.shape[1]]
    for rows, operand, left, right in ops.quad:
        incr[rows] += contract_quadratic(operand, z[left], xa[right])
    return x + incr


def assemble_swe_lf_rom(bases: dict, params: SweParams, grid: Grid1D,
                        linearization: str, averages: TimeAverages,
                        window_index: int = 0) -> SweOperators:
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


def rom_swe_lf_step(x: np.ndarray, ops: SweOperators, ctx: SweRomContext,
                    dt: float) -> np.ndarray:
    return step_swe(x, ops, ctx, dt, None)
