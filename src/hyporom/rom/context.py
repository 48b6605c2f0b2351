"""Online context for the SWE reduced models.

DEIM-updated auxiliary variables need pointwise values of the lifted
state at the interpolation points only.  The context stacks the h and q
mode rows of every sampled cell into one array, so each step makes one
point pass (``sample_cells``): a single batched product samples the
state for all refreshes, and everything the refreshes read of it -- the
depth check, u = q/h and, with fan refreshes, sqrt(h) and sqrt(g h) --
is derived there once for every sampled cell.  Each refresh then passes
its own slice of these to the full-order closure (``friction_kernel``,
``hll_fan`` in fom/swe.py), at O(M) cost per point, and returns the
field's point values.  Interface evaluations (fan coefficients) sample
the two cells flanking each interface, with edge clamping matching the
ghost replication of the full-order scheme.

The point values are never solved for coefficients online: when a window
is built, ``fold_interpolants`` folds each interpolant's inverse
(P^T U)^-1 into the operators that read the field, and the step reads
the point values where it read the coefficients.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..deim import DeimInterpolant, deim_online_values
from ..errors import EvaluationError
from ..fom.swe import friction_kernel, hll_fan
from .operators import RomOperators, fold_inputs

LIN_TAV = "tav"
LIN_DEIM_U_TAV_F = "deim_u_tav_f"
LIN_DEIM_U_DEIM_F = "deim_u_deim_f"
LINEARIZATIONS = (LIN_TAV, LIN_DEIM_U_TAV_F, LIN_DEIM_U_DEIM_F)
COEFF_TAV = "tav"
COEFF_DEIM = "deim"
COEFF_MODES = (COEFF_TAV, COEFF_DEIM)


@dataclass
class PointSamples:
    """A cell interpolant and the slice of the context's sampled points
    that holds its interpolation points."""

    interp: DeimInterpolant
    at: slice


@dataclass
class InterfaceSamples:
    """A fan-coefficient interpolant; the cells flanking its interface
    points are sampled for both fan interpolants at once (``fan_left``,
    ``fan_right`` on the context)."""

    interp: DeimInterpolant


@dataclass
class SweRomContext:
    g: float = 9.81
    # h mode rows then q mode rows (2 x points x M) at every sampled cell,
    # block by block in the order of the step inputs: the u points, the f
    # points, then the cells left and right of the alpha0 and the alpha1
    # interpolation interfaces.
    rows: np.ndarray | None = None
    u_samples: PointSamples | None = None
    f_samples: PointSamples | None = None
    a0_samples: InterfaceSamples | None = None
    a1_samples: InterfaceSamples | None = None
    fan_left: slice | None = None
    fan_right: slice | None = None


def build_swe_context(bases: dict, interpolants: dict, inputs: tuple,
                      g: float) -> SweRomContext:
    """Sample the DEIM blocks among a window's step ``inputs`` (after h
    and q), in their order: u and f at their points, the fan
    coefficients at the cells flanking their interfaces."""
    h_modes = bases["h"].modes
    q_modes = bases["q"].modes
    ctx = SweRomContext(g=g)
    cells = []

    def take(idx) -> slice:
        start = sum(len(c) for c in cells)
        cells.append(idx)
        return slice(start, start + len(idx))

    for name in inputs[2:]:
        interp = interpolants[name]
        if name == "u":
            ctx.u_samples = PointSamples(interp=interp, at=take(interp.indices))
        elif name == "f":
            ctx.f_samples = PointSamples(interp=interp, at=take(interp.indices))
        elif name == "alpha0":
            a0, a1 = interp, interpolants["alpha1"]
            ctx.a0_samples = InterfaceSamples(interp=a0)
            ctx.a1_samples = InterfaceSamples(interp=a1)
            # Interface j lies between cells j-1 and j; edges clamp like
            # ghosts.
            j = np.concatenate([a0.indices, a1.indices])
            last = h_modes.shape[0] - 1
            ctx.fan_left = take(np.clip(j - 1, 0, last))
            ctx.fan_right = take(np.clip(j, 0, last))
    idx = np.concatenate(cells) if cells else np.zeros(0, dtype=int)
    ctx.rows = np.stack([h_modes[idx], q_modes[idx]])
    return ctx


class SampledCells(NamedTuple):
    """The lifted state at every sampled cell, in the context's order, and
    what the refreshes derive from it.  ``root_h`` and ``c`` are None when
    the window refreshes no fan coefficients."""

    h: np.ndarray
    q: np.ndarray
    u: np.ndarray                       # q / h
    root_h: np.ndarray | None           # sqrt(h)
    c: np.ndarray | None                # sqrt(g h)


def sample_cells(ctx: SweRomContext, x: np.ndarray) -> SampledCells:
    """One point pass: sample x = [h_hat; q_hat] at every sampled cell,
    check the depths and derive what the refreshes read."""
    pts = ctx.rows @ x.reshape(2, -1, 1)
    h = pts[0, :, 0]
    q = pts[1, :, 0]
    if h.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    if ctx.fan_left is None:
        return SampledCells(h, q, q / h, None, None)
    return SampledCells(h, q, q / h, np.sqrt(h), np.sqrt(ctx.g * h))


def refresh_u(ctx: SweRomContext, cells: SampledCells) -> np.ndarray:
    """u = q/h at the u interpolation points."""
    return cells.u[ctx.u_samples.at]


def refresh_f(ctx: SweRomContext, cells: SampledCells) -> np.ndarray:
    """f = |q|/h^(7/3) at the f interpolation points."""
    at = ctx.f_samples.at
    return friction_kernel(cells.h[at], cells.q[at])


def refresh_alphas(ctx: SweRomContext, cells: SampledCells):
    """alpha0 and alpha1 at their interpolation interfaces, one pass: the
    full-order ``hll_fan`` of the sampled flanking cells."""
    left, right = ctx.fan_left, ctx.fan_right
    _, _, a0, a1 = hll_fan(cells.h[left], cells.h[right], cells.u[left],
                           cells.u[right], cells.root_h[left],
                           cells.root_h[right], cells.c[left],
                           cells.c[right], ctx.g)
    m0 = ctx.a0_samples.interp.m
    return a0[:m0], a1[m0:]


def fold_interpolants(ops: RomOperators, interpolants: dict) -> None:
    """Fold the inverse (P^T U)^-1 of each DEIM input's interpolant into
    the window's operators (``fold_inputs``), so that the step reads the
    refreshed point values where it read their coefficients.  The inverse
    is the interpolant's online map of the unit point values,
    ``deim_online_values(interp, I)``."""
    fold_inputs(ops, {name: deim_online_values(interpolants[name],
                                               np.eye(ops.m))
                      for name in ops.inputs[2:]})
