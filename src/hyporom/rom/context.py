"""Online context for the SWE reduced models.

DEIM-updated auxiliary variables need pointwise values of the lifted
state at the interpolation points only.  The context stacks the h and q
mode rows of every sampled cell into one array, so a single batched
product per step samples the state for all refreshes; each refresh then
reads its own slice of the samples, at O(M) cost per point.  Interface
evaluations (fan coefficients) sample the two cells flanking each
interface, with edge clamping matching the ghost replication of the
full-order scheme.
"""

from dataclasses import dataclass

import numpy as np

from ..deim import DeimInterpolant, deim_online_values
from ..errors import DegenerateWaveFan, EvaluationError

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


def refresh_u(ctx: SweRomContext, pts: np.ndarray) -> np.ndarray:
    """DEIM coefficients of u = q/h from the sampled points ``pts``."""
    at = ctx.u_samples.at
    h_pts = pts[0, at, 0]
    if h_pts.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    return deim_online_values(ctx.u_samples.interp, pts[1, at, 0] / h_pts)


def refresh_f(ctx: SweRomContext, pts: np.ndarray) -> np.ndarray:
    """DEIM coefficients of f = |q|/h^(7/3) from the sampled points."""
    at = ctx.f_samples.at
    h_pts = pts[0, at, 0]
    if h_pts.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    return deim_online_values(ctx.f_samples.interp,
                              np.abs(pts[1, at, 0]) / h_pts ** (7.0 / 3.0))


def refresh_alphas(ctx: SweRomContext, pts: np.ndarray):
    """Fan coefficients at the stacked interpolation interfaces, one pass,
    from the sampled flanking cells."""
    h_l = pts[0, ctx.fan_left, 0]
    h_r = pts[0, ctx.fan_right, 0]
    if h_l.min() <= 0.0 or h_r.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM interface")
    u_l = pts[1, ctx.fan_left, 0] / h_l
    u_r = pts[1, ctx.fan_right, 0] / h_r
    # Inline Roe + Davis + degree-1 fan coefficients (hot online path);
    # the arithmetic mirrors the full-order fan evaluation exactly.
    sqrt_l = np.sqrt(h_l)
    sqrt_r = np.sqrt(h_r)
    u_t = (sqrt_r * u_r + sqrt_l * u_l) / (sqrt_r + sqrt_l)
    g = ctx.g
    c_t = np.sqrt(g * (0.5 * (h_l + h_r)))
    s_l = np.minimum(u_l - np.sqrt(g * h_l), u_t - c_t)
    s_r = np.maximum(u_r + np.sqrt(g * h_r), u_t + c_t)
    gap = s_r - s_l
    abs_l = np.abs(s_l)
    abs_r = np.abs(s_r)
    if gap.min() < 1e-12 * max(1.0, abs_l.max(), abs_r.max()):
        raise DegenerateWaveFan(
            "HLL wave speeds are not separated at a DEIM interface")
    m0 = ctx.a0_samples.interp.m
    a0_hat = deim_online_values(ctx.a0_samples.interp,
                                ((s_r * abs_l - s_l * abs_r) / gap)[:m0])
    a1_hat = deim_online_values(ctx.a1_samples.interp,
                                ((abs_r - abs_l) / gap)[m0:])
    return a0_hat, a1_hat
