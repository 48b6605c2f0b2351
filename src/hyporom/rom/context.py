"""Online context for the SWE reduced models.

DEIM-updated auxiliary variables need pointwise values of the lifted
state at the interpolation points only; the context pre-samples the h/q
mode rows there so each refresh costs O(M^2).  Interface evaluations
(fan coefficients) sample the two cells flanking each interface, with
edge clamping matching the ghost replication of the full-order scheme.
"""

from dataclasses import dataclass

import numpy as np

from ..deim import DeimInterpolant, deim_online_values
from ..errors import (DegenerateWaveFan, EvaluationError, MissingAuxBasis,
                      UnsupportedSystem)

LIN_TAV = "tav"
LIN_DEIM_U_TAV_F = "deim_u_tav_f"
LIN_DEIM_U_DEIM_F = "deim_u_deim_f"
LINEARIZATIONS = (LIN_TAV, LIN_DEIM_U_TAV_F, LIN_DEIM_U_DEIM_F)
COEFF_TAV = "tav"
COEFF_DEIM = "deim"
COEFF_MODES = (COEFF_TAV, COEFF_DEIM)


@dataclass
class PointSamples:
    """Mode rows of h and q sampled at one interpolant's point set."""

    interp: DeimInterpolant
    h_rows: np.ndarray
    q_rows: np.ndarray


@dataclass
class InterfaceSamples:
    """A fan-coefficient interpolant; the mode rows flanking its interface
    points are stacked for both fan interpolants on the context."""

    interp: DeimInterpolant


@dataclass
class SweRomContext:
    g: float = 9.81
    u_samples: PointSamples | None = None
    f_samples: PointSamples | None = None
    a0_samples: InterfaceSamples | None = None
    a1_samples: InterfaceSamples | None = None
    # Flank rows of the alpha0 then the alpha1 interpolation interfaces,
    # so one online refresh evaluates the wave fans of all of them at once.
    fan_h_left: np.ndarray | None = None
    fan_h_right: np.ndarray | None = None
    fan_q_left: np.ndarray | None = None
    fan_q_right: np.ndarray | None = None


def _cell_samples(interp, h_modes, q_modes) -> PointSamples:
    idx = interp.indices
    return PointSamples(interp=interp, h_rows=h_modes[idx, :],
                        q_rows=q_modes[idx, :])


def build_swe_context(bases: dict, interpolants: dict, linearization: str,
                      coeff_mode: str | None, g: float) -> SweRomContext:
    if linearization not in LINEARIZATIONS:
        raise UnsupportedSystem(f"unknown linearization {linearization!r}")
    h_modes = bases["h"].modes
    q_modes = bases["q"].modes
    ctx = SweRomContext(g=g)
    if linearization in (LIN_DEIM_U_TAV_F, LIN_DEIM_U_DEIM_F):
        if "u" not in interpolants:
            raise MissingAuxBasis("DEIM treatment of u needs a u basis")
        ctx.u_samples = _cell_samples(interpolants["u"], h_modes, q_modes)
    if linearization == LIN_DEIM_U_DEIM_F:
        if "f" not in interpolants:
            raise MissingAuxBasis("DEIM friction needs an f basis")
        ctx.f_samples = _cell_samples(interpolants["f"], h_modes, q_modes)
    if coeff_mode == COEFF_DEIM:
        for name in ("alpha0", "alpha1"):
            if name not in interpolants:
                raise MissingAuxBasis(f"DEIM fan coefficients need an {name} basis")
        a0, a1 = interpolants["alpha0"], interpolants["alpha1"]
        ctx.a0_samples = InterfaceSamples(interp=a0)
        ctx.a1_samples = InterfaceSamples(interp=a1)
        # Interface j lies between cells j-1 and j; edges clamp like ghosts.
        j = np.concatenate([a0.indices, a1.indices])
        left = np.clip(j - 1, 0, h_modes.shape[0] - 1)
        right = np.clip(j, 0, h_modes.shape[0] - 1)
        ctx.fan_h_left, ctx.fan_h_right = h_modes[left], h_modes[right]
        ctx.fan_q_left, ctx.fan_q_right = q_modes[left], q_modes[right]
    return ctx


def _lift_points(samples: PointSamples, h_hat, q_hat):
    h_pts = samples.h_rows @ h_hat
    q_pts = samples.q_rows @ q_hat
    if h_pts.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM point")
    return h_pts, q_pts


def refresh_u(ctx: SweRomContext, h_hat, q_hat) -> np.ndarray:
    h_pts, q_pts = _lift_points(ctx.u_samples, h_hat, q_hat)
    return deim_online_values(ctx.u_samples.interp, q_pts / h_pts)


def refresh_f(ctx: SweRomContext, h_hat, q_hat) -> np.ndarray:
    h_pts, q_pts = _lift_points(ctx.f_samples, h_hat, q_hat)
    return deim_online_values(ctx.f_samples.interp,
                              np.abs(q_pts) / h_pts ** (7.0 / 3.0))


def refresh_alphas(ctx: SweRomContext, h_hat, q_hat):
    """Fan coefficients at the stacked interpolation interfaces, one pass."""
    h_l = ctx.fan_h_left @ h_hat
    h_r = ctx.fan_h_right @ h_hat
    if h_l.min() <= 0.0 or h_r.min() <= 0.0:
        raise EvaluationError("non-positive depth at a DEIM interface")
    u_l = (ctx.fan_q_left @ q_hat) / h_l
    u_r = (ctx.fan_q_right @ q_hat) / h_r
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
