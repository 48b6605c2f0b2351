"""Full-order models: EWB finite-volume schemes for the three systems."""

import numpy as np

from ..errors import UnsupportedSystem
from .burgers import BurgersParams, burgers_max_speed, burgers_stationary, burgers_step
from .driver import BurgersModel, FomResult, SweModel, TransportModel, cfl_dt, run_fom
from .swe import (SweParams, SweState, flat_bottom, froude_number, hll_coeffs,
                  interface_fan, lake_at_rest, roe_averages, swe_hll_step,
                  swe_lf_step, swe_max_speed)
from .transport import (TransportParams, transport_max_speed, transport_stationary,
                        transport_step)

__all__ = [
    "BurgersModel", "BurgersParams", "FomResult", "SweModel", "SweParams",
    "SweState", "TransportModel", "TransportParams", "cfl_dt",
    "flat_bottom", "froude_number", "hll_coeffs", "interface_fan",
    "lake_at_rest", "roe_averages", "run_fom",
    "stationary_profile", "swe_hll_step", "swe_lf_step", "swe_max_speed",
    "burgers_max_speed", "burgers_stationary", "burgers_step",
    "transport_max_speed", "transport_stationary", "transport_step",
]


def stationary_profile(system: str, params, anchor_value: float,
                       anchor_x: float, x):
    """Evaluate the stationary family through (anchor_x, anchor_value) at x.

    ``system`` is one of "transport", "burgers" or "swe-rest"; for the
    latter the anchor value is the depth at anchor_x and the returned
    profile is the water-at-rest depth h(x) = eta - z(x) (u = 0).
    """
    if system == "transport":
        return transport_stationary(params, anchor_value, anchor_x, x)
    if system == "burgers":
        return burgers_stationary(params, anchor_value, anchor_x, x)
    if system == "swe-rest":
        eta = anchor_value + float(np.asarray(params.bathymetry(anchor_x)))
        return eta - np.asarray(params.bathymetry(x))
    raise UnsupportedSystem(f"unknown system {system!r}")
