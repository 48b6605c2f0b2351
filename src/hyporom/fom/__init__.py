"""Full-order models: EWB finite-volume schemes for the three systems."""

from .burgers import BurgersParams, burgers_max_speed, burgers_stationary, burgers_step
from .driver import BurgersModel, FomResult, SweModel, TransportModel, cfl_dt, run_fom
from .swe import SweParams, SweState, flat_bottom, interface_fan, lake_at_rest
from .transport import (TransportParams, transport_max_speed, transport_stationary,
                        transport_step)

__all__ = [
    "BurgersModel", "BurgersParams", "FomResult", "SweModel", "SweParams",
    "SweState", "TransportModel", "TransportParams", "cfl_dt",
    "flat_bottom", "interface_fan", "lake_at_rest", "run_fom",
    "burgers_max_speed", "burgers_stationary", "burgers_step",
    "transport_max_speed", "transport_stationary", "transport_step",
]
