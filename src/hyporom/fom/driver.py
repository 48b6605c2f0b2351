"""Time integration of the full-order models with snapshot recording.

A model bundles (params, grid, flux) and exposes the common surface the
driver needs: max wave speed, one explicit step, and the conserved state
to record per snapshot column.  Steps are pure functions of (state, dt),
and a model keeps nothing between them.  The driver is strictly
sequential in time, clamps the final step so the run lands exactly on
t_final, and returns the matrices the model records (``fields``): w, or
h and q.  The SWE's auxiliary fields (u, f, the HLL fan) are formed
from h and q where they are read (``fom/swe.py``, ``derived_fields``).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (ConfigError, HyporomError, ShapeMismatch,
                      UnsupportedSystem, ZeroWaveSpeed)
from ..fluxes import FluxChoice
from ..grid import Grid1D
from ..snapshots import SnapshotMatrix, SnapshotRecorder
from . import burgers as _burgers
from . import swe as _swe
from . import transport as _transport

_SPEED_FLOOR = 1e-300


class TransportModel:
    system = "transport"

    def __init__(self, params: _transport.TransportParams, grid: Grid1D,
                 flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS):
        if flux is FluxChoice.HLL:
            raise UnsupportedSystem("HLL flux is only defined for the SWE system")
        self.params = params
        self.grid = grid
        self.flux = flux

    def max_wave_speed(self, w):
        return _transport.transport_max_speed(w, self.params)

    def step(self, w, dt):
        return _transport.transport_step(w, self.params, self.grid, dt, self.flux)

    def fields(self, w):
        return {"w": w}


class BurgersModel:
    system = "burgers"

    def __init__(self, params: _burgers.BurgersParams, grid: Grid1D,
                 flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS):
        if flux is FluxChoice.HLL:
            raise UnsupportedSystem("HLL flux is only defined for the SWE system")
        self.params = params
        self.grid = grid
        self.flux = flux

    def max_wave_speed(self, w):
        return _burgers.burgers_max_speed(w, self.params)

    def step(self, w, dt):
        return _burgers.burgers_step(w, self.params, self.grid, dt, self.flux)

    def fields(self, w):
        return {"w": w}


class SweModel:
    """SWE model; records h and q only.  u = q/h, f = |q|/h^(7/3) and,
    with the HLL flux, the per-interface fan data (alpha0, alpha1, Roe
    averages) are pointwise functions of them, which the offline stage
    derives per window slice by the expressions the step evaluates
    (``swe.derived_fields``).  The bed profile (padded bed and its
    interface jumps) is formed once, here, from the ``params`` and
    ``grid`` given.
    """

    system = "swe"

    def __init__(self, params: _swe.SweParams, grid: Grid1D,
                 flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS):
        self.params = params
        self.grid = grid
        self.flux = flux
        self._bed = _swe.bed_profile(params, grid)

    def max_wave_speed(self, state):
        return _swe._max_speed(state, self.params.g)

    def step(self, state, dt):
        if self.flux is not FluxChoice.HLL:
            return _swe._lf_step(state, self.params, self.grid, dt,
                                 self.flux, self._bed)
        return _swe._hll_step(state, self.params, self.grid, dt, self._bed)

    def fields(self, state):
        return {"h": state.h, "q": state.q}


def cfl_dt(model, state, cfl: float) -> float:
    """CFL time step cfl*dx / max |lambda|; errors if no wave moves."""
    if not 0.0 < cfl <= 1.0:
        raise ConfigError("cfl must lie in (0, 1]")
    speed = model.max_wave_speed(state)
    if speed < _SPEED_FLOOR:
        raise ZeroWaveSpeed("maximum wave speed is zero")
    return cfl * model.grid.dx / speed


@dataclass
class FomResult:
    final_state: object
    times: np.ndarray                      # every visited time, incl. t=0
    dts: np.ndarray                        # every step taken (len(times)-1)
    snapshots: dict[str, SnapshotMatrix] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.dts)


def run_fom(model, state, t_final: float, cfl: float = 0.9, *,
            record: bool = True, snapshot_stride: int = 1) -> FomResult:
    """Advance from t=0 to exactly t_final, recording states and steps.

    ``snapshot_stride`` keeps every k-th column (plus t=0 and the final
    state); the returned dt sequence always contains every step so a ROM
    can replay the exact time grid.  The state's fields must each hold
    one value per grid cell.
    """
    if t_final <= 0.0:
        raise ConfigError("t_final must be positive")
    if snapshot_stride < 1:
        raise ConfigError("snapshot_stride must be >= 1")

    fields = model.fields(state)
    for name, values in fields.items():
        if np.shape(values) != (model.grid.n_cells,):
            raise ShapeMismatch(
                f"state field {name} has shape {np.shape(values)}; the grid "
                f"has {model.grid.n_cells} cells")

    recorder = SnapshotRecorder() if record else None
    clamp_eps = 1e-12 * max(t_final, 1.0)

    t = 0.0
    times = [0.0]
    dts: list[float] = []
    if recorder is not None:
        recorder.record(fields, 0.0)

    t0 = time.perf_counter()
    step_index = 0
    while t_final - t > clamp_eps:
        dt = cfl_dt(model, state, cfl)
        if t + dt >= t_final - clamp_eps:
            dt = t_final - t
        try:
            state = model.step(state, dt)
        except HyporomError as exc:
            raise type(exc)(f"{exc} (step from t={t:.6g})") from exc
        t += dt
        step_index += 1
        dts.append(dt)
        times.append(t)
        if recorder is not None:
            final = t_final - t <= clamp_eps
            if final or step_index % snapshot_stride == 0:
                recorder.record(model.fields(state), t)
    wall = time.perf_counter() - t0

    return FomResult(final_state=state, times=np.array(times),
                     dts=np.array(dts),
                     snapshots=recorder.finalize() if recorder else {},
                     wall_seconds=wall)
