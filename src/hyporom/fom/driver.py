"""Time integration of the full-order models with snapshot recording.

A model bundles (params, grid, flux) and exposes the common surface the
driver needs: max wave speed, one explicit step, and the named fields to
record per snapshot column.  Steps are pure functions of (state, dt); the
driver is strictly sequential in time and clamps the final step so the
run lands exactly on t_final.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (ConfigError, HyporomError, UnsupportedSystem,
                      ZeroWaveSpeed)
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
    """SWE model; records u = q/h and f = |q|/h^(7/3) alongside h, q.

    With the HLL flux the per-interface fan data (alpha0, alpha1, Roe
    averages) are recorded too: the same expressions the HLL step
    evaluates, so the recorded fan columns are bitwise the step's.  Every
    auxiliary column is a pure function of the (h, q) column it belongs
    to.

    Each state of a run is derived from once.  A ``SweState`` is checked
    when it is built and its arrays are read-only, so the HLL fan that
    ``fields`` forms for a state is the one the next ``step`` uses.  The
    bed profile (padded bed and its interface jumps) is formed once, here,
    from the ``params`` and ``grid`` given.
    """

    system = "swe"

    def __init__(self, params: _swe.SweParams, grid: Grid1D,
                 flux: FluxChoice = FluxChoice.MODIFIED_LAX_FRIEDRICHS):
        self.params = params
        self.grid = grid
        self.flux = flux
        self._bed = _swe.bed_profile(params, grid)
        self._fan = (None, None)          # (state, its HLL fan)

    def max_wave_speed(self, state):
        return _swe._max_speed(state, self.params.g)

    def step(self, state, dt):
        if self.flux is not FluxChoice.HLL:
            return _swe._lf_step(state, self.params, self.grid, dt,
                                 self.flux, self._bed)
        fan = self._fan[1] if self._fan[0] is state else None
        self._fan = (None, None)
        return _swe._hll_step(state, self.params, self.grid, dt, self._bed,
                              fan)

    def fields(self, state):
        h, q = state.h, state.q
        fan = self._state_fan(state) if self.flux is FluxChoice.HLL else None
        out = {
            "h": h,
            "q": q,
            "u": q / h,
            "f": _swe.friction_kernel(h, q),
        }
        if fan is not None:
            h_t, u_t, a0, a1 = fan
            out.update({"alpha0": a0, "alpha1": a1,
                        "htilde": h_t, "utilde": u_t})
        return out

    def _state_fan(self, state):
        """The HLL fan of ``state``, formed once, made read-only and kept
        for the next step."""
        if self._fan[0] is not state:
            fan = _swe.interface_fan(state, self.params, self.grid)
            for arr in fan:
                arr.flags.writeable = False
            self._fan = (state, fan)
        return self._fan[1]


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
    can replay the exact time grid.
    """
    if t_final <= 0.0:
        raise ConfigError("t_final must be positive")
    if snapshot_stride < 1:
        raise ConfigError("snapshot_stride must be >= 1")

    recorder = SnapshotRecorder() if record else None
    clamp_eps = 1e-12 * max(t_final, 1.0)

    t = 0.0
    times = [0.0]
    dts: list[float] = []
    if recorder is not None:
        recorder.record(model.fields(state), 0.0)

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

    snapshots = recorder.finalize() if recorder else {}
    return FomResult(final_state=state, times=np.array(times),
                     dts=np.array(dts), snapshots=snapshots,
                     wall_seconds=wall)
