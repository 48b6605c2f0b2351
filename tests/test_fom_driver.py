import numpy as np
import pytest

from hyporom.errors import ConfigError
from hyporom.fluxes import FluxChoice
from hyporom.fom import (BurgersParams, SweModel, SweParams, SweState,
                         TransportModel, TransportParams, cfl_dt, run_fom,
                         transport_stationary)
from hyporom.fom import swe as swe_module
from hyporom.fom.swe import FAN_FIELDS, derived_fields, friction_kernel
from hyporom.grid import Grid1D

from oracles import interface_fan, kahan_sum


def test_stationary_run_returns_to_start():
    grid = Grid1D(0.0, 2.0, 200)
    params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
    model = TransportModel(params, grid)
    w0 = transport_stationary(params, 1.0, 0.0, grid.centers)
    res = run_fom(model, w0, t_final=10.0, cfl=0.9)
    assert np.max(np.abs(res.final_state - w0)) <= 1e-13 * np.max(np.abs(w0))
    snap = res.snapshots["w"]
    assert snap.n_cols >= 2
    assert snap.n_cols == res.n_steps + 1
    assert res.times[-1] == pytest.approx(10.0, abs=1e-12)
    assert np.sum(res.dts) == pytest.approx(10.0, abs=1e-10)


def test_tiny_horizon_single_clamped_step():
    grid = Grid1D(0.0, 2.0, 10)
    params = TransportParams(c=1.0, alpha=0.0)
    model = TransportModel(params, grid)
    w0 = np.ones(10)
    # CFL step would be 0.18; ask for far less.
    res = run_fom(model, w0, t_final=0.01, cfl=0.9)
    assert res.n_steps == 1
    assert res.snapshots["w"].n_cols == 2
    assert res.dts[0] == pytest.approx(0.01)


def test_dam_break_mass_conservation_with_boundary_accounting():
    grid = Grid1D(0.0, 12.0, 200)

    def z(x):
        return 0.2 * (1.0 - np.asarray(x) / 12.0)

    params = SweParams(g=9.81, n_b=0.1, nu=0.9, bathymetry=z)
    zc = z(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
    state = SweState(h=h0, q=np.zeros_like(h0))
    model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
    res = run_fom(model, state, t_final=1.0, cfl=0.9)

    # The h-update telescopes: per step the mass changes by
    # -dt*(q_last - q_first) evaluated at the pre-step column.
    qs = res.snapshots["q"].data
    fluxes = [res.dts[n] * (qs[-1, n] - qs[0, n]) for n in range(res.n_steps)]
    mass0 = kahan_sum(h0 * grid.dx)
    mass_final = kahan_sum(res.final_state.h * grid.dx)
    expected = mass0 - kahan_sum(fluxes)
    assert abs(mass_final - expected) <= 1e-12 * mass0


def test_snapshot_stride_keeps_full_dt_sequence():
    grid = Grid1D(0.0, 2.0, 50)
    params = TransportParams(c=1.0, alpha=1.0)
    model = TransportModel(params, grid)
    w0 = transport_stationary(params, 1.0, 0.0, grid.centers)
    full = run_fom(model, w0, t_final=0.5, cfl=0.9)
    strided = run_fom(model, w0, t_final=0.5, cfl=0.9, snapshot_stride=4)
    assert strided.n_steps == full.n_steps
    snap = strided.snapshots["w"]
    assert snap.n_cols < full.snapshots["w"].n_cols
    assert snap.times[0] == 0.0
    assert snap.times[-1] == pytest.approx(0.5, abs=1e-12)


def test_swe_run_records_h_and_q_only():
    # Whatever the flux, a run returns the two recorded matrices; the
    # derivation from them gives the interface fields one row more.
    grid = Grid1D(-5.0, 5.0, 40)

    def z(x):
        return -1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)

    params = SweParams(g=9.81, bathymetry=z)
    state = SweState(h=-z(grid.centers), q=np.zeros(40))
    for flux in (FluxChoice.MODIFIED_LAX_FRIEDRICHS, FluxChoice.HLL):
        res = run_fom(SweModel(params, grid, flux), state, t_final=0.05,
                      cfl=0.9)
        assert set(res.snapshots) == {"h", "q"}
        assert res.snapshots["h"].n_rows == res.snapshots["q"].n_rows == 40
    derived = derived_fields(res.snapshots["h"].data,
                             res.snapshots["q"].data, params.g,
                             ("u", "f") + FAN_FIELDS)
    for name in FAN_FIELDS:
        assert derived[name].shape == (41, res.snapshots["h"].n_cols)
    for name in ("u", "f"):
        assert derived[name].shape == (40, res.snapshots["h"].n_cols)


def _dam_case(flux, n=60):
    grid = Grid1D(0.0, 12.0, n)

    def z(x):
        return 0.2 * (1.0 - np.asarray(x) / 12.0)

    params = SweParams(g=9.81, n_b=0.1, nu=0.9, bathymetry=z)
    zc = z(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
    return SweModel(params, grid, flux), SweState(h=h0, q=np.zeros_like(h0))


@pytest.mark.parametrize("record, extra", [(True, 1), (False, 0)])
def test_hll_run_forms_one_fan_per_state(monkeypatch, record, extra):
    # Each step forms the fan of its state (N columns for N steps), and a
    # recorded run forms no other; deriving the fan fields of the recorded
    # columns afterwards forms exactly one more per column.  Columns are
    # counted, not calls, so the derivation's block width is free.
    model, state = _dam_case(FluxChoice.HLL)
    cols = []
    fan = swe_module._fan

    def counted(hg, ug, g):
        cols.append(1 if hg.ndim == 1 else hg.shape[1])
        return fan(hg, ug, g)

    monkeypatch.setattr(swe_module, "_fan", counted)
    res = run_fom(model, state, t_final=1.0, cfl=0.9, record=record)
    assert res.n_steps > 10
    assert sum(cols) == res.n_steps
    recorded = res.snapshots["h"].n_cols if record else 0
    if extra:
        derived_fields(res.snapshots["h"].data, res.snapshots["q"].data,
                       model.params.g, FAN_FIELDS)
    assert sum(cols) == res.n_steps + extra * recorded


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.HLL])
@pytest.mark.parametrize("record", [True, False])
def test_run_constructs_one_state_per_step(monkeypatch, flux, record):
    # A state is checked once, when it is built: the caller's before the
    # run, then each step's output.
    model, state = _dam_case(flux)
    calls = []
    check = SweState.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(SweState, "__post_init__", counted)
    res = run_fom(model, state, t_final=1.0, cfl=0.9, record=record)
    assert res.n_steps > 10
    assert len(calls) == res.n_steps


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.RUSANOV, FluxChoice.HLL])
@pytest.mark.parametrize("record", [True, False])
def test_run_is_bitwise_the_public_step_loop(flux, record):
    # The model's shared bed changes no bit of a run: replay it with a
    # fresh model on caller-built copies of each state.  The fields
    # derived from the recording are bitwise those of each state.
    model, state = _dam_case(flux)
    res = run_fom(model, state, t_final=1.0, cfl=0.9, record=record)
    params, grid = model.params, model.grid
    ref = SweModel(params, grid, flux)
    assert list(res.snapshots) == (["h", "q"] if record else [])
    if record:
        names = ("u", "f") + (FAN_FIELDS if flux is FluxChoice.HLL else ())
        derived = derived_fields(res.snapshots["h"].data,
                                 res.snapshots["q"].data, params.g, names)
    cur = state
    for n in range(len(res.times)):
        if record:
            want = {"h": cur.h, "q": cur.q, "u": cur.q / cur.h,
                    "f": friction_kernel(cur.h, cur.q)}
            if flux is FluxChoice.HLL:
                want.update(zip(FAN_FIELDS, interface_fan(cur, params.g)))
            for name, arr in want.items():
                got = derived[name] if name in derived \
                    else res.snapshots[name].data
                assert np.array_equal(got[:, n], arr)
        if n == res.n_steps:
            break
        dt = res.dts[n]
        assert cfl_dt(ref, cur, 0.9) == dt or n == res.n_steps - 1
        nxt = ref.step(cur, dt)
        cur = SweState(h=nxt.h.copy(), q=nxt.q.copy())
    assert np.array_equal(res.final_state.h, cur.h)
    assert np.array_equal(res.final_state.q, cur.q)


@pytest.mark.parametrize("kwargs, match", [
    ({"t_final": 0.0}, "t_final"),
    ({"snapshot_stride": 0}, "snapshot_stride"),
    ({"cfl": 1.5}, "cfl"),
], ids=["t_final", "snapshot_stride", "cfl"])
def test_bad_run_argument_raises_config_error(kwargs, match):
    model, state = _dam_case(FluxChoice.MODIFIED_LAX_FRIEDRICHS)
    with pytest.raises(ConfigError, match=match):
        run_fom(model, state, **{"t_final": 0.05, "cfl": 0.9, **kwargs})


@pytest.mark.parametrize("make, match", [
    (lambda: SweParams(g=0.0), "gravity"),
    (lambda: SweParams(n_b=-0.01), "Manning"),
    (lambda: SweParams(nu=1.5), "nu"),
    (lambda: TransportParams(c=0.0), "advection speed"),
    (lambda: TransportParams(c=1.0, nu=0.0), "nu"),
    (lambda: BurgersParams(nu=-1.0), "nu"),
], ids=["swe_g", "swe_n_b", "swe_nu", "transport_c", "transport_nu",
        "burgers_nu"])
def test_bad_params_raise_config_error(make, match):
    with pytest.raises(ConfigError, match=match):
        make()
