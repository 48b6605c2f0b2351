import numpy as np
import pytest

from hyporom.errors import NonFiniteState, ZeroWaveSpeed
from hyporom.fluxes import FluxChoice
from hyporom.fom import (TransportModel, TransportParams, cfl_dt,
                         transport_stationary, transport_step)
from hyporom.grid import Grid1D

from oracles import transport_step_scalar

PARAMS = TransportParams(c=1.0, alpha=1.0, nu=0.9)


def test_transport_stationary_value():
    assert transport_stationary(PARAMS, 1.0, 0.0, 2.0) == pytest.approx(
        np.e ** 2, rel=1e-14)


def test_cfl_dt_linear_speed():
    grid = Grid1D(0.0, 2.0, 200)
    model = TransportModel(PARAMS, grid)
    w = transport_stationary(PARAMS, 1.0, 0.0, grid.centers)
    assert cfl_dt(model, w, 0.9) == pytest.approx(0.009, rel=1e-14)


def test_cfl_rejects_nonfinite():
    grid = Grid1D(0.0, 2.0, 10)
    model = TransportModel(PARAMS, grid)
    w = np.ones(10)
    w[3] = np.nan
    with pytest.raises(NonFiniteState):
        cfl_dt(model, w, 0.9)


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.LAX_FRIEDRICHS,
                                  FluxChoice.RUSANOV])
def test_stationary_state_is_fixed_point(flux):
    grid = Grid1D(0.0, 2.0, 200)
    w = transport_stationary(PARAMS, 1.0, 0.0, grid.centers)
    dt = 0.9 * grid.dx / abs(PARAMS.c)
    out = transport_step(w, PARAMS, grid, dt, flux)
    assert np.max(np.abs(out - w)) <= 1e-13 * np.max(np.abs(w))


def test_constant_state_exact_without_source():
    grid = Grid1D(0.0, 1.0, 64)
    params = TransportParams(c=2.0, alpha=0.0, nu=0.9)
    w = np.full(64, 3.7)
    out = transport_step(w, params, grid, 0.4 * grid.dx / 2.0)
    assert np.array_equal(out, w)


def test_five_cell_step_matches_scalar_transcription():
    grid = Grid1D(0.0, 1.0, 5)
    w = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    dt = 0.9 * grid.dx / 1.0
    out = transport_step(w, PARAMS, grid, dt)
    ref = transport_step_scalar(w, c=1.0, alpha=1.0, nu=0.9, dx=grid.dx, dt=dt)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)


def test_randomized_states_match_scalar_transcription():
    rng = np.random.default_rng(7)
    for n in (5, 7, 10):
        grid = Grid1D(-1.0, 1.5, n)
        params = TransportParams(c=-0.8, alpha=0.65, nu=0.8)
        w = rng.standard_normal(n)
        dt = 0.9 * grid.dx / abs(params.c)
        out = transport_step(w, params, grid, dt)
        ref = transport_step_scalar(w, c=params.c, alpha=params.alpha,
                                    nu=params.nu, dx=grid.dx, dt=dt)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)


def test_step_rejects_nonfinite_state():
    grid = Grid1D(0.0, 1.0, 5)
    w = np.array([1.0, np.inf, 0.0, 0.0, 0.0])
    with pytest.raises(NonFiniteState):
        transport_step(w, PARAMS, grid, 0.001)


def test_zero_wave_speed_is_an_error():
    grid = Grid1D(0.0, 1.0, 8)
    from hyporom.fom import BurgersModel, BurgersParams
    model = BurgersModel(BurgersParams(alpha=1.0), grid)
    with pytest.raises(ZeroWaveSpeed):
        cfl_dt(model, np.zeros(8), 0.9)


def test_pvm0_stability_window():
    # With dt at the CFL limit and nu in [cfl, 1], max|lambda| <= alpha0 <= dx/dt.
    grid = Grid1D(0.0, 2.0, 50)
    cfl = 0.9
    for nu in (cfl, 0.95, 1.0):
        params = TransportParams(c=1.3, alpha=0.5, nu=nu)
        model = TransportModel(params, grid)
        w = transport_stationary(params, 1.0, 0.0, grid.centers)
        dt = cfl_dt(model, w, cfl)
        alpha0 = nu * grid.dx / dt
        assert abs(params.c) <= alpha0 + 1e-14
        assert alpha0 <= grid.dx / dt + 1e-14
