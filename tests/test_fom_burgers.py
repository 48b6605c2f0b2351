import numpy as np
import pytest

from hyporom.fom import BurgersParams, burgers_stationary, burgers_step
from hyporom.fluxes import FluxChoice
from hyporom.grid import Grid1D

from oracles import burgers_step_scalar

PARAMS = BurgersParams(alpha=1.0, nu=0.9)


def test_burgers_stationary_value():
    assert burgers_stationary(PARAMS, 0.1, 0.0, 1.0) == pytest.approx(
        0.1 * np.e, rel=1e-14)


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.RUSANOV])
def test_stationary_state_is_fixed_point(flux):
    grid = Grid1D(0.0, 2.0, 200)
    w = burgers_stationary(PARAMS, 0.1, 0.0, grid.centers)
    dt = 0.9 * grid.dx / np.max(np.abs(w))
    out = burgers_step(w, PARAMS, grid, dt, flux)
    assert np.max(np.abs(out - w)) <= 1e-13 * np.max(np.abs(w))


def test_constant_state_exact_without_source():
    grid = Grid1D(0.0, 1.0, 32)
    params = BurgersParams(alpha=0.0, nu=0.9)
    w = np.full(32, 0.8)
    out = burgers_step(w, params, grid, 0.9 * grid.dx / 0.8)
    assert np.array_equal(out, w)


def test_five_cell_step_matches_scalar_transcription():
    grid = Grid1D(0.0, 1.0, 5)
    w = np.array([0.2, 0.1, 0.1, 0.1, 0.1])
    dt = 0.9 * grid.dx / 0.2
    out = burgers_step(w, PARAMS, grid, dt)
    ref = burgers_step_scalar(w, alpha=1.0, nu=0.9, dx=grid.dx, dt=dt)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)


def test_randomized_states_match_scalar_transcription():
    rng = np.random.default_rng(11)
    for n in (5, 8, 10):
        grid = Grid1D(0.0, 1.0, n)
        params = BurgersParams(alpha=-0.4, nu=0.75)
        w = 0.1 + rng.random(n)
        dt = 0.9 * grid.dx / np.max(np.abs(w))
        out = burgers_step(w, params, grid, dt)
        ref = burgers_step_scalar(w, alpha=params.alpha, nu=params.nu,
                                  dx=grid.dx, dt=dt)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
