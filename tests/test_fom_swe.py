import numpy as np
import pytest

from hyporom.errors import (DegenerateWaveFan, NonPositiveDepth,
                            UnsupportedSystem)
from hyporom.fluxes import FluxChoice
from hyporom.fom import (SweModel, SweParams, SweState, cfl_dt, froude_number,
                         hll_coeffs, interface_fan, lake_at_rest, roe_averages,
                         swe_hll_step, swe_lf_step)
from hyporom.fom import swe as swe_module
from hyporom.grid import Grid1D

from oracles import swe_hll_step_scalar, swe_lf_step_scalar


def bump(x):
    return -1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)


BUMP_PARAMS = SweParams(g=9.81, n_b=0.0, nu=0.9, bathymetry=bump)


def test_roe_averages_examples():
    assert roe_averages(1.0, 1.0, 2.0, 2.0) == (1.0, 2.0)
    h_t, u_t = roe_averages(4.0, 1.0, 0.0, 3.0)
    assert h_t == pytest.approx(2.5)
    assert u_t == pytest.approx(1.0)
    h_t, u_t = roe_averages(2.0, 0.5, 1.0, -1.0)
    assert h_t == pytest.approx(1.25)
    expected = (np.sqrt(0.5) * -1.0 + np.sqrt(2.0) * 1.0) / (np.sqrt(0.5) + np.sqrt(2.0))
    assert u_t == pytest.approx(expected, rel=1e-14)
    assert u_t == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_roe_averages_require_positive_depth():
    with pytest.raises(NonPositiveDepth):
        roe_averages(0.0, 1.0, 0.0, 0.0)


def test_hll_coeffs_examples():
    a0, a1 = hll_coeffs(-2.5, 2.5)
    assert a0 == pytest.approx(2.5) and a1 == 0.0
    a0, a1 = hll_coeffs(1.0, 3.0)
    assert a0 == pytest.approx(0.0) and a1 == pytest.approx(1.0)
    a0, a1 = hll_coeffs(-2.0, 1.0)
    assert a0 == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert a1 == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_hll_degenerate_fan():
    with pytest.raises(DegenerateWaveFan):
        hll_coeffs(1.0, 1.0)


def _frozen_fan(hg, ug, g):
    """The fan as roe_averages, davis_speeds and hll_coeffs computed it
    before ``interface_fan``, inlined: the Davis speeds form the Roe
    averages a second time."""
    def roe(h_l, h_r, u_l, u_r):
        sl, sr = np.sqrt(h_l), np.sqrt(h_r)
        return 0.5 * (h_l + h_r), (sr * u_r + sl * u_l) / (sr + sl)

    h_l, h_r, u_l, u_r = hg[:-1], hg[1:], ug[:-1], ug[1:]
    h_t, u_t = roe(h_l, h_r, u_l, u_r)
    c_l = np.sqrt(g * h_l)
    c_r = np.sqrt(g * h_r)
    h_d, u_d = roe(h_l, h_r, u_l, u_r)
    c_t = np.sqrt(g * h_d)
    s_l = np.minimum(u_l - c_l, u_d - c_t)
    s_r = np.maximum(u_r + c_r, u_d + c_t)
    gap = s_r - s_l
    a0 = (s_r * np.abs(s_l) - s_l * np.abs(s_r)) / gap
    a1 = (np.abs(s_r) - np.abs(s_l)) / gap
    return h_t, u_t, a0, a1


def _random_state(seed, n):
    rng = np.random.default_rng(seed)
    return SweState(h=0.3 + 2.0 * rng.random(n),
                    q=rng.standard_normal(n))


@pytest.mark.parametrize("seed", range(4))
def test_interface_fan_bitwise_frozen_path(seed):
    grid = Grid1D(-3.0, 3.0, 97)
    state = _random_state(seed, grid.n_cells)
    hg = np.concatenate(([state.h[0]], state.h, [state.h[-1]]))
    qg = np.concatenate(([state.q[0]], state.q, [state.q[-1]]))
    want = _frozen_fan(hg, qg / hg, BUMP_PARAMS.g)
    got = interface_fan(state, BUMP_PARAMS, grid)
    for g_arr, w_arr in zip(got, want):
        assert g_arr.shape == (grid.n_cells + 1,)
        assert np.array_equal(g_arr, w_arr)


@pytest.mark.parametrize("seed", range(4))
def test_hll_step_bitwise_with_frozen_fan(seed, monkeypatch):
    grid = Grid1D(-3.0, 3.0, 97)
    params = SweParams(g=9.81, n_b=0.03, bathymetry=bump)
    state = _random_state(seed, grid.n_cells)
    got = swe_hll_step(state, params, grid, 1e-3)
    calls = []

    def frozen(*args):
        calls.append(1)
        return _frozen_fan(*args)

    monkeypatch.setattr(swe_module, "_fan", frozen)
    want = swe_hll_step(state, params, grid, 1e-3)
    assert calls
    assert np.array_equal(got.h, want.h) and np.array_equal(got.q, want.q)


def test_cfl_dt_lake_at_rest():
    grid = Grid1D(0.0, 1.0, 20)  # dx = 0.05
    params = SweParams(g=9.81)
    model = SweModel(params, grid)
    state = SweState(h=np.ones(20), q=np.zeros(20))
    assert cfl_dt(model, state, 0.9) == pytest.approx(
        0.9 * 0.05 / np.sqrt(9.81), rel=1e-12)


def test_froude_is_diagnostic_only():
    state = SweState(h=np.full(4, 2.0), q=np.full(4, 1.0))
    fr = froude_number(state, SweParams(g=9.81))
    assert fr == pytest.approx(0.5 / np.sqrt(9.81 * 2.0))


@pytest.mark.parametrize("stepper", ["mlf", "lf", "rusanov", "hll"])
def test_lake_at_rest_preserved(stepper):
    grid = Grid1D(-5.0, 5.0, 200)
    state = lake_at_rest(BUMP_PARAMS, grid, eta=0.0)
    dt = 0.9 * grid.dx / np.sqrt(9.81 * np.max(state.h))
    if stepper == "hll":
        out = swe_hll_step(state, BUMP_PARAMS, grid, dt)
    else:
        flux = {"mlf": FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                "lf": FluxChoice.LAX_FRIEDRICHS,
                "rusanov": FluxChoice.RUSANOV}[stepper]
        out = swe_lf_step(state, BUMP_PARAMS, grid, dt, flux)
    scale = np.max(np.abs(state.h))
    assert np.max(np.abs(out.h - state.h)) <= 1e-13 * scale
    assert np.max(np.abs(out.q)) <= 1e-13 * scale


def test_flat_bottom_constant_state_exact():
    grid = Grid1D(0.0, 10.0, 50)
    params = SweParams(g=9.81, n_b=0.3)
    state = SweState(h=np.ones(50), q=np.zeros(50))
    out = swe_lf_step(state, params, grid, 0.01)
    assert np.array_equal(out.h, state.h)
    assert np.array_equal(out.q, state.q)
    out = swe_hll_step(state, params, grid, 0.01)
    assert np.array_equal(out.h, state.h)
    assert np.array_equal(out.q, state.q)


def _five_cell_case():
    grid = Grid1D(0.0, 1.0, 5)
    z = 0.1 * grid.centers
    params = SweParams(g=9.81, n_b=0.1, nu=0.9,
                       bathymetry=lambda x: 0.1 * np.asarray(x))
    h = np.array([2.0, 2.0, 1.7, 1.0, 1.0]) - z
    q = np.array([0.0, 0.1, -0.2, 0.05, 0.0])
    return grid, params, z, SweState(h=h, q=q)


def test_five_cell_lf_matches_scalar_transcription():
    grid, params, z, state = _five_cell_case()
    dt = 0.5 * grid.dx / 6.0
    out = swe_lf_step(state, params, grid, dt)
    h_ref, q_ref = swe_lf_step_scalar(state.h, state.q, z, params.g,
                                      params.n_b, params.nu, grid.dx, dt)
    np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-14)


def test_five_cell_hll_matches_scalar_transcription():
    grid, params, z, state = _five_cell_case()
    dt = 0.5 * grid.dx / 6.0
    out = swe_hll_step(state, params, grid, dt)
    h_ref, q_ref = swe_hll_step_scalar(state.h, state.q, z, params.g,
                                       params.n_b, grid.dx, dt)
    np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-14)


def test_randomized_states_match_scalar_transcriptions():
    rng = np.random.default_rng(23)
    for n in (5, 8, 10):
        grid = Grid1D(0.0, 2.0, n)
        zvals = 0.05 * rng.random(n)

        params = SweParams(g=9.81, n_b=0.05, nu=0.85,
                           bathymetry=lambda x, zv=zvals, g_=grid:
                           np.interp(np.asarray(x), g_.centers, zv))
        h = 0.5 + rng.random(n)
        q = rng.standard_normal(n) * 0.3
        state = SweState(h=h, q=q)
        dt = 0.4 * grid.dx / 8.0
        out = swe_lf_step(state, params, grid, dt)
        h_ref, q_ref = swe_lf_step_scalar(h, q, zvals, 9.81, 0.05, 0.85,
                                          grid.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)
        out = swe_hll_step(state, params, grid, dt)
        h_ref, q_ref = swe_hll_step_scalar(h, q, zvals, 9.81, 0.05,
                                           grid.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)


def test_negative_depth_is_hard_error():
    grid = Grid1D(0.0, 1.0, 5)
    params = SweParams(g=9.81)
    state = SweState(h=np.array([1.0, 1.0, -0.1, 1.0, 1.0]), q=np.zeros(5))
    with pytest.raises(NonPositiveDepth):
        swe_lf_step(state, params, grid, 0.001)


def test_lf_stepper_rejects_hll_choice():
    grid = Grid1D(0.0, 1.0, 5)
    state = SweState(h=np.ones(5), q=np.zeros(5))
    with pytest.raises(UnsupportedSystem):
        swe_lf_step(state, SweParams(), grid, 0.001, FluxChoice.HLL)
