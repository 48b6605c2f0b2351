import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyporom.errors import (DegenerateWaveFan, NonFiniteState, NonPositiveDepth,
                            ShapeMismatch)
from hyporom.fluxes import FluxChoice
from hyporom.fom import SweModel, SweParams, SweState, cfl_dt, lake_at_rest
from hyporom.fom import swe as swe_module
from hyporom.grid import Grid1D

from oracles import (frozen_fan, frozen_max_speed, frozen_pad,
                     frozen_swe_step, swe_hll_step_scalar,
                     swe_lf_step_scalar)


def bump(x):
    return -1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)


BUMP_PARAMS = SweParams(g=9.81, n_b=0.0, nu=0.9, bathymetry=bump)


def _step(state, params, grid, dt, flux=FluxChoice.MODIFIED_LAX_FRIEDRICHS):
    """One step of a fresh model, as a run takes it."""
    return SweModel(params, grid, flux).step(state, dt)


def interface_fan(state, g):
    """The package's fan of one state: its derivation of a one-column
    recording, in the order ``_fan`` gives it."""
    fan = swe_module.derived_fields(state.h[:, None], state.q[:, None], g,
                                    swe_module.FAN_FIELDS)
    return tuple(fan[name][:, 0] for name in swe_module.FAN_FIELDS)


def test_interface_fan_roe_examples():
    # Interface j + 1/2 averages cells j and j + 1; the first and last
    # average an edge cell with its ghost copy.
    h = np.array([1.0, 4.0, 1.0, 2.0, 0.5])
    u = np.array([2.0, 0.0, 3.0, 1.0, -1.0])
    h_t, u_t, _, _ = interface_fan(SweState(h=h, q=h * u), BUMP_PARAMS.g)
    assert (h_t[0], u_t[0]) == (1.0, 2.0)
    assert h_t[2] == pytest.approx(2.5)
    assert u_t[2] == pytest.approx(1.0)
    assert h_t[4] == pytest.approx(1.25)
    expected = (np.sqrt(0.5) * -1.0 + np.sqrt(2.0) * 1.0) / (np.sqrt(0.5) + np.sqrt(2.0))
    assert u_t[4] == pytest.approx(expected, rel=1e-14)
    assert u_t[4] == pytest.approx(1.0 / 3.0, rel=1e-12)


def _fan_coeffs(s_l, s_r):
    return swe_module._fan_coeffs(np.array(s_l), np.array(s_r))


def test_hll_coeffs_examples():
    # Fans (S_L, S_R) = (-2.5, 2.5), (1, 3) and (-2, 1), one per interface.
    a0, a1 = _fan_coeffs([-2.5, 1.0, -2.0], [2.5, 3.0, 1.0])
    assert a0[0] == pytest.approx(2.5) and a1[0] == 0.0
    assert a0[1] == pytest.approx(0.0) and a1[1] == pytest.approx(1.0)
    assert a0[2] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert a1[2] == pytest.approx(-1.0 / 3.0, rel=1e-14)


def test_hll_degenerate_fan():
    with pytest.raises(DegenerateWaveFan):
        _fan_coeffs([1.0], [1.0])
    # One degenerate interface among several fails the whole call.
    with pytest.raises(DegenerateWaveFan):
        _fan_coeffs([-1.0, 2.0], [1.0, 2.0])


def _random_state(seed, n):
    rng = np.random.default_rng(seed)
    return SweState(h=0.3 + 2.0 * rng.random(n),
                    q=rng.standard_normal(n))


@pytest.mark.parametrize("seed", range(4))
def test_interface_fan_bitwise_frozen_path(seed):
    grid = Grid1D(-3.0, 3.0, 97)
    state = _random_state(seed, grid.n_cells)
    hg, qg = frozen_pad(state.h), frozen_pad(state.q)
    want = frozen_fan(hg, qg / hg, BUMP_PARAMS.g)
    got = interface_fan(state, BUMP_PARAMS.g)
    for g_arr, w_arr in zip(got, want):
        assert g_arr.shape == (grid.n_cells + 1,)
        assert np.array_equal(g_arr, w_arr)


@pytest.mark.parametrize("seed", range(4))
def test_hll_step_bitwise_with_frozen_fan(seed, monkeypatch):
    grid = Grid1D(-3.0, 3.0, 97)
    params = SweParams(g=9.81, n_b=0.03, bathymetry=bump)
    state = _random_state(seed, grid.n_cells)
    got = _step(state, params, grid, 1e-3, FluxChoice.HLL)
    calls = []

    def frozen(*args):
        calls.append(1)
        return frozen_fan(*args)

    monkeypatch.setattr(swe_module, "_fan", frozen)
    want = _step(state, params, grid, 1e-3, FluxChoice.HLL)
    assert calls
    assert np.array_equal(got.h, want.h) and np.array_equal(got.q, want.q)


def test_cfl_dt_lake_at_rest():
    grid = Grid1D(0.0, 1.0, 20)  # dx = 0.05
    params = SweParams(g=9.81)
    model = SweModel(params, grid)
    state = SweState(h=np.ones(20), q=np.zeros(20))
    assert cfl_dt(model, state, 0.9) == pytest.approx(
        0.9 * 0.05 / np.sqrt(9.81), rel=1e-12)


@pytest.mark.parametrize("stepper", ["mlf", "lf", "rusanov", "hll"])
def test_lake_at_rest_preserved(stepper):
    grid = Grid1D(-5.0, 5.0, 200)
    state = lake_at_rest(BUMP_PARAMS, grid, eta=0.0)
    dt = 0.9 * grid.dx / np.sqrt(9.81 * np.max(state.h))
    flux = {"mlf": FluxChoice.MODIFIED_LAX_FRIEDRICHS,
            "lf": FluxChoice.LAX_FRIEDRICHS,
            "rusanov": FluxChoice.RUSANOV,
            "hll": FluxChoice.HLL}[stepper]
    out = _step(state, BUMP_PARAMS, grid, dt, flux)
    scale = np.max(np.abs(state.h))
    assert np.max(np.abs(out.h - state.h)) <= 1e-13 * scale
    assert np.max(np.abs(out.q)) <= 1e-13 * scale


def test_flat_bottom_constant_state_exact():
    grid = Grid1D(0.0, 10.0, 50)
    params = SweParams(g=9.81, n_b=0.3)
    state = SweState(h=np.ones(50), q=np.zeros(50))
    out = _step(state, params, grid, 0.01)
    assert np.array_equal(out.h, state.h)
    assert np.array_equal(out.q, state.q)
    out = _step(state, params, grid, 0.01, FluxChoice.HLL)
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
    out = _step(state, params, grid, dt)
    h_ref, q_ref = swe_lf_step_scalar(state.h, state.q, z, params.g,
                                      params.n_b, params.nu, grid.dx, dt)
    np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-14)


def test_five_cell_hll_matches_scalar_transcription():
    grid, params, z, state = _five_cell_case()
    dt = 0.5 * grid.dx / 6.0
    out = _step(state, params, grid, dt, FluxChoice.HLL)
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
        out = _step(state, params, grid, dt)
        h_ref, q_ref = swe_lf_step_scalar(h, q, zvals, 9.81, 0.05, 0.85,
                                          grid.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)
        out = _step(state, params, grid, dt, FluxChoice.HLL)
        h_ref, q_ref = swe_hll_step_scalar(h, q, zvals, 9.81, 0.05,
                                           grid.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)


def test_negative_depth_is_hard_error():
    # A step that would dry a cell raises as it builds its output state.
    state = SweState(h=np.array([1.0, 1.0, 1e-3, 1.0, 1.0]),
                     q=np.array([0.0, -50.0, 0.0, 50.0, 0.0]))
    for flux in (FluxChoice.MODIFIED_LAX_FRIEDRICHS, FluxChoice.HLL):
        with pytest.raises(NonPositiveDepth):
            _step(state, SweParams(g=9.81), Grid1D(0.0, 1.0, 5), 0.01, flux)


_BAD_STATES = [
    (np.array([1.0, np.nan, 1.0, 1.0]), np.zeros(4), NonFiniteState),
    (np.ones(4), np.array([0.0, np.inf, 0.0, 0.0]), NonFiniteState),
    (np.array([1.0, 1.0, 0.0, 1.0]), np.zeros(4), NonPositiveDepth),
    (np.array([1.0, -0.5, 1.0, 1.0]), np.zeros(4), NonPositiveDepth),
]
_GRID4 = Grid1D(0.0, 1.0, 4)


@pytest.mark.parametrize("h, q, error", _BAD_STATES + [
    (np.ones(4), np.zeros(3), ShapeMismatch),
    (np.empty(0), np.empty(0), ShapeMismatch),
    (np.array(1.0), np.array(0.0), ShapeMismatch),
    (np.ones((2, 2)), np.zeros((2, 2)), ShapeMismatch),
    # A non-finite value is reported before a non-positive depth.
    (np.array([np.nan, -1.0, 1.0, 1.0]), np.zeros(4), NonFiniteState),
    (np.array([0.0, 1.0, 1.0, np.inf]), np.zeros(4), NonFiniteState),
    (np.array([1.0, 1.0, -np.inf, 1.0]), np.zeros(4), NonFiniteState),
    (np.array([1.0, -1.0, 1.0, 1.0]), np.array([0.0, np.nan, 0.0, 0.0]),
     NonFiniteState),
    (np.array([0.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, -np.inf, 0.0]),
     NonFiniteState),
])
def test_construction_checks_the_state(h, q, error):
    with pytest.raises(error):
        SweState(h=h, q=q)


def test_state_owns_the_callers_arrays_read_only():
    h, q = np.ones(4), np.zeros(4)
    state = SweState(h=h, q=q)
    assert state.h is h and state.q is q
    for arr in (h, q):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.h = np.full(4, 2.0)
    # A new state is the way to edit one, and it is checked again.
    with pytest.raises(NonFiniteState):
        dataclasses.replace(state, q=np.full(4, np.nan))


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.HLL])
@pytest.mark.parametrize("h, q, error", _BAD_STATES)
def test_model_checks_caller_states(flux, h, q, error):
    # No model entry can be handed a bad state: building one raises, and so
    # does editing a good state into one.
    model = SweModel(BUMP_PARAMS, _GRID4, flux)
    calls = [model.max_wave_speed, lambda s: model.step(s, 1e-3)]
    if flux is FluxChoice.HLL:
        calls.append(model.fields)
    good = SweState(h=np.ones(4), q=np.zeros(4))
    for call in calls:
        call(good)
        with pytest.raises(error):
            call(SweState(h=h, q=q))
        with pytest.raises(error):
            call(dataclasses.replace(good, h=h, q=q))


def _stepped(flux, seed=0):
    grid = Grid1D(-3.0, 3.0, 97)
    model = SweModel(BUMP_PARAMS, grid, flux)
    state = _random_state(seed, grid.n_cells)
    return model, grid, model.step(state, 1e-3)


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.HLL])
def test_stepped_states_are_read_only(flux):
    model, grid, out = _stepped(flux)
    fresh = _step(SweState(h=out.h.copy(), q=out.q.copy()), BUMP_PARAMS,
                  grid, 1e-3, flux)
    for state in (out, fresh):
        for arr in (state.h, state.q):
            with pytest.raises(ValueError, match="read-only"):
                arr[3] = -1.0
    # The recorded h and q are the state's own arrays.
    for arr in model.fields(out).values():
        with pytest.raises(ValueError, match="read-only"):
            arr[3] = -1.0


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.HLL])
def test_a_stepped_state_cannot_be_rebound(flux):
    _, _, out = _stepped(flux)
    for name in ("h", "q"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(out, name, getattr(out, name) + 0.25)


@pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                  FluxChoice.HLL])
def test_unpickled_stepped_state_is_checked_again(flux):
    # Pickled and deep-copied states are rebuilt through the constructor,
    # so they come back checked and read-only.
    _, _, out = _stepped(flux)
    for dup in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert dup is not out
        assert np.array_equal(dup.h, out.h) and np.array_equal(dup.q, out.q)
        assert not (dup.h.flags.writeable or dup.q.flags.writeable)
    cls, (h, q) = out.__reduce__()
    q = q.copy()
    q[7] = np.inf
    with pytest.raises(NonFiniteState):
        cls(h, q)


# The step, its CFL speed and the fan are pinned bitwise to the copies in
# oracles.py of the form that allocated one array per operation.

_FLUXES = list(FluxChoice)


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@st.composite
def _swe_cases(draw):
    n = draw(st.integers(1, 64))

    def cells(lo, hi):
        return draw(hnp.arrays(float, n, elements=st.floats(lo, hi)))

    h, q, z = cells(0.05, 5.0), cells(-5.0, 5.0), cells(-1.0, 1.0)
    params = SweParams(g=9.81, n_b=draw(st.sampled_from([0.0, 0.05])),
                       nu=0.9, bathymetry=lambda x, z=z: z)
    grid = Grid1D(0.0, draw(st.floats(0.5, 20.0)), n)
    return params, grid, SweState(h=h, q=q), draw(st.floats(0.05, 1.5))


@settings(max_examples=200, deadline=None)
@given(case=_swe_cases(), flux=st.sampled_from(_FLUXES))
def test_step_bitwise_the_frozen_copy(case, flux):
    # dt is a random fraction of the CFL step, up to 1.5 of it, so some
    # steps dry a cell: then the step raises the error a state built from
    # the copy's result raises.
    params, grid, state, cfl = case
    speed = swe_module._max_speed(state, params.g)
    assert speed == frozen_max_speed(state.h, state.q, params.g)
    dt = cfl * grid.dx / speed
    h_ref, q_ref = frozen_swe_step(state.h, state.q, params, grid, dt, flux)
    try:
        SweState(h=h_ref.copy(), q=q_ref.copy())
    except (NonFiniteState, NonPositiveDepth) as err:
        with pytest.raises(type(err)):
            _step(state, params, grid, dt, flux)
    else:
        out = _step(state, params, grid, dt, flux)
        assert np.array_equal(out.h, h_ref) and np.array_equal(out.q, q_ref)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 64), cols=st.integers(1, 20))
def test_block_fan_bitwise_the_frozen_copy(data, n, cols):
    # Blocks of columns, padded and passed to ``_fan`` as derived_fields
    # does; the fan writes none of its (read-only) inputs.
    def block(lo, hi):
        return data.draw(hnp.arrays(float, (n, cols),
                                    elements=st.floats(lo, hi)))

    hb, qb = block(0.05, 5.0), block(-5.0, 5.0)
    hg = swe_module._pad(hb)
    ug = swe_module._pad(qb) / hg
    want = frozen_fan(frozen_pad(hb), frozen_pad(qb) / frozen_pad(hb), 9.81)
    got = swe_module._fan(*_readonly(hg, ug), 9.81)
    for g_arr, w_arr in zip(got, want):
        assert g_arr.shape == (n + 1, cols)
        assert np.array_equal(g_arr, w_arr)
