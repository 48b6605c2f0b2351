"""End-to-end reduced pipeline: offline build + online replay."""

import copy
import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

import hyporom.pod as pod

from hyporom.errors import (BreakdownInEigensolve, EvaluationError,
                            NonFiniteState, NonPositiveDepth, ShapeMismatch,
                            UnsupportedSystem)
from hyporom.fluxes import FluxChoice
from hyporom.fom import (BurgersModel, BurgersParams, SweModel, SweParams,
                         TransportModel, TransportParams, burgers_stationary,
                         lake_at_rest, run_fom, transport_stationary)
from hyporom.grid import Grid1D
from hyporom.pod import thin_svd
from hyporom.rom import (COEFF_DEIM, COEFF_TAV, LIN_DEIM_U_DEIM_F, LIN_TAV,
                         build_rom, run_rom)


def _transport_run(n=100, t_final=2.0, perturbed=False):
    grid = Grid1D(0.0, 2.0, n)
    params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
    model = TransportModel(params, grid)
    w0 = transport_stationary(params, 1.0, 0.0, grid.centers)
    if perturbed:
        w0 = w0 + 0.3 * np.exp(-100.0 * (grid.centers - 0.3) ** 2)
    res = run_fom(model, w0, t_final=t_final, cfl=0.9)
    return grid, params, w0, res


def test_transport_wb_pipeline_any_windows():
    grid, params, w0, res = _transport_run()
    for n_windows in (1, 4):
        setup = build_rom("transport", [res.snapshots], params, grid,
                          n_windows=n_windows, eps_pod=1e-10)
        assert setup.modes_per_window == [1] * n_windows
        out = run_rom(setup, {"w": w0}, res.dts)
        assert np.max(np.abs(out.final["w"] - w0)) <= 1e-12 * np.max(np.abs(w0))


def test_single_window_equals_manual_stepping():
    grid, params, w0, res = _transport_run(n=60, t_final=0.5, perturbed=True)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=1, eps_pod=1e-12)
    out = run_rom(setup, {"w": w0}, res.dts)

    from hyporom.pod import lift
    from oracles import project
    from hyporom.rom import rom_transport_step
    basis = setup.windows[0].bases["w"]
    w_hat = project(basis, w0)
    for dt in res.dts:
        w_hat = rom_transport_step(w_hat, setup.windows[0].ops, None, dt)
    np.testing.assert_allclose(out.final["w"], lift(basis, w_hat), atol=1e-13)


def test_transport_perturbation_accuracy():
    grid, params, w0, res = _transport_run(n=200, t_final=0.8, perturbed=True)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=10, eps_pod=1e-10, mode_cap=10)
    out = run_rom(setup, {"w": w0}, res.dts)
    err = np.sum(np.abs(out.final["w"] - res.final_state)) * grid.dx
    assert err <= 1e-3


def test_burgers_windows_improve_fixed_modes():
    grid = Grid1D(0.0, 2.0, 200)
    params = BurgersParams(alpha=1.0, nu=0.9)
    model = BurgersModel(params, grid)
    w0 = burgers_stationary(params, 0.1, 0.0, grid.centers) \
        + 0.3 * np.exp(-100.0 * (grid.centers - 0.3) ** 2)
    res = run_fom(model, w0, t_final=3.0, cfl=0.9)
    errors = {}
    for n_windows in (1, 25):
        setup = build_rom("burgers", [res.snapshots], params, grid,
                          n_windows=n_windows, eps_pod=1e-10, mode_cap=5)
        out = run_rom(setup, {"w": w0}, res.dts)
        errors[n_windows] = np.sum(np.abs(out.final["w"] - res.final_state)) \
            * grid.dx
    assert errors[25] < 0.8 * errors[1]


def _swe_wb_run(flux, n=100):
    grid = Grid1D(-5.0, 5.0, n)

    def z(x):
        return -1.0 + 0.5 * np.exp(-np.asarray(x) ** 2)

    params = SweParams(g=9.81, n_b=0.0, nu=0.9, bathymetry=z)
    state = lake_at_rest(params, grid, eta=0.0)
    model = SweModel(params, grid, flux)
    res = run_fom(model, state, t_final=1.0, cfl=0.9)
    return grid, params, state, res


@pytest.mark.parametrize("flux,system,lin,coeff", [
    (FluxChoice.MODIFIED_LAX_FRIEDRICHS, "swe_lf", LIN_TAV, None),
    (FluxChoice.MODIFIED_LAX_FRIEDRICHS, "swe_lf", LIN_DEIM_U_DEIM_F, None),
    (FluxChoice.HLL, "swe_hll", LIN_TAV, COEFF_TAV),
    (FluxChoice.HLL, "swe_hll", LIN_DEIM_U_DEIM_F, COEFF_DEIM),
])
def test_swe_wb_pipeline(flux, system, lin, coeff):
    grid, params, state, res = _swe_wb_run(flux)
    setup = build_rom(system, [res.snapshots], params, grid, n_windows=1,
                      eps_pod=1e-10, linearization=lin, coeff_mode=coeff)
    assert setup.modes_per_window == [1]
    out = run_rom(setup, {"h": state.h, "q": state.q}, res.dts,
                  keep_history=True)
    scale = np.max(np.abs(state.h))
    # The projected stationary state is a fixed point for every n.
    assert np.max(np.abs(out.history["h"] - state.h[:, None])) <= 1e-12 * scale
    assert np.max(np.abs(out.history["q"])) <= 1e-12 * scale


@pytest.mark.parametrize("system,lin,coeff", [
    ("swe_lf", None, None),
    ("swe_lf", "upwind", None),
    ("swe_hll", None, COEFF_DEIM),
    ("swe_hll", LIN_TAV, None),
    ("swe_hll", LIN_TAV, "exact"),
])
def test_bad_swe_options_raise_before_svd(monkeypatch, system, lin, coeff):
    grid, params, _, res = _swe_wb_run(FluxChoice.HLL, n=20)

    def no_svd(*args):
        raise AssertionError("options must be checked before the SVDs")

    monkeypatch.setattr("hyporom.rom.driver.thin_svd", no_svd)
    with pytest.raises(UnsupportedSystem):
        build_rom(system, [res.snapshots], params, grid, n_windows=1,
                  linearization=lin, coeff_mode=coeff)


def test_capped_build_forms_only_cap_columns(monkeypatch):
    grid, params, _, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    asked = []

    def spy(data, k=None):
        u, s = thin_svd(data, k)
        asked.append((k, u.shape[1], min(data.shape)))
        return u, s

    monkeypatch.setattr("hyporom.rom.driver.thin_svd", spy)
    for cap in (2, 10 ** 6):
        asked.clear()
        build_rom("transport", [res.snapshots], params, grid, n_windows=2,
                  eps_pod=1e-12, mode_cap=cap)
        assert len(asked) == 2
        assert [(k, formed) for k, formed, _ in asked] == [
            (cap, min(cap, p)) for _, _, p in asked]
    asked.clear()
    build_rom("transport", [res.snapshots], params, grid, n_windows=2,
              eps_pod=1e-12)
    assert len(asked) == 2
    assert [(k, formed) for k, formed, _ in asked] == [
        (None, p) for _, _, p in asked]


def test_cap_beyond_window_columns_equals_uncapped():
    grid, params, _, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    capped = build_rom("transport", [res.snapshots], params, grid,
                       n_windows=2, eps_pod=1e-12, mode_cap=res.n_steps + 2)
    free = build_rom("transport", [res.snapshots], params, grid,
                     n_windows=2, eps_pod=1e-12)
    assert capped.modes_per_window == free.modes_per_window
    for a, b in zip(capped.windows, free.windows):
        np.testing.assert_array_equal(a.bases["w"].modes, b.bases["w"].modes)
        np.testing.assert_array_equal(a.bases["w"].singular_values,
                                      b.bases["w"].singular_values)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_non_finite_snapshot_raises_typed(bad):
    grid, params, _, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    res.snapshots["w"].data[3, 2] = bad
    with pytest.raises(BreakdownInEigensolve, match="window 0"):
        build_rom("transport", [res.snapshots], params, grid, n_windows=2,
                  eps_pod=1e-12)


def test_swe_dam_break_deim_close_to_fom():
    grid = Grid1D(0.0, 12.0, 100)

    def z(x):
        return 0.2 * (1.0 - np.asarray(x) / 12.0)

    params = SweParams(g=9.81, n_b=0.1, nu=0.9, bathymetry=z)
    zc = z(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
    from hyporom.fom import SweState
    state = SweState(h=h0, q=np.zeros_like(h0))
    model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
    res = run_fom(model, state, t_final=1.0, cfl=0.9)
    # The first window's q/u/f slices open with a zero column, so their
    # rank trails h's and the build reports the padding.
    with pytest.warns(UserWarning, match="padding deficient bases"):
        setup = build_rom("swe_lf", [res.snapshots], params, grid,
                          n_windows=5, eps_pod=1e-10,
                          linearization=LIN_DEIM_U_DEIM_F)
    out = run_rom(setup, {"h": h0, "q": state.q}, res.dts)
    err_h = np.sum(np.abs(out.final["h"] - res.final_state.h)) * grid.dx
    err_q = np.sum(np.abs(out.final["q"] - res.final_state.q)) * grid.dx
    assert err_h < 5e-2
    assert err_q < 2e-1


def test_steady_state_recovery_after_perturbation_exits():
    # Once the bump has left the domain the reduced trajectory must settle:
    # the last two iterates agree to rounding even across 100 windows.
    grid = Grid1D(0.0, 2.0, 200)
    params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
    model = TransportModel(params, grid)
    w0 = transport_stationary(params, 1.0, 0.0, grid.centers) \
        + 0.3 * np.exp(-100.0 * (grid.centers - 0.3) ** 2)
    res = run_fom(model, w0, t_final=10.0, cfl=0.9)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=100, eps_pod=1e-10)
    out = run_rom(setup, {"w": w0}, res.dts)
    drift = np.sum(np.abs(out.last_two[1]["w"] - out.last_two[0]["w"])) \
        * grid.dx
    assert drift <= 1e-12


def test_history_and_last_two():
    grid, params, w0, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=2, eps_pod=1e-8)
    out = run_rom(setup, {"w": w0}, res.dts, keep_history=True)
    assert out.history["w"].shape == (40, res.n_steps + 1)
    np.testing.assert_allclose(out.history["w"][:, -1], out.final["w"])
    assert len(out.last_two) == 2


def test_parametric_pooling_shapes():
    grid = Grid1D(0.0, 12.0, 60)

    def z(x):
        return 0.2 * (1.0 - np.asarray(x) / 12.0)

    zc = z(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
    from hyporom.fom import SweState
    groups = []
    for n_b in (0.03, 0.04):
        params = SweParams(g=9.81, n_b=n_b, nu=0.9, bathymetry=z)
        model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        res = run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                      t_final=0.5, cfl=0.9, param_tag=n_b)
        groups.append((res.snapshots, res.dts))
    target = SweParams(g=9.81, n_b=0.035, nu=0.9, bathymetry=z)
    with pytest.warns(UserWarning, match="padding deficient bases"):
        setup = build_rom("swe_lf", [g for g, _ in groups], target, grid,
                          n_windows=5, eps_pod=1e-10,
                          linearization=LIN_DEIM_U_DEIM_F)
    # Online n_b is the target value baked into the friction factor.
    assert np.isclose(setup.windows[0].ops.scale1, -9.81 * 0.035 ** 2,
                      rtol=1e-12, atol=0).any()
    out = run_rom(setup, {"h": h0, "q": np.zeros_like(h0)}, groups[0][1])
    assert out.final["h"].shape == (60,)


def _dam_run(n=200, t_final=0.5, n_b=0.1):
    grid = Grid1D(0.0, 12.0, n)

    def z(x):
        return 0.2 * (1.0 - np.asarray(x) / 12.0)

    params = SweParams(g=9.81, n_b=n_b, nu=0.9, bathymetry=z)
    zc = z(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
    from hyporom.fom import SweState
    state = SweState(h=h0, q=np.zeros_like(h0))
    model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
    return grid, params, h0, run_fom(model, state, t_final=t_final, cfl=0.9)


def test_frictionless_build_has_no_f_basis():
    # f feeds only the friction tensor, so n_b = 0 needs no f basis.
    grid, params, h0, res = _dam_run(n=100, n_b=0.0)
    setup = build_rom("swe_lf", [res.snapshots], params, grid, n_windows=3,
                      eps_pod=1e-10, mode_cap=5,
                      linearization=LIN_DEIM_U_DEIM_F)
    assert not any(var == "f" for var, _ in setup.spectra)
    for w in setup.windows:
        assert "f" not in w.bases
        assert w.ops.inputs == ("h", "q", "u")
        assert w.context.f_samples is None
    out = run_rom(setup, {"h": h0, "q": np.zeros_like(h0)}, res.dts)
    assert np.isfinite(out.final["h"]).all()


def test_tav_replay_of_a_non_finite_state_raises():
    # No DEIM evaluation checks the state on the tav path, so only the
    # end-of-window check can notice the NaN.
    grid, params, h0, res = _dam_run()
    setup = build_rom("swe_lf", [res.snapshots], params, grid, n_windows=3,
                      eps_pod=1e-10, mode_cap=10, linearization=LIN_TAV)
    q0 = np.zeros_like(h0)
    q0[50] = np.nan
    with pytest.raises(NonFiniteState, match=r"window 0"):
        run_rom(setup, {"h": h0, "q": q0}, res.dts)


def test_transfer_into_a_basis_without_positive_depths_raises():
    # No DEIM point checks the depth on the tav path either, so only the
    # transfer can notice it.  Zero-mean modes lift any state to a depth
    # that is <= 0 somewhere.
    grid, params, h0, res = _dam_run()
    setup = build_rom("swe_lf", [res.snapshots], params, grid, n_windows=3,
                      eps_pod=1e-10, mode_cap=10, linearization=LIN_TAV)
    bases = setup.windows[1].bases
    rng = np.random.default_rng(3)
    zero_mean = rng.standard_normal(bases["h"].modes.shape)
    zero_mean -= zero_mean.mean(axis=0)
    bases["h"] = dataclasses.replace(bases["h"],
                                     modes=np.linalg.qr(zero_mean)[0])
    with pytest.raises(NonPositiveDepth,
                       match=r"transfer into window 1 \(step \d+, t=0\.\d+"):
        run_rom(setup, {"h": h0, "q": np.zeros_like(h0)}, res.dts)


def test_scalar_replay_hands_a_non_finite_state_back():
    # Transport and Burgers callers judge a diverged replay themselves.
    grid, params, w0, res = _transport_run(n=60, t_final=0.5)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=2, eps_pod=1e-10)
    w_nan = w0.copy()
    w_nan[10] = np.nan
    out = run_rom(setup, {"w": w_nan}, res.dts)
    assert not np.isfinite(out.final["w"]).all()


def test_step_errors_carry_time_and_window():
    grid, params, h0, res = _dam_run()
    setup = build_rom("swe_lf", [res.snapshots], params, grid, n_windows=3,
                      eps_pod=1e-10, mode_cap=10,
                      linearization=LIN_DEIM_U_DEIM_F)
    with pytest.raises(EvaluationError,
                       match=r"non-positive depth .*t=0, window 0\)"):
        run_rom(setup, {"h": -h0, "q": np.zeros_like(h0)}, res.dts)


def test_empty_recorded_steps_raise_typed():
    grid, params, w0, res = _transport_run(n=40, t_final=0.3)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=2, eps_pod=1e-10)
    with pytest.raises(ShapeMismatch, match="partition"):
        run_rom(setup, {"w": w0}, res.dts, recorded_steps=np.array([], int))


def test_no_snapshot_group_raises_typed():
    with pytest.raises(ShapeMismatch, match="snapshot group"):
        build_rom("transport", [], TransportParams(c=1.0, alpha=1.0, nu=0.9),
                  Grid1D(0.0, 2.0, 40), n_windows=2)


def _assert_bitwise(a, b):
    """a and b hold the same structure with bitwise equal arrays."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_bitwise(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_bitwise(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_bitwise(x, y)
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    else:
        np.testing.assert_equal(a, b)


# The first window's q/u slices open with a zero column and get padded.
@pytest.mark.filterwarnings("ignore:window .* padding:UserWarning")
class TestSliceSvdReuse:
    """Builds on one recording reuse each window's small SVD of R, and
    every output stays bitwise that of a build on fresh snapshots."""

    CAPS = (2, 4, 8, None)

    @pytest.fixture(scope="class")
    def run(self):
        grid = Grid1D(0.0, 12.0, 120)

        def z(x):
            return 0.2 * (1.0 - np.asarray(x) / 12.0)

        params = SweParams(g=9.81, n_b=0.05, nu=0.9, bathymetry=z)
        zc = z(grid.centers)
        h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
        from hyporom.fom import SweState
        model = SweModel(params, grid, FluxChoice.HLL)
        res = run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                      t_final=0.4, cfl=0.9)
        return grid, params, res

    @staticmethod
    def _build(run, snapshots, cap, groups=None):
        grid, params, _ = run
        return build_rom("swe_hll", groups or [snapshots], params, grid,
                         n_windows=3, eps_pod=1e-10, mode_cap=cap,
                         linearization=LIN_DEIM_U_DEIM_F,
                         coeff_mode=COEFF_DEIM)

    @staticmethod
    def _recording(run):
        # Re-registered matrices: a memo of their own, empty.
        return {var: dataclasses.replace(sm, data=sm.data.copy(order="F"))
                for var, sm in run[2].snapshots.items()}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of thin_svd calls and of the small SVDs they run."""
        counts = {"thin_svd": 0, "svd": 0}
        svd = scipy.linalg.svd

        def count_thin(data, k=None):
            counts["thin_svd"] += 1
            return thin_svd(data, k)

        def count_svd(*args, **kwargs):
            counts["svd"] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr("hyporom.rom.driver.thin_svd", count_thin)
        monkeypatch.setattr(scipy.linalg, "svd", count_svd)
        return counts

    @pytest.mark.parametrize("caps", [CAPS, CAPS[::-1]],
                             ids=["ascending", "descending"])
    def test_cap_sweep_bitwise_fresh_builds(self, run, caps):
        snaps = self._recording(run)
        for cap in caps:
            reused = self._build(run, snaps, cap)
            fresh = self._build(run, copy.deepcopy(snaps), cap)
            _assert_bitwise(reused, fresh)

    def test_one_small_svd_per_slice(self, run, calls):
        snaps = self._recording(run)
        self._build(run, snaps, self.CAPS[0])
        assert calls["thin_svd"] > 0
        assert calls["svd"] == calls["thin_svd"]
        first = calls["thin_svd"]
        for cap in self.CAPS[1:]:
            self._build(run, snaps, cap)
        assert calls["thin_svd"] == len(self.CAPS) * first
        assert calls["svd"] == first

    def test_edited_column_recomputes_its_window(self, run, calls):
        snaps = self._recording(run)
        self._build(run, snaps, 4)
        before = calls["svd"]
        # Column 5 lies inside window 0 and outside window 1's look-back.
        snaps["h"].data[:, 5] *= 1.0 + 1e-3
        edited = self._build(run, snaps, 8)
        assert calls["svd"] == before + 1
        _assert_bitwise(edited, self._build(run, copy.deepcopy(snaps), 8))

    def test_pooled_groups_are_not_memoized(self, run, calls):
        snaps = self._recording(run)
        twice = [snaps, snaps]
        self._build(run, None, 4, groups=twice)
        first = calls["svd"]
        self._build(run, None, 8, groups=twice)
        assert calls["svd"] == 2 * first
        assert all(pod._SLICE_SVDS[id(sm.data)] == {}
                   for sm in snaps.values())

    def test_memo_dies_with_the_snapshots(self, run):
        snaps = self._recording(run)
        self._build(run, snaps, 4)
        data = snaps["h"].data
        key, alive = id(data), weakref.ref(data)
        assert pod._SLICE_SVDS[key]
        del data, snaps
        gc.collect()
        assert alive() is None
        assert key not in pod._SLICE_SVDS
