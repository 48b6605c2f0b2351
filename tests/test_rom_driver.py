"""End-to-end reduced pipeline: offline build + online replay."""

import copy
import dataclasses
import gc
import threading
import warnings
import weakref

import numpy as np
import pytest

import hyporom.fom.swe as swe
import hyporom.pod as pod
import hyporom.rom.driver as driver
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
                         build_rom, rom_swe_hll_step, rom_swe_lf_step,
                         run_rom)
from hyporom.snapshots import SnapshotMatrix, partition_uniform


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
    # The projected stationary state is a fixed point for every n: step
    # window 0 as the replay does and lift every iterate.
    win = setup.windows[0]
    phi_h, phi_q = win.bases["h"].modes, win.bases["q"].modes
    step = rom_swe_hll_step if system == "swe_hll" else rom_swe_lf_step
    x = np.concatenate([phi_h.T @ state.h, phi_q.T @ state.q])
    scale = np.max(np.abs(state.h))
    for dt in [None, *res.dts]:
        if dt is not None:
            x = step(x, win.ops, win.context, dt)
        c_h, c_q = np.split(x, 2)
        assert np.max(np.abs(phi_h @ c_h - state.h)) <= 1e-12 * scale
        assert np.max(np.abs(phi_q @ c_q)) <= 1e-12 * scale
    out = run_rom(setup, {"h": state.h, "q": state.q}, res.dts)
    np.testing.assert_array_equal(out.final["h"], phi_h @ c_h)
    np.testing.assert_array_equal(out.final["q"], phi_q @ c_q)


@pytest.mark.parametrize("system,lin,coeff", [
    ("swe_lf", None, None),
    ("swe_lf", "upwind", None),
    ("swe_hll", None, COEFF_DEIM),
    ("swe_hll", LIN_TAV, None),
    ("swe_hll", LIN_TAV, "exact"),
])
def test_bad_swe_options_raise_before_svd(monkeypatch, system, lin, coeff):
    grid, params, _, res = _swe_wb_run(FluxChoice.HLL, n=20)

    def no_svd(*args, **kwargs):
        raise AssertionError("options must be checked before the SVDs")

    monkeypatch.setattr("hyporom.rom.driver.thin_svd", no_svd)
    with pytest.raises(UnsupportedSystem):
        build_rom(system, [res.snapshots], params, grid, n_windows=1,
                  linearization=lin, coeff_mode=coeff)


def test_capped_build_forms_only_cap_columns(monkeypatch):
    grid, params, _, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    asked = []

    def spy(data, k=None, kept=None, overwrite=False):
        u, s = thin_svd(data, k, kept, overwrite)
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
    recorded = res.snapshots["w"]
    data = recorded.data.copy(order="F")
    data[3, 2] = bad
    snaps = {"w": dataclasses.replace(recorded, data=data)}
    with pytest.raises(BreakdownInEigensolve, match="window 0"):
        build_rom("transport", [snaps], params, grid, n_windows=2,
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


def test_last_two():
    grid, params, w0, res = _transport_run(n=40, t_final=0.3, perturbed=True)
    setup = build_rom("transport", [res.snapshots], params, grid,
                      n_windows=2, eps_pod=1e-8)
    out = run_rom(setup, {"w": w0}, res.dts)
    assert len(out.last_two) == 2
    np.testing.assert_array_equal(out.last_two[1]["w"], out.final["w"])


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
                      t_final=0.5, cfl=0.9)
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


def _point_check_setup(system):
    """A 3-window DEIM build of a dam break, with its initial fields."""
    if system == "swe_lf":
        grid, params, h0, res = _dam_run()
        coeff = None
    else:
        grid, params, res = _hll_dam_recording()
        h0 = res.snapshots["h"].data[:, 0]
        coeff = COEFF_DEIM
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # padded bases
        setup = build_rom(system, [res.snapshots], params, grid,
                          n_windows=3, eps_pod=1e-10, mode_cap=6,
                          linearization=LIN_DEIM_U_DEIM_F, coeff_mode=coeff)
    return setup, {"h": h0, "q": np.zeros_like(h0)}, res.dts


@pytest.mark.parametrize("system", ["swe_lf", "swe_hll"])
@pytest.mark.parametrize("row, sign, message", [
    (1, np.nan, "non-finite value at an interpolation point"),
    (0, -1.0, "non-positive depth at a DEIM point")])
def test_point_check_errors_carry_time_and_window(system, row, sign,
                                                  message):
    # Window 1 samples a NaN discharge (so u and f are NaN) or a negative
    # depth at its first point, from a finite state: the step's one check
    # of the sampled values raises, and run_rom names the step's time and
    # window.
    setup, initial, dts = _point_check_setup(system)
    setup.windows[1].context.rows[row, 0] *= sign
    with pytest.raises(EvaluationError,
                       match=rf"^{message} \(step from t=0\.\d+, "
                             r"window 1\)$"):
        run_rom(setup, initial, dts)


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


def _hll_dam_recording():
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


# The first window's q/u slices open with a zero column and get padded.
@pytest.mark.filterwarnings("ignore:window .* padding:UserWarning")
class TestSliceSvdReuse:
    """Builds on one recording reuse each window's small SVD of R, and
    every output stays bitwise that of a build on fresh snapshots."""

    CAPS = (2, 4, 8, None)

    @pytest.fixture(scope="class")
    def run(self):
        return _hll_dam_recording()

    @staticmethod
    def _build(run, snapshots, cap, groups=None):
        grid, params, _ = run
        return build_rom("swe_hll", groups or [snapshots], params, grid,
                         n_windows=3, eps_pod=1e-10, mode_cap=cap,
                         linearization=LIN_DEIM_U_DEIM_F,
                         coeff_mode=COEFF_DEIM)

    @staticmethod
    def _fresh(snapshots):
        # New matrices on copied data: no kept small SVDs.
        return {var: dataclasses.replace(sm, data=sm.data.copy(order="F"))
                for var, sm in snapshots.items()}

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of slice decompositions, on either half of a window's
        split, and of the small SVDs they run."""
        counts = {"thin_svd": 0, "svd": 0}
        lock = threading.Lock()
        factor, gesdd = pod.SliceSvd.factor, pod._lapack.gesdd

        def count_factor(svd):
            with lock:
                counts["thin_svd"] += 1
            return factor(svd)

        def count_svd(*args):
            with lock:
                counts["svd"] += 1
            return gesdd(*args)

        monkeypatch.setattr(pod.SliceSvd, "factor", count_factor)
        monkeypatch.setattr(pod._lapack, "gesdd", count_svd)
        return counts

    @pytest.mark.parametrize("caps", [CAPS, CAPS[::-1]],
                             ids=["ascending", "descending"])
    def test_cap_sweep_bitwise_fresh_builds(self, run, caps):
        snaps = self._fresh(run[2].snapshots)
        for cap in caps:
            reused = self._build(run, snaps, cap)
            fresh = self._fresh(snaps)
            assert all(sm.window_svds == {} for sm in fresh.values())
            _assert_bitwise(reused, self._build(run, fresh, cap))

    # The bases of the build: h and q, and the slices each window derives.
    VARIABLES = ("h", "q", "u", "f", "alpha0", "alpha1")

    def test_one_small_svd_per_slice(self, run, calls):
        snaps = self._fresh(run[2].snapshots)
        self._build(run, snaps, self.CAPS[0])
        assert calls["svd"] == calls["thin_svd"]
        first = calls["thin_svd"]
        # One kept entry per (variable, window), all on the h matrix.
        kept = snaps["h"].window_svds
        assert snaps["q"].window_svds == {}
        assert len(kept) == first == 3 * len(self.VARIABLES)
        assert sorted({key[:3] for key in kept}) == sorted(
            (var, *driver._window_cols(self._partition(snaps), v))
            for var in self.VARIABLES for v in range(3))
        for cap in self.CAPS[1:]:
            self._build(run, snaps, cap)
        assert calls["thin_svd"] == len(self.CAPS) * first
        assert calls["svd"] == first

    @staticmethod
    def _partition(snaps):
        return partition_uniform(snaps["h"].n_cols, 3)

    def test_derived_slices_are_factored_in_place(self, run, monkeypatch):
        # Each derived slice is the SVD's own buffer; h and q, views of
        # the read-only recording, are copied.
        in_place = []
        init = pod.SliceSvd.__init__

        def spy(svd, data, *args):
            init(svd, data, *args)
            in_place.append(svd.qr is data)

        monkeypatch.setattr(pod.SliceSvd, "__init__", spy)
        self._build(run, self._fresh(run[2].snapshots), 4)
        assert sorted(in_place) == [False] * 6 + [True] * 12

    def test_snapshot_data_is_read_only(self, run):
        snaps = self._fresh(run[2].snapshots)
        with pytest.raises(ValueError, match="read-only"):
            snaps["h"].data[:, 5] *= 1.0 + 1e-3

    def _edit_and_build(self, run, calls, var):
        # An edited h or q is a new matrix, and every derived slice reads
        # both: no kept SVD of the old pair serves the build.
        snaps = self._fresh(run[2].snapshots)
        self._build(run, snaps, 4)
        before = calls["svd"]
        data = snaps[var].data.copy(order="F")
        data[:, 5] *= 1.0 + 1e-3
        edited = dict(snaps, **{var: dataclasses.replace(snaps[var],
                                                         data=data)})
        assert edited[var].window_svds == {}
        built = self._build(run, edited, 8)
        assert calls["svd"] == before + 3 * len(self.VARIABLES)
        _assert_bitwise(built, self._build(run, self._fresh(edited), 8))
        return edited

    def test_edited_column_recomputes_its_window(self, run, calls):
        edited = self._edit_and_build(run, calls, "h")
        assert len(edited["h"].window_svds) == 3 * len(self.VARIABLES)

    def test_edited_q_recomputes_every_slice(self, run, calls):
        # The new pair's entries replace the old pair's on h.
        edited = self._edit_and_build(run, calls, "q")
        assert len(edited["h"].window_svds) == 3 * len(self.VARIABLES)

    def test_replaced_q_matrix_is_freed(self, run):
        # h's store holds the q matrix of the last build only: a build on
        # another q lets the old one die.
        snaps = self._fresh(run[2].snapshots)
        self._build(run, snaps, 4)
        old = weakref.ref(snaps["q"])
        snaps["q"] = self._fresh({"q": snaps["q"]})["q"]
        gc.collect()
        assert old() is not None
        self._build(run, snaps, 4)
        gc.collect()
        assert old() is None

    def test_other_gravity_recomputes_the_fan(self, run, calls):
        # The fan slices depend on g: a build with another g reuses the
        # kept SVDs of no slice (all entries carry g) and equals a fresh
        # build.
        grid, params, _ = run
        snaps = self._fresh(run[2].snapshots)
        self._build(run, snaps, 4)
        before = calls["svd"]
        other = (grid, dataclasses.replace(params, g=9.0), None)
        built = self._build(other, snaps, 4)
        assert calls["svd"] == before + 3 * len(self.VARIABLES)
        _assert_bitwise(built, self._build(other, self._fresh(snaps), 4))

    def test_deep_copy_edited_in_place_builds_like_fresh(self, run):
        # A deep copy carries the kept SVDs over, but its data is writable.
        snaps = self._fresh(run[2].snapshots)
        self._build(run, snaps, 4)
        copied = copy.deepcopy(snaps)
        assert copied["h"].window_svds
        copied["h"].data[:, 5] *= 1.0 + 1e-3
        _assert_bitwise(self._build(run, copied, 8),
                        self._build(run, self._fresh(copied), 8))

    def test_pooled_groups_are_not_memoized(self, run, calls):
        snaps = self._fresh(run[2].snapshots)
        twice = [snaps, snaps]
        self._build(run, None, 4, groups=twice)
        first = calls["svd"]
        assert first > 0
        self._build(run, None, 8, groups=twice)
        assert calls["svd"] == 2 * first
        assert all(sm.window_svds == {} for sm in snaps.values())


class TestWindowSplit:
    """Each window's live slices split into two fixed halves: the caller
    decomposes the first, a worker thread the second."""

    @pytest.fixture(scope="class")
    def run(self):
        return _hll_dam_recording()

    @staticmethod
    def _build(run, cap=8):
        grid, params, res = run
        snaps = TestSliceSvdReuse._fresh(res.snapshots)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            setup = TestSliceSvdReuse._build(run, snaps, cap)
        return setup, [str(w.message) for w in caught]

    @staticmethod
    def _inline(monkeypatch, worker_first):
        def in_order(first, second):
            for half in ((second, first) if worker_first else
                         (first, second)):
                half()
        monkeypatch.setattr("hyporom.rom.driver.in_two_halves", in_order)

    @pytest.mark.parametrize("worker_first", [False, True])
    @pytest.mark.parametrize("cap", [4, None])
    def test_inline_worker_half_is_bitwise_threaded(self, run, monkeypatch,
                                                    worker_first, cap):
        threaded, warned = self._build(run, cap)
        self._inline(monkeypatch, worker_first)
        inline, warned_inline = self._build(run, cap)
        # Bases, spectra, averages, interpolants and operators.
        _assert_bitwise(threaded, inline)
        assert warned == warned_inline

    @pytest.mark.parametrize("worker_first", [None, False, True])
    def test_padding_warnings_keep_window_order(self, monkeypatch,
                                                worker_first):
        # q has rank 1 in every window and h full rank; h is the caller's
        # half, q the worker's, and each window pads q's basis.
        grid = Grid1D(0.0, 1.0, 40)
        times = np.linspace(0.0, 1.0, 61)
        h = 1.0 + 0.1 * np.random.default_rng(0).standard_normal((40, 61))
        q = np.outer(np.sin(np.pi * grid.centers), 1.0 + times)
        snaps = {var: SnapshotMatrix(data, times)
                 for var, data in (("h", h), ("q", q), ("u", q / h))}
        params = SweParams(g=9.81, n_b=0.05, nu=0.9,
                           bathymetry=lambda x: 0.0 * np.asarray(x))
        if worker_first is not None:
            self._inline(monkeypatch, worker_first)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_rom("swe_lf", [snaps], params, grid, n_windows=4,
                      eps_pod=1e-10, linearization=LIN_TAV)
        assert [str(w.message) for w in caught] == [
            f"window {v}: unified mode count 16 exceeds the smallest "
            "numerical rank 1; padding deficient bases" for v in range(4)]

    def test_worker_error_reaches_the_caller_typed(self, run, monkeypatch):
        factor = pod.SliceSvd.factor

        def fail_off_main_thread(svd):
            if threading.current_thread() is not threading.main_thread():
                raise EvaluationError("worker half")
            factor(svd)

        threads = threading.active_count()
        monkeypatch.setattr(pod.SliceSvd, "factor", fail_off_main_thread)
        with pytest.raises(EvaluationError, match="worker half"):
            self._build(run)
        assert threading.active_count() == threads

    def test_caller_error_wins_when_both_halves_fail(self, run, monkeypatch):
        worker_failed = threading.Event()

        def fail_in_worker(svd):
            worker_failed.set()
            raise EvaluationError("worker half")

        def fail_in_caller(*args, **kwargs):
            # The worker has failed before the caller does.
            assert worker_failed.wait(timeout=60)
            raise BreakdownInEigensolve("caller half")

        monkeypatch.setattr(pod.SliceSvd, "factor", fail_in_worker)
        monkeypatch.setattr("hyporom.rom.driver.thin_svd", fail_in_caller)
        with pytest.raises(BreakdownInEigensolve, match="caller half"):
            self._build(run)


class TestWindowDerivation:
    """A recording holds h and q; each window derives the other slices it
    reads from its own h and q slices."""

    @staticmethod
    def _runs(flux):
        grid = Grid1D(0.0, 12.0, 50)
        params = SweParams(g=9.81, n_b=0.1, nu=0.9)
        model = SweModel(params, grid, flux)
        from hyporom.fom import SweState
        runs = []
        for left, t_final in ((2.0, 0.5), (1.6, 0.4)):
            h0 = np.where(grid.centers <= 6.0, left, 1.0)
            runs.append(run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                                t_final=t_final, cfl=0.9).snapshots)
        return params, runs

    @pytest.mark.parametrize("flux", [FluxChoice.MODIFIED_LAX_FRIEDRICHS,
                                      FluxChoice.HLL], ids=["mlf", "hll"])
    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["one_run", "two_runs"])
    def test_window_slices_are_columns_of_the_whole_derivation(self, flux,
                                                               pooled):
        params, runs = self._runs(flux)
        groups = runs if pooled else runs[:1]
        names = ("u", "f")
        if flux is FluxChoice.HLL:
            names += swe.FAN_FIELDS
        whole = [swe.derived_fields(g["h"].data, g["q"].data, params.g,
                                    names) for g in groups]
        partitions = [partition_uniform(g["h"].n_cols, 4) for g in groups]
        for v in range(4):
            slices = driver._window_slices(groups, partitions, ("h", "q"),
                                           names, v, params.g)
            assert list(slices) == ["h", "q", *names]
            # Window v > 0 opens with the last column of window v - 1.
            cols = [slice(max(p.ranges[v][0] - 1, 0), p.ranges[v][1])
                    for p in partitions]
            for name in names:
                want = np.hstack([w[name][:, c] for w, c in zip(whole, cols)])
                assert slices[name].shape[0] == 50 + (name in swe.FAN_FIELDS)
                assert slices[name].flags.f_contiguous
                assert np.array_equal(slices[name], want)

    @pytest.mark.filterwarnings("ignore:window .* padding:UserWarning")
    def test_tav_build_never_forms_the_friction_kernel(self, monkeypatch):
        # PVM-0 tav averages u and h; nothing reads f.
        params, runs = self._runs(FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        derived = []
        derive = swe.derived_fields

        def spy(h, q, g, names):
            derived.append(tuple(names))
            return derive(h, q, g, names)

        def no_kernel(*args):
            raise AssertionError("a tav build formed the friction kernel")

        monkeypatch.setattr(swe, "friction_kernel", no_kernel)
        monkeypatch.setattr(driver, "derived_fields", spy)
        build_rom("swe_lf", runs[:1], params, Grid1D(0.0, 12.0, 50),
                  n_windows=3, eps_pod=1e-10, linearization=LIN_TAV)
        assert derived == [("u",)] * 3
