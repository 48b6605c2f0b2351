"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Reference error values carry a x5 tolerance applied as
an upper bound (the slack absorbs the free viscosity coefficient and norm
conventions; beating a reference value never fails a criterion).
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from hyporom.deim import deim_offline
from hyporom.fluxes import FluxChoice
from hyporom.fom import (BurgersModel, BurgersParams, SweModel, SweParams,
                         SweState, TransportModel, TransportParams,
                         burgers_stationary, burgers_step, lake_at_rest,
                         run_fom, swe_hll_step, swe_lf_step,
                         transport_stationary, transport_step)
from hyporom.grid import Grid1D
from hyporom.harness import dam_break_bed, gaussian_bump_bed, l1_error
from hyporom.pod import PodBasis, compute_basis, lift, window_transfer
from hyporom.rom import (COEFF_DEIM, COEFF_TAV, LIN_DEIM_U_DEIM_F,
                         LIN_DEIM_U_TAV_F, LIN_TAV, TimeAverages,
                         assemble_burgers_rom, assemble_swe_hll_rom,
                         assemble_swe_lf_rom, assemble_transport_rom,
                         build_rom, rom_transport_step, run_rom)
from hyporom.snapshots import concat_parametric

import oracles


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _quiet_build(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_rom(*args, **kwargs)


# ---------------------------------------------------------------------------
# shared expensive runs

def _wb_case(system, n_cells, flux, coeff_mode=None):
    """One well-balanced pipeline run; returns errors, M, timings."""
    start = time.perf_counter()
    stride = 8 if n_cells >= 800 else 1
    if system == "transport":
        grid = Grid1D(0.0, 2.0, n_cells)
        params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
        model = TransportModel(params, grid, flux)
        state0 = transport_stationary(params, 1.0, 0.0, grid.centers)
        initial = {"w": state0}
        rom_system = "transport"
        lin = None
    elif system == "burgers":
        grid = Grid1D(0.0, 2.0, n_cells)
        params = BurgersParams(alpha=1.0, nu=0.9)
        model = BurgersModel(params, grid, flux)
        state0 = burgers_stationary(params, 0.1, 0.0, grid.centers)
        initial = {"w": state0}
        rom_system = "burgers"
        lin = None
    else:
        grid = Grid1D(-5.0, 5.0, n_cells)
        params = SweParams(g=9.81, n_b=0.0, nu=0.9,
                           bathymetry=gaussian_bump_bed)
        model = SweModel(params, grid, flux)
        state0 = lake_at_rest(params, grid, eta=0.0)
        initial = {"h": state0.h, "q": state0.q}
        rom_system = "swe_hll" if flux is FluxChoice.HLL else "swe_lf"
        lin = LIN_TAV if coeff_mode in (None, COEFF_TAV) else LIN_DEIM_U_DEIM_F

    timed = run_fom(model, state0, t_final=10.0, cfl=0.9, record=False)
    rec = run_fom(model, state0, t_final=10.0, cfl=0.9,
                  snapshot_stride=stride)
    setup = _quiet_build(rom_system, [rec.snapshots], params, grid,
                         n_windows=1, eps_pod=1e-10, linearization=lin,
                         coeff_mode=coeff_mode)
    steps = np.searchsorted(rec.times,
                            rec.snapshots[next(iter(rec.snapshots))].times)
    out = run_rom(setup, initial, rec.dts, recorded_steps=steps)
    errors = {var: l1_error(out.final[var], initial[var], grid.dx)
              for var in out.final}
    return {"errors": errors, "modes": setup.modes_per_window,
            "fom_seconds": timed.wall_seconds,
            "online_seconds": out.online_seconds,
            "case_seconds": time.perf_counter() - start}


@pytest.fixture(scope="module")
def wb_results():
    cases = {}
    for n_cells in (200, 1600):
        cases[("transport", n_cells)] = _wb_case(
            "transport", n_cells, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        cases[("burgers", n_cells)] = _wb_case(
            "burgers", n_cells, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        cases[("swe-lf", n_cells)] = _wb_case(
            "swe", n_cells, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        cases[("swe-hll-tav", n_cells)] = _wb_case(
            "swe", n_cells, FluxChoice.HLL, COEFF_TAV)
        cases[("swe-hll-deim", n_cells)] = _wb_case(
            "swe", n_cells, FluxChoice.HLL, COEFF_DEIM)
    return cases


def _dam_break_fom(flux, n_b=0.1, n_cells=200):
    grid = Grid1D(0.0, 12.0, n_cells)
    params = SweParams(g=9.81, n_b=n_b, nu=0.9, bathymetry=dam_break_bed)
    z = dam_break_bed(grid.centers)
    h0 = np.where(grid.centers <= 6.0, 2.0 - z, 1.0 - z)
    state0 = SweState(h=h0, q=np.zeros_like(h0))
    model = SweModel(params, grid, flux)
    res = run_fom(model, state0, t_final=1.0, cfl=0.9, param_tag=n_b)
    return grid, params, state0, res


@pytest.fixture(scope="module")
def dam_break_lf():
    return _dam_break_fom(FluxChoice.MODIFIED_LAX_FRIEDRICHS)


@pytest.fixture(scope="module")
def dam_break_hll():
    return _dam_break_fom(FluxChoice.HLL)


# ---------------------------------------------------------------------------

def test_criterion_1_well_balanced(wb_results):
    with criterion(1, "well-balanced preservation, 200-1600 cells"):
        for (case, n_cells), result in wb_results.items():
            for var, err in result["errors"].items():
                assert err <= 1e-12, (case, n_cells, var, err)
            assert result["modes"] == [1], (case, n_cells)
            assert result["case_seconds"] <= 60.0, (case, n_cells)
            print(f"  wb {case:13s} {n_cells:5d} cells: "
                  + " ".join(f"{v}={e:.2e}" for v, e in result["errors"].items())
                  + f" M={result['modes'][0]} ({result['case_seconds']:.1f}s)")


def test_criterion_2_transport_sensitivity():
    with criterion(2, "transport mode/window sensitivity"):
        grid = Grid1D(0.0, 2.0, 200)
        params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
        model = TransportModel(params, grid)
        x = grid.centers
        w0 = np.exp(x) + 0.3 * np.exp(-100.0 * (x - 0.3) ** 2)
        res = run_fom(model, w0, t_final=0.8, cfl=0.9)

        errors = []
        for cap in (2, 3, 4, 5, 6, 8, 10):
            setup = _quiet_build("transport", [res.snapshots], params, grid,
                                 n_windows=10, eps_pod=1e-10, mode_cap=cap)
            out = run_rom(setup, {"w": w0}, res.dts)
            errors.append(l1_error(out.final["w"], res.final_state, grid.dx))
        print("  errors vs mode cap:",
              " ".join(f"{e:.2e}" for e in errors))
        assert errors[-1] <= 1e-3
        for a, b in zip(errors, errors[1:]):
            assert b <= 1.1 * a, (a, b)


def test_criterion_3_burgers_windows():
    with criterion(3, "burgers window/mode tradeoff"):
        grid = Grid1D(0.0, 2.0, 200)
        params = BurgersParams(alpha=1.0, nu=0.9)
        model = BurgersModel(params, grid)
        x = grid.centers
        w0 = 0.1 * np.exp(x) + 0.3 * np.exp(-100.0 * (x - 0.3) ** 2)
        res = run_fom(model, w0, t_final=3.0, cfl=0.9)

        window_counts = (1, 5, 10, 25, 50, 100)
        errors = []
        selected = []
        for n_windows in window_counts:
            fixed = _quiet_build("burgers", [res.snapshots], params, grid,
                                 n_windows=n_windows, eps_pod=1e-10,
                                 mode_cap=5)
            out = run_rom(fixed, {"w": w0}, res.dts)
            errors.append(l1_error(out.final["w"], res.final_state, grid.dx))
            auto = _quiet_build("burgers", [res.snapshots], params, grid,
                                n_windows=n_windows, eps_pod=1e-10)
            selected.append(max(auto.modes_per_window))
        print("  5-mode errors:", " ".join(f"{e:.2e}" for e in errors))
        print("  selected M:   ", selected)
        assert errors[-1] <= 0.8 * errors[0]
        for a, b in zip(errors, errors[1:]):
            assert b <= 1.1 * a, (a, b)
        for a, b in zip(selected, selected[1:]):
            assert b <= a, (a, b)


def test_criterion_4_linearization_ordering(dam_break_lf):
    with criterion(4, "dam-break friction linearization ordering"):
        grid, params, state0, res = dam_break_lf
        errors = {}
        for lin in (LIN_TAV, LIN_DEIM_U_TAV_F, LIN_DEIM_U_DEIM_F):
            setup = _quiet_build("swe_lf", [res.snapshots], params, grid,
                                 n_windows=5, eps_pod=1e-10,
                                 linearization=lin)
            out = run_rom(setup, {"h": state0.h, "q": state0.q}, res.dts)
            errors[lin] = {
                "h": l1_error(out.final["h"], res.final_state.h, grid.dx),
                "q": l1_error(out.final["q"], res.final_state.q, grid.dx),
            }
            print(f"  {lin:14s} h={errors[lin]['h']:.2e} "
                  f"q={errors[lin]['q']:.2e}")
        for var in ("h", "q"):
            assert errors[LIN_TAV][var] > errors[LIN_DEIM_U_TAV_F][var]
            assert errors[LIN_DEIM_U_TAV_F][var] > \
                errors[LIN_DEIM_U_DEIM_F][var]
        assert errors[LIN_DEIM_U_DEIM_F]["h"] <= 5 * 9.48e-04
        assert errors[LIN_DEIM_U_DEIM_F]["q"] <= 5 * 9.47e-03
        assert errors[LIN_TAV]["h"] >= 10 * errors[LIN_DEIM_U_DEIM_F]["h"]


def test_criterion_5_hll_coefficient_treatment(dam_break_hll):
    with criterion(5, "HLL fan-coefficient treatment"):
        grid, params, state0, res = dam_break_hll
        errors = {}
        for coeff in (COEFF_TAV, COEFF_DEIM):
            setup = _quiet_build("swe_hll", [res.snapshots], params, grid,
                                 n_windows=5, eps_pod=1e-10,
                                 linearization=LIN_DEIM_U_DEIM_F,
                                 coeff_mode=coeff)
            out = run_rom(setup, {"h": state0.h, "q": state0.q}, res.dts)
            errors[coeff] = {
                "h": l1_error(out.final["h"], res.final_state.h, grid.dx),
                "q": l1_error(out.final["q"], res.final_state.q, grid.dx),
            }
            print(f"  coeff={coeff:5s} h={errors[coeff]['h']:.2e} "
                  f"q={errors[coeff]['q']:.2e}")
        for var in ("h", "q"):
            assert errors[COEFF_DEIM][var] < errors[COEFF_TAV][var]
        assert errors[COEFF_DEIM]["h"] <= 5 * 8.33e-03
        assert errors[COEFF_DEIM]["q"] <= 5 * 4.80e-02


def test_criterion_6_predictive_rom():
    with criterion(6, "predictive ROM over the Manning coefficient"):
        grid = Grid1D(0.0, 12.0, 200)
        z = dam_break_bed(grid.centers)
        h0 = np.where(grid.centers <= 6.0, 2.0 - z, 1.0 - z)
        state0 = SweState(h=h0, q=np.zeros_like(h0))

        def fom(n_b):
            params = SweParams(g=9.81, n_b=n_b, nu=0.9,
                               bathymetry=dam_break_bed)
            model = SweModel(params, grid,
                             FluxChoice.MODIFIED_LAX_FRIEDRICHS)
            return params, run_fom(model, state0, t_final=1.0, cfl=0.9,
                                   param_tag=n_b)

        target_params, reference = fom(0.035)

        def predict(training):
            runs = [fom(mu)[1] for mu in training]
            merged = {var: concat_parametric([r.snapshots[var] for r in runs])
                      for var in runs[0].snapshots}
            setup = _quiet_build("swe_lf", [merged], target_params, grid,
                                 n_windows=25, eps_pod=1e-10,
                                 linearization=LIN_DEIM_U_DEIM_F)
            out = run_rom(setup, {"h": h0, "q": state0.q}, runs[0].dts)
            return {
                "h": l1_error(out.final["h"], reference.final_state.h,
                              grid.dx),
                "q": l1_error(out.final["q"], reference.final_state.q,
                              grid.dx),
            }

        validation = predict((0.035,))
        sets = {
            "C1": predict((0.0, 1.0)),
            "C2": predict((0.01, 0.05, 0.09)),
            "C3": predict((0.03, 0.04)),
            "C4": predict((0.07, 0.09)),
        }
        print(f"  validation h={validation['h']:.2e} q={validation['q']:.2e}")
        for name, err in sets.items():
            print(f"  {name} h={err['h']:.2e} q={err['q']:.2e}")

        assert validation["h"] <= 1e-3 and validation["q"] <= 1e-3
        assert sets["C3"]["h"] < sets["C1"]["h"]
        assert sets["C3"]["q"] < sets["C1"]["q"]
        assert sets["C2"]["q"] < sets["C4"]["q"]
        assert sets["C3"]["h"] <= 5 * 2.33e-03
        assert sets["C3"]["q"] <= 5 * 5.63e-03
        assert sets["C3"]["h"] == min(e["h"] for e in sets.values())
        assert sets["C4"]["h"] == max(e["h"] for e in sets.values())
        assert sets["C4"]["q"] == max(e["q"] for e in sets.values())


def test_criterion_7_oracle_suite():
    with criterion(7, "oracle and property suite"):
        rng = np.random.default_rng(2024)

        # SVD against the Gram-eigendecomposition oracle, shapes <= 64x64.
        for shape in ((8, 6), (32, 32), (64, 40), (40, 64)):
            data = rng.standard_normal(shape) @ np.diag(
                np.logspace(0, -5, shape[1]))
            basis = compute_basis(data, 1e-10)
            left, sigma = oracles.svd_via_gram(data)
            m = basis.m
            np.testing.assert_allclose(basis.singular_values[:m], sigma[:m],
                                       rtol=1e-10, atol=1e-10 * sigma[0])
            assert np.max(subspace_angles(basis.modes, left[:, :m])) < 1e-8

        # Reduced operators against triple-loop oracles (<= 16 cells, M <= 4).
        n, m = 16, 4
        grid = Grid1D(0.0, 2.0, n)
        tparams = TransportParams(c=1.2, alpha=0.6, nu=0.85)
        basis = PodBasis("w", oracles.random_orthonormal(n, m, 100),
                         np.arange(m, 0, -1, dtype=float))
        ops = assemble_transport_rom(basis, tparams, grid)
        a, b, c = oracles.transport_ops_oracle(basis.modes, tparams.c,
                                               tparams.alpha, grid.dx)
        np.testing.assert_allclose(ops.matrices["A"], a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["B"], b, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["C"], c, rtol=0, atol=1e-13)

        bparams = BurgersParams(alpha=0.8, nu=0.85)
        ops = assemble_burgers_rom(basis, bparams, grid)
        a3, b2, c3 = oracles.burgers_ops_oracle(basis.modes, bparams.alpha,
                                                grid.dx)
        np.testing.assert_allclose(ops.tensors3["A"], a3, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["B"], b2, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.tensors3["C"], c3, rtol=0, atol=1e-13)

        zv = 0.1 * rng.random(n)
        sparams = SweParams(g=9.81, n_b=0.1, nu=0.85,
                            bathymetry=lambda x: np.interp(
                                np.asarray(x), grid.centers, zv))
        sv = np.arange(m, 0, -1, dtype=float)
        bases = {v: PodBasis(v, oracles.random_orthonormal(n, m, 101 + k), sv)
                 for k, v in enumerate(("h", "q", "u", "f"))}
        averages = TimeAverages(fields={
            "u": rng.standard_normal(n) * 0.2, "h": 0.6 + rng.random(n),
            "alpha0": 1.0 + rng.random(n + 1),
            "alpha1": 0.3 * rng.standard_normal(n + 1),
            "utilde": 0.2 * rng.standard_normal(n + 1),
            "htilde": 0.6 + rng.random(n + 1)})
        ops = assemble_swe_lf_rom(bases, sparams, grid, LIN_DEIM_U_DEIM_F,
                                  averages)
        ref = oracles.swe_lf_ops_oracle(bases["h"].modes, bases["q"].modes,
                                        zv, phiu=bases["u"].modes)
        for name in ("A", "B", "F", "G"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.vectors["C"], ref["C"], rtol=0,
                                   atol=1e-13)
        for name in ("D", "E"):
            np.testing.assert_allclose(ops.tensors3[name], ref[name],
                                       rtol=0, atol=1e-13)

        hll_bases = dict(bases)
        hll_bases["alpha0"] = PodBasis(
            "alpha0", oracles.random_orthonormal(n + 1, m, 107), sv)
        hll_bases["alpha1"] = PodBasis(
            "alpha1", oracles.random_orthonormal(n + 1, m, 108), sv)
        ops = assemble_swe_hll_rom(hll_bases, sparams, grid,
                                   LIN_DEIM_U_DEIM_F, COEFF_TAV, averages)
        ref = oracles.swe_hll_tav_ops_oracle(
            bases["h"].modes, bases["q"].modes, zv, averages["alpha0"],
            averages["alpha1"], averages["utilde"], averages["htilde"],
            sparams.g)
        for name in ("U1", "U2", "U4", "U5", "U6"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)
        for name in ("U3", "U7"):
            np.testing.assert_allclose(ops.vectors[name], ref[name],
                                       rtol=0, atol=1e-13)
        ops = assemble_swe_hll_rom(hll_bases, sparams, grid,
                                   LIN_DEIM_U_DEIM_F, COEFF_DEIM, averages)
        ref = oracles.swe_hll_deim_ops_oracle(
            bases["h"].modes, bases["q"].modes, zv,
            hll_bases["alpha0"].modes, hll_bases["alpha1"].modes,
            averages["utilde"], averages["htilde"], sparams.g)
        for name in ("U1", "U2", "U4", "U5", "U6"):
            np.testing.assert_allclose(ops.tensors3[name], ref[name],
                                       rtol=0, atol=1e-13)
        for name in ("U3", "U7"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)

        # DEIM: exact interpolation and subspace exactness.
        modes = oracles.random_orthonormal(24, 4, 200)
        interp = deim_offline(modes)
        fld = rng.standard_normal(24)
        recon = oracles.deim_interpolate(interp, fld)
        assert np.max(np.abs(recon[interp.indices] - fld[interp.indices])) \
            <= 1e-13
        span_fld = modes @ rng.standard_normal(4)
        assert np.max(np.abs(oracles.deim_interpolate(interp, span_fld)
                             - span_fld)) <= 1e-12

        # Full-basis transport ROM equals the FOM over 100 steps.
        n = 40
        grid = Grid1D(0.0, 2.0, n)
        params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
        full = PodBasis("w", np.eye(n), np.ones(n))
        ops = assemble_transport_rom(full, params, grid)
        w = transport_stationary(params, 1.0, 0.0, grid.centers) \
            + 0.1 * rng.standard_normal(n)
        w_hat = oracles.project(full, w)
        dt = 0.9 * grid.dx
        w_fom = w.copy()
        for _ in range(100):
            w_fom = transport_step(w_fom, params, grid, dt)
            w_hat = rom_transport_step(w_hat, ops, None, dt)
        assert np.max(np.abs(lift(full, w_hat) - w_fom)) <= 1e-11

        # Every FOM step against its scalar transcription oracle.
        g5 = Grid1D(0.0, 1.0, 7)
        w = rng.standard_normal(7)
        dt = 0.9 * g5.dx / abs(1.1)
        np.testing.assert_allclose(
            transport_step(w, TransportParams(c=1.1, alpha=0.5, nu=0.8),
                           g5, dt),
            oracles.transport_step_scalar(w, 1.1, 0.5, 0.8, g5.dx, dt),
            rtol=0, atol=1e-13)
        wb = 0.2 + rng.random(7)
        dt = 0.9 * g5.dx / np.max(np.abs(wb))
        np.testing.assert_allclose(
            burgers_step(wb, BurgersParams(alpha=0.7, nu=0.8), g5, dt),
            oracles.burgers_step_scalar(wb, 0.7, 0.8, g5.dx, dt),
            rtol=0, atol=1e-13)
        zv7 = 0.05 * rng.random(7)
        sp = SweParams(g=9.81, n_b=0.05, nu=0.8,
                       bathymetry=lambda x: np.interp(np.asarray(x),
                                                      g5.centers, zv7))
        st = SweState(h=0.5 + rng.random(7), q=0.3 * rng.standard_normal(7))
        dt = 0.3 * g5.dx / 8.0
        out = swe_lf_step(st, sp, g5, dt)
        h_ref, q_ref = oracles.swe_lf_step_scalar(st.h, st.q, zv7, 9.81,
                                                  0.05, 0.8, g5.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)
        out = swe_hll_step(st, sp, g5, dt)
        h_ref, q_ref = oracles.swe_hll_step_scalar(st.h, st.q, zv7, 9.81,
                                                   0.05, g5.dx, dt)
        np.testing.assert_allclose(out.h, h_ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(out.q, q_ref, rtol=0, atol=1e-13)

        # Window transfer is the identity for a single window.
        basis = PodBasis("w", oracles.random_orthonormal(20, 3, 300),
                         np.arange(3, 0, -1, dtype=float))
        coeffs = rng.standard_normal(3)
        np.testing.assert_allclose(window_transfer(coeffs, basis, basis),
                                   coeffs, atol=1e-13)


def test_criterion_8_speedup(wb_results):
    with criterion(8, "ROM online speedup on the 1600-cell SWE preset"):
        for case in ("swe-lf", "swe-hll-tav", "swe-hll-deim"):
            result = wb_results[(case, 1600)]
            speedup = result["fom_seconds"] / result["online_seconds"]
            print(f"  {case:13s}: fom={result['fom_seconds']:.2f}s "
                  f"online={result['online_seconds']:.3f}s -> {speedup:.1f}x")
            assert speedup > 2.0, (case, speedup)
