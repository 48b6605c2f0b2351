"""Reduced SWE models: operator oracles, fixed points, friction variants."""

import numpy as np
import pytest

from hyporom.deim import deim_offline
from hyporom.errors import DegenerateWaveFan, MissingAuxBasis
from hyporom.fom import SweParams, SweState
from hyporom.grid import Grid1D
from hyporom.pod import PodBasis
from hyporom.rom import (COEFF_DEIM, COEFF_TAV, LIN_DEIM_U_DEIM_F,
                         LIN_DEIM_U_TAV_F, LIN_TAV, LINEARIZATIONS,
                         assemble_swe_hll_rom, assemble_swe_lf_rom,
                         build_swe_context, refresh_alphas, refresh_f,
                         refresh_u, rom_swe_hll_step, rom_swe_lf_step, swe_lf,
                         time_average)
from hyporom.rom.context import sample_cells
from hyporom.rom.driver import basis_variables

from oracles import (friction_ops_oracle, interface_fan, kahan_sum,
                     random_orthonormal,
                     refresh_alphas_reference, refresh_f_reference,
                     refresh_u_reference, swe_hll_deim_ops_oracle,
                     swe_hll_tav_ops_oracle, swe_lf_ops_oracle,
                     swe_rom_step_oracle)


def _bases(n, m, seeds=(0, 1, 2, 3)):
    sv = np.arange(m, 0, -1, dtype=float)
    return {
        "h": PodBasis("h", random_orthonormal(n, m, seeds[0]), sv),
        "q": PodBasis("q", random_orthonormal(n, m, seeds[1]), sv),
        "u": PodBasis("u", random_orthonormal(n, m, seeds[2]), sv),
        "f": PodBasis("f", random_orthonormal(n, m, seeds[3]), sv),
    }


def _interface_bases(n, m, seeds=(4, 5)):
    sv = np.arange(m, 0, -1, dtype=float)
    return {
        "alpha0": PodBasis("alpha0", random_orthonormal(n + 1, m, seeds[0]), sv),
        "alpha1": PodBasis("alpha1", random_orthonormal(n + 1, m, seeds[1]), sv),
    }


def _averages(n, seed=9, with_hll=False):
    rng = np.random.default_rng(seed)
    fields = {"u": rng.standard_normal(n) * 0.2,
              "h": 0.5 + rng.random(n)}
    if with_hll:
        fields.update({
            "alpha0": 1.0 + rng.random(n + 1),
            "alpha1": rng.standard_normal(n + 1) * 0.3,
            "utilde": rng.standard_normal(n + 1) * 0.2,
            "htilde": 0.5 + rng.random(n + 1),
        })
    return fields


def _params(n_b=0.1, z=None):
    if z is None:
        return SweParams(g=9.81, n_b=n_b, nu=0.9)
    return SweParams(g=9.81, n_b=n_b, nu=0.9, bathymetry=z)


class TestTimeAverage:
    def test_constant_columns(self):
        col = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(time_average(np.column_stack([col] * 4)),
                                      col)

    def test_opposite_columns_cancel(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_allclose(time_average(np.column_stack([v, -v])),
                                   np.zeros(2), atol=1e-16)

    def test_column_major_slice_averages_like_row_major(self):
        # Snapshot data is column-major; a window of it must average to the
        # same bits as the row-major copy that slices used to be.
        rng = np.random.default_rng(16)
        data = np.asfortranarray(rng.standard_normal((300, 200)))
        window = data[:, 17:165]
        np.testing.assert_array_equal(time_average(window),
                                      time_average(window.copy(order="C")))

    def test_against_kahan_oracle(self):
        rng = np.random.default_rng(15)
        data = rng.standard_normal((10, 7))
        mean = time_average(data)
        for i in range(10):
            assert mean[i] == pytest.approx(kahan_sum(data[i]) / 7.0,
                                            abs=1e-14)


class TestLfAssembly:
    def test_flat_bottom_kills_bathymetry_operators(self):
        n, m = 12, 3
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        ops = assemble_swe_lf_rom(bases, _params(), grid, LIN_DEIM_U_DEIM_F,
                                  _averages(n))
        np.testing.assert_array_equal(ops.vectors["C"], np.zeros(m))
        np.testing.assert_array_equal(ops.matrices["G"], np.zeros((m, m)))

    def test_frictionless_assembly_has_no_friction_operator(self):
        n, m = 10, 2
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        ops = assemble_swe_lf_rom(bases, _params(n_b=0.0), grid,
                                  LIN_DEIM_U_DEIM_F, _averages(n))
        assert "H" not in ops.matrices
        assert "H" not in ops.vectors
        assert "H" not in ops.tensors3

    def test_matches_triple_loop_oracle(self):
        n, m = 10, 3
        grid = Grid1D(0.0, 2.0, n)
        rng = np.random.default_rng(21)
        zv = 0.1 * rng.random(n)
        params = _params(z=lambda x: np.interp(np.asarray(x), grid.centers, zv))
        bases = _bases(n, m)
        avg = _averages(n)
        ops = assemble_swe_lf_rom(bases, params, grid, LIN_DEIM_U_DEIM_F, avg)
        ref = swe_lf_ops_oracle(bases["h"].modes, bases["q"].modes, zv,
                                phiu=bases["u"].modes)
        for name in ("A", "B", "F", "G"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.vectors["C"], ref["C"], rtol=0,
                                   atol=1e-13)
        for name in ("D", "E"):
            np.testing.assert_allclose(ops.tensors3[name], ref[name],
                                       rtol=0, atol=1e-13)
        h_ref = friction_ops_oracle(bases["q"].modes, avg["u"], avg["h"],
                                    phif=bases["f"].modes, variant="deim")
        np.testing.assert_allclose(ops.tensors3["H"], h_ref, rtol=0, atol=1e-13)

    def test_friction_variants_match_oracles(self):
        n, m = 9, 2
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        avg = _averages(n)
        ops = assemble_swe_lf_rom(bases, _params(), grid, LIN_TAV, avg)
        np.testing.assert_allclose(
            ops.vectors["H"],
            friction_ops_oracle(bases["q"].modes, avg["u"], avg["h"],
                                variant="tav"), rtol=0, atol=1e-13)
        ops = assemble_swe_lf_rom(bases, _params(), grid, LIN_DEIM_U_TAV_F, avg)
        np.testing.assert_allclose(
            ops.matrices["H"],
            friction_ops_oracle(bases["q"].modes, avg["u"], avg["h"],
                                variant="tav_f"), rtol=0, atol=1e-13)

    def test_missing_u_basis_raises(self):
        n, m = 8, 2
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        del bases["u"]
        with pytest.raises(MissingAuxBasis):
            assemble_swe_lf_rom(bases, _params(), grid, LIN_DEIM_U_TAV_F,
                                _averages(n))


class TestHllAssembly:
    def test_symmetric_fan_kills_alpha1_terms(self):
        n, m = 10, 2
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        avg = _averages(n, with_hll=True)
        avg["alpha1"] = np.zeros(n + 1)
        ops = assemble_swe_hll_rom(bases, _params(), grid, LIN_DEIM_U_DEIM_F,
                                   COEFF_TAV, avg)
        np.testing.assert_array_equal(ops.matrices["U2"], np.zeros((m, m)))
        np.testing.assert_array_equal(ops.matrices["U4"], np.zeros((m, m)))
        np.testing.assert_array_equal(ops.matrices["U6"], np.zeros((m, m)))
        np.testing.assert_array_equal(ops.vectors["U7"], np.zeros(m))

    def test_flat_bottom_kills_u3_u7(self):
        n, m = 10, 2
        grid = Grid1D(0.0, 1.0, n)
        bases = _bases(n, m)
        avg = _averages(n, with_hll=True)
        ops = assemble_swe_hll_rom(bases, _params(), grid, LIN_DEIM_U_DEIM_F,
                                   COEFF_TAV, avg)
        np.testing.assert_array_equal(ops.vectors["U3"], np.zeros(m))
        np.testing.assert_array_equal(ops.vectors["U7"], np.zeros(m))

    def test_tav_matches_triple_loop_oracle(self):
        n, m = 10, 3
        grid = Grid1D(0.0, 2.0, n)
        rng = np.random.default_rng(31)
        zv = 0.1 * rng.random(n)
        params = _params(z=lambda x: np.interp(np.asarray(x), grid.centers, zv))
        bases = _bases(n, m)
        avg = _averages(n, with_hll=True)
        ops = assemble_swe_hll_rom(bases, params, grid, LIN_DEIM_U_DEIM_F,
                                   COEFF_TAV, avg)
        ref = swe_hll_tav_ops_oracle(bases["h"].modes, bases["q"].modes, zv,
                                     avg["alpha0"], avg["alpha1"],
                                     avg["utilde"], avg["htilde"], params.g)
        for name in ("U1", "U2", "U4", "U5", "U6"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)
        for name in ("U3", "U7"):
            np.testing.assert_allclose(ops.vectors[name], ref[name],
                                       rtol=0, atol=1e-13)

    def test_deim_matches_triple_loop_oracle(self):
        n, m = 10, 3
        grid = Grid1D(0.0, 2.0, n)
        rng = np.random.default_rng(37)
        zv = 0.1 * rng.random(n)
        params = _params(z=lambda x: np.interp(np.asarray(x), grid.centers, zv))
        bases = {**_bases(n, m), **_interface_bases(n, m)}
        avg = _averages(n, with_hll=True)
        ops = assemble_swe_hll_rom(bases, params, grid, LIN_DEIM_U_DEIM_F,
                                   COEFF_DEIM, avg)
        ref = swe_hll_deim_ops_oracle(bases["h"].modes, bases["q"].modes, zv,
                                      bases["alpha0"].modes,
                                      bases["alpha1"].modes,
                                      avg["utilde"], avg["htilde"], params.g)
        for name in ("U1", "U2", "U4", "U5", "U6"):
            np.testing.assert_allclose(ops.tensors3[name], ref[name],
                                       rtol=0, atol=1e-13)
        for name in ("U3", "U7"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)

    def test_shared_blocks_match_lf_oracles(self):
        n, m = 10, 3
        grid = Grid1D(0.0, 2.0, n)
        rng = np.random.default_rng(41)
        zv = 0.1 * rng.random(n)
        params = _params(z=lambda x: np.interp(np.asarray(x), grid.centers, zv))
        bases = {**_bases(n, m), **_interface_bases(n, m)}
        avg = _averages(n, with_hll=True)
        ops = assemble_swe_hll_rom(bases, params, grid, LIN_DEIM_U_DEIM_F,
                                   COEFF_DEIM, avg)
        ref = swe_lf_ops_oracle(bases["h"].modes, bases["q"].modes, zv,
                                phiu=bases["u"].modes)
        for name in ("A", "G"):
            np.testing.assert_allclose(ops.matrices[name], ref[name],
                                       rtol=0, atol=1e-13)
        for name in ("D", "E"):
            np.testing.assert_allclose(ops.tensors3[name], ref[name],
                                       rtol=0, atol=1e-13)
        h_ref = friction_ops_oracle(bases["q"].modes, avg["u"], avg["h"],
                                    phif=bases["f"].modes, variant="deim")
        np.testing.assert_allclose(ops.tensors3["H"], h_ref, rtol=0, atol=1e-13)

    def test_missing_interface_bases_raise(self):
        n, m = 8, 2
        grid = Grid1D(0.0, 1.0, n)
        with pytest.raises(MissingAuxBasis):
            assemble_swe_hll_rom(_bases(n, m), _params(), grid,
                                 LIN_DEIM_U_DEIM_F, COEFF_DEIM,
                                 _averages(n, with_hll=True))


_OTHER_LINEARIZATIONS = tuple(
    lin for lin in LINEARIZATIONS if lin != LIN_DEIM_U_DEIM_F)


class TestFullBasisEquivalence:
    """With complete bases and single-instant window data, one reduced
    step must equal the projection of the full-order step exactly: the
    window averages coincide with the instantaneous interface data and
    square DEIM interpolants are exact changes of basis."""

    def _setup(self, seed=51, n=12):
        rng = np.random.default_rng(seed)
        grid = Grid1D(0.0, 2.0, n)
        zv = 0.1 * rng.random(n)
        params = SweParams(g=9.81, n_b=0.1, nu=0.85,
                           bathymetry=lambda x: np.interp(
                               np.asarray(x), grid.centers, zv))
        h = 0.6 + rng.random(n)
        q = 0.4 * rng.standard_normal(n)
        return grid, params, h, q

    def _full_bases(self, n, with_interfaces=False):
        eye = np.eye(n)
        sv = np.ones(n)
        bases = {v: PodBasis(v, eye, sv) for v in ("h", "q", "u", "f")}
        if with_interfaces:
            # Interface bases carry one more row but must share the unified
            # column count; dropping the last canonical vector is harmless
            # because boundary-interface jumps vanish under ghost
            # replication, so that coefficient never enters the update.
            eye1 = np.eye(n + 1)[:, :n]
            bases["alpha0"] = PodBasis("alpha0", eye1, sv)
            bases["alpha1"] = PodBasis("alpha1", eye1, sv)
        return bases

    def test_lf_step_matches_projected_fom_step(self):
        self._check_lf_step(LIN_DEIM_U_DEIM_F)

    @pytest.mark.parametrize("lin", _OTHER_LINEARIZATIONS)
    def test_lf_step_matches_projected_fom_step_other_lin(self, lin):
        self._check_lf_step(lin)

    @pytest.mark.parametrize("coeff_mode", [COEFF_TAV, COEFF_DEIM])
    def test_hll_step_matches_projected_fom_step(self, coeff_mode):
        self._check_hll_step(LIN_DEIM_U_DEIM_F, coeff_mode)

    @pytest.mark.parametrize("coeff_mode", [COEFF_TAV, COEFF_DEIM])
    @pytest.mark.parametrize("lin", _OTHER_LINEARIZATIONS)
    def test_hll_step_matches_projected_fom_step_other_lin(self, lin,
                                                           coeff_mode):
        self._check_hll_step(lin, coeff_mode)

    def _check_lf_step(self, lin):
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweModel, SweState

        grid, params, h, q = self._setup()
        n = grid.n_cells
        bases = self._full_bases(n)
        averages = {"u": q / h, "h": h}
        ops = assemble_swe_lf_rom(bases, params, grid, lin, averages)
        interpolants = {v: deim_offline(bases[v].modes) for v in ("u", "f")}
        ctx = build_swe_context(bases, interpolants, ops.inputs, params.g)
        dt = 0.02
        h_new, q_new = np.split(
            rom_swe_lf_step(np.concatenate([h, q]), ops, ctx, dt), 2)
        ref = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS
                       ).step(SweState(h=h, q=q), dt)
        np.testing.assert_allclose(h_new, ref.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_new, ref.q, rtol=0, atol=1e-12)

    def _check_hll_step(self, lin, coeff_mode):
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweModel, SweState
        from hyporom.rom import assemble_swe_hll_rom, rom_swe_hll_step

        grid, params, h, q = self._setup(seed=53)
        n = grid.n_cells
        bases = self._full_bases(n, with_interfaces=(coeff_mode == COEFF_DEIM))
        state = SweState(h=h, q=q)
        h_t, u_t, a0, a1 = interface_fan(state, params.g)
        averages = {"u": q / h, "h": h, "alpha0": a0, "alpha1": a1,
                    "utilde": u_t, "htilde": h_t}
        ops = assemble_swe_hll_rom(bases, params, grid, lin, coeff_mode,
                                   averages)
        names = ("u", "f") if coeff_mode == COEFF_TAV \
            else ("u", "f", "alpha0", "alpha1")
        interpolants = {v: deim_offline(bases[v].modes) for v in names}
        ctx = build_swe_context(bases, interpolants, ops.inputs, params.g)
        dt = 0.02
        h_new, q_new = np.split(
            rom_swe_hll_step(np.concatenate([h, q]), ops, ctx, dt), 2)
        ref = SweModel(params, grid, FluxChoice.HLL).step(state, dt)
        np.testing.assert_allclose(h_new, ref.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_new, ref.q, rtol=0, atol=1e-12)


_FLUXES = [None, COEFF_TAV, COEFF_DEIM]     # PVM-0, HLL tav, HLL deim


class TestCompiledStep:
    """The compiled step against the named-operator oracle on truncated
    bases (M < n), where DEIM interpolation is not exact."""

    def _check(self, lin, coeff_mode, n_b, n=14, m=4, seed=61):
        rng = np.random.default_rng(seed)
        grid = Grid1D(0.0, 2.0, n)
        zv = 0.1 * rng.random(n)
        params = _params(n_b=n_b, z=lambda x: np.interp(np.asarray(x),
                                                        grid.centers, zv))
        h = 0.6 + rng.random(n)
        q = 0.4 * rng.standard_normal(n)

        def basis(name, rows, first=None):
            cols = rng.standard_normal((rows, m))
            if first is not None:
                cols[:, 0] = first
            return PodBasis(name, np.linalg.qr(cols)[0], np.ones(m))

        # h and q lie in their bases, so the lifted depth stays positive.
        bases = {"h": basis("h", n, h), "q": basis("q", n, q),
                 "u": basis("u", n), "f": basis("f", n)}
        names = ["u", "f"]
        averages = _averages(n, with_hll=True)
        if coeff_mode is None:
            ops = assemble_swe_lf_rom(bases, params, grid, lin, averages)
            step = rom_swe_lf_step
        else:
            if coeff_mode == COEFF_DEIM:
                bases["alpha0"] = basis("alpha0", n + 1)
                bases["alpha1"] = basis("alpha1", n + 1)
                names += ["alpha0", "alpha1"]
            ops = assemble_swe_hll_rom(bases, params, grid, lin, coeff_mode,
                                       averages)
            step = rom_swe_hll_step
        interps = {v: deim_offline(bases[v].modes) for v in names}
        ctx = build_swe_context(bases, interps, ops.inputs, params.g)
        h_hat = bases["h"].modes.T @ h
        q_hat = bases["q"].modes.T @ q
        dt = 0.02
        got = step(np.concatenate([h_hat, q_hat]), ops, ctx, dt)
        want = swe_rom_step_oracle(h_hat, q_hat, ops, bases, interps, params,
                                   grid.dx, dt)
        np.testing.assert_allclose(got, np.concatenate(want), rtol=0,
                                   atol=1e-12)
        return ops

    @pytest.mark.parametrize("coeff_mode", _FLUXES)
    @pytest.mark.parametrize("lin", LINEARIZATIONS)
    def test_matches_named_operator_oracle(self, lin, coeff_mode):
        self._check(lin, coeff_mode, n_b=0.1)

    @pytest.mark.parametrize("coeff_mode", _FLUXES)
    def test_frictionless_window_skips_the_f_refresh(self, monkeypatch,
                                                     coeff_mode):
        # With n_b = 0 no operator reads f, so it is neither sampled nor
        # refreshed.
        def refresh_f(ctx, pts):
            raise AssertionError("f refreshed without a friction tensor")

        monkeypatch.setattr(swe_lf, "refresh_f", refresh_f)
        self._check(LIN_DEIM_U_DEIM_F, coeff_mode, n_b=0.0)

    @pytest.mark.parametrize("n_b", [0.0, 0.1])
    @pytest.mark.parametrize("coeff_mode", _FLUXES)
    @pytest.mark.parametrize("lin", LINEARIZATIONS)
    def test_setup_bases_are_the_step_inputs(self, lin, coeff_mode, n_b):
        # build_rom decomposes exactly the variables the step reads.
        ops = self._check(lin, coeff_mode, n_b)
        system = "swe_lf" if coeff_mode is None else "swe_hll"
        assert basis_variables(system, lin, coeff_mode, n_b) == ops.inputs

    @pytest.mark.parametrize("coeff_mode", _FLUXES)
    def test_named_operators_are_views_of_the_step_arrays(self, coeff_mode):
        ops = self._check(LIN_DEIM_U_DEIM_F, coeff_mode, n_b=0.1)
        for arr in (*ops.matrices.values(), *ops.vectors.values()):
            assert np.shares_memory(arr, ops.lin)
        operands = [blk[1] for blk in ops.quad]
        for arr in ops.tensors3.values():
            assert any(np.shares_memory(arr, op) for op in operands)
        assert sum(t.nbytes for t in ops.tensors3.values()) \
            == sum(op.nbytes for op in operands)


class TestSteps:
    def test_zero_discharge_flat_bottom_keeps_q_zero(self):
        # Snapshots of a resting constant pool: every friction variant and
        # flux term must leave q_hat at exactly zero.
        n = 12
        grid = Grid1D(0.0, 1.0, n)
        params = _params(n_b=0.5)
        h_field = np.full(n, 1.3)
        averages = {"u": np.zeros(n), "h": h_field}
        sv = np.ones(1)
        h_mode = np.full((n, 1), 1.0 / np.sqrt(n))
        bases = {
            "h": PodBasis("h", h_mode, sv),
            "q": PodBasis("q", np.eye(n)[:, :1], sv),
            "u": PodBasis("u", np.eye(n)[:, :1], sv),
            "f": PodBasis("f", np.eye(n)[:, :1], sv),
        }
        interpolants = {v: deim_offline(bases[v].modes) for v in ("u", "f")}
        for lin in (LIN_TAV, LIN_DEIM_U_TAV_F, LIN_DEIM_U_DEIM_F):
            ops = assemble_swe_lf_rom(bases, params, grid, lin, averages)
            ctx = build_swe_context(bases, interpolants, ops.inputs,
                                    params.g)
            h_hat = bases["h"].modes.T @ h_field
            q_hat = np.zeros(1)
            h_new, q_new = np.split(rom_swe_lf_step(
                np.concatenate([h_hat, q_hat]), ops, ctx, dt=0.01), 2)
            np.testing.assert_allclose(q_new, 0.0, atol=1e-15)
            np.testing.assert_allclose(h_new, h_hat, atol=1e-15)


class TestPointPass:
    """One point pass per step: the refreshes read what ``sample_cells``
    derives and match, bitwise, the references that derived their own
    values from the sampled points."""

    @staticmethod
    def _context(m, hll, n=60, seed=0):
        rng = np.random.default_rng(seed)
        sv = np.arange(m, 0, -1, dtype=float)
        # A constant first h mode keeps the sampled depths positive.
        phih = np.linalg.qr(np.column_stack(
            [np.ones(n), rng.standard_normal((n, m - 1))]))[0]
        bases = {"h": PodBasis("h", phih, sv),
                 **{k: v for k, v in _bases(n, m, (7, 1, 2, 3)).items()
                    if k != "h"}}
        names = ["u", "f"]
        if hll:
            bases.update(_interface_bases(n, m))
            names += ["alpha0", "alpha1"]
        interps = {v: deim_offline(bases[v].modes) for v in names}
        ctx = build_swe_context(bases, interps, ("h", "q", *names), 9.81)
        h_hat = 0.3 * rng.standard_normal(m) / np.sqrt(m)
        h_hat[0] = 1.5 * np.sqrt(n) * np.sign(phih[0, 0])
        return ctx, np.concatenate([h_hat, rng.standard_normal(m)])

    @pytest.mark.parametrize("hll", [False, True], ids=["lf", "hll"])
    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_refreshes_bitwise_the_per_refresh_references(self, m, hll):
        for seed in range(3):
            ctx, x = self._context(m, hll, seed=seed)
            pts = ctx.rows @ x.reshape(2, -1, 1)
            assert pts[0].min() > 0.0
            cells = sample_cells(ctx, x)
            pairs = [(refresh_u(ctx, cells), refresh_u_reference(ctx, pts)),
                     (refresh_f(ctx, cells), refresh_f_reference(ctx, pts))]
            if hll:
                pairs += zip(refresh_alphas(ctx, cells),
                             refresh_alphas_reference(ctx, pts))
            for got, want in pairs:
                assert got.shape == (m,)
                assert np.array_equal(got, want)

    def test_fan_degeneracy_is_judged_per_interface(self):
        # Two interpolation interfaces: one between two nearly dry cells,
        # whose fan gap 2 sqrt(g h) ~ 6e-12 clears the full-order rule
        # 1e-12 * max(1, |S_L|, |S_R|) of its own speeds, and one between
        # deep cells with speeds near 100.  A scale taken over both
        # interfaces (the old rule) rejects the shallow one.
        n = 4
        h = np.array([1e-25, 1e-25, 1e3, 1e3])
        q = np.zeros(n)
        sv = np.ones(n)
        bases = {v: PodBasis(v, np.eye(n), sv) for v in ("h", "q")}
        interps = {name: deim_offline(np.eye(n + 1)[:, [j]])
                   for name, j in (("alpha0", 1), ("alpha1", 3))}
        ctx = build_swe_context(bases, interps, ("h", "q", "alpha0", "alpha1"),
                                9.81)
        x = np.concatenate([h, q])
        with pytest.raises(DegenerateWaveFan):
            refresh_alphas_reference(ctx, ctx.rows @ x.reshape(2, -1, 1))
        a0_hat, a1_hat = refresh_alphas(ctx, sample_cells(ctx, x))
        _, _, a0, a1 = interface_fan(SweState(h=h, q=q), 9.81)
        assert np.array_equal(a0_hat, a0[[1]])
        assert np.array_equal(a1_hat, a1[[3]])
