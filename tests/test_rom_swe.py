"""Reduced SWE models: operator oracles, fixed points, friction variants."""

import numpy as np
import pytest

from hyporom.deim import deim_offline
from hyporom.errors import MissingAuxBasis
from hyporom.fom import SweParams
from hyporom.grid import Grid1D
from hyporom.pod import PodBasis
from hyporom.rom import (COEFF_DEIM, COEFF_TAV, LIN_DEIM_U_DEIM_F,
                         LIN_DEIM_U_TAV_F, LIN_TAV, TimeAverages,
                         assemble_swe_hll_rom, assemble_swe_lf_rom,
                         build_swe_context, rom_swe_lf_step, time_average)

from oracles import (friction_ops_oracle, kahan_sum, random_orthonormal,
                     swe_hll_deim_ops_oracle, swe_hll_tav_ops_oracle,
                     swe_lf_ops_oracle)


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
    return TimeAverages(fields=fields)


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
        avg.fields["alpha1"] = np.zeros(n + 1)
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
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweState, swe_lf_step

        grid, params, h, q = self._setup()
        n = grid.n_cells
        bases = self._full_bases(n)
        averages = TimeAverages(fields={"u": q / h, "h": h})
        ops = assemble_swe_lf_rom(bases, params, grid, LIN_DEIM_U_DEIM_F,
                                  averages)
        interpolants = {v: deim_offline(bases[v].modes) for v in ("u", "f")}
        ctx = build_swe_context(bases, interpolants, LIN_DEIM_U_DEIM_F,
                                None, params.g)
        dt = 0.02
        h_new, q_new = rom_swe_lf_step(h.copy(), q.copy(), ops, ctx, dt)
        ref = swe_lf_step(SweState(h=h, q=q), params, grid, dt,
                          FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        np.testing.assert_allclose(h_new, ref.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_new, ref.q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("coeff_mode", [COEFF_TAV, COEFF_DEIM])
    def test_hll_step_matches_projected_fom_step(self, coeff_mode):
        from hyporom.fom import (SweState, hll_interface_coeffs,
                                 interface_roe, swe_hll_step)
        from hyporom.rom import assemble_swe_hll_rom, rom_swe_hll_step

        grid, params, h, q = self._setup(seed=53)
        n = grid.n_cells
        bases = self._full_bases(n, with_interfaces=(coeff_mode == COEFF_DEIM))
        state = SweState(h=h, q=q)
        a0, a1 = hll_interface_coeffs(state, params, grid)
        h_t, u_t = interface_roe(state, params, grid)
        averages = TimeAverages(fields={
            "u": q / h, "h": h, "alpha0": a0, "alpha1": a1,
            "utilde": u_t, "htilde": h_t})
        ops = assemble_swe_hll_rom(bases, params, grid, LIN_DEIM_U_DEIM_F,
                                   coeff_mode, averages)
        names = ("u", "f") if coeff_mode == COEFF_TAV \
            else ("u", "f", "alpha0", "alpha1")
        interpolants = {v: deim_offline(bases[v].modes) for v in names}
        ctx = build_swe_context(bases, interpolants, LIN_DEIM_U_DEIM_F,
                                coeff_mode, params.g)
        dt = 0.02
        h_new, q_new = rom_swe_hll_step(h.copy(), q.copy(), ops, ctx, dt)
        ref = swe_hll_step(state, params, grid, dt)
        np.testing.assert_allclose(h_new, ref.h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q_new, ref.q, rtol=0, atol=1e-12)


class TestSteps:
    def test_zero_discharge_flat_bottom_keeps_q_zero(self):
        # Snapshots of a resting constant pool: every friction variant and
        # flux term must leave q_hat at exactly zero.
        n = 12
        grid = Grid1D(0.0, 1.0, n)
        params = _params(n_b=0.5)
        h_field = np.full(n, 1.3)
        averages = TimeAverages(fields={"u": np.zeros(n), "h": h_field})
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
            ctx = build_swe_context(bases, interpolants, lin, None, params.g)
            h_hat = bases["h"].modes.T @ h_field
            q_hat = np.zeros(1)
            h_new, q_new = rom_swe_lf_step(h_hat, q_hat, ops, ctx, dt=0.01)
            np.testing.assert_allclose(q_new, 0.0, atol=1e-15)
            np.testing.assert_allclose(h_new, h_hat, atol=1e-15)
