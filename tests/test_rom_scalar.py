"""Reduced transport and Burgers models against oracles and the FOM."""

import numpy as np
import pytest

from hyporom.fom import (BurgersParams, TransportParams, burgers_stationary,
                         burgers_step, transport_stationary, transport_step)
from hyporom.grid import Grid1D
from hyporom.pod import PodBasis, compute_basis, lift
from hyporom.rom import (assemble_burgers_rom, assemble_transport_rom,
                         rom_burgers_step, rom_transport_step)

from oracles import (burgers_ops_oracle, burgers_rom_step_oracle, project,
                     random_orthonormal, transport_ops_oracle,
                     transport_rom_step_oracle)


def _orth_basis(n, m, seed):
    return PodBasis("w", random_orthonormal(n, m, seed),
                    np.arange(m, 0, -1, dtype=float))


class TestTransportAssembly:
    def test_constant_mode_alpha_zero(self):
        n = 16
        grid = Grid1D(0.0, 1.0, n)
        params = TransportParams(c=1.0, alpha=0.0, nu=0.9)
        basis = PodBasis("w", np.full((n, 1), 1.0 / np.sqrt(n)), np.ones(1))
        ops = assemble_transport_rom(basis, params, grid)
        # With e+ = e- = 1 all stencils telescope to zero through the ghosts.
        assert ops.matrices["A"][0, 0] == pytest.approx(0.0, abs=1e-15)
        assert ops.matrices["B"][0, 0] == pytest.approx(0.0, abs=1e-15)
        assert ops.matrices["C"][0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_triple_loop_oracle(self):
        grid = Grid1D(0.0, 1.0, 10)
        params = TransportParams(c=1.3, alpha=0.7, nu=0.8)
        basis = _orth_basis(10, 3, seed=5)
        ops = assemble_transport_rom(basis, params, grid)
        a, b, c = transport_ops_oracle(basis.modes, params.c, params.alpha,
                                       grid.dx)
        np.testing.assert_allclose(ops.matrices["A"], a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["B"], b, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["C"], c, rtol=0, atol=1e-13)


class TestTransportStep:
    def test_stationary_projection_is_fixed_point(self):
        grid = Grid1D(0.0, 2.0, 100)
        params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
        w_star = transport_stationary(params, 1.0, 0.0, grid.centers)
        basis = compute_basis(np.column_stack([w_star] * 6), 0.1,
                              variable_id="w")
        assert basis.m == 1
        ops = assemble_transport_rom(basis, params, grid)
        w_hat = project(basis, w_star)
        out = rom_transport_step(w_hat, ops, None, dt=0.9 * grid.dx)
        lifted = lift(basis, out)
        assert np.max(np.abs(lifted - w_star)) <= 1e-13 * np.max(np.abs(w_star))

    def test_zero_coefficients_stay_zero(self):
        grid = Grid1D(0.0, 1.0, 20)
        params = TransportParams(c=1.0, alpha=0.4)
        basis = _orth_basis(20, 4, seed=2)
        ops = assemble_transport_rom(basis, params, grid)
        out = rom_transport_step(np.zeros(4), ops, None, dt=0.01)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_full_basis_reproduces_fom_over_100_steps(self):
        n = 40
        grid = Grid1D(0.0, 2.0, n)
        params = TransportParams(c=1.0, alpha=1.0, nu=0.9)
        basis = PodBasis("w", np.eye(n), np.ones(n))
        ops = assemble_transport_rom(basis, params, grid)
        rng = np.random.default_rng(8)
        w = transport_stationary(params, 1.0, 0.0, grid.centers) \
            + 0.1 * rng.standard_normal(n)
        w_hat = project(basis, w)
        dt = 0.9 * grid.dx
        w_fom = w.copy()
        for _ in range(100):
            w_fom = transport_step(w_fom, params, grid, dt)
            w_hat = rom_transport_step(w_hat, ops, None, dt)
        np.testing.assert_allclose(lift(basis, w_hat), w_fom, rtol=0,
                                   atol=1e-11)


class TestBurgersAssembly:
    def test_source_tensor_vanishes_without_source(self):
        grid = Grid1D(0.0, 1.0, 12)
        params = BurgersParams(alpha=0.0, nu=0.9)
        basis = _orth_basis(12, 3, seed=3)
        ops = assemble_burgers_rom(basis, params, grid)
        np.testing.assert_array_equal(ops.tensors3["C"], np.zeros((3, 3, 3)))

    def test_constant_mode_telescopes(self):
        n = 8
        grid = Grid1D(0.0, 1.0, n)
        params = BurgersParams(alpha=0.0, nu=0.9)
        basis = PodBasis("w", np.full((n, 1), 1.0 / np.sqrt(n)), np.ones(1))
        ops = assemble_burgers_rom(basis, params, grid)
        assert ops.tensors3["A"][0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_triple_loop_oracle(self):
        grid = Grid1D(0.0, 1.0, 8)
        params = BurgersParams(alpha=0.9, nu=0.85)
        basis = _orth_basis(8, 3, seed=7)
        ops = assemble_burgers_rom(basis, params, grid)
        a, b, c = burgers_ops_oracle(basis.modes, params.alpha, grid.dx)
        np.testing.assert_allclose(ops.tensors3["A"], a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.matrices["B"], b, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ops.tensors3["C"], c, rtol=0, atol=1e-13)


class TestBurgersStep:
    def test_stationary_projection_is_fixed_point(self):
        grid = Grid1D(0.0, 2.0, 100)
        params = BurgersParams(alpha=1.0, nu=0.9)
        w_star = burgers_stationary(params, 0.1, 0.0, grid.centers)
        basis = compute_basis(np.column_stack([w_star] * 5), 0.1)
        ops = assemble_burgers_rom(basis, params, grid)
        w_hat = project(basis, w_star)
        dt = 0.9 * grid.dx / np.max(np.abs(w_star))
        out = rom_burgers_step(w_hat, ops, None, dt)
        lifted = lift(basis, out)
        assert np.max(np.abs(lifted - w_star)) <= 1e-13 * np.max(np.abs(w_star))

    def test_zero_is_fixed(self):
        grid = Grid1D(0.0, 1.0, 10)
        basis = _orth_basis(10, 2, seed=4)
        ops = assemble_burgers_rom(basis, BurgersParams(alpha=0.5), grid)
        out = rom_burgers_step(np.zeros(2), ops, None, 0.01)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_full_basis_reproduces_fom_over_50_steps(self):
        n = 10
        grid = Grid1D(0.0, 2.0, n)
        params = BurgersParams(alpha=1.0, nu=0.9)
        basis = PodBasis("w", np.eye(n), np.ones(n))
        ops = assemble_burgers_rom(basis, params, grid)
        rng = np.random.default_rng(12)
        w = burgers_stationary(params, 0.1, 0.0, grid.centers) \
            + 0.05 * rng.random(n)
        w_hat = project(basis, w)
        w_fom = w.copy()
        for _ in range(50):
            dt = 0.9 * grid.dx / np.max(np.abs(w_fom))
            w_fom = burgers_step(w_fom, params, grid, dt)
            w_hat = rom_burgers_step(w_hat, ops, None, dt)
        np.testing.assert_allclose(lift(basis, w_hat), w_fom, rtol=0,
                                   atol=1e-10)


class TestCompiledStep:
    """The compiled steps against the named-operator oracles on truncated
    bases (M < n), and their named operators as views of the step arrays."""

    @pytest.mark.parametrize("seed", [31, 32])
    def test_transport_matches_named_operator_oracle(self, seed):
        n, m = 30, 6
        grid = Grid1D(0.0, 2.0, n)
        params = TransportParams(c=1.3, alpha=0.7, nu=0.8)
        ops = assemble_transport_rom(_orth_basis(n, m, seed), params, grid)
        w_hat = np.random.default_rng(seed).standard_normal(m)
        dt = 0.9 * grid.dx / params.c
        np.testing.assert_allclose(
            rom_transport_step(w_hat, ops, None, dt),
            transport_rom_step_oracle(w_hat, ops, params, grid.dx, dt),
            rtol=0, atol=1e-13)
        for arr in ops.matrices.values():
            assert np.shares_memory(arr, ops.lin)

    @pytest.mark.parametrize("seed", [33, 34])
    def test_burgers_matches_named_operator_oracle(self, seed):
        n, m = 30, 6
        grid = Grid1D(0.0, 2.0, n)
        params = BurgersParams(alpha=0.9, nu=0.85)
        ops = assemble_burgers_rom(_orth_basis(n, m, seed), params, grid)
        w_hat = 1.0 + np.random.default_rng(seed).random(m)
        dt = 0.9 * grid.dx / np.max(np.abs(w_hat))
        np.testing.assert_allclose(
            rom_burgers_step(w_hat, ops, None, dt),
            burgers_rom_step_oracle(w_hat, ops, params, grid.dx, dt),
            rtol=0, atol=1e-13)
        assert np.shares_memory(ops.matrices["B"], ops.lin)
        (_, operand, _, _), = ops.quad
        for arr in ops.tensors3.values():
            assert np.shares_memory(arr, operand)
