import numpy as np
import pytest
from scipy.linalg import subspace_angles

from hyporom.errors import AllZeroSpectrum, EmptySlice, ShapeMismatch
from hyporom.pod import (PodBasis, compute_basis, fallback_basis, lift,
                         project, select_modes, window_transfer)

from oracles import random_orthonormal, svd_via_gram


class TestSelectModes:
    def test_single_nonzero_sigma(self):
        assert select_modes(np.array([1.0, 0.0, 0.0]), 0.3) == 1

    def test_energy_boundary_below(self):
        # I(1) = 4/5 = 0.8 < 0.99 -> need both modes.
        assert select_modes(np.array([2.0, 1.0]), 0.1) == 2

    def test_energy_boundary_above(self):
        # I(1) = 0.8 >= 0.75 -> one mode suffices.
        assert select_modes(np.array([2.0, 1.0]), 0.5) == 1

    def test_cap_overrides(self):
        s = np.array([4.0, 3.0, 2.0, 1.0])
        assert select_modes(s, 1e-8) == 4
        assert select_modes(s, 1e-8, m_max=2) == 2

    def test_all_zero_spectrum(self):
        with pytest.raises(AllZeroSpectrum):
            select_modes(np.zeros(4), 0.1)


class TestComputeBasis:
    def test_rank_one_matrix(self):
        v = np.array([3.0, 0.0, 4.0])
        data = np.column_stack([v] * 7)
        basis = compute_basis(data, 0.1)
        assert basis.m == 1
        mode = basis.modes[:, 0]
        np.testing.assert_allclose(np.abs(mode), np.abs(v) / 5.0, atol=1e-14)
        # sigma_1^2 equals n_cols * ||v||^2 for constant columns.
        assert basis.singular_values[0] ** 2 == pytest.approx(
            7 * 25.0, rel=1e-10)

    def test_diagonal_slice(self):
        basis = compute_basis(np.diag([3.0, 2.0, 1.0]), 1e-8)
        np.testing.assert_allclose(basis.singular_values[:3], [3.0, 2.0, 1.0],
                                   atol=1e-12)
        assert basis.m == 3

    def test_against_gram_oracle(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((50, 20))
        basis = compute_basis(data, 1e-12)
        left, sigma = svd_via_gram(data)
        np.testing.assert_allclose(basis.singular_values[:basis.m],
                                   sigma[:basis.m], rtol=1e-10)
        angles = subspace_angles(basis.modes, left[:, :basis.m])
        assert np.max(angles) < 1e-8

    @pytest.mark.parametrize("shape", [(8, 5), (16, 16), (64, 40), (40, 64)])
    def test_oracle_sweep(self, shape):
        rng = np.random.default_rng(sum(shape))
        data = rng.standard_normal(shape) @ np.diag(
            np.logspace(0, -6, shape[1]))
        basis = compute_basis(data, 1e-10)
        left, sigma = svd_via_gram(data)
        m = basis.m
        np.testing.assert_allclose(basis.singular_values[:m], sigma[:m],
                                   rtol=1e-10, atol=1e-10 * sigma[0])
        assert np.max(subspace_angles(basis.modes, left[:, :m])) < 1e-8

    def test_energy_criterion_is_minimal(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((30, 12)) @ np.diag(np.logspace(0, -4, 12))
        eps = 1e-3
        basis = compute_basis(data, eps)
        s2 = basis.singular_values ** 2
        total = s2.sum()
        m = basis.m
        assert s2[:m].sum() / total >= 1 - eps ** 2
        if m > 1:
            assert s2[:m - 1].sum() / total < 1 - eps ** 2

    def test_orthonormal_and_deterministic_signs(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((25, 10))
        b1 = compute_basis(data, 1e-10)
        b2 = compute_basis(data.copy(), 1e-10)
        np.testing.assert_array_equal(b1.modes, b2.modes)
        for k in range(b1.m):
            lead = np.argmax(np.abs(b1.modes[:, k]))
            assert b1.modes[lead, k] > 0

    def test_empty_slice(self):
        with pytest.raises(EmptySlice):
            compute_basis(np.zeros((4, 0)), 0.1)

    def test_zero_slice_raises_and_fallback_covers(self):
        with pytest.raises(AllZeroSpectrum):
            compute_basis(np.zeros((5, 4)), 0.1)
        fb = fallback_basis(5, 2, variable_id="q")
        assert fb.m == 2 and fb.is_fallback
        np.testing.assert_array_equal(fb.modes.T @ fb.modes, np.eye(2))


class TestProjectLift:
    def _basis(self, n=12, m=4, seed=1):
        return PodBasis("w", random_orthonormal(n, m, seed),
                        np.arange(m, 0, -1, dtype=float))

    def test_canonical_coefficient(self):
        basis = self._basis()
        for k in range(basis.m):
            e_k = np.zeros(basis.m)
            e_k[k] = 1.0
            np.testing.assert_allclose(project(basis, lift(basis, e_k)), e_k,
                                       atol=1e-13)

    def test_orthogonal_field_projects_to_zero(self):
        basis = self._basis()
        rng = np.random.default_rng(4)
        fld = rng.standard_normal(basis.n_rows)
        fld -= basis.modes @ (basis.modes.T @ fld)
        np.testing.assert_allclose(project(basis, fld), 0.0, atol=1e-12)

    def test_residual_orthogonal_to_modes(self):
        basis = self._basis()
        rng = np.random.default_rng(5)
        fld = rng.standard_normal(basis.n_rows)
        resid = fld - lift(basis, project(basis, fld))
        np.testing.assert_allclose(basis.modes.T @ resid, 0.0, atol=1e-12)

    def test_rank_one_exactness(self):
        v = np.exp(np.linspace(0, 2, 20))
        basis = compute_basis(np.column_stack([v] * 5), 0.5)
        recon = lift(basis, project(basis, v))
        np.testing.assert_allclose(recon, v, rtol=1e-12)

    def test_shape_mismatch(self):
        basis = self._basis()
        with pytest.raises(ShapeMismatch):
            project(basis, np.zeros(basis.n_rows + 1))
        with pytest.raises(ShapeMismatch):
            lift(basis, np.zeros(basis.m + 1))


class TestWindowTransfer:
    def test_identity_between_equal_bases(self):
        basis = PodBasis("w", random_orthonormal(15, 4, 2),
                         np.arange(4, 0, -1, dtype=float))
        coeffs = np.array([0.3, -1.2, 0.5, 2.0])
        np.testing.assert_allclose(window_transfer(coeffs, basis, basis),
                                   coeffs, atol=1e-13)

    def test_superspace_preserves_field(self):
        big = random_orthonormal(20, 6, 3)
        small = PodBasis("w", big[:, :3], np.arange(3, 0, -1, dtype=float))
        wide = PodBasis("w", big, np.arange(6, 0, -1, dtype=float))
        coeffs = np.array([1.0, -0.5, 0.25])
        out = window_transfer(coeffs, small, wide)
        np.testing.assert_allclose(wide.modes @ out, small.modes @ coeffs,
                                   atol=1e-12)

    def test_matches_dense_triple_product(self):
        a = PodBasis("w", random_orthonormal(18, 4, 7),
                     np.arange(4, 0, -1, dtype=float))
        b = PodBasis("w", random_orthonormal(18, 3, 8),
                     np.arange(3, 0, -1, dtype=float))
        coeffs = np.array([0.1, 0.2, -0.3, 0.4])
        dense = b.modes.T @ a.modes @ coeffs
        np.testing.assert_allclose(window_transfer(coeffs, a, b), dense,
                                   atol=1e-13)
