import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

import hyporom.pod as pod
from hyporom.errors import (AllZeroSpectrum, BreakdownInEigensolve,
                            ConfigError, EmptySlice, ShapeMismatch)
from hyporom.pod import (PodBasis, fallback_basis, lift, select_modes,
                         thin_svd, window_transfer)
from hyporom.snapshots import SnapshotMatrix

from oracles import (project, random_orthonormal, svd_via_gram,
                     thin_svd_scipy, window_basis)


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

    @pytest.mark.parametrize("eps_pod", [0.0, 1.0, -1e-3, float("nan")])
    def test_bad_eps_pod_is_a_config_error(self, eps_pod):
        with pytest.raises(ConfigError, match="eps_pod"):
            select_modes(np.array([2.0, 1.0]), eps_pod)


def _slice(kind):
    rng = np.random.default_rng(len(kind))
    if kind == "tall":
        return rng.standard_normal((60, 25))
    if kind == "square":
        return rng.standard_normal((30, 30))
    if kind == "wide":
        return rng.standard_normal((20, 45))
    if kind == "rank_deficient":
        return rng.standard_normal((50, 6)) @ rng.standard_normal((6, 20))
    return rng.standard_normal((80, 30)) @ np.diag(np.logspace(0, -12, 30))


def _signs_fixed_by_loop(u):
    out = u.copy()
    for j in range(out.shape[1]):
        lead = np.argmax(np.abs(out[:, j]))
        if out[lead, j] < 0.0:
            out[:, j] = -out[:, j]
    return out


def _check_against_gesdd(data, k):
    u, s = thin_svd(data, k)
    u0, s0, _ = np.linalg.svd(data, full_matrices=False)
    p = min(data.shape)
    kk = p if k is None else min(k, p)
    assert u.shape == (data.shape[0], kk)
    np.testing.assert_allclose(s, s0, rtol=0.0, atol=1e-14 * s0[0])
    np.testing.assert_allclose(u.T @ u, np.eye(kk), rtol=0.0, atol=1e-13)
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(kk)]
    assert np.all(lead > 0.0)
    return u, s0, _signs_fixed_by_loop(u0)


def _check_modes_against_gesdd(data, ks):
    p = min(data.shape)
    for k in ks:
        u, s0, u0 = _check_against_gesdd(data, k)
        # Modes separated from both neighbours by a spectral gap are
        # determined up to sign, which both sides fix the same way.
        gaps = np.abs(np.diff(s0)) > 1e-3 * s0[0]
        for j in range(u.shape[1]):
            if (j == 0 or gaps[j - 1]) and (j == p - 1 or gaps[j]):
                np.testing.assert_allclose(u[:, j], u0[:, j], rtol=0.0,
                                           atol=1e-10)


class TestThinSvd:
    @pytest.mark.parametrize("kind", ["tall", "square", "wide",
                                      "rank_deficient", "graded"])
    def test_matches_gesdd(self, kind):
        data = _slice(kind)
        p = min(data.shape)
        _check_modes_against_gesdd(data, (1, p // 2, p, p + 3, None))

    # min(rows, cols) on either side of one and two QR column blocks.
    @pytest.mark.parametrize("p", [pod._QR_BLOCK - 1, pod._QR_BLOCK,
                                   pod._QR_BLOCK + 1, 2 * pod._QR_BLOCK,
                                   2 * pod._QR_BLOCK + 1])
    @pytest.mark.parametrize("wide", [False, True])
    def test_matches_gesdd_across_qr_blocks(self, p, wide):
        data = np.random.default_rng(p).standard_normal((2 * p + 7, p))
        data = data.T if wide else data
        _check_modes_against_gesdd(data, (1, p // 2, p, None))

    # The shape of a dam-break window slice, with a graded spectrum.
    @pytest.mark.parametrize("wide", [False, True])
    def test_matches_gesdd_on_window_sized_slice(self, wide):
        rng = np.random.default_rng(148)
        data = (rng.standard_normal((1600, 148))
                @ np.diag(np.logspace(0, -12, 148)))
        data = data.T if wide else data
        _check_modes_against_gesdd(data, (1, 74, 148, None))

    def test_column_major_window_matches_row_major_copy(self):
        rng = np.random.default_rng(21)
        times = np.arange(120.0)
        snap = SnapshotMatrix(rng.standard_normal((300, 120)), times)
        view = snap.window(17, 103)
        assert view.flags.f_contiguous
        for k in (1, 40, None):
            u_f, s_f = thin_svd(view, k)
            u_c, s_c = thin_svd(np.ascontiguousarray(view), k)
            np.testing.assert_array_equal(u_f, u_c)
            np.testing.assert_array_equal(s_f, s_c)

    def test_snapshot_windows_keep_small_svds_and_match_fresh(
            self, monkeypatch):
        rng = np.random.default_rng(22)
        times = np.arange(90.0)
        snap = SnapshotMatrix(rng.standard_normal((200, 90)), times)
        svd, calls = pod._lapack.gesdd, []

        def count_svd(*args):
            calls.append(args[0].shape)
            return svd(*args)

        monkeypatch.setattr(pod._lapack, "gesdd", count_svd)
        for k in (3, None, 1, 30):
            for start, stop in ((0, 46), (45, 90)):
                view = snap.window(start, stop)
                kept = snap.window_svds.setdefault((start, stop), {})
                u, s = thin_svd(view, k, kept)
                u0, s0 = thin_svd(view.copy(order="F"), k)
                assert u.tobytes() == u0.tobytes()
                assert s.tobytes() == s0.tobytes()
        # One small SVD per kept slice, the first time; every fresh call
        # runs its own.
        assert len(calls) == 2 + 8
        assert sorted(snap.window_svds) == [(0, 46), (45, 90)]

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           k=st.one_of(st.none(), st.integers(1, 14)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_shapes(self, rows, cols, k, seed):
        data = np.random.default_rng(seed).standard_normal((rows, cols))
        _check_against_gesdd(data, k)

    def test_sign_fix_matches_column_loop(self):
        u = np.random.default_rng(11).standard_normal((40, 12))
        np.testing.assert_array_equal(pod._fix_signs(u.copy()),
                                      _signs_fixed_by_loop(u))

    @pytest.mark.parametrize("data", [np.zeros((4, 0)), np.zeros((0, 3)),
                                      np.ones(5)])
    def test_empty_slice(self, data):
        with pytest.raises(EmptySlice):
            thin_svd(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (7, 2), (29, 9), (3, 9)])
    def test_non_finite_slice(self, bad, where):
        data = np.random.default_rng(5).standard_normal((30, 10))
        data[where] = bad
        with pytest.raises(BreakdownInEigensolve):
            thin_svd(data, 4)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_forms_one_vector(self, k):
        u, s = thin_svd(np.diag([3.0, 2.0, 1.0]), k)
        assert u.shape == (3, 1)
        np.testing.assert_array_equal(s, [3.0, 2.0, 1.0])

    @pytest.mark.parametrize("routine", ["dgeqrt", "dgemqrt"])
    def test_lapack_info_is_typed(self, monkeypatch, routine):
        real = getattr(pod._lapack, routine[1:])

        def failing(*args):
            real(*args)
            return -1

        monkeypatch.setattr(pod._lapack, routine[1:], failing)
        with pytest.raises(BreakdownInEigensolve, match=routine):
            thin_svd(np.eye(4))

    def test_small_svd_failure_is_typed(self, monkeypatch):
        # dgesdd's info > 0: the SVD did not converge.
        monkeypatch.setattr(pod._lapack, "gesdd", lambda *args: 1)
        with pytest.raises(BreakdownInEigensolve, match="dgesdd.*info=1"):
            thin_svd(np.eye(4))


class TestGilFreeLapack:
    """The ctypes calls give bitwise what scipy's LAPACK wrappers give."""

    @pytest.mark.parametrize("shape", [(1600, 148), (60, 25), (33, 33),
                                       (20, 45), (148, 1600), (1, 7),
                                       (7, 1)])
    @pytest.mark.parametrize("k", [None, 1, 40, 10 ** 6])
    def test_bitwise_the_scipy_wrappers(self, shape, k):
        data = np.random.default_rng(sum(shape)).standard_normal(shape)
        data[:, ::3] *= 1e-6          # a graded spectrum
        u, s = thin_svd(data, k)
        u0, s0 = thin_svd_scipy(data, k)
        assert u.tobytes() == u0.tobytes()
        assert s.tobytes() == s0.tobytes()

    @pytest.mark.parametrize("shape", [(300, 90), (40, 90)])
    def test_kept_reuse_is_bitwise_the_scipy_wrappers(self, shape):
        data = np.random.default_rng(3).standard_normal(shape)
        kept, kept0 = {}, {}
        for k in (5, None, 2, 30):
            u, s = thin_svd(data, k, kept)
            u0, s0 = thin_svd_scipy(data, k, kept0)
            assert u.tobytes() == u0.tobytes()
            assert s.tobytes() == s0.tobytes()
        assert kept["svd"][0].tobytes() == kept0["svd"][0].tobytes()

    def test_arrays_are_checked_before_lapack_sees_them(self):
        a, t, work = np.zeros((6, 4)), np.zeros((4, 4), order="F"), np.zeros(16)
        f = np.asfortranarray(a)
        for args, bad in [((a, t, work), r"\(6, 4\), got float64 \(6, 4\)"),
                          ((f, t[:, :3].copy(order="F"), work), r"\(4, 3\)"),
                          ((f, t, work[:15]), r"\(16,\), got float64 \(15,\)"),
                          ((f.astype(np.float32), t, work), "float32")]:
            with pytest.raises(ValueError, match=bad):
                pod._lapack.geqrt(*args)


class TestComputeBasis:
    def test_rank_one_matrix(self):
        v = np.array([3.0, 0.0, 4.0])
        data = np.column_stack([v] * 7)
        basis = window_basis(data, 0.1)
        assert basis.m == 1
        mode = basis.modes[:, 0]
        np.testing.assert_allclose(np.abs(mode), np.abs(v) / 5.0, atol=1e-14)
        # sigma_1^2 equals n_cols * ||v||^2 for constant columns.
        assert basis.singular_values[0] ** 2 == pytest.approx(
            7 * 25.0, rel=1e-10)

    def test_diagonal_slice(self):
        basis = window_basis(np.diag([3.0, 2.0, 1.0]), 1e-8)
        np.testing.assert_allclose(basis.singular_values[:3], [3.0, 2.0, 1.0],
                                   atol=1e-12)
        assert basis.m == 3

    def test_against_gram_oracle(self):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((50, 20))
        basis = window_basis(data, 1e-12)
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
        basis = window_basis(data, 1e-10)
        left, sigma = svd_via_gram(data)
        m = basis.m
        np.testing.assert_allclose(basis.singular_values[:m], sigma[:m],
                                   rtol=1e-10, atol=1e-10 * sigma[0])
        assert np.max(subspace_angles(basis.modes, left[:, :m])) < 1e-8

    def test_energy_criterion_is_minimal(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((30, 12)) @ np.diag(np.logspace(0, -4, 12))
        eps = 1e-3
        basis = window_basis(data, eps)
        s2 = basis.singular_values ** 2
        total = s2.sum()
        m = basis.m
        assert s2[:m].sum() / total >= 1 - eps ** 2
        if m > 1:
            assert s2[:m - 1].sum() / total < 1 - eps ** 2

    def test_orthonormal_and_deterministic_signs(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((25, 10))
        b1 = window_basis(data, 1e-10)
        b2 = window_basis(data.copy(), 1e-10)
        np.testing.assert_array_equal(b1.modes, b2.modes)
        for k in range(b1.m):
            lead = np.argmax(np.abs(b1.modes[:, k]))
            assert b1.modes[lead, k] > 0

    def test_empty_slice(self):
        with pytest.raises(EmptySlice):
            window_basis(np.zeros((4, 0)), 0.1)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_cap_below_one_keeps_one_mode(self, m_max):
        data = np.random.default_rng(4).standard_normal((12, 6))
        basis = window_basis(data, 1e-10, m_max=m_max)
        assert basis.m == 1
        np.testing.assert_array_equal(
            basis.modes, window_basis(data, 1e-10, m_max=1).modes)

    def test_zero_slice_raises_and_fallback_covers(self):
        with pytest.raises(AllZeroSpectrum):
            window_basis(np.zeros((5, 4)), 0.1)
        fb = fallback_basis(5, 2)
        assert fb.m == 2 and fb.is_fallback
        np.testing.assert_array_equal(fb.modes.T @ fb.modes, np.eye(2))


class TestProjectLift:
    def _basis(self, n=12, m=4, seed=1):
        return PodBasis(random_orthonormal(n, m, seed),
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
        basis = window_basis(np.column_stack([v] * 5), 0.5)
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
        basis = PodBasis(random_orthonormal(15, 4, 2),
                         np.arange(4, 0, -1, dtype=float))
        coeffs = np.array([0.3, -1.2, 0.5, 2.0])
        np.testing.assert_allclose(window_transfer(coeffs, basis, basis),
                                   coeffs, atol=1e-13)

    def test_superspace_preserves_field(self):
        big = random_orthonormal(20, 6, 3)
        small = PodBasis(big[:, :3], np.arange(3, 0, -1, dtype=float))
        wide = PodBasis(big, np.arange(6, 0, -1, dtype=float))
        coeffs = np.array([1.0, -0.5, 0.25])
        out = window_transfer(coeffs, small, wide)
        np.testing.assert_allclose(wide.modes @ out, small.modes @ coeffs,
                                   atol=1e-12)

    def test_matches_dense_triple_product(self):
        a = PodBasis(random_orthonormal(18, 4, 7),
                     np.arange(4, 0, -1, dtype=float))
        b = PodBasis(random_orthonormal(18, 3, 8),
                     np.arange(3, 0, -1, dtype=float))
        coeffs = np.array([0.1, 0.2, -0.3, 0.4])
        dense = b.modes.T @ a.modes @ coeffs
        np.testing.assert_allclose(window_transfer(coeffs, a, b), dense,
                                   atol=1e-13)
