import numpy as np
import pytest

from hyporom.deim import (deim_offline, deim_online, deim_online_values,
                          deim_reconstruct)
from hyporom.errors import EvaluationError, SingularInterpolationMatrix

from oracles import deim_offline_transcription, random_orthonormal


def test_single_mode_argmax():
    mode = np.array([0.1, 0.9, 0.3])
    mode = mode / np.linalg.norm(mode)
    interp = deim_offline(mode[:, None])
    assert list(interp.indices) == [1]


def test_canonical_modes_pick_their_peaks():
    modes = np.zeros((4, 2))
    modes[2, 0] = 1.0   # e_3
    modes[0, 1] = 1.0   # e_1
    interp = deim_offline(modes)
    assert list(interp.indices) == [2, 0]
    sub = interp.basis[interp.indices, :]
    np.testing.assert_array_equal(np.abs(sub), np.eye(2))


def test_matches_pseudocode_transcription():
    modes = random_orthonormal(20, 4, seed=13)
    interp = deim_offline(modes)
    assert list(interp.indices) == deim_offline_transcription(modes)


def test_nested_index_growth():
    modes = random_orthonormal(30, 6, seed=17)
    full = deim_offline(modes)
    for m in range(1, 6):
        sub = deim_offline(modes[:, :m])
        assert list(sub.indices) == list(full.indices[:m])


def test_determinism():
    modes = random_orthonormal(25, 5, seed=19)
    a = deim_offline(modes)
    b = deim_offline(modes.copy())
    assert np.array_equal(a.indices, b.indices)


def test_condition_estimate_recorded():
    modes = random_orthonormal(25, 5, seed=19)
    interp = deim_offline(modes)
    assert np.isfinite(interp.condition_estimate)
    assert interp.condition_estimate >= 1.0


def test_field_in_span_reconstructed_everywhere():
    modes = random_orthonormal(20, 4, seed=23)
    coeffs_true = np.array([0.5, -1.0, 2.0, 0.25])
    fld = modes @ coeffs_true
    interp = deim_offline(modes)
    coeffs = deim_online(interp, lambda i: fld[i])
    np.testing.assert_allclose(deim_reconstruct(interp, coeffs), fld,
                               atol=1e-12)


def test_square_orthogonal_is_change_of_basis():
    modes = random_orthonormal(5, 5, seed=29)
    interp = deim_offline(modes)
    rng = np.random.default_rng(1)
    fld = rng.standard_normal(5)
    coeffs = deim_online_values(interp, fld[interp.indices])
    np.testing.assert_allclose(deim_reconstruct(interp, coeffs), fld,
                               atol=1e-12)


def test_interpolation_condition_exact_at_points():
    modes = random_orthonormal(20, 4, seed=31)
    interp = deim_offline(modes)
    rng = np.random.default_rng(2)
    fld = rng.standard_normal(20)
    coeffs = deim_online(interp, lambda i: fld[i])
    recon = deim_reconstruct(interp, coeffs)
    np.testing.assert_allclose(recon[interp.indices], fld[interp.indices],
                               atol=1e-13)
    # A generic field is not in the span, so it differs elsewhere.
    off = np.setdiff1d(np.arange(20), interp.indices)
    assert np.max(np.abs(recon[off] - fld[off])) > 1e-8


def test_dependent_modes_raise():
    col = np.zeros(6)
    col[4] = 1.0
    with pytest.raises(SingularInterpolationMatrix):
        deim_offline(np.column_stack([col, col]))


def test_evaluation_error_propagates():
    modes = random_orthonormal(10, 3, seed=37)
    interp = deim_offline(modes)

    def bad_eval(i):
        raise EvaluationError("depth went negative")

    with pytest.raises(EvaluationError):
        deim_online(interp, bad_eval)

    with pytest.raises(EvaluationError):
        deim_online(interp, lambda i: np.nan)


def test_basis_is_the_callers_modes():
    modes = random_orthonormal(30, 4, 17)
    assert np.shares_memory(deim_offline(modes).basis, modes)
