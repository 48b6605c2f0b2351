"""Tensor assembly kernel: project_outer and stencil_weights against einsum
and explicit row differences."""

import numpy as np
import pytest

from hyporom.rom.operators import _BLOCK_BYTES, project_outer, stencil_weights

from oracles import random_orthonormal


def _outer_einsum(weights, left, right):
    return np.einsum("ip,ilk->plk", weights,
                     np.einsum("il,ik->ilk", left, right))


@pytest.mark.parametrize("n, p, l, k", [
    (1601, 40, 40, 40),    # several full row blocks plus a remainder
    (50, 8, 8, 8),         # fewer rows than one block
    (200, 3, 5, 7),        # rectangular l != k
    (1, 4, 3, 2),          # one row
])
def test_project_outer_matches_einsum(n, p, l, k):
    # Entries of mode size, O(1/sqrt(n)), as the assemblers pass them.
    rng = np.random.default_rng(n + l)
    weights, left, right = (rng.standard_normal((n, c)) / np.sqrt(n)
                            for c in (p, l, k))
    out = project_outer(weights, left, right)
    assert out.shape == (p, l, k)
    np.testing.assert_allclose(out, _outer_einsum(weights, left, right),
                               rtol=0, atol=1e-13)


def test_large_case_spans_several_blocks():
    rows = _BLOCK_BYTES // (8 * 40 * 40)
    assert 1601 > 3 * rows and 1601 % rows != 0


@pytest.mark.parametrize("coefs", [
    {2: 1, 0: -1},
    {1: 1, 0: -1},
    {2: 0.9, 1: 0.2, 0: -1.1},
])
def test_stencil_weights_match_row_differences(coefs):
    n, m = 30, 4
    rng = np.random.default_rng(7)
    phi = random_orthonormal(n, m, 4)
    x = rng.standard_normal((n + max(coefs), 6))
    diff = sum(c * x[s:s + n] for s, c in coefs.items())
    w = stencil_weights(phi, coefs)
    assert w.shape == (n + max(coefs), m)
    np.testing.assert_allclose(w.T @ x, phi.T @ diff, rtol=0, atol=1e-13)


def test_stencil_on_test_functions_matches_stencil_on_products():
    n, m = 40, 5
    phi = random_orthonormal(n, m, 5)
    padded = random_orthonormal(n + 2, m, 6)
    prod = np.einsum("il,ik->ilk", padded, padded)
    ref = np.einsum("ip,ilk->plk", phi, prod[2:] - prod[:-2])
    out = project_outer(stencil_weights(phi, {2: 1, 0: -1}), padded, padded)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)
