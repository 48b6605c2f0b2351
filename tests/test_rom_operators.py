"""Tensor assembly kernel: project_outer and stencil_weights against einsum
and explicit row differences, and project_outer's two row halves, the
second run on a worker thread or in the caller."""

import functools
import threading
from types import SimpleNamespace


import numpy as np
import pytest

from hyporom.fluxes import FluxChoice
from hyporom.fom import SweModel, SweParams, SweState, run_fom
from hyporom.grid import Grid1D
from hyporom.pod import PodBasis
from hyporom.rom import COEFF_DEIM, LIN_DEIM_U_DEIM_F, build_rom
from hyporom.rom import operators
from hyporom.rom.operators import _BLOCK_BYTES, project_outer, stencil_weights

from oracles import random_orthonormal


def _factors(n, p, l, k):
    # Entries of mode size, O(1/sqrt(n)), as the assemblers pass them.
    rng = np.random.default_rng(n + l)
    return (rng.standard_normal((n, c)) / np.sqrt(n) for c in (p, l, k))


def _outer_einsum(weights, left, right):
    return np.einsum("ip,ilk->plk", weights,
                     np.einsum("il,ik->ilk", left, right))


@pytest.mark.parametrize("n, p, l, k", [
    (1601, 40, 40, 40),    # several full row blocks plus a remainder
    (50, 8, 8, 8),         # fewer rows than one block
    (200, 3, 5, 7),        # rectangular l != k
    (1, 4, 3, 2),          # one row
    (7, 3, 4, 5),          # odd n: halves of 3 and 4 rows
    (161, 6, 40, 40),      # halves of 80 and 81 rows, one block is 81
])
def test_project_outer_matches_einsum(n, p, l, k):
    weights, left, right = _factors(n, p, l, k)
    out = project_outer(weights, left, right)
    assert out.shape == (p, l, k)
    np.testing.assert_allclose(out, _outer_einsum(weights, left, right),
                               rtol=0, atol=1e-13)


def test_large_case_spans_several_blocks():
    rows = _BLOCK_BYTES // (8 * 40 * 40)
    assert 1601 > 3 * rows and 1601 % rows != 0


def test_each_half_of_the_large_case_spans_several_blocks():
    rows = _BLOCK_BYTES // (8 * 40 * 40)
    for half in (1601 // 2, 1601 - 1601 // 2):
        assert half > 3 * rows and half % rows != 0


class _SerialThread:
    """Stand-in for threading.Thread that runs its target in the caller,
    at start() when ``first`` is set, else at join()."""

    def __init__(self, target, first):
        self._target, self._first = target, first

    def start(self):
        if self._first:
            self._target()

    def join(self):
        if not self._first:
            self._target()


@pytest.fixture
def serial(monkeypatch):
    """Run project_outer's second half in the caller: "before" or "after"
    the first half, or on the real worker thread for None."""
    def set_order(order):
        fake = SimpleNamespace(Thread=functools.partial(
            _SerialThread, first=order == "before"))
        monkeypatch.setattr(operators, "threading",
                            threading if order is None else fake)
    return set_order


@pytest.mark.parametrize("n, p, l, k", [
    (1601, 40, 40, 40),
    (161, 6, 40, 40),
    (1, 4, 3, 2),
])
def test_threaded_halves_equal_serial_halves(serial, n, p, l, k):
    # Which half finishes first changes no bit of the tensor.
    factors = tuple(_factors(n, p, l, k))
    threaded = project_outer(*factors)
    for order in ("before", "after"):
        serial(order)
        assert np.array_equal(project_outer(*factors), threaded)


def test_worker_error_reaches_the_caller(monkeypatch):
    sum_blocks = operators._sum_blocks

    def fail_off_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker half")
        sum_blocks(*args)

    factors = tuple(_factors(1601, 40, 40, 40))
    threads = threading.active_count()
    monkeypatch.setattr(operators, "_sum_blocks", fail_off_main_thread)
    with pytest.raises(FloatingPointError, match="worker half"):
        project_outer(*factors)
    assert threading.active_count() == threads
    monkeypatch.setattr(operators, "_sum_blocks", sum_blocks)
    np.testing.assert_allclose(project_outer(*factors),
                               _outer_einsum(*factors), rtol=0, atol=1e-13)


def _hll_dam_snapshots(n=200):
    grid = Grid1D(0.0, 12.0, n)
    params = SweParams(g=9.81, n_b=0.1, nu=0.9,
                       bathymetry=lambda x: 0.2 * (1.0 - np.asarray(x) / 12.0))
    h0 = np.where(grid.centers <= 6.0, 2.0, 1.0) \
        - params.bathymetry(grid.centers)
    res = run_fom(SweModel(params, grid, FluxChoice.HLL),
                  SweState(h=h0, q=np.zeros_like(h0)), t_final=0.5, cfl=0.9)
    return grid, params, res.snapshots


def _setup_arrays(setup):
    """Every array of a built ROM: operators, bases and spectra."""
    out = []
    for w in setup.windows:
        ops = w.ops
        out += [ops.lin, ops.gather, ops.scale0, ops.scale1]
        for rows, operand, left, right in ops.quad:
            out += [operand, left, right]
        out += [b.modes for b in w.bases.values()]
    return out + [setup.spectra[key] for key in sorted(setup.spectra)]


def test_hll_build_is_bitwise_the_same_threaded_and_serial(serial):
    grid, params, snaps = _hll_dam_snapshots()
    builds = []
    for order in (None, "after", None, "before"):
        serial(order)
        setup = build_rom("swe_hll", [snaps], params, grid, n_windows=2,
                          eps_pod=1e-10, mode_cap=8,
                          linearization=LIN_DEIM_U_DEIM_F,
                          coeff_mode=COEFF_DEIM)
        assert all(w.ops.quad for w in setup.windows)
        builds.append(_setup_arrays(setup))
    for other in builds[1:]:
        assert len(other) == len(builds[0])
        assert all(np.array_equal(a, b) for a, b in zip(builds[0], other))


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


def _basis():
    return PodBasis(np.eye(3)[:, :2], np.ones(2))


def _compiled():
    return operators.compile_terms(
        {"A": operators.Term(np.eye(2), "w", ("w",), 0.0, 1.0)}, ("w",),
        ("w",), 2)


@pytest.mark.parametrize("make", [_basis, _compiled],
                         ids=["PodBasis", "RomOperators"])
def test_array_holders_compare_by_identity(make):
    # Field-wise equality would compare arrays and raise numpy's "truth
    # value is ambiguous"; identity answers, and the objects hash.
    a, b = make(), make()
    assert a == a
    assert not a == b
    assert a != b
    assert len({a, b, a}) == 2
