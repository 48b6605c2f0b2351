import numpy as np
import pytest

from hyporom.errors import NonMonotoneTime, ShapeMismatch, TooFewSnapshots
from hyporom import snapshots
from hyporom.snapshots import (SnapshotMatrix, SnapshotRecorder,
                               concat_parametric, export_csv,
                               partition_uniform)

BLOCK = snapshots._BLOCK_COLS


def _matrix(n_rows=6, n_cols=9, seed=0, variable_id="h"):
    rng = np.random.default_rng(seed)
    times = np.cumsum(0.1 + 0.05 * rng.random(n_cols)) - 0.1
    return SnapshotMatrix(variable_id=variable_id,
                          data=rng.standard_normal((n_rows, n_cols)),
                          times=times, dts=np.diff(times))


class TestRecorder:
    def test_single_column(self):
        rec = SnapshotRecorder()
        rec.record({"w": np.arange(4.0)}, 0.0)
        assert rec.n_recorded == 1
        mats = rec.finalize()
        assert mats["w"].n_cols == 1

    def test_non_monotone_time_rejected(self):
        rec = SnapshotRecorder()
        rec.record({"w": np.zeros(3)}, 0.0)
        with pytest.raises(NonMonotoneTime):
            rec.record({"w": np.zeros(3)}, 0.0)

    @pytest.mark.parametrize("n_cols", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                        2 * BLOCK + 1])
    def test_matrix_is_column_stack_of_fields(self, n_cols):
        # Cell and interface rows, across every block boundary case; the
        # recorder copies, so later writes to a recorded array do not leak.
        rng = np.random.default_rng(n_cols)
        cols = [{"h": rng.standard_normal(7), "alpha0": rng.standard_normal(8)}
                for _ in range(n_cols)]
        rec = SnapshotRecorder()
        for n, fields in enumerate(cols):
            live = {var: col.copy() for var, col in fields.items()}
            rec.record(live, 0.1 * n)
            for col in live.values():
                col[:] = np.nan
        mats = rec.finalize()
        assert rec.n_recorded == 0
        for var in ("h", "alpha0"):
            assert np.array_equal(mats[var].data,
                                  np.column_stack([c[var] for c in cols]))
            assert mats[var].data.flags.f_contiguous
            np.testing.assert_array_equal(mats[var].times,
                                          0.1 * np.arange(n_cols))

    def test_strided_run_records_the_fields_it_evaluated(self):
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweModel, SweParams, SweState, run_fom
        from hyporom.fom import swe
        from hyporom.grid import Grid1D
        from oracles import interface_fan

        seen = []

        class Seen(SweModel):
            def fields(self, state):
                out = super().fields(state)
                seen.append({var: np.array(v) for var, v in out.items()})
                return out

        grid = Grid1D(0.0, 1.0, 12)
        h0 = np.where(grid.centers <= 0.5, 2.0, 1.0)
        params = SweParams(n_b=0.05)
        model = Seen(params, grid, FluxChoice.HLL)
        res = run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                      t_final=14.0, cfl=0.9, snapshot_stride=3)
        n_cols = len(seen)
        assert n_cols > BLOCK + 1
        assert n_cols % swe._DERIVE_COLS != 0
        # h and q are what fields returned, and all the run records; each
        # column derived from them is bitwise that of its own state.
        assert list(res.snapshots) == ["h", "q"]
        for var in ("h", "q"):
            assert np.array_equal(res.snapshots[var].data,
                                  np.column_stack([s[var] for s in seen]))
        derived = swe.derived_fields(res.snapshots["h"].data,
                                     res.snapshots["q"].data, params.g,
                                     ("u", "f") + swe.FAN_FIELDS)
        for n, s in enumerate(seen):
            state = SweState(h=s["h"], q=s["q"])
            want = {"u": s["q"] / s["h"],
                    "f": swe.friction_kernel(s["h"], s["q"])}
            want.update(zip(swe.FAN_FIELDS,
                            interface_fan(state, params.g)))
            for var, col in want.items():
                assert np.array_equal(derived[var][:, n], col)
        times = res.snapshots["h"].times
        np.testing.assert_array_equal(times[:-1], res.times[:-1:3])
        assert times[-1] == res.times[-1]

    def test_row_count_change_rejected_at_its_column(self):
        rec = SnapshotRecorder()
        rec.record({"h": np.zeros(4), "q": np.zeros(4)}, 0.0)
        with pytest.raises(ShapeMismatch, match="'q' at column 1"):
            rec.record({"h": np.ones(4), "q": np.ones(5)}, 0.1)
        # The rejected column wrote nothing.
        assert rec.n_recorded == 1
        mats = rec.finalize()
        assert np.array_equal(mats["h"].data, np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [np.zeros((4, 2)), 3.0])
    def test_field_not_one_dimensional_rejected(self, bad):
        rec = SnapshotRecorder()
        with pytest.raises(ShapeMismatch, match="'h' at column 0"):
            rec.record({"w": np.zeros(4), "h": bad}, 0.0)
        assert rec.n_recorded == 0
        assert rec.finalize() == {}

    def test_aux_columns_recomputable_from_primaries(self):
        # Derived f must equal |q|/h^(7/3) of the recorded h, q columns.
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweModel, SweParams, SweState, run_fom
        from hyporom.fom.swe import derived_fields
        from hyporom.grid import Grid1D

        grid = Grid1D(0.0, 12.0, 30)

        def z(x):
            return 0.2 * (1.0 - np.asarray(x) / 12.0)

        params = SweParams(g=9.81, n_b=0.1, bathymetry=z)
        zc = z(grid.centers)
        h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
        model = SweModel(params, grid, FluxChoice.MODIFIED_LAX_FRIEDRICHS)
        res = run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                      t_final=0.2, cfl=0.9)
        h = res.snapshots["h"].data
        q = res.snapshots["q"].data
        f = derived_fields(h, q, params.g, ("f",))["f"]
        assert np.array_equal(f, np.abs(q) / h ** (7.0 / 3.0))

    def test_interface_columns_recomputable_from_primaries(self):
        from hyporom.fluxes import FluxChoice
        from hyporom.fom import SweModel, SweParams, SweState, run_fom
        from hyporom.fom.swe import FAN_FIELDS, derived_fields
        from hyporom.grid import Grid1D
        from oracles import interface_fan

        grid = Grid1D(0.0, 12.0, 25)

        def z(x):
            return 0.2 * (1.0 - np.asarray(x) / 12.0)

        params = SweParams(g=9.81, n_b=0.1, bathymetry=z)
        zc = z(grid.centers)
        h0 = np.where(grid.centers <= 6.0, 2.0 - zc, 1.0 - zc)
        model = SweModel(params, grid, FluxChoice.HLL)
        res = run_fom(model, SweState(h=h0, q=np.zeros_like(h0)),
                      t_final=0.2, cfl=0.9)
        h = res.snapshots["h"].data
        q = res.snapshots["q"].data
        fan = derived_fields(h, q, params.g, FAN_FIELDS)
        for n in range(h.shape[1]):
            state = SweState(h=h[:, n], q=q[:, n])
            for name, col in zip(FAN_FIELDS, interface_fan(state, params.g)):
                assert np.array_equal(fan[name][:, n], col)


class TestPartition:
    def test_single_window(self):
        part = partition_uniform(10, 1)
        assert part.ranges == ((0, 10),)

    def test_exact_division(self):
        part = partition_uniform(10, 5)
        assert [stop - start for start, stop in part.ranges] == [2] * 5

    def test_remainder_goes_first(self):
        part = partition_uniform(11, 5)
        assert [stop - start for start, stop in part.ranges] == [3, 2, 2, 2, 2]

    def test_too_few_columns(self):
        with pytest.raises(TooFewSnapshots):
            partition_uniform(9, 5)

    def test_cover_without_gaps_or_overlap_exhaustive(self):
        # Every admissible (n_cols, n_windows) pair up to 64 columns.
        for n_cols in range(2, 65):
            for n_windows in range(1, n_cols // 2 + 1):
                part = partition_uniform(n_cols, n_windows)
                cols = [c for start, stop in part.ranges
                        for c in range(start, stop)]
                assert cols == list(range(n_cols))
                assert all(stop - start >= 2 for start, stop in part.ranges)


class TestConcat:
    def test_single_matrix_identity(self):
        m = _matrix()
        out = concat_parametric([m])
        np.testing.assert_array_equal(out.data, m.data)
        assert out.data.flags.f_contiguous
        assert not np.shares_memory(out.data, m.data)

    def test_two_blocks(self):
        a = _matrix(200, 50, seed=1)
        b = _matrix(200, 50, seed=2)
        out = concat_parametric([a, b])
        assert out.data.shape == (200, 100)
        assert np.array_equal(out.data, np.hstack([a.data, b.data]))
        assert out.data.flags.f_contiguous
        assert np.all(np.diff(out.times) > 0)

    def test_column_count_is_sum(self):
        blocks = [_matrix(40, n, seed=n) for n in (12, 17)]
        out = concat_parametric(blocks)
        assert out.n_cols == 29

    def test_three_blocks_keep_time_invariants(self):
        blocks = [_matrix(8, n, seed=n) for n in (5, 9, 4)]
        out = concat_parametric(blocks)
        assert out.n_cols == 18
        assert np.all(np.diff(out.times) > 0)
        np.testing.assert_allclose(np.diff(out.times), out.dts, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            concat_parametric([_matrix(6, 5), _matrix(7, 5)])


def test_data_is_column_major_and_windows_are_views():
    m = SnapshotMatrix("h", np.arange(12.0).reshape(3, 4), np.arange(4.0),
                       np.ones(3))
    assert m.data.flags.f_contiguous
    win = m.window(1, 3)
    assert win.base is m.data
    assert win.flags.f_contiguous
    np.testing.assert_array_equal(win, [[1, 2], [5, 6], [9, 10]])


def test_csv_export(tmp_path):
    m = _matrix(3, 2, seed=5)
    path = tmp_path / "snap.csv"
    export_csv(m, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,0,1,2"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == m.times[0]
    np.testing.assert_array_equal(first[1:], m.data[:, 0])
