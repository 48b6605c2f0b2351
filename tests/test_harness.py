import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import hyporom
from hyporom.errors import ConfigError, ExperimentError, ShapeMismatch
from hyporom.fom import run_fom
from hyporom.fom.swe import derived_fields
from hyporom.grid import Grid1D
from hyporom.harness import (ExperimentConfig, TIMING_COLUMNS, experiment,
                             initial_state, l1_error, linf_error, load_config,
                             make_model, parse_config, run_experiment,
                             run_prediction, sweep_modes_windows)

from oracles import kahan_sum


class TestL1:
    def test_identical_fields(self):
        a = np.arange(5.0)
        assert l1_error(a, a, 0.1) == 0.0

    def test_unit_offset_integrates_domain_length(self):
        # |a - b| = 1 on [0, 2] -> integral 2 regardless of resolution.
        for n in (10, 333):
            dx = 2.0 / n
            a = np.zeros(n)
            b = np.ones(n)
            assert l1_error(a, b, dx) == pytest.approx(2.0, rel=1e-14)

    def test_against_kahan_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(257)
        b = rng.standard_normal(257)
        ref = kahan_sum(np.abs(a - b)) * 0.01
        assert l1_error(a, b, 0.01) == pytest.approx(ref, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            l1_error(np.zeros(3), np.zeros(4), 0.1)
        with pytest.raises(ShapeMismatch):
            linf_error(np.zeros(3), np.zeros(4))


class TestConfig:
    def test_parse_defaults_from_preset(self):
        cfg = parse_config("preset = swe_dam_break\n")
        assert cfg.system == "swe"
        assert cfg.x_max == 12.0
        assert cfg.t_final == 1.0
        assert cfg.n_b == 0.1

    def test_direct_construction_inherits_preset(self):
        cfg = ExperimentConfig(preset="swe_lake_at_rest", n_cells=80)
        assert (cfg.x_min, cfg.x_max) == (-5.0, 5.0)
        assert cfg.t_final == 10.0
        assert cfg.n_b == 0.0
        cfg = ExperimentConfig(preset="swe_dam_break", t_final=0.5, n_b=0.2)
        assert cfg.t_final == 0.5 and cfg.n_b == 0.2

    def test_comments_and_overrides(self):
        text = """
        # a comment
        preset = transport_perturbation
        n_cells = 100   # trailing comment
        eps_pod = 1e-6
        training_set =
        """
        cfg = parse_config(text)
        assert cfg.n_cells == 100
        assert cfg.eps_pod == 1e-6
        assert cfg.training_set == ()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("preset = swe_dam_break\nbogus = 3\n")

    def test_hll_requires_swe(self):
        with pytest.raises(ConfigError):
            parse_config("preset = transport_perturbation\nflux = hll\n")

    def test_prediction_needs_training(self):
        with pytest.raises(ConfigError):
            parse_config("preset = swe_dam_break\ntarget_param = 0.035\n")

    def test_target_in_training_needs_flag(self):
        text = ("preset = swe_dam_break\ntarget_param = 0.03\n"
                "training_set = 0.03, 0.04\n")
        with pytest.raises(ConfigError):
            parse_config(text)
        cfg = parse_config(text + "allow_target_in_training = true\n")
        assert cfg.target_param == 0.03

    @pytest.mark.parametrize("line", [
        "training_set = 0.1, x",
        "training_set = 0.1,",
        "sweep_modes = 5, 10.7",
        "sweep_windows = 2, inf",
        "n_cells = 0",
        "mode_cap = 0",
        # Model parameters the grid or SweParams would otherwise reject
        # later with an untyped ValueError.
        "x_min = 12\nx_max = 0",
        "g = 0",
        "n_b = -0.01",
        "training_set = 0.03, -0.04\ntarget_param = 0.035",
        "training_set = 0.03, 0.04\ntarget_param = -0.035",
    ])
    def test_bad_value_raises_config_error(self, line):
        with pytest.raises(ConfigError):
            parse_config(f"preset = swe_dam_break\n{line}\n")

    def test_transport_speed_must_be_nonzero(self):
        with pytest.raises(ConfigError):
            parse_config("preset = transport_perturbation\nc = 0\n")

    def test_integral_sweep_entries_and_empty_mode_cap(self):
        cfg = parse_config("preset = swe_dam_break\nsweep_modes = 5, 10.0\n"
                           "mode_cap =\n")
        assert cfg.sweep_modes == (5, 10)
        assert cfg.mode_cap is None

    def test_plain_lf_pins_nu(self):
        cfg = parse_config("preset = swe_dam_break\nflux = lf\nnu = 0.7\n")
        assert cfg.nu == 1.0

    def test_rusanov_rom_rejected(self, tmp_path):
        cfg = ExperimentConfig(preset="swe_dam_break", flux="rusanov",
                               n_cells=40, outdir=str(tmp_path / "o"))
        with pytest.raises(ConfigError):
            run_experiment(cfg)


@pytest.fixture()
def quick_config(tmp_path):
    return ExperimentConfig(preset="swe_dam_break", n_cells=60, n_windows=5,
                            eps_pod=1e-10, linearization="deim_u_deim_f",
                            outdir=str(tmp_path / "out"))


class TestRunExperiment:
    def test_outputs_and_report(self, quick_config, tmp_path):
        report = run_experiment(quick_config)
        assert set(report.l1) == {"h", "q"}
        assert all(v >= 0.0 for v in report.l1.values())
        assert report.speedup == report.fom_seconds / report.online_seconds
        out = tmp_path / "out"
        assert (out / "report.csv").exists()
        assert (out / "solution_h.csv").exists()
        assert (out / "spectrum_h_0.csv").exists()
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["preset"] == "swe_dam_break"
        assert rows[0]["modes_per_window"].count(";") == 4

    def test_degenerate_zero_horizon(self, tmp_path):
        cfg = ExperimentConfig(preset="swe_dam_break", t_final=0.0,
                               outdir=str(tmp_path / "o"))
        report = run_experiment(cfg)
        assert report.l1 == {"h": 0.0, "q": 0.0}

    @pytest.mark.parametrize("name, value", [("t_final", -1.0),
                                             ("snapshot_stride", 0),
                                             ("cfl", 1.5)])
    def test_bad_solver_argument_fails_the_fom_stage(self, tmp_path, name,
                                                     value):
        # Set past the config's own checks, so the solver's guard answers.
        cfg = ExperimentConfig(preset="transport_stationary", n_cells=20,
                               t_final=0.1, outdir=str(tmp_path / "o"))
        setattr(cfg, name, value)
        with pytest.raises(ExperimentError, match=name) as err:
            run_experiment(cfg)
        assert err.value.stage == "fom"
        assert isinstance(err.value.__cause__, ConfigError)

    def test_plain_lf_flux_pipeline_consistent(self, tmp_path):
        # nu pinned to 1 keeps the reduced viscosity identical to the
        # full-order alpha0 = dx/dt, so the stationary run stays exact.
        cfg = ExperimentConfig(preset="transport_stationary", flux="lf",
                               n_cells=100, t_final=1.0,
                               outdir=str(tmp_path / "o"))
        report = run_experiment(cfg)
        assert report.l1["w"] <= 1e-12

    def test_scientific_outputs_deterministic(self, tmp_path):
        def run(tag):
            cfg = ExperimentConfig(preset="swe_dam_break", n_cells=60,
                                   n_windows=5, linearization="deim_u_deim_f",
                                   outdir=str(tmp_path / tag))
            run_experiment(cfg)
            outs = {}
            for f in sorted((tmp_path / tag).iterdir()):
                outs[f.name] = f.read_bytes()
            return outs

        first = run("a")
        second = run("b")
        assert set(first) == set(second)
        for name in first:
            if name == "report.csv":
                continue
            assert first[name] == second[name], name
        # report.csv matches except wall-clock fields.
        for blob in (first, second):
            with open(tmp_path / ("a" if blob is first else "b") / "report.csv") as fh:
                blob["_rows"] = list(csv.DictReader(fh))
        ra, rb = first["_rows"][0], second["_rows"][0]
        for key in ra:
            if key not in TIMING_COLUMNS:
                assert ra[key] == rb[key], key


class TestPrediction:
    def test_validation_mode(self, tmp_path):
        cfg = ExperimentConfig(preset="swe_dam_break", n_cells=60,
                               n_windows=10, linearization="deim_u_deim_f",
                               training_set=(0.035,), target_param=0.035,
                               allow_target_in_training=True,
                               outdir=str(tmp_path / "o"))
        report = run_prediction(cfg)
        assert report.l1["h"] <= 1e-10

    def test_prediction_runs(self, tmp_path):
        cfg = ExperimentConfig(preset="swe_dam_break", n_cells=60,
                               n_windows=10, linearization="deim_u_deim_f",
                               training_set=(0.03, 0.04), target_param=0.035,
                               outdir=str(tmp_path / "o"))
        report = run_prediction(cfg)
        assert 0.0 < report.l1["h"] < 0.1

    def test_prediction_with_snapshot_stride(self, tmp_path):
        cfg = ExperimentConfig(preset="swe_dam_break", n_cells=60,
                               n_windows=5, linearization="deim_u_deim_f",
                               training_set=(0.03, 0.04), target_param=0.035,
                               snapshot_stride=2, outdir=str(tmp_path / "o"))
        report = run_prediction(cfg)
        assert report.l1["h"] < 0.1
        # Two training runs at stride 2 concatenate to roughly one run's
        # worth of columns instead of two.
        assert report.n_snapshot_cols < 1.2 * report.n_steps


class TestSweep:
    def test_single_cell_grid(self, tmp_path):
        cfg = ExperimentConfig(preset="transport_perturbation", n_cells=80,
                               t_final=0.4, outdir=str(tmp_path / "o"))
        rows = sweep_modes_windows(cfg, [4], [2])
        assert len(rows) == 1
        assert rows[0]["mode_cap"] == 4
        assert (tmp_path / "o" / "sweep.csv").exists()

    def test_grid_shape(self, tmp_path):
        cfg = ExperimentConfig(preset="transport_perturbation", n_cells=80,
                               t_final=0.4, outdir=str(tmp_path / "o"))
        rows = sweep_modes_windows(cfg, [2, 4], [2, 4, 8])
        assert len(rows) == 6

    def test_rows_reproducible_but_timings(self, tmp_path):
        cfg = ExperimentConfig(preset="transport_perturbation", n_cells=80,
                               t_final=0.4, outdir=str(tmp_path / "o"))
        runs = [sweep_modes_windows(cfg, [2, 4], [2]) for _ in range(2)]
        for a, b in zip(*runs):
            assert a["offline_seconds"] > 0.0 and a["online_seconds"] > 0.0
            assert ({k: v for k, v in a.items() if k not in TIMING_COLUMNS}
                    == {k: v for k, v in b.items() if k not in TIMING_COLUMNS})
        header = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[0]
        assert header.endswith("offline_seconds,online_seconds")

    @pytest.mark.parametrize("modes, windows, key", [
        ([2, -3], [1], "sweep_modes"),
        ([2], [2, 0], "sweep_windows"),
    ])
    def test_bad_list_entry_fails_before_the_fom(self, tmp_path, monkeypatch,
                                                 modes, windows, key):
        # A cap below 0 (0 is uncapped) or a window count below 1 anywhere
        # in a list fails up front and names the list, not the per-point
        # mode_cap or n_windows.
        def no_fom(*args, **kwargs):
            raise AssertionError("the FOM ran before the lists were checked")

        monkeypatch.setattr(experiment, "run_fom", no_fom)
        cfg = ExperimentConfig(preset="transport_perturbation", n_cells=40,
                               t_final=0.2, outdir=str(tmp_path / "o"))
        with pytest.raises(ConfigError, match=f"^{key}:"):
            sweep_modes_windows(cfg, modes, windows)
        assert not (tmp_path / "o").exists()


class TestCli:
    def _run(self, *args, cwd):
        # The child runs from an unrelated directory, so a relative
        # PYTHONPATH (e.g. ``src``) no longer resolves there: hand it the
        # directory holding the package this process imported.
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(hyporom.__file__)))
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "hyporom.harness.cli",
                               *args], capture_output=True, text=True,
                              cwd=cwd, env=env)

    def test_wb_check_ok(self, tmp_path):
        proc = self._run("wb-check", "transport", "--cells", "50",
                         "--outdir", str(tmp_path / "o"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = no_such_preset\n")
        proc = self._run("rom", "run", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr

    def test_bad_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("preset = swe_dam_break\ntraining_set = 0.1, x\n")
        proc = self._run("rom", "run", str(cfg), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_model_parameter_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text in ("preset = swe_dam_break\nx_min = 12\nx_max = 0\n",
                     "preset = transport_perturbation\nc = 0\n"):
            cfg.write_text(text)
            proc = self._run("rom", "run", str(cfg), cwd=tmp_path)
            assert proc.returncode == 2, proc.stderr
            assert "Traceback" not in proc.stderr

    def test_numerical_failure_exits_3(self, tmp_path):
        # Running the dam break with the viscosity far below the stability
        # window blows the scheme up; the CLI must exit 3.
        cfg = tmp_path / "unstable.cfg"
        cfg.write_text("preset = swe_dam_break\ncfl = 1.0\nnu = 0.01\n"
                       "n_cells = 40\n"
                       f"outdir = {tmp_path / 'o'}\n")
        proc = self._run("rom", "run", str(cfg), cwd=tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "error" in proc.stderr

    def test_predict_cli(self, tmp_path):
        cfg = tmp_path / "pred.cfg"
        cfg.write_text("preset = swe_dam_break\nn_cells = 50\nn_windows = 5\n"
                       "training_set = 0.03, 0.04\ntarget_param = 0.035\n"
                       f"outdir = {tmp_path / 'o'}\n")
        proc = self._run("predict", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "predict:0.035" in proc.stdout

    def test_fom_run_writes_snapshots(self, tmp_path):
        cfg = tmp_path / "fom.cfg"
        cfg.write_text("preset = transport_perturbation\nn_cells = 40\n"
                       f"t_final = 0.2\noutdir = {tmp_path / 'o'}\n")
        proc = self._run("fom", "run", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == \
            ["snapshots_w.csv"]
        # One row per recorded column, bitwise a recorded run of the
        # same config: the CSV holds repr floats, which parse back exactly.
        config = load_config(cfg)
        grid = Grid1D(config.x_min, config.x_max, config.n_cells)
        want = run_fom(make_model(config, grid), initial_state(config, grid),
                       config.t_final, config.cfl,
                       snapshot_stride=config.snapshot_stride).snapshots["w"]
        with open(tmp_path / "o" / "snapshots_w.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t"] + [str(i) for i in range(want.n_rows)]
        got = np.array(rows[1:], dtype=float)
        assert got.shape == (want.n_cols, want.n_rows + 1)
        assert np.array_equal(got[:, 0], want.times)
        assert np.array_equal(got[:, 1:], want.data.T)

    @pytest.mark.parametrize("flux, names", [
        ("mlf", ["f", "h", "q", "u"]),
        ("hll", ["alpha0", "alpha1", "f", "h", "htilde", "q", "u",
                 "utilde"])])
    def test_fom_run_writes_derived_snapshots(self, tmp_path, flux, names):
        # A SWE run records h and q; the command derives the other fields
        # of the whole recording before it writes them.
        cfg = tmp_path / "fom.cfg"
        cfg.write_text(f"preset = swe_dam_break\nn_cells = 30\nflux = {flux}"
                       f"\nt_final = 0.3\noutdir = {tmp_path / 'o'}\n")
        proc = self._run("fom", "run", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == \
            [f"snapshots_{name}.csv" for name in names]
        config = load_config(cfg)
        grid = Grid1D(config.x_min, config.x_max, config.n_cells)
        model = make_model(config, grid)
        snaps = run_fom(model, initial_state(config, grid), config.t_final,
                        config.cfl).snapshots
        want = derived_fields(snaps["h"].data, snaps["q"].data,
                              model.params.g,
                              [n for n in names if n not in snaps])
        want.update({var: m.data for var, m in snaps.items()})
        for name in names:
            with open(tmp_path / "o" / f"snapshots_{name}.csv",
                      newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            got = np.array(rows, dtype=float)
            assert np.array_equal(got[:, 0], snaps["h"].times)
            assert np.array_equal(got[:, 1:], want[name].T)

    @pytest.mark.parametrize("command", [("fom", "run"), ("sweep",),
                                         ("predict",)])
    def test_zero_horizon_exits_2(self, tmp_path, command):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("preset = swe_dam_break\nn_cells = 20\nt_final = 0\n"
                       "sweep_modes = 2\nsweep_windows = 1\n"
                       "training_set = 0.03, 0.04\ntarget_param = 0.035\n"
                       f"outdir = {tmp_path / 'o'}\n")
        proc = self._run(*command, str(cfg), cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {' '.join(command)} needs t_final > 0"]

    def test_sweep_cli(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("preset = transport_perturbation\nn_cells = 60\n"
                       "t_final = 0.3\nsweep_modes = 2,4\nsweep_windows = 2\n"
                       f"outdir = {tmp_path / 'o'}\n")
        proc = self._run("sweep", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "sweep.csv").exists()
