"""Every name a package exports in ``__all__`` resolves, the public
surface is the one listed here, and loading the package pins the BLAS
threads the environment leaves unset."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyporom


@pytest.mark.parametrize("module", ["hyporom", "hyporom.fom", "hyporom.rom",
                                    "hyporom.harness"])
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


# A name joins the surface deliberately: add it here with its caller.
_EXPORTS = {
    "hyporom.fom": [
        "BurgersModel", "BurgersParams", "FomResult", "SweModel",
        "SweParams", "SweState", "TransportModel", "TransportParams",
        "burgers_max_speed", "burgers_stationary", "burgers_step", "cfl_dt",
        "flat_bottom", "interface_fan", "lake_at_rest",
        "run_fom", "transport_max_speed", "transport_stationary",
        "transport_step"],
    "hyporom.rom": [
        "COEFF_DEIM", "COEFF_TAV", "LINEARIZATIONS", "LIN_DEIM_U_DEIM_F",
        "LIN_DEIM_U_TAV_F", "LIN_TAV", "RomOperators", "RomResult",
        "RomSetup", "RomWindow", "SweRomContext", "assemble_burgers_rom", "assemble_swe_hll_rom",
        "assemble_swe_lf_rom", "assemble_transport_rom", "build_rom",
        "build_swe_context", "conserved_variables", "contract_quadratic",
        "pad_rows", "refresh_alphas", "refresh_f", "refresh_u",
        "rom_burgers_step", "rom_swe_hll_step", "rom_swe_lf_step",
        "rom_transport_step", "run_rom", "time_average"],
    "hyporom.harness": [
        "ErrorReport", "ExperimentConfig", "PRESETS", "Preset",
        "REPORT_COLUMNS", "TIMING_COLUMNS", "dam_break_bed",
        "gaussian_bump_bed", "get_preset", "initial_state", "l1_error",
        "linf_error", "load_config", "make_model", "parse_config",
        "run_experiment", "run_prediction", "sweep_modes_windows",
        "write_report", "write_sweep"],
}


@pytest.mark.parametrize("module", sorted(_EXPORTS))
def test_all_is_the_listed_surface(module):
    assert sorted(importlib.import_module(module).__all__) == _EXPORTS[module]


_DEFINED = {
    "hyporom.errors": [
        "AllZeroSpectrum", "BreakdownInEigensolve", "ConfigError",
        "DegenerateWaveFan", "EmptySlice", "EvaluationError",
        "ExperimentError", "HyporomError", "IoError", "MissingAuxBasis",
        "NonFiniteState", "NonMonotoneTime", "NonPositiveDepth",
        "ShapeMismatch", "SingularInterpolationMatrix", "TooFewSnapshots",
        "UnsupportedSystem", "ZeroWaveSpeed"],
    "hyporom.fom.swe": [
        "SweParams", "SweState", "bed_profile", "flat_bottom",
        "friction_kernel", "hll_fan", "interface_fan", "lake_at_rest"],
    "hyporom.pod": [
        "PodBasis", "RANK_RTOL", "SliceSvd", "fallback_basis", "lift",
        "numerical_rank", "pod_basis", "select_modes", "thin_svd",
        "window_transfer"],
    "hyporom.snapshots": [
        "SnapshotMatrix", "SnapshotRecorder", "WindowPartition",
        "concat_parametric", "export_csv", "partition_uniform"],
}


@pytest.mark.parametrize("module", sorted(_DEFINED))
def test_modules_define_only_the_listed_names(module):
    # Public functions, classes and constants the module defines itself,
    # not the names it imports.
    mod = importlib.import_module(module)
    defined = sorted(
        name for name, value in vars(mod).items()
        if not name.startswith("_") and not inspect.ismodule(value)
        and getattr(value, "__module__", module) in (module, "builtins"))
    assert defined == _DEFINED[module]


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_sets_one_blas_thread_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(hyporom.__file__).parents[1]), env.get("PYTHONPATH", "")])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, sys, hyporom\n"
            "print('numpy' in sys.modules,\n"
            f"      *(os.environ[v] for v in {_BLAS_VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True", preset or "1", "1", "1", "1", "1"]
