"""Every name a package exports in ``__all__`` resolves, and loading the
package pins the BLAS threads the environment leaves unset."""

import importlib
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
