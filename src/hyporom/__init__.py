"""hyporom: well-balanced finite-volume models for 1D balance laws and
their POD/DEIM reduced-order counterparts with time windowing."""

import os

# One BLAS thread per caller unless the environment names a count; this
# holds only when the package loads before numpy.  The tensor kernel runs
# its own two threads (rom/operators.py::project_outer), and threaded BLAS
# under them competes for the same cores.  One thread also keeps results
# bitwise the same on machines with different core counts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import deim, errors, fom, harness, pod, rom, snapshots
from .fluxes import FluxChoice
from .grid import Grid1D

__version__ = "0.1.0"

__all__ = ["FluxChoice", "Grid1D", "deim", "errors", "fom", "harness", "pod",
           "rom", "snapshots", "__version__"]
