"""Test-session setup shared by ``tests/`` and ``perfbench/``.

The BLAS thread count is pinned to one before numpy loads, as
``perfbench/run.py`` does for the benchmark: multi-threaded BLAS on a
small shared machine makes the suite's time hang on the host's load
(the SVD comparisons of ``tests/test_pod.py`` took 37 s instead of 2 s
with one other single-threaded process running).
"""

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")

for _var in _THREAD_VARS:
    os.environ[_var] = "1"
