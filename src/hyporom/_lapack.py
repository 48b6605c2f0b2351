"""The three LAPACK routines of the window SVD, called without the GIL.

scipy's f2py wrappers (``scipy.linalg.lapack``) hold the interpreter
lock while LAPACK runs, so two threads decomposing slices take turns.
``scipy.linalg.cython_lapack`` exports the address of each routine of
the same library in a capsule; a ``ctypes.CFUNCTYPE`` built on that
address releases the lock for the length of the call, and needs no
build step.  Each function takes F-ordered float64 arrays its caller
allocated, derives every dimension and leading dimension from their
shapes, lets LAPACK write into them and returns LAPACK's ``info``.
"""

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

_INT = ctypes.POINTER(ctypes.c_int)
_CHAR = ctypes.c_char_p
_ARRAY = ctypes.c_void_p

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _routine(name, *argtypes):
    capsule = cython_lapack.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_dgeqrt = _routine("dgeqrt", _INT, _INT, _INT, _ARRAY, _INT, _ARRAY, _INT,
                   _ARRAY, _INT)
_dgesdd = _routine("dgesdd", _CHAR, _INT, _INT, _ARRAY, _INT, _ARRAY,
                   _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)
_dgemqrt = _routine("dgemqrt", _CHAR, _CHAR, _INT, _INT, _INT, _INT, _ARRAY,
                    _INT, _ARRAY, _INT, _ARRAY, _INT, _ARRAY, _INT)


def _int(value):
    return ctypes.byref(ctypes.c_int(value))


def _address(a, shape, dtype=np.float64):
    """The data pointer of ``a`` once it is checked to be a writable
    F-ordered array of ``dtype`` with ``shape``, the layout LAPACK reads;
    a 1-D ``shape`` of (size,) admits any longer workspace."""
    fits = (a.shape[0] >= shape[0] if len(shape) == 1 == a.ndim
            else a.shape == shape)
    if (a.dtype != dtype or not fits or not a.flags.f_contiguous
            or not a.flags.writeable):
        raise ValueError(f"LAPACK needs a writable F-ordered {dtype.__name__} "
                         f"array of shape {shape}, got {a.dtype} {a.shape}")
    return a.ctypes.data


def _call(routine, *args):
    info = ctypes.c_int(0)
    routine(*args, ctypes.byref(info))
    return info.value


def geqrt(a, t, work):
    """Blocked QR of the m x n ``a`` in place, block nb = t.shape[0]:
    R in the upper triangle, the reflectors below it, their compact-WY
    factors in ``t`` (nb x min(m, n)); ``work`` holds at least nb * n
    floats."""
    m, n = a.shape
    nb = t.shape[0]
    return _call(_dgeqrt, _int(m), _int(n), _int(nb),
                 _address(a, (m, n)), _int(m),
                 _address(t, (nb, min(m, n))), _int(nb),
                 _address(work, (nb * n,)))


def gesdd_lwork(m, n):
    """Workspace length dgesdd asks for to factor an m x n matrix with
    jobz 'S' (its lwork = -1 query)."""
    p = min(m, n)
    work = np.zeros(1)
    dummy = ctypes.c_double(0.0)
    info = _call(_dgesdd, b"S", _int(m), _int(n), ctypes.byref(dummy),
                 _int(m), ctypes.byref(dummy), ctypes.byref(dummy), _int(m),
                 ctypes.byref(dummy), _int(p), work.ctypes.data, _int(-1),
                 ctypes.byref(ctypes.c_int(0)))
    if info != 0:
        raise ValueError(f"dgesdd workspace query returned info={info}")
    return int(work[0])


def gesdd(a, s, u, vt, work, iwork):
    """Thin SVD a = u diag(s) vt (jobz 'S'); ``a`` is overwritten,
    ``work`` is as long as ``gesdd_lwork`` asks and ``iwork`` holds
    8 min(m, n) ints."""
    m, n = a.shape
    p = min(m, n)
    return _call(_dgesdd, b"S", _int(m), _int(n), _address(a, (m, n)),
                 _int(m), _address(s, (p,)), _address(u, (m, p)), _int(m),
                 _address(vt, (p, n)), _int(p),
                 _address(work, (1,)), _int(work.size),
                 _address(iwork, (8 * p,), np.intc))


def gemqrt(v, t, c, work):
    """c <- Q c in place, Q the product of the first k = t.shape[1]
    reflectors ``geqrt`` left in the columns of ``v`` (m rows, at least
    k columns); ``work`` holds at least nb * c.shape[1] floats."""
    m, n = c.shape
    nb, k = t.shape
    if v.shape[0] != m or v.shape[1] < k:
        raise ValueError(f"reflectors {v.shape} do not fit {k} columns "
                         f"of {m} rows")
    return _call(_dgemqrt, b"L", b"N", _int(m), _int(n), _int(k), _int(nb),
                 _address(v, v.shape), _int(m), _address(t, (nb, k)),
                 _int(nb), _address(c, (m, n)), _int(m),
                 _address(work, (nb * n,)))
