"""ctypes binding for the compiled kernels in ``kernels.c``.

``load(path)`` returns ``svm_fit`` and ``node_best_split`` with the
arguments and results of :mod:`.pure`.  Arrays that are not C-contiguous
are copied; a wrong dtype or number of dimensions raises ``TypeError``
before any C code runs, and an index out of range raises ``IndexError``.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import numpy as np

_P, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_OUT = _F64 * 3


def _arr(a, dtype, ndim: int, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a)
    if a.dtype != dtype or a.ndim != ndim:
        raise TypeError(f"{name} must be a {ndim}-d {np.dtype(dtype)} array, "
                        f"got {a.ndim}-d {a.dtype}")
    return a


def _check(rc: int, name: str) -> None:
    if rc != 0:
        raise IndexError(f"{name}: index out of range") if rc == -1 else MemoryError(name)


def load(path) -> SimpleNamespace:
    lib = ctypes.CDLL(str(path))
    lib.svm_fit.restype = lib.node_best_split.restype = ctypes.c_int
    lib.svm_fit.argtypes = [_P, _P, _P, _P, _I64, _I64, _I64, _F64, _F64, _I64,
                            ctypes.c_uint64, _P, _P, _OUT, _P]
    lib.node_best_split.argtypes = [_P, _I64, _I64, _P, _I64, _P, _I64, _P,
                                    _I64, _OUT]

    def svm_fit(indptr, indices, data, y, dim, C, tol, max_epochs, seed,
                record_objective=False):
        indptr = _arr(indptr, np.int64, 1, "indptr")
        indices = _arr(indices, np.int32, 1, "indices")
        data = _arr(data, np.float64, 1, "data")
        y = _arr(y, np.float64, 1, "y")
        n = len(y)
        if len(indptr) != n + 1 or len(indices) != len(data):
            raise ValueError("svm_fit: CSR arrays do not match y")
        w, alpha, out = np.zeros(dim), np.zeros(n), _OUT()
        hist = np.zeros((2, max(max_epochs, 0))) if record_objective else None
        _check(lib.svm_fit(
            indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
            y.ctypes.data, n, len(data), dim, C, tol, max_epochs, seed,
            w.ctypes.data, alpha.ctypes.data, out,
            None if hist is None else hist.ctypes.data,
        ), "svm_fit")
        bias, epochs, converged = out[0], int(out[1]), bool(out[2])
        primal, dual = (None, None) if hist is None else hist[:, :epochs].tolist()
        return w, bias, alpha, epochs, converged, primal, dual

    def node_best_split(X, rows, feats, y):
        X = _arr(X, np.float64, 2, "X")
        rows = _arr(rows, np.int32, 1, "rows")
        feats = _arr(feats, np.int32, 1, "feats")
        y = _arr(y, np.int8, 1, "y")
        out = _OUT()
        _check(lib.node_best_split(
            X.ctypes.data, X.shape[0], X.shape[1], rows.ctypes.data, len(rows),
            feats.ctypes.data, len(feats), y.ctypes.data, len(y), out,
        ), "node_best_split")
        feat, thr, score = out
        return int(feat), thr, score

    return SimpleNamespace(svm_fit=svm_fit, node_best_split=node_best_split)
