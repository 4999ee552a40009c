"""ctypes binding for the compiled kernels in ``kernels.c``.

``load(path)`` returns ``svm_fit``, ``node_best_splits`` and its one-node
case ``node_best_split`` with the arguments and results of :mod:`.pure`;
one ``node_best_splits`` call scores a whole batch of nodes in C.  Arrays
that are not C-contiguous are copied; a wrong dtype or number of
dimensions raises ``TypeError`` before any C code runs, and an index out
of range raises ``IndexError``.  A library without one of the kernels
raises ``OSError`` on load, like one that cannot be opened, so a stale
build falls back to the pure kernels; the C SVM is ``linear_svm_fit``, so
an older build's 15-argument ``svm_fit`` is never called.
"""

from __future__ import annotations

import ctypes
from itertools import accumulate
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
    """Bind the library at ``path``; ``OSError`` when it cannot be loaded
    or lacks a kernel (e.g. one built from an older ``kernels.c``)."""
    lib = ctypes.CDLL(str(path))
    try:
        c_node_best_splits, c_svm_fit = lib.node_best_splits, lib.linear_svm_fit
    except AttributeError as exc:
        raise OSError(str(exc)) from exc
    c_svm_fit.restype = c_node_best_splits.restype = ctypes.c_int
    c_svm_fit.argtypes = [_P, _P, _P, _P, _I64, _I64, _I64, _F64, _F64, _I64,
                          ctypes.c_uint64, _P, _P, _OUT]
    c_node_best_splits.argtypes = [_P, _I64, _I64, _P, _P, _I64, _P, _I64,
                                   _P, _I64, _P]

    def svm_fit(indptr, indices, data, y, dim, C, tol, max_epochs, seed):
        indptr = _arr(indptr, np.int64, 1, "indptr")
        indices = _arr(indices, np.int32, 1, "indices")
        data = _arr(data, np.float64, 1, "data")
        y = _arr(y, np.float64, 1, "y")
        n = len(y)
        if len(indptr) != n + 1 or len(indices) != len(data):
            raise ValueError("svm_fit: CSR arrays do not match y")
        w, alpha, out = np.zeros(dim), np.zeros(n), _OUT()
        _check(c_svm_fit(
            indptr.ctypes.data, indices.ctypes.data, data.ctypes.data,
            y.ctypes.data, n, len(data), dim, C, tol, max_epochs, seed,
            w.ctypes.data, alpha.ctypes.data, out,
        ), "svm_fit")
        return w, out[0], alpha, int(out[1]), bool(out[2])

    def node_best_splits(X, rows, feats, y):
        X = _arr(X, np.float64, 2, "X")
        feats = _arr(feats, np.int32, 2, "feats")
        y = _arr(y, np.int8, 1, "y")
        if len(feats) != len(rows):
            raise ValueError("node_best_splits: one feature row per node")
        if not rows:
            return []
        row_ptr = np.array([0, *accumulate(map(len, rows))], dtype=np.int64)
        flat = _arr(np.concatenate(rows), np.int32, 1, "rows")
        out = np.empty((len(rows), 3))
        _check(c_node_best_splits(
            X.ctypes.data, X.shape[0], X.shape[1], flat.ctypes.data,
            row_ptr.ctypes.data, len(rows), feats.ctypes.data, feats.shape[1],
            y.ctypes.data, len(y), out.ctypes.data,
        ), "node_best_splits")
        return [(int(feat), thr, score) for feat, thr, score in out.tolist()]

    def node_best_split(X, rows, feats, y):
        rows = _arr(rows, np.int32, 1, "rows")
        feats = _arr(feats, np.int32, 1, "feats")
        return node_best_splits(X, [rows], feats[None, :], y)[0]

    return SimpleNamespace(svm_fit=svm_fit, node_best_split=node_best_split,
                           node_best_splits=node_best_splits)
