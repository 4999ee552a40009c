"""Training kernels with a compiled fast path and a pure numpy fallback.

The compiled kernels (``kernels.c``, called through the ctypes binding in
``compiled.py``) are used when their shared library has been built next to
this file, e.g. by ``python setup.py build_ext --inplace``; setting the
environment variable ``WEBCRED_PURE_KERNELS=1`` forces the fallback, which
is useful for benchmarking and for debugging suspected kernel issues.
``ACTIVE_IMPL`` records which path is in use ("compiled" or "pure").

``svm_fit`` fits one linear SVM.  ``node_best_splits`` scores a batch of
tree nodes in one call, which is how the forest's lockstep growth asks
for one step's splits; ``node_best_split`` is its one-node case.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

from . import pure

LIBRARY = Path(__file__).with_name("kernels" + EXTENSION_SUFFIXES[0])

_impl = pure
ACTIVE_IMPL = "pure"
if os.environ.get("WEBCRED_PURE_KERNELS") != "1" and LIBRARY.exists():
    from .compiled import load

    try:
        _impl = load(LIBRARY)  # type: ignore[assignment]
        ACTIVE_IMPL = "compiled"
    except OSError:  # unloadable, or built from an older kernels.c
        pass

svm_fit = _impl.svm_fit
node_best_splits = _impl.node_best_splits
node_best_split = _impl.node_best_split

__all__ = [
    "ACTIVE_IMPL", "LIBRARY", "node_best_split", "node_best_splits", "pure", "svm_fit",
]
