"""Linear support vector machine trained by dual coordinate descent.

The solver minimizes

    1/2 ||w||^2 + 1/2 s^2 b^2 + C sum_i max(0, 1 - y_i (w.x_i + b))

with s = ``BIAS_SCALE``: the bias is an augmented constant feature of
value 1/s, as LIBLINEAR's bias feature B (Fan et al., JMLR 2008), which
keeps every dual update a one-dimensional clip (Hsieh et al., ICML 2008).
A feature of 1 would add 1 to every Q_ii while the l1-normalized TF-IDF
rows have ||x||^2 near 0.01, and no fixture fit would then converge
within ``MAX_EPOCHS``; with s = 8 every one does.  The inner loop lives in
:mod:`webcred._kernels` so a compiled version can be swapped in.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DataError, json_number, json_numbers
from .textprep import CsrMatrix, SparseVector, to_csr

logger = logging.getLogger(__name__)

DEFAULT_C = 100.0
TOLERANCE = 1e-4
MAX_EPOCHS = 1000
# A power of two, so the rescalings in train_linear_svm are exact.
BIAS_SCALE = 8.0


@dataclass
class SvmModel:
    """Trained linear SVM: prediction is sign(w.x + b), 0 mapped to 1."""

    weights: np.ndarray
    bias: float
    C: float
    epochs_run: int = 0
    converged: bool = True
    relative_gap: float | None = None

    @property
    def dim(self) -> int:
        return len(self.weights)

    def decision_batch(self, X: CsrMatrix) -> np.ndarray:
        """w.x + b of every row of ``X``.  Each row is its own dot product
        over its stored entries, so a row's decision does not depend on the
        other rows of the batch."""
        if X.dim != self.dim:
            raise DataError(
                f"vector dimension {X.dim} does not match model dimension {self.dim}"
            )
        indptr, indices, data, _dim = X
        bounds = indptr.tolist()
        dots = [
            data[lo:hi] @ self.weights[indices[lo:hi]]
            for lo, hi in zip(bounds, bounds[1:])
        ]
        return np.array(dots, dtype=np.float64) + self.bias

    def predict_batch(self, X: CsrMatrix) -> np.ndarray:
        """The 0/1 prediction of every row of ``X``."""
        return (self.decision_batch(X) >= 0.0).astype(np.int8)

    def predict(self, x: SparseVector) -> int:
        return int(self.predict_batch(to_csr([x]))[0])

    def to_dict(self) -> dict:
        data = {
            "family": "svm",
            "params": {"C": self.C},
            "weights": [float(v) for v in self.weights],
            "bias": float(self.bias),
        }
        if self.relative_gap is not None:
            data["fit"] = {
                "epochs_run": self.epochs_run,
                "converged": self.converged,
                "relative_gap": self.relative_gap,
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SvmModel":
        """Inverse of :meth:`to_dict`; models saved without "fit" load too.
        A value that is not a number, a C that training would reject, a
        negative ``epochs_run`` or a ``converged`` that is not a JSON bool
        raises DataError."""
        model = cls(
            weights=json_numbers(data["weights"], "svm weight"),
            bias=json_number(data["bias"], "svm bias"),
            C=json_number(data["params"]["C"], "C"),
        )
        _check_c(model.C)
        if "fit" in data:
            fit = data["fit"]
            epochs_run = json_number(fit["epochs_run"], "epochs_run", integer=True)
            if epochs_run < 0:
                raise DataError(f"epochs_run must be at least 0, got {epochs_run}")
            converged = fit["converged"]
            if type(converged) is not bool:
                raise DataError(f"converged must be true or false, got {converged!r}")
            model.epochs_run, model.converged = epochs_run, converged
            model.relative_gap = json_number(fit["relative_gap"], "relative_gap")
        return model


def _validate_training_set(X: CsrMatrix, y: Sequence[int]) -> None:
    if X.n_rows != len(y):
        raise DataError(f"got {X.n_rows} vectors but {len(y)} labels")
    if X.n_rows < 2:
        raise DataError("training needs at least 2 samples")
    classes = set(int(v) for v in y)
    if not classes <= {0, 1}:
        raise DataError(f"labels must be 0 or 1, got {sorted(classes)}")
    if len(classes) != 2:
        raise DataError("training needs both classes present")


def _check_c(C) -> None:
    """Raise DataError unless C is a positive finite number."""
    if isinstance(C, bool) or not isinstance(C, (int, float)):
        raise DataError(f"C must be a number, got {C!r}")
    # An int beyond the float range would overflow in the kernel's C/s^2.
    if not 0.0 < C <= sys.float_info.max:
        raise DataError(f"C must be a positive finite number, got {C}")


def train_linear_svm(
    X: Sequence[SparseVector] | CsrMatrix,
    y: Sequence[int],
    C: float = DEFAULT_C,
    seed: int = 0,
) -> SvmModel:
    """Train on 0/1 labels; class 0 is mapped to the -1 side.

    ``X`` is the rows as ``SparseVector``s or as one ``CsrMatrix``.
    Deterministic for a fixed seed.  Stops when the largest projected
    gradient over a full pass drops below ``TOLERANCE``, or after
    ``MAX_EPOCHS`` passes (shrunk ones included; see
    ``_kernels.pure.svm_fit``), which is logged as a warning.
    ``relative_gap`` is (P - D) / max(1, |P|) for the module docstring's
    objective P and its dual D at the returned solution, both from
    ``_kernels.pure.objectives``.
    """
    _check_c(C)
    X = to_csr(X)
    _validate_training_set(X, y)
    indptr, indices, data, dim = X
    signs = np.where(np.asarray(y, dtype=np.float64) > 0.0, 1.0, -1.0)
    # The kernel's bias feature is 1.  On rows x*s with weights w/s and
    # C/s^2 its objective is the documented one divided by s^2, and its
    # projected gradient is that of a bias feature 1/s, so TOLERANCE keeps
    # its meaning.  The duality gap comes from s^2 times the kernel-scale
    # objectives: s is a power of two, so each of their products and sums
    # is the documented problem's divided exactly by s or s^2, and the gap
    # is bit for bit the one computed on the documented scale.
    s = BIAS_SCALE
    kernel_data, kernel_c = data * s, float(C) / (s * s)
    w, bias, alpha, epochs_run, converged = _kernels.svm_fit(
        indptr, indices, kernel_data, signs, dim, kernel_c, TOLERANCE, MAX_EPOCHS, seed
    )
    weights = w * s
    bias = float(bias)
    p, d = (
        s * s * v
        for v in _kernels.pure.objectives(
            indptr, indices, kernel_data, signs, w, bias, kernel_c, alpha
        )
    )
    gap = (p - d) / max(1.0, abs(p))
    if not converged:
        logger.warning(
            "svm fit with C=%g stopped at %d epochs; relative duality gap %.3g",
            C, epochs_run, gap,
        )
    return SvmModel(
        weights=weights,
        bias=bias,
        C=float(C),
        epochs_run=epochs_run,
        converged=converged,
        relative_gap=gap,
    )

