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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DataError, json_number, json_numbers
from .textprep import SparseVector, to_csr

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
    primal_history: list[float] = field(default_factory=list)
    dual_history: list[float] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.weights)

    def decision_function(self, x: SparseVector) -> float:
        if x.dim != self.dim:
            raise DataError(
                f"vector dimension {x.dim} does not match model dimension {self.dim}"
            )
        return float(x.values @ self.weights[x.indices] + self.bias)

    def predict(self, x: SparseVector) -> int:
        return 1 if self.decision_function(x) >= 0.0 else 0

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
        A value that is not a number raises DataError."""
        model = cls(
            weights=json_numbers(data["weights"], "svm weight"),
            bias=json_number(data["bias"], "svm bias"),
            C=json_number(data["params"]["C"], "C"),
        )
        if "fit" in data:
            fit = data["fit"]
            model.epochs_run = json_number(
                fit["epochs_run"], "epochs_run", integer=True
            )
            model.converged = bool(fit["converged"])
            model.relative_gap = json_number(fit["relative_gap"], "relative_gap")
        return model


def _validate_training_set(X: Sequence[SparseVector], y: Sequence[int]) -> None:
    if len(X) != len(y):
        raise DataError(f"got {len(X)} vectors but {len(y)} labels")
    if len(X) < 2:
        raise DataError("training needs at least 2 samples")
    classes = set(int(v) for v in y)
    if not classes <= {0, 1}:
        raise DataError(f"labels must be 0 or 1, got {sorted(classes)}")
    if len(classes) != 2:
        raise DataError("training needs both classes present")


def train_linear_svm(
    X: Sequence[SparseVector],
    y: Sequence[int],
    C: float = DEFAULT_C,
    seed: int = 0,
    record_objective: bool = False,
) -> SvmModel:
    """Train on 0/1 labels; class 0 is mapped to the -1 side.

    Deterministic for a fixed seed.  Stops when the largest projected
    gradient over an epoch drops below ``TOLERANCE``, or after
    ``MAX_EPOCHS`` epochs, which is logged as a warning.  The objective
    histories are in the units of the module docstring's objective.
    """
    if not 0.0 < C < np.inf:
        raise DataError(f"C must be a positive finite number, got {C}")
    _validate_training_set(X, y)
    indptr, indices, data, dim = to_csr(X)
    signs = np.where(np.asarray(y, dtype=np.float64) > 0.0, 1.0, -1.0)
    # The kernel's bias feature is 1.  On rows x*s with weights w/s and
    # C/s^2 its objective is the documented one divided by s^2, and its
    # projected gradient is that of a bias feature 1/s, so TOLERANCE keeps
    # its meaning.
    s = BIAS_SCALE
    w, bias, alpha, epochs_run, converged, primal, dual = _kernels.svm_fit(
        indptr,
        indices,
        data * s,
        signs,
        dim,
        float(C) / (s * s),
        TOLERANCE,
        MAX_EPOCHS,
        seed,
        record_objective,
    )
    weights = w * s
    bias = float(bias)
    gap = _relative_gap(indptr, indices, data, signs, weights, bias, C, s, alpha)
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
        primal_history=[s * s * v for v in primal or []],
        dual_history=[s * s * v for v in dual or []],
    )


def _relative_gap(indptr, indices, data, signs, weights, bias, C, s, alpha) -> float:
    """(P - D) / max(1, |P|) for the documented objective P with bias scale
    ``s`` and its dual D = s^2 sum(alpha) - 1/2 (||w||^2 + s^2 b^2), in
    O(nnz).  ``alpha`` are the kernel's dual variables, 1/s^2 times the
    documented problem's.
    """
    rows = np.repeat(np.arange(len(signs)), np.diff(indptr))
    scores = np.bincount(rows, weights=data * weights[indices], minlength=len(signs))
    hinge = np.maximum(0.0, 1.0 - signs * (scores + bias))
    reg = 0.5 * (float(weights @ weights) + (s * bias) ** 2)
    primal = reg + C * float(np.sum(hinge))
    dual = s * s * float(np.sum(alpha)) - reg
    return (primal - dual) / max(1.0, abs(primal))
