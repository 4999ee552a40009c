"""The model families: dispatch, option checks, the one rule that picks the
best candidate, hyperparameter grid search, and serialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .forest import (
    DEFAULT_N_ESTIMATORS, ForestModel, _check_n_estimators, train_random_forest
)
from .svm import DEFAULT_C, SvmModel, _check_c, train_linear_svm
from .textprep import CsrMatrix, SparseVector

# Every model family; cv rows and model provenance follow this order.
FAMILIES = ("svm", "rf")

DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "svm": {"C": [0.01, 0.1, 1.0, 10.0, 100.0]},
    "rf": {"n_estimators": [10, 50, 100]},
}

# Each family's one parameter, which is also the one a grid varies.
DEFAULT_PARAMS: dict[str, dict] = {
    "svm": {"C": DEFAULT_C},
    "rf": {"n_estimators": DEFAULT_N_ESTIMATORS},
}


def train_model(
    family: str,
    X: Sequence[SparseVector] | CsrMatrix,
    y: Sequence[int],
    params: dict | None = None,
    seed: int = 0,
) -> SvmModel | ForestModel:
    merged = dict(DEFAULT_PARAMS.get(family, {}))
    merged.update(params or {})
    if family == "svm":
        return train_linear_svm(X, y, C=merged["C"], seed=seed)
    if family == "rf":
        return train_random_forest(
            X, y, n_estimators=merged["n_estimators"], seed=seed
        )
    raise DataError(f"unknown model family {family!r} (expected one of {FAMILIES})")


def check_params(params_by_family: dict[str, dict]) -> None:
    """Raise DataError unless each family's parameter passes the check its
    trainer makes, so a run can reject it before fitting anything."""
    _check_c(params_by_family["svm"]["C"])
    _check_n_estimators(params_by_family["rf"]["n_estimators"])


def model_from_dict(data: dict) -> SvmModel | ForestModel:
    family = data.get("family")
    if family not in FAMILIES:
        raise DataError(f"unknown model family {family!r} in serialized model")
    return {"svm": SvmModel, "rf": ForestModel}[family].from_dict(data)


@dataclass
class GridPoint:
    """One grid point's parameters and its fold summary, whose fields are
    those that end ``eval.CvRow``."""

    params: dict
    f1_mean: float
    f1_std: float
    acc_mean: float
    acc_std: float


@dataclass
class GridResult:
    family: str
    table: list[GridPoint]
    best_index: int


def pick_best(candidates: Sequence) -> int:
    """The index of the candidate with the highest ``f1_mean``, then the
    highest ``acc_mean``, then the earliest: the one rule that picks a grid
    point and a criterion's family."""
    # max keeps the first of equal keys.
    return max(
        range(len(candidates)),
        key=lambda i: (candidates[i].f1_mean, candidates[i].acc_mean),
    )


def grid_search(
    token_docs: Sequence[Sequence[str]],
    labels: Sequence[int],
    family: str,
    grid: dict[str, list] | None = None,
    k: int = 10,
    seed: int = 0,
) -> GridResult:
    """Cross-validate every grid point on shared folds and keep the best one.

    The grid maps the family's one parameter (``DEFAULT_PARAMS``) to its
    values, and the points are those values in the order given.  The best
    is the one ``pick_best`` picks.
    """
    from .eval import crossvalidate_candidates, fold_summary

    if grid is None:
        grid = DEFAULT_GRIDS[family]
    if not isinstance(grid, dict) or not grid or not all(
        isinstance(values, list) and values for values in grid.values()
    ):
        raise DataError(f"grid must map each parameter to a non-empty list: {grid!r}")
    for name in grid:
        if name not in DEFAULT_PARAMS[family]:
            raise DataError(
                f"{family} has no parameter {name!r} "
                f"(expected one of {', '.join(DEFAULT_PARAMS[family])})"
            )
    ((name, values),) = grid.items()
    points = [{name: value} for value in values]
    scores = crossvalidate_candidates(
        token_docs, labels, [(family, params) for params in points], k=k, seed=seed
    )
    table = [
        GridPoint(params, *fold_summary(f1s, accs))
        for params, (f1s, accs) in zip(points, scores)
    ]
    return GridResult(family=family, table=table, best_index=pick_best(table))
