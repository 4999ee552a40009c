"""Model family dispatch, hyperparameter grid search, and serialization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError
from .forest import DEFAULT_N_ESTIMATORS, ForestModel, train_random_forest
from .svm import DEFAULT_C, SvmModel, train_linear_svm
from .textprep import SparseVector

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
    X: Sequence[SparseVector],
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


def model_from_dict(data: dict) -> SvmModel | ForestModel:
    family = data.get("family")
    if family == "svm":
        return SvmModel.from_dict(data)
    if family == "rf":
        return ForestModel.from_dict(data)
    raise DataError(f"unknown model family {family!r} in serialized model")


@dataclass
class GridPoint:
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

    @property
    def best_params(self) -> dict:
        return self.table[self.best_index].params


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
    values, and the points are those values in the order given.  Best =
    highest mean F1, ties broken by higher mean accuracy, then by order.
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
        GridPoint(params=params, **fold_summary(f1s, accs))
        for params, (f1s, accs) in zip(points, scores)
    ]
    # max keeps the first of equal keys, which is the enumeration-order tie rule.
    best = max(
        range(len(table)), key=lambda i: (table[i].f1_mean, table[i].acc_mean)
    )
    return GridResult(family=family, table=table, best_index=best)
