"""Random forest of Gini decision trees over TF-IDF features.

Each tree trains on a bootstrap sample of the full training set and, at
every node, considers a random subspace of sqrt(V) features.  Trees grow
until nodes are pure, fall below the impurity floor, or admit no valid
split; there is no depth cap.  All sampling is driven by per-tree
SplitMix64 streams derived from (seed, tree_index), so a forest is a pure
function of (data, hyperparams, seed) regardless of thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DataError, json_number, json_numbers
from .rng import SplitMix64, stream_seed
from .svm import _validate_training_set
from .textprep import SparseVector, to_dense

DEFAULT_N_ESTIMATORS = 10
MIN_IMPURITY_SPLIT = 1e-7


def gini_impurity(class_counts: tuple[int, int]) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of a two-class count pair.

    The numerator is formed in exact integer arithmetic before the single
    division, which keeps gini(a, b) == gini(b, a) bit for bit.
    """
    n0, n1 = class_counts
    if n0 < 0 or n1 < 0:
        raise DataError("class counts must be non-negative")
    total = n0 + n1
    if total == 0:
        raise DataError("gini impurity of an empty node is undefined")
    return (total * total - n0 * n0 - n1 * n1) / (total * total)


@dataclass
class Tree:
    """One decision tree as parallel node arrays (node 0 is the root).

    ``feature[i] == -1`` marks a leaf; internal nodes route a sample left
    when x[feature] <= threshold.  ``count0``/``count1`` hold the training
    class counts that reached the node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    count0: np.ndarray
    count1: np.ndarray

    def predict_dense(self, x: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return 1 if self.count1[node] >= self.count0[node] else 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Tree":
        """Inverse of :meth:`to_dict`.  Raises DataError unless every array
        holds one number per node and each split node's children come after
        it, so that prediction always ends at a leaf."""
        arrays = {
            f.name: json_numbers(data[f.name], f.name, integer=f.name != "threshold")
            for f in fields(cls)
        }
        n = len(arrays["feature"])
        if n == 0 or any(len(a) != n for a in arrays.values()):
            raise DataError("tree arrays must all have one entry per node")
        split = arrays["feature"] >= 0
        node = np.arange(n)[split]
        for side in ("left", "right"):
            child = arrays[side][split]
            bad = (child <= node) | (child >= n)
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(f"node {node[i]} has {side} child {child[i]}")
        return cls(**arrays)


@dataclass
class ForestModel:
    """Trained forest: majority vote over trees, ties going to class 1."""

    trees: list[Tree]
    n_features: int
    n_estimators: int
    min_impurity_split: float
    seed: int

    @property
    def dim(self) -> int:
        return self.n_features

    def predict(self, x: SparseVector) -> int:
        if x.dim != self.n_features:
            raise DataError(
                f"vector dimension {x.dim} does not match model dimension "
                f"{self.n_features}"
            )
        dense = x.to_dense()
        votes = sum(tree.predict_dense(dense) for tree in self.trees)
        return 1 if 2 * votes >= len(self.trees) else 0

    def to_dict(self) -> dict:
        return {
            "family": "rf",
            "params": {
                "n_estimators": self.n_estimators,
                "criterion": "gini",
                "min_impurity_split": self.min_impurity_split,
            },
            "seed": self.seed,
            "n_features": self.n_features,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ForestModel":
        """Inverse of :meth:`to_dict`.  Raises DataError for a value that is
        not a number, a tree count other than n_estimators (at least 1), a
        malformed tree, or a feature outside -1..n_features-1."""
        params = data["params"]
        n_estimators = json_number(params["n_estimators"], "n_estimators", integer=True)
        n_features = json_number(data["n_features"], "n_features", integer=True)
        trees = []
        for i, tree_data in enumerate(data["trees"]):
            try:
                tree = Tree.from_dict(tree_data)
                bad = (tree.feature < -1) | (tree.feature >= n_features)
                if bad.any():
                    raise DataError(
                        f"feature {tree.feature[bad][0]} outside -1..{n_features - 1}"
                    )
            except DataError as exc:
                raise DataError(f"tree {i}: {exc}") from None
            trees.append(tree)
        if n_estimators < 1 or len(trees) != n_estimators:
            raise DataError(f"{len(trees)} trees for n_estimators {n_estimators}")
        return cls(
            trees=trees,
            n_features=n_features,
            n_estimators=n_estimators,
            min_impurity_split=json_number(
                params["min_impurity_split"], "min_impurity_split"
            ),
            seed=json_number(data["seed"], "seed", integer=True),
        )


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    tree_seed: int,
    min_impurity_split: float,
) -> Tree:
    n, n_features = X.shape
    rng = SplitMix64(tree_seed)
    # n draws of randbelow(n), taken at once.
    boot = (rng.next_u64_array(n) % np.uint64(n)).astype(np.int32)
    n_sub = max(1, math.isqrt(n_features))

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    count0: list[int] = []
    count1: list[int] = []

    def new_node(rows: np.ndarray) -> int:
        idx = len(feature)
        c1 = int(y[rows].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        count0.append(len(rows) - c1)
        count1.append(c1)
        return idx

    # Depth-first, left child first, so the RNG draws per node in a fixed
    # order no matter how the arrays are laid out.
    stack = [(new_node(boot), boot)]
    while stack:
        idx, rows = stack.pop()
        if gini_impurity((count0[idx], count1[idx])) < min_impurity_split:
            continue
        feats = np.array(
            rng.sample_without_replacement(n_features, n_sub), dtype=np.int32
        )
        feat, thr, _score = _kernels.node_best_split(X, rows, feats, y)
        if feat < 0:
            continue
        mask = X[rows, feat] <= thr
        left_rows = rows[mask]
        right_rows = rows[~mask]
        feature[idx] = feat
        threshold[idx] = thr
        left_idx = new_node(left_rows)
        right_idx = new_node(right_rows)
        left[idx] = left_idx
        right[idx] = right_idx
        stack.append((right_idx, right_rows))
        stack.append((left_idx, left_rows))
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        count0=np.array(count0, dtype=np.int64),
        count1=np.array(count1, dtype=np.int64),
    )


def _check_n_estimators(n_estimators) -> None:
    """Raise DataError unless n_estimators is an integer of at least 1."""
    if isinstance(n_estimators, bool) or not isinstance(n_estimators, int):
        raise DataError(f"n_estimators must be an integer, got {n_estimators!r}")
    if n_estimators < 1:
        raise DataError(f"n_estimators must be >= 1, got {n_estimators}")


def train_random_forest(
    X: Sequence[SparseVector],
    y: Sequence[int],
    n_estimators: int = DEFAULT_N_ESTIMATORS,
    min_impurity_split: float = MIN_IMPURITY_SPLIT,
    seed: int = 0,
    threads: int = 1,
) -> ForestModel:
    """Train ``n_estimators`` bagged Gini trees on 0/1 labels.

    With ``threads > 1`` trees train concurrently; tree i always uses the
    substream stream_seed(seed, i), so the forest is identical either way.
    """
    _check_n_estimators(n_estimators)
    _validate_training_set(X, y)
    dense = to_dense(X)
    labels = np.asarray(y, dtype=np.int8)

    def build(i: int) -> Tree:
        return _build_tree(dense, labels, stream_seed(seed, i), min_impurity_split)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(n_estimators)))
    else:
        trees = [build(i) for i in range(n_estimators)]
    return ForestModel(
        trees=trees,
        n_features=dense.shape[1],
        n_estimators=n_estimators,
        min_impurity_split=min_impurity_split,
        seed=seed,
    )
