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
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DataError, json_number, json_numbers
from .rng import next_u64_rows, samples_without_replacement, stream_seed
from .svm import _validate_training_set
from .textprep import CsrMatrix, SparseVector, to_csr

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


class _Cells:
    """Entry lookups x[row, col] in the rows of a ``CsrMatrix``, without
    densifying them: one ``searchsorted`` over the sorted row*dim + col
    keys of the stored entries.  An entry not stored is 0."""

    def __init__(self, X: CsrMatrix):
        self.n_rows, self.dim = X.n_rows, X.dim
        # Each row's first key, then a sentinel past every key, so each
        # search lands on an entry; built in place, one array of nnz keys.
        starts = np.append(
            np.arange(X.n_rows, dtype=np.int64) * X.dim, np.iinfo(np.int64).max
        )
        self.keys = np.repeat(starts, np.append(np.diff(X.indptr), 1))
        self.keys[:-1] += X.indices
        self.data = np.append(X.data, 0.0)

    def values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        wanted = rows * self.dim + cols
        at = np.searchsorted(self.keys, wanted)
        return np.where(self.keys[at] == wanted, self.data[at], 0.0)


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

    def _votes(self, cells: _Cells, roots: np.ndarray) -> np.ndarray:
        """For each row, the number of trees rooted at ``roots`` in these
        node arrays whose leaf votes 1.  Every (tree, row) pair descends
        one level per pass; ``active`` are the pairs still at a split."""
        n = cells.n_rows
        node = np.repeat(roots, n)
        rows = np.tile(np.arange(n), len(roots))
        active = np.arange(len(node))
        while True:
            feature = self.feature[node[active]]
            inner = feature >= 0
            active, feature = active[inner], feature[inner]
            if not len(active):
                break
            at = node[active]
            go_left = cells.values(rows[active], feature) <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
        ones = self.count1[node] >= self.count0[node]
        return ones.reshape(len(roots), n).sum(axis=0)

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

    def predict_batch(self, X: CsrMatrix) -> np.ndarray:
        """The 0/1 prediction of every row of ``X``."""
        if X.dim != self.n_features:
            raise DataError(
                f"vector dimension {X.dim} does not match model dimension "
                f"{self.n_features}"
            )
        stacked, roots = _stack(self.trees)
        votes = stacked._votes(_Cells(X), roots)
        return (2 * votes >= len(self.trees)).astype(np.int8)

    def predict(self, x: SparseVector) -> int:
        return int(self.predict_batch(to_csr([x]))[0])

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


def _stack(trees: Sequence[Tree]) -> tuple[Tree, np.ndarray]:
    """The trees' node arrays end to end, as one ``Tree`` whose children
    index the stacked arrays, and the index of each tree's root."""
    sizes = [len(tree.feature) for tree in trees]
    roots = np.zeros(len(trees), dtype=np.intp)
    np.cumsum(sizes[:-1], out=roots[1:])
    stacked = {
        f.name: np.concatenate([getattr(tree, f.name) for tree in trees])
        for f in fields(Tree)
    }
    # A leaf's -1 children shift too, but no descent reads them.
    shift = np.repeat(roots, sizes)
    stacked["left"] = stacked["left"] + shift
    stacked["right"] = stacked["right"] + shift
    return Tree(**stacked), roots


class _Growth:
    """One tree's node lists and depth-first stack while it grows."""

    def __init__(self, boot: np.ndarray, y: np.ndarray):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.count0: list[int] = []
        self.count1: list[int] = []
        self.stack = [(self.new_node(len(boot), int(y[boot].sum())), boot)]

    def new_node(self, n_rows: int, c1: int) -> int:
        idx = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.count0.append(n_rows - c1)
        self.count1.append(c1)
        return idx

    def next_impure(self, min_impurity_split: float):
        """Pop nodes until one is at or above the impurity floor; None once
        the stack runs out."""
        while self.stack:
            idx, rows = self.stack.pop()
            if gini_impurity((self.count0[idx], self.count1[idx])) < min_impurity_split:
                continue
            return idx, rows
        return None

    def to_tree(self) -> Tree:
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            count0=np.array(self.count0, dtype=np.int64),
            count1=np.array(self.count1, dtype=np.int64),
        )


def _grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    tree_seeds: Sequence[int],
    min_impurity_split: float,
) -> list[Tree]:
    """One tree per seed, grown in lockstep.

    Tree t draws from the SplitMix64 stream ``tree_seeds[t]``: n bootstrap
    draws of randbelow(n), then one sample of sqrt(V) candidate features
    per impure node.  Nodes are expanded depth first, left child first,
    so each stream is consumed in a fixed order.  Each step takes the next
    impure node of every tree that has one, draws all of their feature
    samples at once and scores all of the nodes with one
    ``_kernels.node_best_splits`` call.
    """
    n, n_features = X.shape
    n_sub = max(1, math.isqrt(n_features))
    states = np.array(tree_seeds, dtype=np.uint64)
    # n draws of randbelow(n) per tree, taken at once.
    boots = (next_u64_rows(states, n) % np.uint64(n)).astype(np.int32)
    growths = [_Growth(boot, y) for boot in boots]
    while True:
        step = []
        for t, growth in enumerate(growths):
            node = growth.next_impure(min_impurity_split)
            if node is not None:
                step.append((t, *node))
        if not step:
            break
        growing = [t for t, _idx, _rows in step]
        feats, states[growing] = samples_without_replacement(
            states[growing], n_features, n_sub
        )
        splits = _kernels.node_best_splits(
            X, [rows for _t, _idx, rows in step], feats.astype(np.int32), y
        )
        for (t, idx, rows), (feat, thr, _score) in zip(step, splits):
            if feat < 0:
                continue
            growth = growths[t]
            mask = X[rows, feat] <= thr
            left_rows = rows[mask]
            right_rows = rows[~mask]
            c1_left = int(y[left_rows].sum())
            growth.feature[idx] = feat
            growth.threshold[idx] = thr
            left_idx = growth.new_node(len(left_rows), c1_left)
            right_idx = growth.new_node(len(right_rows), growth.count1[idx] - c1_left)
            growth.left[idx] = left_idx
            growth.right[idx] = right_idx
            growth.stack.append((right_idx, right_rows))
            growth.stack.append((left_idx, left_rows))
    return [growth.to_tree() for growth in growths]


def _check_n_estimators(n_estimators) -> None:
    """Raise DataError unless n_estimators is an integer of at least 1."""
    if isinstance(n_estimators, bool) or not isinstance(n_estimators, int):
        raise DataError(f"n_estimators must be an integer, got {n_estimators!r}")
    if n_estimators < 1:
        raise DataError(f"n_estimators must be >= 1, got {n_estimators}")


def train_random_forest(
    X: Sequence[SparseVector] | CsrMatrix,
    y: Sequence[int],
    n_estimators: int = DEFAULT_N_ESTIMATORS,
    min_impurity_split: float = MIN_IMPURITY_SPLIT,
    seed: int = 0,
    threads: int = 1,
) -> ForestModel:
    """Train ``n_estimators`` bagged Gini trees on 0/1 labels, given the
    rows as ``SparseVector``s or as one ``CsrMatrix``.

    The trees grow in lockstep (see :func:`_grow_trees`).  With
    ``threads > 1`` they are split into that many lockstep groups that
    train concurrently; tree i always uses the substream
    stream_seed(seed, i), so the forest is identical either way.
    """
    _check_n_estimators(n_estimators)
    X = to_csr(X)
    _validate_training_set(X, y)
    dense = X.to_dense()
    labels = np.asarray(y, dtype=np.int8)
    seeds = [stream_seed(seed, i) for i in range(n_estimators)]

    def grow(part: Sequence[int]) -> list[Tree]:
        return _grow_trees(dense, labels, part, min_impurity_split)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        n_parts = min(threads, n_estimators)
        with ThreadPoolExecutor(max_workers=n_parts) as pool:
            grown = list(pool.map(grow, [seeds[g::n_parts] for g in range(n_parts)]))
        # Part g holds trees g, g + n_parts, ...; put them back in order.
        trees = [grown[i % n_parts][i // n_parts] for i in range(n_estimators)]
    else:
        trees = grow(seeds)
    return ForestModel(
        trees=trees,
        n_features=dense.shape[1],
        n_estimators=n_estimators,
        min_impurity_split=min_impurity_split,
        seed=seed,
    )
