"""Batch prediction over CSR rows gives the per-row model walks of
``helpers`` for both model families, and the one-row methods are its
one-row case.  Each tree is checked on its own as a one-tree forest,
whose vote is the tree's."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    forest_predict_oracle, svm_decision_oracle, tree_predict_oracle
)
from webcred.errors import DataError
from webcred.forest import MIN_IMPURITY_SPLIT, ForestModel, Tree, train_random_forest
from webcred.svm import SvmModel
from webcred.textprep import CsrMatrix, SparseVector, to_csr

# Stored values: negatives, explicit zeros of both signs, and values that
# equal a threshold, so rows land exactly on a split.
VALUES = [-1.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0]
THRESHOLDS = VALUES + [-0.5, 0.125, 0.75]


@st.composite
def csr_matrices(draw, max_rows=10):
    """A CSR batch of up to ``max_rows`` rows (empty rows included) whose
    columns are strictly increasing."""
    dim = draw(st.integers(1, 8))
    indptr, indices, data = [0], [], []
    for _ in range(draw(st.integers(0, max_rows))):
        cols = sorted(draw(st.sets(st.integers(0, dim - 1))))
        indices += cols
        data += draw(st.lists(st.sampled_from(VALUES), min_size=len(cols),
                              max_size=len(cols)))
        indptr.append(len(indices))
    return CsrMatrix(
        np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int32),
        np.array(data, dtype=np.float64), dim,
    )


def random_tree(rng: random.Random, dim: int, max_nodes: int = 15) -> Tree:
    """A tree of random splits over ``dim`` features, children after their
    parent, with random leaf counts (ties included)."""
    arrays = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]}
    queue = [0]
    while queue:
        node = queue.pop(0)
        if len(arrays["feature"]) + 2 > max_nodes or rng.random() < 0.3:
            continue
        arrays["feature"][node] = rng.randrange(dim)
        arrays["threshold"][node] = rng.choice(THRESHOLDS)
        for side in ("left", "right"):
            arrays[side][node] = len(arrays["feature"])
            queue.append(len(arrays["feature"]))
            for name, empty in (("feature", -1), ("threshold", 0.0),
                                ("left", -1), ("right", -1)):
                arrays[name].append(empty)
    n = len(arrays["feature"])
    arrays["count0"] = [rng.randint(0, 3) for _ in range(n)]
    arrays["count1"] = [rng.randint(0, 3) for _ in range(n)]
    return Tree.from_dict(arrays)


def random_forest(rng: random.Random, dim: int) -> ForestModel:
    n_trees = rng.randint(1, 6)  # an even count lets the votes tie
    return ForestModel(
        trees=[random_tree(rng, dim) for _ in range(n_trees)],
        n_features=dim, n_estimators=n_trees,
        min_impurity_split=MIN_IMPURITY_SPLIT, seed=0,
    )


def random_svm(rng: random.Random, dim: int) -> SvmModel:
    # Dyadic weights and bias make some decisions exactly 0; the others make
    # a row's sum depend on its order.
    weights = np.array([
        rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, rng.uniform(-1.0, 1.0)])
        for _ in range(dim)
    ])
    return SvmModel(weights=weights, bias=rng.choice([-0.5, 0.0, 0.5]), C=1.0)


def assert_forest_matches_the_oracle(forest: ForestModel, X: CsrMatrix) -> None:
    rows = X.rows()
    want = [forest_predict_oracle(forest, x) for x in rows]
    got = forest.predict_batch(X)
    assert got.tolist() == want
    assert [forest.predict(x) for x in rows] == want
    for tree in forest.trees:
        alone = ForestModel([tree], forest.n_features, 1, forest.min_impurity_split, 0)
        want_tree = [tree_predict_oracle(tree, x.to_dense()) for x in rows]
        assert alone.predict_batch(X).tolist() == want_tree


class TestBatchPredict:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=csr_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_forest_equals_the_per_row_walk(self, X, seed):
        assert_forest_matches_the_oracle(random_forest(random.Random(seed), X.dim), X)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(X=csr_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_svm_equals_the_per_row_decision(self, X, seed):
        model = random_svm(random.Random(seed), X.dim)
        rows = X.rows()
        want = np.array([svm_decision_oracle(model, x) for x in rows])
        got = model.decision_batch(X)
        assert got.tobytes() == want.tobytes()
        assert model.predict_batch(X).tolist() == [int(d >= 0.0) for d in want]
        assert [model.predict(x) for x in rows] == [int(d >= 0.0) for d in want]

    @pytest.mark.parametrize("seed", range(5))
    def test_trained_forest_equals_the_per_row_walk(self, seed):
        rng = random.Random(seed)
        dim = 12
        vectors = []
        for _ in range(60):
            cols = sorted(rng.sample(range(dim), rng.randint(0, 6)))
            values = [rng.choice(VALUES + [rng.uniform(-1, 1)]) for _ in cols]
            vectors.append(SparseVector(np.array(cols, dtype=np.int32),
                                        np.array(values), dim))
        y = [i % 2 for i in range(len(vectors))]
        forest = train_random_forest(vectors[:40], y[:40], n_estimators=5, seed=seed)
        assert_forest_matches_the_oracle(forest, to_csr(vectors))

    def test_dimension_mismatch_raises(self):
        rng = random.Random(1)
        x = SparseVector(np.array([0], dtype=np.int32), np.array([1.0]), 4)
        X = CsrMatrix(np.array([0, 1]), x.indices, x.values, 4)
        for model in (random_forest(rng, 3), random_svm(rng, 3)):
            with pytest.raises(DataError, match="dimension 4 does not match"):
                model.predict_batch(X)
            with pytest.raises(DataError, match="dimension 4 does not match"):
                model.predict(x)

    def test_no_predict_path_densifies(self, monkeypatch):
        rng = random.Random(2)
        x = SparseVector(np.array([1, 2], dtype=np.int32), np.array([0.5, -1.0]), 3)
        X = CsrMatrix(np.array([0, 2, 2]), x.indices, x.values, 3)

        def densify(*_args):
            raise AssertionError("a predict path densified its rows")

        monkeypatch.setattr(SparseVector, "to_dense", densify)
        monkeypatch.setattr(CsrMatrix, "to_dense", densify)
        for model in (random_forest(rng, 3), random_svm(rng, 3)):
            assert model.predict_batch(X).shape == (2,)
            assert model.predict(x) in (0, 1)
