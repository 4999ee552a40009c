import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import forest_trees_oracle, make_marker_corpus
from webcred import _kernels
from webcred._kernels import pure
from webcred.errors import DataError
from webcred.forest import (
    MIN_IMPURITY_SPLIT,
    ForestModel,
    Tree,
    gini_impurity,
    train_random_forest,
)
from webcred.textprep import (
    CsrMatrix,
    SparseVector,
    build_vocabulary,
    fit_tfidf,
    to_csr,
    transform,
)


def tfidf_vectors(token_docs):
    vocab = build_vocabulary(token_docs, min_df=1, stopwords=())
    model = fit_tfidf(token_docs, vocab)
    return [transform(doc, model) for doc in token_docs]


def leaf_tree(count0: int, count1: int) -> Tree:
    return Tree.from_dict(
        {
            "feature": [-1],
            "threshold": [0.0],
            "left": [-1],
            "right": [-1],
            "count0": [count0],
            "count1": [count1],
        }
    )


class TestGini:
    def test_known_values(self):
        assert gini_impurity((3, 3)) == 0.5
        assert gini_impurity((4, 0)) == 0.0
        assert gini_impurity((1, 3)) == pytest.approx(0.375, abs=1e-15)

    def test_symmetry(self):
        for a in range(0, 6):
            for b in range(0, 6):
                if a + b == 0:
                    continue
                assert gini_impurity((a, b)) == gini_impurity((b, a))

    def test_maximum_at_balance(self):
        for a in range(1, 8):
            for b in range(a + 1, 9):
                assert gini_impurity((a, b)) < 0.5

    def test_empty_node_rejected(self):
        with pytest.raises(DataError):
            gini_impurity((0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            gini_impurity((-1, 2))


class TestTraining:
    def test_identical_predictions_for_same_seed(self):
        docs, labels = make_marker_corpus(40, seed=1)
        X = tfidf_vectors(docs)
        a = train_random_forest(X, labels, seed=5)
        b = train_random_forest(X, labels, seed=5)
        assert [a.predict(x) for x in X] == [b.predict(x) for x in X]
        assert a.to_dict() == b.to_dict()

    def test_thread_count_does_not_change_the_model(self):
        docs, labels = make_marker_corpus(40, seed=2)
        X = tfidf_vectors(docs)
        serial = train_random_forest(X, labels, seed=5, threads=1)
        parallel = train_random_forest(X, labels, seed=5, threads=4)
        assert serial.to_dict() == parallel.to_dict()

    def test_different_seeds_give_different_forests(self):
        docs, labels = make_marker_corpus(40, seed=3)
        X = tfidf_vectors(docs)
        a = train_random_forest(X, labels, seed=1)
        b = train_random_forest(X, labels, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_learns_marker_tokens(self):
        docs, labels = make_marker_corpus(60, seed=4)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, seed=0)
        predictions = [model.predict(x) for x in X]
        accuracy = sum(p == t for p, t in zip(predictions, labels)) / len(labels)
        assert accuracy >= 0.95

    def test_single_tree_pure_split(self):
        # The single feature separates the classes perfectly, so the one
        # tree must reproduce every training label (given a bootstrap
        # sample that contains both classes, which these seeds provide).
        values = [0.05 * i for i in range(1, 13)]
        X = [
            SparseVector(np.array([0], dtype=np.int32), np.array([v]), 1)
            for v in values
        ]
        y = [0] * 6 + [1] * 6
        for seed in range(5):
            model = train_random_forest(X, y, n_estimators=1, seed=seed)
            tree = model.trees[0]
            assert tree.count0[0] > 0 and tree.count1[0] > 0
            assert [model.predict(x) for x in X] == y

    def test_bootstrap_draws_exactly_n_rows(self):
        docs, labels = make_marker_corpus(30, seed=6)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, n_estimators=5, seed=1)
        for tree in model.trees:
            assert tree.count0[0] + tree.count1[0] == len(X)

    def test_huge_impurity_floor_gives_single_leaf_trees(self):
        docs, labels = make_marker_corpus(30, seed=7)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, min_impurity_split=1.0, seed=1)
        for tree in model.trees:
            assert len(tree.feature) == 1
            assert tree.feature[0] == -1

    def test_n_estimators_respected(self):
        docs, labels = make_marker_corpus(20, seed=8)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, n_estimators=3, seed=1)
        assert len(model.trees) == 3
        assert model.n_estimators == 3

    def test_single_class_rejected(self):
        X = [
            SparseVector(np.array([0], dtype=np.int32), np.array([v]), 1)
            for v in (0.1, 0.2)
        ]
        with pytest.raises(DataError):
            train_random_forest(X, [1, 1], seed=0)


class TestTieRules:
    def test_leaf_tie_predicts_class_one(self):
        model = ForestModel(
            trees=[leaf_tree(2, 2)],
            n_features=1,
            n_estimators=1,
            min_impurity_split=1e-7,
            seed=0,
        )
        x = SparseVector(np.array([], dtype=np.int32), np.array([]), 1)
        assert model.predict(x) == 1

    def test_forest_vote_tie_predicts_class_one(self):
        model = ForestModel(
            trees=[leaf_tree(3, 0), leaf_tree(0, 3)],
            n_features=1,
            n_estimators=2,
            min_impurity_split=1e-7,
            seed=0,
        )
        x = SparseVector(np.array([], dtype=np.int32), np.array([]), 1)
        assert model.predict(x) == 1

    def test_unanimous_zero_vote_predicts_zero(self):
        model = ForestModel(
            trees=[leaf_tree(3, 0)] * 10,
            n_features=1,
            n_estimators=10,
            min_impurity_split=1e-7,
            seed=0,
        )
        x = SparseVector(np.array([], dtype=np.int32), np.array([]), 1)
        assert model.predict(x) == 0


class TestSplitGeometry:
    def test_threshold_clamps_to_lower_value_when_midpoint_rounds_up(self):
        lower = 1.0
        upper = math.nextafter(1.0, 2.0)
        X = np.array([[lower], [upper]], dtype=np.float64)
        rows = np.array([0, 1], dtype=np.int32)
        feats = np.array([0], dtype=np.int32)
        y = np.array([0, 1], dtype=np.int8)
        feat, threshold, score = _kernels.node_best_split(X, rows, feats, y)
        assert feat == 0
        assert threshold == lower
        assert score == 0.0

    def test_rows_at_threshold_go_left(self):
        # With only two distinct feature values the split threshold is
        # their midpoint; rows equal to the lower value must go left.
        X = [
            SparseVector(np.array([0], dtype=np.int32), np.array([v]), 1)
            for v in (1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0)
        ]
        y = [0, 0, 0, 0, 1, 1, 1, 1]
        for seed in range(5):
            model = train_random_forest(X, y, n_estimators=1, seed=seed)
            tree = model.trees[0]
            assert tree.count0[0] > 0 and tree.count1[0] > 0
            assert [model.predict(x) for x in X] == y


class TestSerialization:
    def test_round_trip_predictions_are_bit_identical(self):
        docs, labels = make_marker_corpus(40, seed=9)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, seed=11)
        payload = json.dumps(model.to_dict())
        restored = ForestModel.from_dict(json.loads(payload))
        assert restored.to_dict() == model.to_dict()
        for x in X:
            assert restored.predict(x) == model.predict(x)

    def test_dict_shape(self):
        docs, labels = make_marker_corpus(20, seed=10)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, n_estimators=2, seed=1)
        data = model.to_dict()
        assert data["family"] == "rf"
        assert data["params"]["n_estimators"] == 2
        assert data["params"]["criterion"] == "gini"
        assert data["params"]["min_impurity_split"] == 1e-7
        assert len(data["trees"]) == 2

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ([0, -1, -1], [2, -1, -1], "node 0 has left child 0"),
            ([1, -1, -1], [3, -1, -1], "node 0 has right child 3"),
        ],
    )
    def test_a_child_that_could_loop_or_is_missing_is_rejected(
        self, left, right, message
    ):
        """Children come after their node, so prediction ends at a leaf;
        node 0 pointing at itself would loop for ever."""
        data = {
            "feature": [0, -1, -1],
            "threshold": [0.5, 0.0, 0.0],
            "left": left,
            "right": right,
            "count0": [1, 1, 0],
            "count1": [1, 0, 1],
        }
        with pytest.raises(DataError, match=message):
            Tree.from_dict(data)

    def test_arrays_of_different_lengths_are_rejected(self):
        data = leaf_tree(1, 0).to_dict() | {"threshold": [0.0, 0.0]}
        with pytest.raises(DataError, match="one entry per node"):
            Tree.from_dict(data)


class TestTreeShape:
    def test_internal_nodes_have_two_children_and_leaves_have_samples(self):
        docs, labels = make_marker_corpus(50, seed=12)
        X = tfidf_vectors(docs)
        model = train_random_forest(X, labels, seed=13)
        for tree in model.trees:
            for i in range(len(tree.feature)):
                if tree.feature[i] >= 0:
                    assert tree.left[i] >= 0
                    assert tree.right[i] >= 0
                else:
                    assert tree.left[i] == -1
                    assert tree.right[i] == -1
                    assert tree.count0[i] + tree.count1[i] >= 1


def dense_to_csr(X: np.ndarray) -> CsrMatrix:
    nonzero = X != 0.0
    indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))]).astype(np.int64)
    return CsrMatrix(indptr, np.nonzero(nonzero)[1].astype(np.int32), X[nonzero], X.shape[1])


@st.composite
def forest_problems(draw):
    """A small training set with tie-heavy, negative-valued or mixed
    columns, both classes present, and forest settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, n_cols = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["ties", "negative", "mixed"]))
    if kind == "ties":
        X = rng.choice([0.0, 0.0, 0.0, 0.25, 0.5, 1.0], size=(n, n_cols))
    elif kind == "negative":
        X = np.where(rng.random((n, n_cols)) < 0.5, rng.integers(-2, 3, (n, n_cols)),
                     -rng.random((n, n_cols)))
    else:
        X = np.where(rng.random((n, n_cols)) < 0.6, 0.0, rng.normal(size=(n, n_cols)))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    return {
        "X": dense_to_csr(X),
        "y": y.tolist(),
        "n_estimators": draw(st.integers(1, 12)),
        "min_impurity_split": draw(st.sampled_from([MIN_IMPURITY_SPLIT, 0.3])),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


class TestLockstepGrowth:
    """Trees grown in lockstep equal, bit for bit, the trees of the
    one-tree-at-a-time loop on the same kernel."""

    def assert_matches_the_loop(self, impl, problem, threads):
        with mock.patch.object(_kernels, "node_best_splits", impl.node_best_splits):
            forest = train_random_forest(**problem, threads=threads)
        want = forest_trees_oracle(
            problem["X"].to_dense(), np.asarray(problem["y"], dtype=np.int8),
            problem["n_estimators"], problem["seed"], problem["min_impurity_split"],
            impl.node_best_split,
        )
        assert len(forest.trees) == problem["n_estimators"]
        assert [json.dumps(t.to_dict()) for t in forest.trees] == [
            json.dumps(t.to_dict()) for t in want
        ]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(problem=forest_problems(), threads=st.sampled_from([1, 3]))
    def test_pure(self, problem, threads):
        self.assert_matches_the_loop(pure, problem, threads)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(problem=forest_problems(), threads=st.sampled_from([1, 3]))
    def test_compiled(self, compiled_kernels, problem, threads):
        self.assert_matches_the_loop(compiled_kernels, problem, threads)

    def test_marker_corpus_on_the_active_kernel(self):
        docs, labels = make_marker_corpus(60, seed=8)
        X = to_csr(tfidf_vectors(docs))
        for threads in (1, 3):
            forest = train_random_forest(X, labels, n_estimators=12, seed=9, threads=threads)
            want = forest_trees_oracle(
                X.to_dense(), np.asarray(labels, dtype=np.int8), 12, 9,
                MIN_IMPURITY_SPLIT, _kernels.node_best_split,
            )
            assert [t.to_dict() for t in forest.trees] == [t.to_dict() for t in want]
