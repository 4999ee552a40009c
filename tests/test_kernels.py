import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import node_best_split_oracle, svm_fit_unshrunk_oracle, svm_primal_oracle
from webcred import _kernels
from webcred._kernels import pure


def random_node(rng: random.Random, n_rows: int, n_feats: int, tie_heavy: bool):
    if tie_heavy:
        pool = [0.0, 0.25, 0.5, 1.0]
        X = np.array(
            [[rng.choice(pool) for _ in range(n_feats)] for _ in range(n_rows)]
        )
    else:
        X = np.array(
            [[rng.random() for _ in range(n_feats)] for _ in range(n_rows)]
        )
    rows = np.array(
        sorted(rng.sample(range(n_rows), rng.randint(0, n_rows))), dtype=np.int32
    )
    feats = np.array(
        sorted(rng.sample(range(n_feats), rng.randint(1, n_feats))), dtype=np.int32
    )
    y = np.array([rng.randint(0, 1) for _ in range(n_rows)], dtype=np.int8)
    return np.ascontiguousarray(X), rows, feats, y


def random_csr(rng: random.Random, n_docs: int, dim: int):
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    y = []
    for i in range(n_docs):
        label = 1.0 if rng.random() < 0.5 else -1.0
        y.append(label)
        cols = sorted(rng.sample(range(dim), rng.randint(1, dim)))
        for c in cols:
            indices.append(c)
            value = rng.uniform(0.1, 1.0)
            data.append(value + (1.0 if label > 0 and c == 0 else 0.0))
        indptr.append(len(indices))
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int32),
        np.asarray(data, dtype=np.float64),
        np.asarray(y, dtype=np.float64),
    )


def test_active_impl_is_reported():
    assert _kernels.ACTIVE_IMPL in ("compiled", "pure")


def test_env_override_forces_pure_fallback():
    code = (
        "from webcred import _kernels; "
        "print(_kernels.ACTIVE_IMPL)"
    )
    env = dict(os.environ, WEBCRED_PURE_KERNELS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "pure"


class TestSplitEquivalence:
    def test_identical_on_random_nodes(self, compiled_kernels):
        rng = random.Random(1)
        for trial in range(120):
            X, rows, feats, y = random_node(
                rng, rng.randint(2, 40), rng.randint(1, 8), tie_heavy=trial % 2 == 0
            )
            got_pure = pure.node_best_split(X, rows, feats, y)
            got_fast = compiled_kernels.node_best_split(X, rows, feats, y)
            assert got_pure == got_fast

    def test_identical_on_degenerate_nodes(self, compiled_kernels):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        feats = np.array([0, 1], dtype=np.int32)
        y = np.array([0, 1], dtype=np.int8)
        for rows in ([], [0], [0, 1]):
            r = np.array(rows, dtype=np.int32)
            assert pure.node_best_split(X, r, feats, y) == (
                compiled_kernels.node_best_split(X, r, feats, y)
            )

    def test_constant_feature_yields_no_split_in_both(self, compiled_kernels):
        X = np.ones((4, 1))
        rows = np.arange(4, dtype=np.int32)
        feats = np.zeros(1, dtype=np.int32)
        y = np.array([0, 1, 0, 1], dtype=np.int8)
        expected = (-1, 0.0, float("inf"))
        assert pure.node_best_split(X, rows, feats, y) == expected
        assert compiled_kernels.node_best_split(X, rows, feats, y) == expected


# Column kinds: small integers, values rounded to one decimal and mostly
# zero columns all give many equal values, so many positions are not
# boundaries; a copy of an earlier column ties it on every split (a first
# column has none to copy and is constant).
COLUMN_KINDS = ["integer", "rounded", "sparse", "uniform", "copy"]


@st.composite
def split_problems(draw, node_rows=st.integers(0, 40), min_feats=0, max_feats=10):
    n = draw(st.integers(1, 60))
    n_cols = draw(st.integers(max(1, min_feats), max_feats))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.empty((n, n_cols))
    for j in range(n_cols):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        if kind == "integer":
            X[:, j] = rng.integers(0, 4, n)
        elif kind == "rounded":
            X[:, j] = np.round(rng.random(n), 1)
        elif kind == "sparse":
            X[:, j] = np.where(rng.random(n) < 0.85, 0.0, rng.random(n))
        elif kind == "uniform":
            X[:, j] = rng.random(n)
        else:
            X[:, j] = X[:, rng.integers(0, j)] if j else 0.0
    # Rows are drawn with replacement, as in a bootstrap sample.
    rows = rng.integers(0, n, draw(node_rows)).astype(np.int32)
    k = draw(st.integers(min_feats, n_cols))
    feats = rng.permutation(n_cols)[:k].astype(np.int32)
    y = rng.integers(0, 2, n).astype(np.int8)
    return X, rows, feats, y


def split_key(split):
    feature, threshold, score = split
    return feature, float(threshold).hex(), score


class TestSplitOracle:
    """The blocked pass returns exactly what the per-feature loop returns."""

    @settings(max_examples=400, deadline=None)
    @given(
        problem=split_problems(
            node_rows=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 40))
        )
    )
    def test_matches_the_per_feature_loop(self, problem):
        assert split_key(pure.node_best_split(*problem)) == split_key(
            node_best_split_oracle(*problem)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        problem=split_problems(
            node_rows=st.integers(2100, 3000), min_feats=8, max_feats=16
        )
    )
    def test_matches_across_several_blocks(self, problem):
        _X, rows, feats, _y = problem
        # At least 2100 * 8 values: more than one block of features.
        assert len(rows) * len(feats) > pure._BLOCK_ELEMENTS
        assert split_key(pure.node_best_split(*problem)) == split_key(
            node_best_split_oracle(*problem)
        )


class TestSvmObjectives:
    def test_matches_the_per_row_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 8))
            # Rows may be empty, as the vector of a page with no vocabulary
            # term is.
            counts = rng.integers(0, dim + 1, size=n)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            indices = np.concatenate(
                [np.sort(rng.choice(dim, c, replace=False)) for c in counts]
            ).astype(np.int32)
            data = rng.uniform(0.0, 2.0, size=len(indices))
            y = rng.choice([-1.0, 1.0], size=n)
            w = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            wb = float(rng.normal())
            C = 10.0 ** rng.uniform(-5, 5)
            alpha = rng.uniform(0.0, C, size=n)
            primal, dual = pure.objectives(indptr, indices, data, y, w, wb, C, alpha)
            assert primal == pytest.approx(
                svm_primal_oracle(indptr, indices, data, y, w, wb, C), rel=1e-12
            )
            assert dual == float(np.sum(alpha) - 0.5 * (w @ w + wb * wb))


class TestSvmEquivalence:
    def test_same_epochs_and_near_identical_weights(self, compiled_kernels):
        rng = random.Random(2)
        for trial in range(20):
            indptr, indices, data, y = random_csr(
                rng, rng.randint(4, 30), rng.randint(2, 6)
            )
            if len(set(y.tolist())) < 2:
                continue
            dim = 6
            args = (indptr, indices, data, y, dim, 1.0, 1e-4, 500, trial)
            w_p, b_p, a_p, e_p, c_p = pure.svm_fit(*args, False)[:5]
            w_f, b_f, a_f, e_f, c_f = compiled_kernels.svm_fit(*args, False)[:5]
            # Identical visit order and update rules; only the dot-product
            # summation order differs, so results agree to float noise.
            assert e_p == e_f
            assert c_p == c_f
            np.testing.assert_allclose(w_p, w_f, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(a_p, a_f, rtol=1e-9, atol=1e-12)
            assert b_p == pytest.approx(b_f, rel=1e-9, abs=1e-12)

    def test_two_point_problem_matches_exactly(self, compiled_kernels):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int32)
        data = np.array([1.0, 1.0])
        y = np.array([1.0, -1.0])
        args = (indptr, indices, data, y, 2, 100.0, 1e-4, 1000, 0)
        out_pure = pure.svm_fit(*args, False)
        out_fast = compiled_kernels.svm_fit(*args, False)
        assert np.array_equal(out_pure[0], out_fast[0])
        assert out_pure[1] == out_fast[1]
        assert out_pure[3] == out_fast[3]


SVM_TEST_EPOCHS = 20000


@st.composite
def svm_problems(draw):
    """A CSR problem for ``svm_fit`` with its C and seed, and whether every
    row has one nonzero.

    2-40 rows of 1-8 nonzeros in (0.1, 1) over 1-60 features, labelled by
    the sign of a random +-1 weighting of the features, so the rows are
    linearly separable and the fits converge well inside the cap.  C spans
    1e-2 to 1e3, so fits end with rows at alpha = 0, at alpha = C and in
    between, and seeds include some at or above 2**63.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    single = draw(st.booleans())
    n, dim = int(rng.integers(2, 41)), int(rng.integers(1, 61))
    nnz = np.ones(n, dtype=np.int64) if single else rng.integers(1, min(8, dim) + 1, n)
    indptr = np.concatenate([[0], np.cumsum(nnz)]).astype(np.int64)
    indices = np.concatenate(
        [np.sort(rng.choice(dim, k, replace=False)) for k in nnz]
    ).astype(np.int32)
    data = rng.uniform(0.1, 1.0, size=len(indices))
    sides = rng.choice([-1.0, 1.0], size=dim)
    scores = np.bincount(
        np.repeat(np.arange(n), nnz), weights=data * sides[indices], minlength=n
    )
    y = np.where(scores >= 0.0, 1.0, -1.0)
    C = float(10.0 ** rng.uniform(-2.0, 3.0))
    seed = draw(st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1)))
    return (indptr, indices, data, y, dim, C, 1e-4, SVM_TEST_EPOCHS, seed), single


class TestSvmShrinking:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(problem=svm_problems())
    def test_compiled_matches_pure(self, compiled_kernels, problem):
        # Shrinking decides on each gradient, so a last-ulp difference in a
        # dot product could change which rows a pass visits; the passes and
        # the solution must still agree.
        args, single = problem
        w_p, b_p, a_p, e_p, c_p = pure.svm_fit(*args)[:5]
        w_f, b_f, a_f, e_f, c_f = compiled_kernels.svm_fit(*args)[:5]
        assert (e_p, c_p) == (e_f, c_f)
        if single:
            # One product per dot: both kernels round identically.
            assert np.array_equal(w_p, w_f) and np.array_equal(a_p, a_f)
            assert b_p == b_f
        np.testing.assert_allclose(w_p, w_f, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a_p, a_f, rtol=1e-9, atol=1e-12)
        assert b_p == pytest.approx(b_f, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(problem=svm_problems())
    def test_reaches_the_unshrunk_optimum(self, problem):
        args, _single = problem
        indptr, indices, data, y, _dim, C = args[:6]
        gaps, primals = [], []
        for fit in (pure.svm_fit, svm_fit_unshrunk_oracle):
            w, wb, alpha, _epochs, converged = fit(*args)[:5]
            assert converged
            primal, dual = pure.objectives(indptr, indices, data, y, w, wb, C, alpha)
            primals.append(primal)
            gaps.append(primal - dual)
        assert abs(primals[0] - primals[1]) <= max(gaps) + 1e-12


def test_trees_identical_across_implementations_when_compiled_present(
    compiled_kernels, monkeypatch
):
    # Building the same forest against each implementation must give the
    # same trees bit for bit, because split statistics use integer counts.
    import json

    from helpers import make_marker_corpus
    from webcred.forest import train_random_forest
    from webcred.textprep import build_vocabulary, fit_tfidf, transform

    docs, labels = make_marker_corpus(40, seed=21)
    vocab = build_vocabulary(docs, min_df=1, stopwords=())
    tfidf = fit_tfidf(docs, vocab)
    X = [transform(d, tfidf) for d in docs]

    monkeypatch.setattr(_kernels, "node_best_split", pure.node_best_split)
    with_pure = train_random_forest(X, labels, seed=33).to_dict()
    monkeypatch.setattr(_kernels, "node_best_split", compiled_kernels.node_best_split)
    with_compiled = train_random_forest(X, labels, seed=33).to_dict()
    assert json.dumps(with_pure) == json.dumps(with_compiled)
