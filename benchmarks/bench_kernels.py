#!/usr/bin/env python3
"""Compare the compiled kernels against the pure-Python fallback.

Times the two hot kernels (dual coordinate descent and best-split
search) on synthetic data of adjustable size and checks that the
implementations agree on the result, so the benchmark doubles as a
smoke test for the fallback path.  A forest case times
``train_random_forest``, which grows its trees in lockstep with one
``node_best_splits`` call per step, against the one-tree-at-a-time loop
in ``tests/helpers.py``, on each kernel; any tree that differs from the
loop's exits 1.  The split search is also timed
against the per-feature loop in ``tests/helpers.py`` that the pure
kernel's blocked pass replaced, in three regimes: one large node, many
small nodes, and nodes just large enough that the candidate features
are scored in two blocks.  Each split must agree with the loop on
feature, threshold (bit for bit) and score; any disagreement exits 1,
which makes the script an exactness check at sizes the unit tests do
not reach.  The compiled kernels are the shared library built from
``kernels.c`` (``python setup.py build_ext --inplace``); without it
only the pure kernels and the loop are timed.

Usage:
    python3 benchmarks/bench_kernels.py [--docs N] [--features D]
                                        [--node-rows N] [--node-features K]
                                        [--repeats R]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from webcred import _kernels
from webcred._kernels import LIBRARY, pure
from webcred._kernels.compiled import load
from webcred.forest import MIN_IMPURITY_SPLIT, train_random_forest
from webcred.rng import SplitMix64
from webcred.textprep import CsrMatrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import forest_trees_oracle, node_best_split_oracle  # noqa: E402

# Trees in the forest case.
FOREST_TREES = 10

compiled = None
if LIBRARY.exists():
    try:
        compiled = load(LIBRARY)
    except OSError as exc:
        print(f"note: {exc}; timing the pure kernels only", file=sys.stderr)


def make_sparse_problem(n_docs: int, n_features: int, nnz_per_doc: int, seed: int):
    rng = SplitMix64(seed)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    indices = []
    data = []
    y = np.empty(n_docs, dtype=np.float64)
    for i in range(n_docs):
        label = 1.0 if rng.randbelow(2) else -1.0
        y[i] = label
        cols = sorted(rng.sample_without_replacement(n_features - 2, nnz_per_doc))
        # Two class-correlated features make the problem separable enough
        # that the solver does real work instead of thrashing at random.
        cols.append(n_features - 2 if label > 0 else n_features - 1)
        vals = [0.05 + 0.95 * rng.uniform() for _ in cols]
        indices.extend(cols)
        data.extend(vals)
        indptr[i + 1] = len(indices)
    return (
        indptr,
        np.asarray(indices, dtype=np.int32),
        np.asarray(data, dtype=np.float64),
        y,
        n_features,
    )


def make_node_problem(n_rows: int, n_features: int, seed: int):
    rng = SplitMix64(seed)
    X = np.empty((n_rows, n_features), dtype=np.float64)
    for i in range(n_rows):
        for j in range(n_features):
            X[i, j] = rng.uniform()
    y = np.array([rng.randbelow(2) for _ in range(n_rows)], dtype=np.int8)
    rows = np.arange(n_rows, dtype=np.int32)
    feats = np.arange(n_features, dtype=np.int32)
    return X, rows, feats, y


def time_call(fn, *args, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def split_key(split) -> tuple:
    feature, threshold, score = split
    return feature, float(threshold).hex(), score


def time_splits(title: str, calls: list[tuple], repeats: int) -> bool:
    """Time every implementation on the same node calls; True when all
    agree with the per-feature loop on every call."""
    print(title)
    impls = [("pure", pure.node_best_split)]
    if compiled is not None:
        impls.append(("compiled", compiled.node_best_split))

    def run(fn):
        return [split_key(fn(*call)) for call in calls]

    agree = True
    t_loop, want = time_call(run, node_best_split_oracle, repeats=repeats)
    print(f"  loop      {t_loop:8.3f} s")
    for name, fn in impls:
        t, got = time_call(run, fn, repeats=repeats)
        mismatches = sum(g != w for g, w in zip(got, want))
        print(f"  {name:9s} {t:8.3f} s  ({t_loop / t:5.1f}x the loop, "
              f"{mismatches} of {len(calls)} splits differ)")
        agree = agree and mismatches == 0
    if not agree:
        print("  WARNING: implementations disagree")
    return agree


def time_forest(title: str, X: CsrMatrix, y: list[int], n_trees: int, seed: int,
                repeats: int) -> bool:
    """Time the lockstep forest and the one-tree-at-a-time loop on every
    kernel; True when every tree equals the loop's bit for bit."""
    print(title)
    dense, labels = X.to_dense(), np.asarray(y, dtype=np.int8)
    impls = [("pure", pure)]
    if compiled is not None:
        impls.append(("compiled", compiled))
    agree = True
    active = _kernels.node_best_splits
    try:
        for name, impl in impls:
            _kernels.node_best_splits = impl.node_best_splits
            t_loop, want = time_call(
                forest_trees_oracle, dense, labels, n_trees, seed,
                MIN_IMPURITY_SPLIT, impl.node_best_split, repeats=repeats,
            )
            t, forest = time_call(
                train_random_forest, X, y, n_trees, MIN_IMPURITY_SPLIT, seed,
                repeats=repeats,
            )
            mismatches = sum(
                a.to_dict() != b.to_dict() for a, b in zip(forest.trees, want)
            )
            nodes = sum(len(tree.feature) for tree in want)
            print(f"  {name:9s} loop {t_loop:8.3f} s  lockstep {t:8.3f} s  "
                  f"({t_loop / t:5.1f}x, {nodes} nodes, "
                  f"{mismatches} of {n_trees} trees differ)")
            agree = agree and mismatches == 0
    finally:
        _kernels.node_best_splits = active
    if not agree:
        print("  WARNING: lockstep trees differ from the loop's")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=1500)
    parser.add_argument("--features", type=int, default=3000)
    parser.add_argument("--nnz", type=int, default=40)
    parser.add_argument("--node-rows", type=int, default=4000)
    parser.add_argument("--node-features", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernels unavailable; timing the pure fallback only")

    print(f"svm_fit: {args.docs} docs, {args.features} features, "
          f"{args.nnz}+1 nnz/doc, C=1.0")
    problem = make_sparse_problem(args.docs, args.features, args.nnz, args.seed)

    def run_svm(impl):
        indptr, indices, data, y, dim = problem
        return impl.svm_fit(indptr, indices, data, y, dim, 1.0, 1e-4, 200,
                            args.seed, False)

    t_pure, out_pure = time_call(run_svm, pure, repeats=args.repeats)
    print(f"  pure      {t_pure:8.3f} s  ({out_pure[3]} epochs)")
    if compiled is not None:
        t_fast, out_fast = time_call(run_svm, compiled, repeats=args.repeats)
        print(f"  compiled  {t_fast:8.3f} s  ({out_fast[3]} epochs)")
        print(f"  speedup   {t_pure / t_fast:8.1f}x")
        if out_pure[3] != out_fast[3] or not np.allclose(
            out_pure[0], out_fast[0], rtol=1e-6, atol=1e-9
        ):
            print("  WARNING: implementations disagree")
            return 1

    X, rows, feats, y = make_node_problem(args.node_rows, args.node_features,
                                          args.seed + 1)
    agree = time_splits(
        f"node_best_split, large node: {args.node_rows} rows, "
        f"{args.node_features} features",
        [(X, rows, feats, y)],
        args.repeats,
    )

    # Deep trees spend most of their time on small nodes, where per-call
    # overhead dominates; benchmark that regime separately.
    n_small, n_calls = 64, 2000
    small = [
        (X, rows[(k * 17) % (args.node_rows - n_small):][:n_small].copy(), feats, y)
        for k in range(n_calls)
    ]
    agree &= time_splits(
        f"node_best_split, small nodes: {n_calls} calls on {n_small}-row nodes",
        small,
        args.repeats,
    )

    # One row more than a single block holds, drawn with replacement as in
    # a bootstrap, on values rounded to one decimal: the features are
    # scored in two blocks, and equal scores across the block boundary are
    # common.
    n_cross = pure._BLOCK_ELEMENTS // args.node_features + 1
    Xr = np.round(X, 1)
    draws = SplitMix64(args.seed + 2)
    crossing = []
    for _ in range(50):
        boot = draws.next_u64_array(n_cross) % np.uint64(args.node_rows)
        crossing.append((Xr, boot.astype(np.int32), feats, y))
    agree &= time_splits(
        f"node_best_split, block-crossing: 50 calls on {n_cross}-row nodes "
        f"({n_cross * args.node_features} values)",
        crossing,
        args.repeats,
    )

    # The SVM problem's rows, labelled by class, as a forest training set.
    indptr, indices, data, y_svm, dim = problem
    labels = (y_svm > 0).astype(int).tolist()
    agree &= time_forest(
        f"train_random_forest: {FOREST_TREES} trees on the svm_fit problem",
        CsrMatrix(indptr, indices, data, dim), labels, FOREST_TREES, args.seed,
        args.repeats,
    )
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
