"""Pure numpy implementations of the hot training kernels.

These are the import-time fallback for the C kernels in ``kernels.c``
and the reference those are tested against.  The tree-split kernel
computes all split statistics from integer class counts with the same
floating-point expressions as ``kernels.c``, so both produce bit-identical
trees.  The SVM kernel follows the same update sequence but accumulates
dot products through BLAS, so its weights can differ from ``kernels.c``
in the last few ulps.  A shrink bound inside the tolerance shrinks
nothing, which removes the common case where the sign of a ~1e-16 residue
decides a whole bound; a gradient within ulps of a nonzero bound can still
be shrunk by one kernel and visited by the other, so the passes the two
run can differ (0 of 2,000 random test problems did).
``objectives`` evaluates the SVM's primal and dual
objectives; the pure kernel's per-epoch histories and the duality gap that
``svm.train_linear_svm`` reports both come from it (``kernels.c`` keeps its
own C twin for its histories).
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import SplitMix64


def svm_fit(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    y: np.ndarray,
    dim: int,
    C: float,
    tol: float,
    max_epochs: int,
    seed: int,
    record_objective: bool = False,
):
    """Dual coordinate descent for the L1-loss linear SVM, with shrinking.

    Solves min 1/2 ||w||^2 + C sum max(0, 1 - y_i f(x_i)) with the bias
    realised as a constant augmented feature (so it is regularized too).
    y must be +-1.  Returns (w, bias, alpha, epochs_run, converged,
    primal_history, dual_history); histories are None unless requested.

    Shrinking follows LIBLINEAR (Hsieh et al., ICML 2008, section 3.2; Fan
    et al., JMLR 2008): each pass visits the active rows, the prefix
    ``order[:active]``, in a fresh shuffle.  A row at alpha = 0 whose
    gradient exceeds the previous pass's largest projected gradient, or at
    alpha = C below its smallest, is swapped behind the active prefix and
    skipped until the active set meets ``tol``; then every row is
    reactivated for a full pass.  A largest (smallest) projected gradient
    inside ``tol`` shrinks nothing at alpha = 0 (alpha = C) in the next
    pass.  Only a full pass whose largest |PG| is under ``tol`` converges,
    so the stopping rule is that of the unshrunk loop.  ``epochs_run``
    counts passes, partial ones included, and ``max_epochs`` caps them.
    """
    n = len(y)
    w = np.zeros(dim)
    wb = 0.0
    # The hot loop is bound by interpreter overhead, not arithmetic: each
    # row's (cols, vals, y_i, Q_ii) is sliced once with the scalars as
    # Python floats, the dot uses ndarray.dot (the same routine as ``@`` for
    # 1-D operands, with less dispatch), w is gathered with ``take`` and
    # scattered with ``put`` (cheaper calls than ``w[cols]`` indexing, same
    # values) and the update reuses the gathered row.  Q_ii = x_i . x_i + 1
    # for the augmented bias feature.
    rows = []
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        vals = data[lo:hi]
        rows.append((indices[lo:hi], vals, float(y[i]), float(vals @ vals + 1.0)))
    alpha = [0.0] * n
    order = list(range(n))
    active = n
    pg_max_old, pg_min_old = math.inf, -math.inf
    rng = SplitMix64(seed)
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    epochs_run = 0
    converged = False
    for _ in range(max_epochs):
        prefix = order[:active]
        rng.shuffle(prefix)
        order[:active] = prefix
        pg_max, pg_min = -math.inf, math.inf
        pos = 0
        while pos < active:
            i = order[pos]
            cols, vals, yi, qi = rows[i]
            w_row = w.take(cols)
            g = yi * (float(vals.dot(w_row)) + wb) - 1.0
            a = alpha[i]
            if a <= 0.0:
                if g > pg_max_old:
                    active -= 1
                    order[pos], order[active] = order[active], i
                    continue
                pg = min(g, 0.0)
            elif a >= C:
                if g < pg_min_old:
                    active -= 1
                    order[pos], order[active] = order[active], i
                    continue
                pg = max(g, 0.0)
            else:
                pg = g
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            pos += 1
            if pg != 0.0:
                a_new = min(max(a - g / qi, 0.0), C)
                d = (a_new - a) * yi
                if d != 0.0:
                    w.put(cols, w_row + d * vals)
                    wb += d
                    alpha[i] = a_new
        epochs_run += 1
        if record_objective:
            primal, dual = objectives(indptr, indices, data, y, w, wb, C, alpha)
            primal_hist.append(primal)
            dual_hist.append(dual)
        if max(pg_max, -pg_min) < tol:
            if active == n:
                converged = True
                break
            active = n
            pg_max_old, pg_min_old = math.inf, -math.inf
            continue
        # A bound inside the tolerance counts as no bound, as LIBLINEAR
        # counts one of the wrong sign: it is rounding noise from a free
        # row's just-updated gradient, and its sign would decide whether a
        # pass shrinks every row at that bound or none.
        pg_max_old = pg_max if pg_max >= tol else math.inf
        pg_min_old = pg_min if pg_min <= -tol else -math.inf
    return (
        w,
        wb,
        np.array(alpha),
        epochs_run,
        converged,
        primal_hist if record_objective else None,
        dual_hist if record_objective else None,
    )


def objectives(indptr, indices, data, y, w, wb, C, alpha) -> tuple[float, float]:
    """(primal, dual) objectives of the problem ``svm_fit`` solves, at
    weights (w, wb) and dual variables ``alpha``, in O(nnz).

    The primal is 1/2 (||w||^2 + wb^2) + C sum max(0, 1 - y_i (w.x_i + wb))
    and the dual sum(alpha) - 1/2 (||w||^2 + wb^2).
    """
    n = len(y)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    scores = np.bincount(rows, weights=data * w[indices], minlength=n)
    hinge = np.maximum(0.0, 1.0 - y * (scores + wb))
    reg = 0.5 * (float(w @ w) + wb * wb)
    return reg + C * float(np.sum(hinge)), float(np.sum(alpha)) - reg


# Candidate features are scored in blocks of at most this many node values
# (``_BLOCK_ELEMENTS // m`` features of an m-row node), which keeps each
# block's sort and Gini arrays small enough to stay in cache.
_BLOCK_ELEMENTS = 2**14


def node_best_split(
    X: np.ndarray, rows: np.ndarray, feats: np.ndarray, y: np.ndarray
) -> tuple[int, float, float]:
    """Best Gini split of a tree node over the candidate features.

    Evaluates every boundary between distinct consecutive sorted values of
    each feature in ``feats``, choosing the split with the smallest
    (n_left*gini_left + n_right*gini_right)/n.  Ties keep the earlier
    candidate (first feature, then smallest threshold).  Returns
    (feature, threshold, weighted_gini), or (-1, 0.0, inf) when no feature
    admits a valid split.

    The features are scored a block at a time, each block laid out
    feature-major (features x rows): one stable row-wise argsort and
    cumsum give the class-1 count left of every position of every feature
    in the block, ``np.nonzero`` lists the boundaries in (feature,
    position) order, and ``argmin`` over their scores picks the first
    feature, then the smallest threshold.  A later block wins only with a
    strictly smaller score.
    """
    m = len(rows)
    best_feat, best_thr, best_score = -1, 0.0, np.inf
    if m < 2:  # no boundary, and an empty node has no block size
        return best_feat, best_thr, best_score
    labels = y[rows].astype(np.int64)
    total1 = int(labels.sum())
    block_size = max(1, _BLOCK_ELEMENTS // m)
    for start in range(0, len(feats), block_size):
        block = feats[start : start + block_size]
        values = X.T[block[:, None], rows]
        order = np.argsort(values, axis=1, kind="stable")
        v = np.take_along_axis(values, order, axis=1)
        cum1 = np.cumsum(labels[order], axis=1)
        feat_at, boundaries = np.nonzero(v[:, :-1] != v[:, 1:])
        if boundaries.size == 0:
            continue
        n_left = boundaries + 1
        c1_left = cum1[feat_at, boundaries]
        c0_left = n_left - c1_left
        n_right = m - n_left
        c1_right = total1 - c1_left
        c0_right = n_right - c1_right
        # Explicit p*p (not **2) so kernels.c can reproduce the
        # exact same float64 operations.
        p0l, p1l = c0_left / n_left, c1_left / n_left
        p0r, p1r = c0_right / n_right, c1_right / n_right
        gini_left = 1.0 - p0l * p0l - p1l * p1l
        gini_right = 1.0 - p0r * p0r - p1r * p1r
        weighted = (n_left * gini_left + n_right * gini_right) / m
        j = int(np.argmin(weighted))
        if weighted[j] < best_score:
            f, i = feat_at[j], boundaries[j]
            thr = (v[f, i] + v[f, i + 1]) / 2.0
            if thr == v[f, i + 1]:
                thr = v[f, i]
            best_feat, best_thr, best_score = (
                int(block[f]), float(thr), float(weighted[j])
            )
    return best_feat, best_thr, best_score
