"""Pure numpy implementations of the hot training kernels.

These are the import-time fallback for the C kernels in ``kernels.c``
and the reference those are tested against.  Both kernels are bound by
the cost of each numpy call, not by arithmetic, so they make as few
calls as they can: the tree-split kernel scores a whole batch of nodes
(one lockstep step of a forest) with one pass of array operations, and
the SVM kernel indexes through intp columns and shuffles with
``SplitMix64.shuffle``, which draws ahead.  The tree-split kernel
computes all split statistics from integer class counts with the same
floating-point expressions as ``kernels.c``, so both produce
bit-identical trees.  The SVM kernel follows the same update sequence but
accumulates dot products through BLAS, so its weights can differ from
``kernels.c`` in the last few ulps.  A shrink bound inside the tolerance
shrinks nothing, which removes the common case where the sign of a ~1e-16 residue
decides a whole bound; a gradient within ulps of a nonzero bound can still
be shrunk by one kernel and visited by the other, so the passes the two
run can differ (0 of 2,000 random test problems did).
``objectives`` evaluates the SVM's primal and dual objectives; the
duality gap that ``svm.train_linear_svm`` reports comes from it.
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
):
    """Dual coordinate descent for the L1-loss linear SVM, with shrinking.

    Solves min 1/2 ||w||^2 + C sum max(0, 1 - y_i f(x_i)) with the bias
    realised as a constant augmented feature (so it is regularized too).
    y must be +-1.  Returns (w, bias, alpha, epochs_run, converged).

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
    # Python floats and the columns as intp (numpy converts int32 indices
    # on every gather and scatter otherwise), the dot uses ndarray.dot (the
    # same routine as ``@`` for 1-D operands, with less dispatch) and the
    # update reuses the gathered row.  Q_ii = x_i . x_i + 1 for the
    # augmented bias feature.
    indices = np.asarray(indices, dtype=np.intp)
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
            w_row = w[cols]
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
                    w[cols] = w_row + d * vals
                    wb += d
                    alpha[i] = a_new
        epochs_run += 1
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
    return w, wb, np.array(alpha), epochs_run, converged


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


# Nodes are scored in blocks of at most this many padded values (nodes x
# features x rows); a node too large for a block on its own is scored
# ``_BLOCK_ELEMENTS // m`` features of its m rows at a time.  That keeps
# each block's sort and Gini arrays small enough to stay in cache, and
# memory bounded however large the nodes grow.
_BLOCK_ELEMENTS = 2**14


def node_best_split(
    X: np.ndarray, rows: np.ndarray, feats: np.ndarray, y: np.ndarray
) -> tuple[int, float, float]:
    """Best Gini split of one tree node: :func:`node_best_splits` for a
    batch of one node."""
    return node_best_splits(X, [rows], np.asarray(feats).reshape(1, -1), y)[0]


def node_best_splits(
    X: np.ndarray, rows: list[np.ndarray], feats: np.ndarray, y: np.ndarray
) -> list[tuple[int, float, float]]:
    """Best Gini split of each tree node, node i holding the rows
    ``rows[i]`` of X and the candidate features ``feats[i]`` (feats is
    nodes x k).

    Evaluates every boundary between distinct consecutive sorted values of
    each candidate feature, choosing the split with the smallest
    (n_left*gini_left + n_right*gini_right)/n.  Ties keep the earlier
    candidate (first feature, then smallest threshold).  Returns one
    (feature, threshold, weighted_gini) per node, or (-1, 0.0, inf) when no
    feature admits a valid split.

    Consecutive nodes of at least 2 rows are scored together, a block at a
    time.  A block is laid out (nodes x features x rows), each node padded
    to the block's largest node with +inf, which sorts after every value
    and so leaves the boundaries of the node's own rows unchanged.  Values
    are gathered from X through flat indices; one argsort and cumsum along
    the rows give the class-1 count left of every position, Gini scores
    are computed at the boundaries only, and each node's ``argmin`` over
    its (feature, position) scores, +inf off the boundaries, picks its
    first feature, then its smallest threshold.  A later block of a node's
    features wins only with a strictly smaller score.
    """
    X = np.ascontiguousarray(X)
    feats = np.asarray(feats)
    best = [(-1, 0.0, np.inf)] * len(rows)
    k = feats.shape[1]
    if k == 0:
        return best
    groups: list[list[int]] = []
    width = 0
    for i, node in enumerate(rows):
        m = len(node)
        if m < 2:  # no boundary
            continue
        if groups and (len(groups[-1]) + 1) * k * max(width, m) <= _BLOCK_ELEMENTS:
            groups[-1].append(i)
            width = max(width, m)
        else:
            groups.append([i])
            width = m
    for group in groups:
        _score_group(X, [rows[i] for i in group], feats[group], y, group, best)
    return best


def _score_group(X, rows, feats, y, nodes, best) -> None:
    """Update ``best[nodes[g]]`` with the best split of node g of the group.

    Counts are held as float64, which represents them exactly, so each
    division below is the one the per-feature loop makes on int64 counts.
    The sort need not be stable: the sorted values, and the class-1 count
    left of a boundary between two distinct values, do not depend on the
    order of equal values.
    """
    n_nodes, k = feats.shape
    n_features = X.shape[1]
    lens = np.array([len(r) for r in rows])
    width = int(lens.max())
    real = np.arange(width) < lens[:, None]
    node_rows = np.zeros((n_nodes, width), dtype=np.intp)
    node_rows[real] = np.concatenate(rows)
    labels = np.zeros((n_nodes, width))
    labels[real] = y[node_rows[real]]
    row_offsets = node_rows[:, None, :] * n_features
    pad = ~real[:, None, :]
    # Position i of a node has i + 1 rows on its left; the one after its
    # last row (before the padding) is not a boundary.
    inside = np.arange(1, width) < lens[:, None, None]
    m = lens.astype(np.float64)
    total1 = labels.sum(axis=1)
    label_base = (np.arange(n_nodes) * width)[:, None, None]
    block_size = max(1, _BLOCK_ELEMENTS // (n_nodes * width))
    x_flat = X.ravel()
    for start in range(0, k, block_size):
        block = feats[:, start : start + block_size]
        kb = block.shape[1]
        values = x_flat.take(row_offsets + block[:, :, None])
        np.copyto(values, np.inf, where=pad)
        order = values.argsort(axis=2)
        value_base = (np.arange(n_nodes * kb) * width).reshape(n_nodes, kb, 1)
        v = values.ravel().take(order + value_base)
        cum1 = labels.ravel().take(order + label_base).cumsum(axis=2)
        # Boundary b lies in row r = b // (width - 1) of the (node, feature)
        # rows, at position pos, which is flat index b + r of v and cum1.
        b = np.flatnonzero((v[:, :, 1:] != v[:, :, :-1]) & inside)
        if b.size == 0:
            continue
        r = b // (width - 1)
        b_node = r // kb
        at = b + r
        n_left = (b - r * (width - 1)) + 1.0
        n = m.take(b_node)
        n_right = n - n_left
        c1_left = cum1.ravel().take(at)
        c0_left = n_left - c1_left
        c1_right = total1.take(b_node) - c1_left
        c0_right = n_right - c1_right
        # Explicit p*p (not **2) so kernels.c can reproduce the
        # exact same float64 operations.
        p0l, p1l = c0_left / n_left, c1_left / n_left
        p0r, p1r = c0_right / n_right, c1_right / n_right
        gini_left = 1.0 - p0l * p0l - p1l * p1l
        gini_right = 1.0 - p0r * p0r - p1r * p1r
        weighted = (n_left * gini_left + n_right * gini_right) / n
        # Scattered back over all positions, +inf off the boundaries, each
        # node's argmin is its first minimum in (feature, position) order.
        scores = np.full(n_nodes * kb * (width - 1), np.inf)
        scores[b] = weighted
        j = scores.reshape(n_nodes, -1).argmin(axis=1)
        j += np.arange(n_nodes) * (kb * (width - 1))
        score = scores.take(j)
        jr = j // (width - 1)
        lo = v.ravel().take(j + jr)
        hi = v.ravel().take(j + jr + 1)
        thr = (lo + hi) / 2.0
        thr = np.where(thr == hi, lo, thr)
        feat = block.take(jr)
        for node, f, t, sc in zip(nodes, feat.tolist(), thr.tolist(), score.tolist()):
            if sc < best[node][2]:
                best[node] = (f, t, sc)
