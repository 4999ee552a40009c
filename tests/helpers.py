"""Shared builders for the test suite.

Everything here is deliberately independent of the library internals it
is used to check: the dense TF-IDF oracle works on plain lists, and the
marker corpus is built with the stdlib random module.  The clean-text,
dedupe and split oracles are the straightforward loops the library
replaced with faster equivalents; the dedupe oracle shares only the
library's shingle and Jaccard helpers, the shingle-id oracle is the int32
ranking that the uint16-digit one replaced, and the language oracle shares
only the bundled profile texts.  The SVM objective oracles are the per-row
primal loop and the documented-scale duality gap that the library replaced with
one kernel-scale objective function, and the SVM solver oracle is the
dual coordinate descent loop without shrinking, and the shrinking loop
that gathered and scattered through int32 columns.  The tree oracle is the
one-tree-at-a-time loop that the lockstep forest replaced.  The tweet oracles are the
record parser that the columnar one replaced, which shares only
``normalize_url``, and the columnar parser as it was before it decoded
lines in bulk, which normalizes URLs only through the urlsplit path.  The TF-IDF and predict oracles are the per-page
featurizer and the per-row model walks that the CSR batch path replaced.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Iterable, TextIO

import numpy as np

from webcred._langdata import PROFILE_TEXTS
from webcred.errors import CorruptInputError, DataError
from webcred.ingest import (
    SHINGLE_SIZE,
    TweetTable,
    WebDocument,
    _is_unicode,
    _normalize_url_split,
    _parse_timestamp as _checked_timestamp,
    _shingles,
    jaccard,
    normalize_url,
)
from webcred.forest import ForestModel, Tree, gini_impurity
from webcred.rng import SplitMix64, stream_seed
from webcred.svm import SvmModel
from webcred.textprep import SparseVector, TfIdfModel

_WHITESPACE = re.compile(r"\s+")


FILLER = [
    "apple", "bridge", "candle", "door", "engine", "fabric", "garden",
    "hollow", "island", "jacket", "kernel", "ladder", "marble", "north",
    "orchid", "pencil", "quartz", "ribbon", "saddle", "timber", "umbrella",
    "violet", "walnut", "xylem", "yellow", "zephyr", "anchor", "basket",
    "copper", "dusk",
]

POSITIVE_MARKERS = ["markeralpha", "markerbravo", "markercharlie"]
NEGATIVE_MARKERS = ["markerxray", "markeryankee", "markerzulu"]


def make_marker_corpus(
    n_docs: int, seed: int, fidelity: float = 0.9, doc_len: int = 30
) -> tuple[list[list[str]], list[int]]:
    """Binary-labelled token docs with class-specific marker tokens.

    Each marker is injected independently with probability ``fidelity``
    into documents of its class, on top of shared filler vocabulary, so
    the classes are separable but no single token is a perfect signal.
    """
    rng = random.Random(seed)
    docs: list[list[str]] = []
    labels: list[int] = []
    for i in range(n_docs):
        label = i % 2
        tokens = [rng.choice(FILLER) for _ in range(doc_len)]
        markers = POSITIVE_MARKERS if label else NEGATIVE_MARKERS
        for marker in markers:
            if rng.random() < fidelity:
                tokens.insert(rng.randrange(len(tokens) + 1), marker)
        docs.append(tokens)
        labels.append(label)
    return docs, labels


def make_random_token_docs(
    rng: random.Random, max_docs: int = 10, max_terms: int = 30
) -> list[list[str]]:
    """Small random corpus over a bounded synthetic vocabulary."""
    n_docs = rng.randint(1, max_docs)
    n_terms = rng.randint(1, max_terms)
    pool = [f"term{t:02d}" for t in range(n_terms)]
    docs = []
    for _ in range(n_docs):
        length = rng.randint(0, 40)
        docs.append([rng.choice(pool) for _ in range(length)])
    return docs


def dense_tfidf_oracle(
    docs: list[list[str]], min_df: int, stopwords: frozenset[str] = frozenset()
) -> tuple[list[str], list[list[float]]]:
    """Brute-force reference TF-IDF built over dense Python lists.

    Vocabulary keeps terms that appear in at least ``min_df`` docs and
    are not stop-words, sorted lexicographically.  Weights are raw count
    times ``ln((1+N)/(1+df)) + 1``, then l1-normalized per document.
    """
    n = len(docs)
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    terms = sorted(t for t, c in df.items() if c >= min_df and t not in stopwords)
    idf = [math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms]
    col = {t: j for j, t in enumerate(terms)}
    matrix = []
    for doc in docs:
        row = [0.0] * len(terms)
        for term in doc:
            j = col.get(term)
            if j is not None:
                row[j] += 1.0
        row = [v * idf[j] for j, v in enumerate(row)]
        total = sum(row)
        if total > 0:
            row = [v / total for v in row]
        matrix.append(row)
    return terms, matrix


def transform_oracle(tokens, model: TfIdfModel) -> SparseVector:
    """The per-page TF-IDF vector that ``textprep.transform_docs`` replaced
    with one batch row builder, kept verbatim as the reference: the term
    counts, sorted (feature index, count) pairs, times idf, over their sum."""
    index = model.vocabulary.index
    pairs = sorted((index[t], n) for t, n in Counter(tokens).items() if t in index)
    indices = np.array([i for i, _ in pairs], dtype=np.int32)
    values = np.array([n for _, n in pairs], dtype=np.float64) * model.idf[indices]
    values /= values.sum()
    return SparseVector(indices=indices, values=values, dim=model.dim)


def tree_predict_oracle(tree: Tree, x: np.ndarray) -> int:
    """The scalar walk of one dense row down a tree, that ``Tree`` replaced
    with all rows of a CSR batch descending together."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return 1 if tree.count1[node] >= tree.count0[node] else 0


def forest_predict_oracle(forest: ForestModel, x: SparseVector) -> int:
    """The per-row forest vote: x densified, then every tree walked."""
    dense = x.to_dense()
    votes = sum(tree_predict_oracle(tree, dense) for tree in forest.trees)
    return 1 if 2 * votes >= len(forest.trees) else 0


def svm_decision_oracle(model: SvmModel, x: SparseVector) -> float:
    """The per-row SVM decision w.x + b over the row's stored entries."""
    return float(x.values @ model.weights[x.indices] + model.bias)


def clean_text_oracle(raw: str) -> str:
    """The per-character ``textprep.clean_text`` loop it was replaced by a
    regex equivalent of, kept verbatim as the reference."""
    kept = []
    for ch in raw.lower():
        if ch.isspace():
            kept.append(" ")
        elif 32 <= ord(ch) < 127:
            kept.append(ch)
    return _WHITESPACE.sub(" ", "".join(kept)).strip()


def dedupe_oracle(docs, jaccard_threshold):
    """Brute-force near-duplicate dedupe: the pairwise scan against every
    kept document that ``ingest.dedupe_near_duplicates`` replaced, kept
    verbatim as the reference for the prefix-filtered join."""
    if not 0.0 < jaccard_threshold <= 1.0:
        raise DataError("jaccard_threshold must be in (0, 1]")
    ordered = sorted(docs, key=lambda d: (-d.word_count, d.url))
    kept: list[WebDocument] = []
    kept_shingles: list[frozenset] = []
    for doc in ordered:
        sh = _shingles(doc.text)
        duplicate = False
        for other in kept_shingles:
            # Jaccard is bounded by the size ratio; skip hopeless pairs.
            smaller, larger = sorted((len(sh), len(other)))
            if larger and smaller / larger < jaccard_threshold:
                continue
            if jaccard(sh, other) >= jaccard_threshold:
                duplicate = True
                break
        if not duplicate:
            kept.append(doc)
            kept_shingles.append(sh)
    return sorted(kept, key=lambda d: d.url)


class _WordIds(dict):
    """Word -> int id, the next unused id for each new word."""

    def __missing__(self, word: str) -> int:
        self[word] = value = len(self)
        return value


# The id of the words that pad a short text's one shingle; no word gets it.
_PAD = -1


def shingle_id_sets_oracle(texts: Iterable[str]) -> list[np.ndarray]:
    """The int32 ranking that ``ingest._shingle_id_sets`` replaced with one
    on uint16 digits, kept verbatim as the reference: words get int32 ids
    from 0, a short text is padded with -1, and one ``np.lexsort`` of the
    five int32 id columns ranks the windows.  The ids are array-equal."""
    ids = _WordIds()
    chunks: list[np.ndarray] = []
    bounds: list[tuple[int, int]] = []
    at = 0
    for text in texts:
        words = text.lower().split()
        chunk = np.fromiter(map(ids.__getitem__, words), np.int32, len(words))
        if 0 < len(words) < SHINGLE_SIZE:
            pad = np.full(SHINGLE_SIZE - len(words), _PAD, np.int32)
            chunk = np.concatenate([chunk, pad])
        chunks.append(chunk)
        bounds.append((at, at + max(len(chunk) - SHINGLE_SIZE + 1, 0)))
        at += len(chunk)
    if at == 0:
        return [np.empty(0, np.int32) for _ in bounds]
    # Each temporary is dropped once used, which keeps a call's peak near
    # 25 bytes per word: the word ids, the sort order and the int32 ranks.
    flat = np.concatenate(chunks)
    del chunks
    n_windows = at - SHINGLE_SIZE + 1
    columns = [flat[i : i + n_windows] for i in range(SHINGLE_SIZE)]
    order = np.lexsort(columns[::-1])
    # starts[k]: the k-th window in sorted order differs from the one before.
    starts = np.zeros(n_windows, bool)
    starts[0] = True
    for column in columns:
        ranked = column[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    del columns, flat, ranked
    ranks = np.cumsum(starts, dtype=np.int32 if n_windows < 2**31 else np.int64)
    del starts
    shingle_ids = np.empty_like(ranks)
    shingle_ids[order] = ranks
    del order, ranks
    sets = []
    for lo, hi in bounds:
        row = np.sort(shingle_ids[lo:hi])
        distinct = np.ones(len(row), bool)
        distinct[1:] = row[1:] != row[:-1]
        sets.append(row[distinct])
    return sets


def node_best_split_oracle(X, rows, feats, y):
    """The per-feature loop that ``_kernels.pure.node_best_split`` replaced
    with a blocked pass over all candidate features, kept verbatim as the
    reference: one sort, cumsum and Gini evaluation per feature."""
    m = len(rows)
    labels = y[rows].astype(np.int64)
    total1 = int(labels.sum())
    best_feat, best_thr, best_score = -1, 0.0, np.inf
    for f in feats:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        v = col[order]
        cum1 = np.cumsum(labels[order])
        boundaries = np.nonzero(v[:-1] != v[1:])[0]
        if boundaries.size == 0:
            continue
        n_left = boundaries + 1
        c1_left = cum1[boundaries]
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
            i = boundaries[j]
            thr = (v[i] + v[i + 1]) / 2.0
            if thr == v[i + 1]:
                thr = v[i]
            best_feat, best_thr, best_score = int(f), float(thr), float(weighted[j])
    return best_feat, best_thr, best_score


def build_tree_oracle(X, y, tree_seed, min_impurity_split, split):
    """The one-tree-at-a-time loop that ``forest._grow_trees`` replaced
    with trees grown in lockstep, kept verbatim as the reference except
    that the split kernel ``split`` (a ``node_best_split``) is a parameter:
    one ``sample_without_replacement`` and one split call per impure node,
    depth first, left child first."""
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
        feat, thr, _score = split(X, rows, feats, y)
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


def forest_trees_oracle(X, y, n_estimators, seed, min_impurity_split, split):
    """The trees of ``train_random_forest`` on dense X and int8 labels y,
    built one at a time by :func:`build_tree_oracle`."""
    return [
        build_tree_oracle(X, y, stream_seed(seed, i), min_impurity_split, split)
        for i in range(n_estimators)
    ]


def svm_primal_oracle(indptr, indices, data, y, w, wb, C):
    """The per-row loop that ``_kernels.pure.objectives`` replaced with
    one ``np.bincount`` over all nonzeros, kept verbatim as the reference:
    the primal objective of the problem ``svm_fit`` solves."""
    hinge = 0.0
    for i in range(len(y)):
        lo, hi = indptr[i], indptr[i + 1]
        margin = y[i] * (data[lo:hi] @ w[indices[lo:hi]] + wb)
        if margin < 1.0:
            hinge += 1.0 - margin
    return float(0.5 * (w @ w + wb * wb) + C * hinge)


def svm_fit_unshrunk_oracle(
    indptr, indices, data, y, dim, C, tol, max_epochs, seed
):
    """The dual coordinate descent loop that ``_kernels.pure.svm_fit``
    replaced with one that shrinks, kept verbatim as the reference: every
    epoch visits every row, in a fresh shuffle, and stops once the largest
    projected gradient of an epoch is under ``tol``.  Returns what
    ``svm_fit`` returns."""
    n = len(y)
    w = np.zeros(dim)
    wb = 0.0
    rows = []
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        vals = data[lo:hi]
        rows.append((indices[lo:hi], vals, float(y[i]), float(vals @ vals + 1.0)))
    alpha = [0.0] * n
    order = list(range(n))
    rng = SplitMix64(seed)
    epochs_run = 0
    converged = False
    for _ in range(max_epochs):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            cols, vals, yi, qi = rows[i]
            w_row = w.take(cols)
            g = yi * (float(vals.dot(w_row)) + wb) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if abs(pg) > max_violation:
                max_violation = abs(pg)
            if pg != 0.0:
                a_new = min(max(a - g / qi, 0.0), C)
                d = (a_new - a) * yi
                if d != 0.0:
                    w.put(cols, w_row + d * vals)
                    wb += d
                    alpha[i] = a_new
        epochs_run += 1
        if max_violation < tol:
            converged = True
            break
    return w, wb, np.array(alpha), epochs_run, converged


def svm_fit_take_put_oracle(
    indptr, indices, data, y, dim, C, tol, max_epochs, seed
):
    """The shrinking dual coordinate descent loop that
    ``_kernels.pure.svm_fit`` replaced with one that indexes w through intp
    columns, kept verbatim as the reference: w is gathered with ``take``
    and scattered with ``put`` on the int32 columns.  Returns what
    ``svm_fit`` returns."""
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


def svm_relative_gap_oracle(indptr, indices, data, signs, weights, bias, C, s, alpha):
    """The relative duality gap as ``svm.train_linear_svm`` computed it on
    the documented scale, before it took the gap from the kernel-scale
    objectives, kept verbatim as the reference: (P - D) / max(1, |P|) for
    the documented objective P with bias scale ``s`` and its dual
    D = s^2 sum(alpha) - 1/2 (||w||^2 + s^2 b^2).  ``alpha`` are the
    kernel's dual variables, 1/s^2 times the documented problem's."""
    rows = np.repeat(np.arange(len(signs)), np.diff(indptr))
    scores = np.bincount(rows, weights=data * weights[indices], minlength=len(signs))
    hinge = np.maximum(0.0, 1.0 - signs * (scores + bias))
    reg = 0.5 * (float(weights @ weights) + (s * bias) ** 2)
    primal = reg + C * float(np.sum(hinge))
    dual = s * s * float(np.sum(alpha)) - reg
    return (primal - dual) / max(1.0, abs(primal))


_NON_LETTER = re.compile(r"[^a-zà-öø-ÿœßñçа-яά-ώ]+")


def _trigram_counts(text: str) -> dict[str, int]:
    normalized = " " + _NON_LETTER.sub(" ", text.lower()).strip() + " "
    return Counter([normalized[i : i + 3] for i in range(len(normalized) - 2)])


def _norm(counts: dict[str, int]) -> float:
    return math.sqrt(sum(v * v for v in counts.values()))


def _cosine(a: dict[str, int], norm_a: float, b: dict[str, int], norm_b: float) -> float:
    if not a or not b:
        return 0.0
    small, large = (b, a) if len(b) < len(a) else (a, b)
    dot = sum(v * large[g] for g, v in small.items() if g in large)
    return dot / (norm_a * norm_b)


@lru_cache(maxsize=1)
def _profiles() -> dict[str, tuple[dict[str, int], float]]:
    profiles = {}
    for lang, text in PROFILE_TEXTS.items():
        counts = _trigram_counts(text)
        profiles[lang] = (counts, _norm(counts))
    return profiles


def detect_language_oracle(text: str) -> tuple[str, float]:
    """The trigram-string ``Counter`` detector that
    ``language.detect_language`` replaced with packed integer keys, kept
    verbatim as the reference: the same ``(lang, sim)`` for every text."""
    if len(text) < 20:
        return "und", 0.0
    grams = _trigram_counts(text)
    if not grams:
        return "und", 0.0
    best_lang, best_sim = "und", 0.0
    norm = _norm(grams)
    profiles = _profiles()
    for lang in sorted(profiles):
        sim = _cosine(grams, norm, *profiles[lang])
        if sim > best_sim:
            best_lang, best_sim = lang, sim
    if best_sim == 0.0:
        return "und", 0.0
    return best_lang, best_sim


@dataclass(frozen=True)
class TweetRecord:
    """One tweet or retweet with the posting user's follower count."""

    tweet_id: str
    user_id: str
    follower_count: int
    urls: tuple[str, ...]
    is_retweet: bool
    retweet_of: str | None
    timestamp: datetime

    def __post_init__(self):
        if self.follower_count < 0:
            raise DataError(f"tweet {self.tweet_id}: negative follower_count")
        if self.is_retweet != (self.retweet_of is not None):
            raise DataError(f"tweet {self.tweet_id}: retweet_of must be present iff is_retweet")


def parse_tweets_oracle(stream: Iterable[str] | TextIO) -> tuple[list[TweetRecord], int]:
    """The record parser that ``ingest.parse_tweets`` replaced with one that
    fills columns, kept verbatim as the reference except that it also
    skips a line whose timestamp overflows on conversion to UTC
    (OverflowError) or whose JSON nests too deeply (RecursionError)."""
    records: list[TweetRecord] = []
    skipped = 0
    total = 0
    seen_ids: set[str] = set()
    normalized: dict[str, str] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            records.append(_tweet_from_json(line, seen_ids, normalized))
        except (json.JSONDecodeError, DataError, KeyError, TypeError, ValueError,
                OverflowError, RecursionError):
            skipped += 1
    if total and skipped * 2 > total:
        raise CorruptInputError(f"{skipped}/{total} tweet lines malformed")
    return records, skipped


def _tweet_from_json(
    line: str, seen_ids: set[str], normalized: dict[str, str]
) -> TweetRecord:
    """One tweet record; ``normalized`` maps each raw URL seen so far to its
    normalized form and gains the URLs of this line."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise DataError("tweet record is not an object")
    tweet_id = str(obj["tweet_id"])
    if tweet_id in seen_ids:
        raise DataError(f"duplicate tweet_id {tweet_id}")
    follower_count = obj["follower_count"]
    if not isinstance(follower_count, int) or isinstance(follower_count, bool):
        raise DataError("follower_count must be an integer")
    urls = obj["urls"]
    if not isinstance(urls, list) or not all(isinstance(u, str) for u in urls):
        raise DataError("urls must be a list of strings")
    for raw in urls:
        if raw not in normalized:
            normalized[raw] = normalize_url(raw)
    record = TweetRecord(
        tweet_id=tweet_id,
        user_id=str(obj["user_id"]),
        follower_count=follower_count,
        urls=tuple(normalized[u] for u in urls),
        is_retweet=bool(obj["is_retweet"]),
        retweet_of=None if obj.get("retweet_of") is None else str(obj["retweet_of"]),
        timestamp=_parse_timestamp(obj["timestamp"]),
    )
    seen_ids.add(tweet_id)
    return record


def _parse_timestamp(value: str) -> datetime:
    # Python 3.10's fromisoformat rejects a trailing "Z".
    if not isinstance(value, str):
        raise DataError("timestamp must be an ISO-8601 string")
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_tweets_per_line_oracle(stream: Iterable[str] | TextIO) -> tuple[TweetTable, int]:
    """The loop of ``ingest.parse_tweets`` before it decoded a chunk of
    lines per ``json.loads`` call, kept verbatim as the reference, except
    that each URL is normalized by ``ingest._normalize_url_split``, the
    urlsplit path that ``normalize_url`` had before its plain-URL fast path."""
    tweet_ids: list[str] = []
    user_ids: list[str] = []
    follower_counts: list[int] = []
    url_tuples: list[tuple[str, ...]] = []
    skipped = 0
    total = 0
    seen_ids: set[str] = set()
    # Raw URL -> normalized form; only non-blank strings get in, so a hit
    # for every URL of a line means that they all pass.
    normalized: dict[str, str] = {}
    for line in stream:
        line = line.strip()
        if not line:
            continue
        total += 1
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise DataError("tweet record is not an object")
            tweet_id = str(obj["tweet_id"])
            follower_count = obj["follower_count"]
            urls = obj["urls"]
            if (
                tweet_id in seen_ids
                or not isinstance(follower_count, int)
                or isinstance(follower_count, bool)
                or follower_count < 0
                or not isinstance(urls, list)
                or bool(obj["is_retweet"]) != (obj.get("retweet_of") is not None)
            ):
                raise DataError("invalid tweet record")
            user_id = str(obj["user_id"])
            _checked_timestamp(obj["timestamp"])
            try:
                normalized_urls = tuple([normalized[raw] for raw in urls])
            except (KeyError, TypeError):
                normalized_urls = _split_new_urls(urls, normalized)
            # A lone surrogate can only come from a JSON escape, so a line
            # without a backslash needs no check.  A one-character test runs
            # as a memchr, several times cheaper than a test for "\u".
            if "\\" in line and not all(map(_is_unicode, (tweet_id, user_id, *urls))):
                raise DataError("tweet record is not valid Unicode")
        except (DataError, KeyError, TypeError, ValueError, RecursionError):
            skipped += 1
            continue
        seen_ids.add(tweet_id)
        tweet_ids.append(tweet_id)
        user_ids.append(user_id)
        follower_counts.append(follower_count)
        url_tuples.append(normalized_urls)
    if total and skipped * 2 > total:
        raise CorruptInputError(f"{skipped}/{total} tweet lines malformed")
    return TweetTable(tweet_ids, user_ids, follower_counts, url_tuples), skipped


def _split_new_urls(urls: list, normalized: dict[str, str]) -> tuple[str, ...]:
    if not all(isinstance(raw, str) for raw in urls):
        raise DataError("urls must be a list of strings")
    for raw in urls:
        if raw not in normalized:
            normalized[raw] = _normalize_url_split(raw)[0]
    return tuple([normalized[raw] for raw in urls])
