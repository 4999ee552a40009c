"""Shared builders for the test suite.

Everything here is deliberately independent of the library internals it
is used to check: the dense TF-IDF oracle works on plain lists, and the
marker corpus is built with the stdlib random module.  The clean-text,
dedupe and split oracles are the straightforward loops the library
replaced with faster equivalents; the dedupe oracle shares only the
library's shingle and Jaccard helpers, and the language oracle only the
bundled profile texts.  The SVM objective oracles are the per-row primal
loop and the documented-scale duality gap that the library replaced with
one kernel-scale objective function.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from functools import lru_cache

import numpy as np

from webcred._langdata import PROFILE_TEXTS
from webcred.errors import DataError
from webcred.ingest import WebDocument, _shingles, jaccard

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
