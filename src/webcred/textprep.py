"""Text cleaning, tokenization, vocabulary pruning, and l1-normalized TF-IDF.

Features are unigram TF-IDF weights with the smoothed inverse document
frequency idf(t) = ln((1+N)/(1+df(t))) + 1, l1-normalized per document.
The fitted model records its formula, stop-word list, and pruning floor so
a persisted model file fully determines the feature space.

A tokenized document is read only through its term counts: the vocabulary
through the set of its terms, ``transform`` through ``Counter(tokens)``.
So a ``Counter`` of a document's tokens gives the same result as the token
list, and callers that read a document many times pass its ``Counter``.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, json_number

DEFAULT_MIN_DF = 2

IDF_FORMULA = "smooth_ln_plus1"
NORM = "l1"

# ~150 high-frequency English function words; pruned from every vocabulary.
STOPWORDS = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by can could did do does doing
down during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more
most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with would you your yours yourself yourselves also among away back
came come get goes going got made make many may might much must
never new often old one said says see seen shall still take taken them
upon us use used using way well went without yet
""".split())

_TOKEN = re.compile(r"[a-z0-9]+")
_WHITESPACE = re.compile(r"\s+")
# Everything that is neither printable ASCII nor whitespace.
_DROPPED = re.compile(r"[^\x20-\x7e\s]+")


def clean_text(raw: str) -> str:
    """Lowercase, strip non-ASCII symbols/emoji, collapse whitespace runs."""
    return _WHITESPACE.sub(" ", _DROPPED.sub("", raw.lower())).strip()


def tokenize(cleaned: str) -> list[str]:
    """Unigram terms: alphanumeric runs, length >= 2, not purely numeric."""
    return [t for t in _TOKEN.findall(cleaned) if len(t) >= 2 and not t.isdigit()]


@dataclass
class Vocabulary:
    """Dense term -> feature index map with document frequencies, and the
    pruning floor and stop-word list it was built with."""

    index: dict[str, int]
    df: dict[str, int]
    n_docs: int
    min_df: int
    stopwords: frozenset[str]

    def __len__(self) -> int:
        return len(self.index)

    @property
    def terms(self) -> list[str]:
        return sorted(self.index, key=self.index.get)


@dataclass
class TfIdfModel:
    vocabulary: Vocabulary
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.vocabulary)

    def to_dict(self) -> dict:
        vocab = self.vocabulary
        return {
            "schema_version": 1,
            "idf_formula": IDF_FORMULA,
            "norm": NORM,
            "stopwords": sorted(vocab.stopwords),
            "min_df": vocab.min_df,
            "n_docs": vocab.n_docs,
            "vocab": [
                {"term": t, "index": vocab.index[t], "df": vocab.df[t]}
                for t in vocab.terms
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TfIdfModel":
        """Inverse of :meth:`to_dict`.  Raises DataError unless the norm is
        l1 (the one ``transform`` applies), the counts are integers and the
        vocab indices number the V terms 0..V-1, each once."""
        if data.get("idf_formula") != IDF_FORMULA:
            raise DataError(f"unsupported idf formula: {data.get('idf_formula')!r}")
        norm = data.get("norm", NORM)
        if norm != NORM:
            raise DataError(f"unsupported norm {norm!r}: features are l1-normalized")
        index: dict[str, int] = {}
        df: dict[str, int] = {}
        for row in data["vocab"]:
            term = row["term"]
            index[term] = json_number(row["index"], f"index of {term!r}", integer=True)
            df[term] = json_number(row["df"], f"df of {term!r}", integer=True)
        if sorted(index.values()) != list(range(len(data["vocab"]))):
            raise DataError("vocab indices must number the terms 0..V-1, each once")
        n_docs = json_number(data["n_docs"], "n_docs", integer=True)
        min_df = json_number(data.get("min_df", DEFAULT_MIN_DF), "min_df", integer=True)
        vocab = Vocabulary(
            index=index, df=df, n_docs=n_docs, min_df=min_df,
            stopwords=frozenset(data.get("stopwords", [])),
        )
        return cls(vocabulary=vocab, idf=_idf_from_vocab(vocab))


@dataclass
class SparseVector:
    """L1-normalized feature vector; indices strictly increasing."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim)
        dense[self.indices] = self.values
        return dense

    def l1(self) -> float:
        return float(np.abs(self.values).sum())


def document_frequency(docs: Iterable[Iterable[str]]) -> Counter:
    """The number of ``docs`` each term occurs in."""
    return Counter(term for tokens in docs for term in set(tokens))


def build_vocabulary(
    docs: Sequence[Sequence[str]],
    min_df: int = DEFAULT_MIN_DF,
    stopwords: Iterable[str] = STOPWORDS,
) -> Vocabulary:
    """Vocabulary over tokenized docs, minus stop-words and rare terms.

    Indices are assigned in lexicographic term order, so the feature space
    is a pure function of the corpus.
    """
    if not docs:
        raise DataError("cannot build a vocabulary from an empty corpus")
    stop = frozenset(stopwords)
    df = document_frequency(docs)
    kept = sorted(t for t, n in df.items() if n >= min_df and t not in stop)
    return Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        df={t: df[t] for t in kept},
        n_docs=len(docs),
        min_df=min_df,
        stopwords=stop,
    )


def _idf_from_vocab(vocab: Vocabulary) -> np.ndarray:
    n = vocab.n_docs
    idf = np.empty(len(vocab))
    for term, i in vocab.index.items():
        df = vocab.df[term]
        if not 1 <= df <= n:
            raise DataError(f"term {term!r} has df={df}, outside 1..{n}")
        idf[i] = math.log((1 + n) / (1 + df)) + 1.0
    return idf


def fit_tfidf(docs: Sequence[Sequence[str]], vocab: Vocabulary) -> TfIdfModel:
    """Fit idf(t) = ln((1+N)/(1+df(t))) + 1 over the vocabulary terms."""
    if not docs:
        raise DataError("cannot fit TF-IDF on an empty corpus")
    return TfIdfModel(vocabulary=vocab, idf=_idf_from_vocab(vocab))


def transform(tokens: Sequence[str], model: TfIdfModel) -> SparseVector:
    """TF-IDF vector of one tokenized document, l1-normalized.

    Out-of-vocabulary terms are ignored; a document with no in-vocabulary
    terms maps to the zero vector.
    """
    index = model.vocabulary.index
    pairs = sorted((index[t], n) for t, n in Counter(tokens).items() if t in index)
    indices = np.array([i for i, _ in pairs], dtype=np.int32)
    values = np.array([n for _, n in pairs], dtype=np.float64) * model.idf[indices]
    values /= values.sum()
    return SparseVector(indices=indices, values=values, dim=model.dim)


def to_csr(vectors: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Stack sparse vectors into CSR arrays (indptr, indices, data, dim)."""
    if not vectors:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32), np.empty(0), 0
    dim = vectors[0].dim
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        if v.dim != dim:
            raise DataError("sparse vectors have mixed dimensions")
        indptr[i + 1] = indptr[i] + len(v.indices)
    indices = np.concatenate([v.indices for v in vectors])
    data = np.concatenate([v.values for v in vectors])
    return indptr, indices.astype(np.int32), data.astype(np.float64), dim


def to_dense(vectors: Sequence[SparseVector]) -> np.ndarray:
    """Stack sparse vectors into a dense (n_docs, dim) matrix."""
    if not vectors:
        return np.zeros((0, 0))
    dense = np.zeros((len(vectors), vectors[0].dim))
    for i, v in enumerate(vectors):
        dense[i, v.indices] = v.values
    return dense
