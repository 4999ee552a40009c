"""Text cleaning, tokenization, vocabulary pruning, and l1-normalized TF-IDF.

Features are unigram TF-IDF weights with the smoothed inverse document
frequency idf(t) = ln((1+N)/(1+df(t))) + 1, l1-normalized per document.
The fitted model records its formula, stop-word list, and pruning floor so
a persisted model file fully determines the feature space.

A tokenized document is read only through its term counts, so a
``Counter`` of a document's tokens gives the same result as the token
list, and callers that read a document many times pass its ``Counter``.

Every featurization ends in one row builder, ``_tfidf_rows``, which turns
per-page (feature index, count) pairs into l1-normalized CSR rows.  Two
front ends feed it.  Model fitting interns its pages once:
``intern_pages`` gives every distinct term a global id, its rank in
lexicographic order, and each page its sorted (ids, counts) arrays; a
vocabulary over any subset of those pages is then one ``np.bincount``, and
``transform_pages`` maps a subset's ids to feature indices.  A fixed
model's pages (``score``, ``evaluate``) go through ``transform_docs``,
which reads them one at a time and keeps only their in-vocabulary counts.
``transform`` is its one-document case.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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
# Everything that is neither printable ASCII nor whitespace.
_DROPPED = re.compile(r"[^\x20-\x7e\s]+")


def clean_text(raw: str) -> str:
    """Lowercase, strip non-ASCII symbols/emoji, collapse whitespace runs."""
    # str.split() splits at exactly the characters re's \s matches.
    return " ".join(_DROPPED.sub("", raw.lower()).split())


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
        l1 (the one the featurizer applies), the counts are integers and the
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


class CsrMatrix(NamedTuple):
    """Sparse rows as CSR arrays: row i has the strictly increasing columns
    ``indices[indptr[i]:indptr[i + 1]]`` with values ``data[...]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dim: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> list[SparseVector]:
        """Each row as a ``SparseVector`` of views into the arrays."""
        bounds = self.indptr.tolist()
        return [
            SparseVector(self.indices[lo:hi], self.data[lo:hi], self.dim)
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.dim))
        row_of = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        dense[row_of, self.indices] = self.data
        return dense


@dataclass
class InternedPages:
    """Pages whose terms are interned: ``terms`` lists every distinct term
    of the pages they were interned from in lexicographic order, so a
    term's global id is its rank, and page i has the distinct terms
    ``ids[indptr[i]:indptr[i + 1]]`` (sorted) with their ``counts``."""

    terms: list[str]
    id_of: dict[str, int]
    indptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def select(self, rows: Sequence[int]) -> "InternedPages":
        """The pages ``rows``, in that order, over the same global ids."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        take = np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        take += np.arange(indptr[-1])
        return InternedPages(
            self.terms, self.id_of, indptr, self.ids[take], self.counts[take]
        )

    def document_frequency(self) -> np.ndarray:
        """The number of these pages each global id occurs in."""
        return np.bincount(self.ids, minlength=len(self.terms))


def intern_pages(docs: Sequence[Sequence[str]]) -> InternedPages:
    """Intern tokenized documents (token lists or their ``Counter``s)."""
    counted = [d if isinstance(d, Counter) else Counter(d) for d in docs]
    terms = sorted(set().union(*counted))
    id_of = {t: i for i, t in enumerate(terms)}
    lengths = [len(c) for c in counted]
    indptr = np.zeros(len(counted) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    ids = np.fromiter((id_of[t] for c in counted for t in c), np.int32, nnz)
    counts = np.fromiter((n for c in counted for n in c.values()), np.float64, nnz)
    # Sort each page's ids; its ids are distinct, so the order is total.
    order = np.lexsort((ids, np.repeat(np.arange(len(counted)), lengths)))
    return InternedPages(terms, id_of, indptr, ids[order], counts[order])


def document_frequency(docs: Iterable[Iterable[str]]) -> Counter:
    """The number of ``docs`` each term occurs in."""
    return Counter(term for tokens in docs for term in set(tokens))


def vocabulary_from_df(
    df: Mapping[str, int],
    n_docs: int,
    min_df: int = DEFAULT_MIN_DF,
    stopwords: Iterable[str] = STOPWORDS,
) -> Vocabulary:
    """Vocabulary of ``n_docs`` documents whose terms occur in ``df[term]``
    of them: the terms with df >= ``min_df`` that are not stop-words.

    Indices are assigned in lexicographic term order, so the feature space
    is a pure function of the corpus.
    """
    if not n_docs:
        raise DataError("cannot build a vocabulary from an empty corpus")
    stop = frozenset(stopwords)
    kept = sorted(t for t, n in df.items() if n >= min_df and t not in stop)
    return Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        df={t: df[t] for t in kept},
        n_docs=n_docs,
        min_df=min_df,
        stopwords=stop,
    )


def build_vocabulary(
    docs: Sequence[Sequence[str]] | InternedPages,
    min_df: int = DEFAULT_MIN_DF,
    stopwords: Iterable[str] = STOPWORDS,
) -> Vocabulary:
    """Vocabulary over tokenized docs or interned pages, minus stop-words
    and terms in fewer than ``min_df`` of them (``vocabulary_from_df``)."""
    pages = docs if isinstance(docs, InternedPages) else intern_pages(docs)
    counts = pages.document_frequency()
    present = np.flatnonzero(counts).tolist()
    df = dict(zip([pages.terms[i] for i in present], counts[present].tolist()))
    return vocabulary_from_df(df, len(pages), min_df, stopwords)


def _idf_from_vocab(vocab: Vocabulary) -> np.ndarray:
    n = vocab.n_docs
    idf = np.empty(len(vocab))
    for term, i in vocab.index.items():
        df = vocab.df[term]
        if not 1 <= df <= n:
            raise DataError(f"term {term!r} has df={df}, outside 1..{n}")
        idf[i] = math.log((1 + n) / (1 + df)) + 1.0
    return idf


def fit_tfidf(
    docs: Sequence[Sequence[str]] | InternedPages, vocab: Vocabulary
) -> TfIdfModel:
    """Fit idf(t) = ln((1+N)/(1+df(t))) + 1 over the vocabulary terms."""
    if not len(docs):
        raise DataError("cannot fit TF-IDF on an empty corpus")
    return TfIdfModel(vocabulary=vocab, idf=_idf_from_vocab(vocab))


def _tfidf_rows(
    indptr: np.ndarray, columns: np.ndarray, counts: np.ndarray, model: TfIdfModel
) -> CsrMatrix:
    """The l1-normalized TF-IDF rows of documents whose row i has the
    distinct feature indices ``columns[indptr[i]:indptr[i + 1]]``, in any
    order, with their term ``counts``."""
    # A vocabulary read from a model file may number its terms in any order.
    # The stable sort (a timsort) of row*dim + column keys is near linear
    # on rows that are already sorted, as a fitted vocabulary's are.
    keys = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64) * model.dim, np.diff(indptr)
    )
    keys += columns
    order = np.argsort(keys, kind="stable")
    del keys  # each array of nnz entries alive at once adds to score's peak
    indices = columns[order].astype(np.int32, copy=False)
    data = model.idf[indices]
    data *= counts[order]
    # Each row over its own sum: that is numpy's pairwise sum, which
    # np.add.reduceat and np.bincount do not reproduce.
    bounds = indptr.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        row = data[lo:hi]
        row /= row.sum()
    return CsrMatrix(indptr, indices, data, model.dim)


def transform_docs(docs: Iterable[Sequence[str]], model: TfIdfModel) -> CsrMatrix:
    """TF-IDF rows of tokenized documents (token lists or their
    ``Counter``s), l1-normalized.

    The documents are read one at a time, so ``docs`` may be a generator,
    and only their in-vocabulary counts are kept.  Out-of-vocabulary terms
    are ignored; a document with no in-vocabulary terms maps to an empty
    (zero) row.
    """
    index = model.vocabulary.index
    ends, columns, counts = array("q", [0]), array("i"), array("i")
    for doc in docs:
        for term, n in (doc if isinstance(doc, Counter) else Counter(doc)).items():
            i = index.get(term)
            if i is not None:
                columns.append(i)
                counts.append(n)
        ends.append(len(columns))
    return _tfidf_rows(
        np.frombuffer(ends, dtype=np.int64),
        np.frombuffer(columns, dtype=np.intc),
        np.frombuffer(counts, dtype=np.intc),
        model,
    )


def transform(tokens: Sequence[str], model: TfIdfModel) -> SparseVector:
    """TF-IDF vector of one tokenized document: ``transform_docs`` of it."""
    return transform_docs([tokens], model).rows()[0]


def transform_pages(pages: InternedPages, model: TfIdfModel) -> CsrMatrix:
    """TF-IDF rows of interned pages, as ``transform_docs`` gives them."""
    index = model.vocabulary.index
    column = np.full(len(pages.terms), -1, dtype=np.int32)
    known = [(pages.id_of[t], i) for t, i in index.items() if t in pages.id_of]
    if known:
        ids, cols = zip(*known)
        column[list(ids)] = cols
    cols = column[pages.ids]
    kept = cols >= 0
    kept_before = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    return _tfidf_rows(kept_before[pages.indptr], cols[kept], pages.counts[kept], model)


def to_csr(vectors: Sequence[SparseVector] | CsrMatrix) -> CsrMatrix:
    """Stack sparse vectors into CSR arrays (indptr, indices, data, dim); a
    ``CsrMatrix`` is returned as it is."""
    if isinstance(vectors, CsrMatrix):
        return vectors
    if not vectors:
        return CsrMatrix(
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32), np.empty(0), 0
        )
    dim = vectors[0].dim
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    for i, v in enumerate(vectors):
        if v.dim != dim:
            raise DataError("sparse vectors have mixed dimensions")
        indptr[i + 1] = indptr[i] + len(v.indices)
    indices = np.concatenate([v.indices for v in vectors])
    data = np.concatenate([v.values for v in vectors])
    return CsrMatrix(indptr, indices.astype(np.int32), data.astype(np.float64), dim)


def to_dense(vectors: Sequence[SparseVector] | CsrMatrix) -> np.ndarray:
    """Stack sparse vectors into a dense (n_docs, dim) matrix."""
    return to_csr(vectors).to_dense()
