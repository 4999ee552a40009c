import math
import random
from collections import Counter

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    clean_text_oracle, dense_tfidf_oracle, make_random_token_docs, transform_oracle
)
from webcred.errors import DataError
from webcred.eval import crossvalidate_criterion
from webcred.stats import term_significance, term_significance_from_df
from webcred.textprep import (
    STOPWORDS,
    CsrMatrix,
    SparseVector,
    TfIdfModel,
    build_vocabulary,
    clean_text,
    document_frequency,
    fit_tfidf,
    intern_pages,
    to_csr,
    to_dense,
    tokenize,
    transform,
    transform_docs,
    transform_pages,
    vocabulary_from_df,
)


UNICODE_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


class TestCleanText:
    def test_lowercases_and_collapses_whitespace(self):
        assert clean_text("Hello   WORLD\n\ttest") == "hello world test"

    def test_strips_non_ascii(self):
        assert clean_text("café ❤ ok") == "caf ok"

    def test_empty_input(self):
        assert clean_text("") == ""
        assert clean_text(" \n ") == ""

    @settings(max_examples=500, deadline=None)
    @given(
        raw=st.text(
            alphabet=st.one_of(
                st.characters(max_codepoint=0x17F),  # ASCII and Latin
                st.characters(min_codepoint=0x1F300, max_codepoint=0x1FAFF),  # emoji
                st.sampled_from(UNICODE_SPACES),
                st.characters(),
            )
        )
    )
    def test_matches_the_per_character_loop(self, raw):
        assert clean_text(raw) == clean_text_oracle(raw)

    # Separators that str.split() and re's \s split at but that are easy to
    # miss: the information separators, NEL, LINE SEPARATOR and the
    # ideographic space, mixed densely with words and ASCII spaces.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        raw=st.text(
            alphabet=st.sampled_from(
                ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000",
                 " ", "\t", "\n", "A", "b", "é"]
            )
        )
    )
    def test_matches_the_loop_on_rare_separators(self, raw):
        assert clean_text(raw) == clean_text_oracle(raw)


class TestTokenize:
    def test_alphanumeric_runs(self):
        assert tokenize("flu-shot h1n1, 2nd dose!") == ["flu", "shot", "h1n1", "2nd", "dose"]

    def test_drops_single_characters_and_pure_numbers(self):
        assert tokenize("a 1 22 333 bc") == ["bc"]


class TestVocabulary:
    def test_rare_terms_dropped_by_min_df(self):
        docs = [["shared", "rare"], ["shared"], ["shared"]]
        vocab = build_vocabulary(docs, min_df=2, stopwords=())
        assert vocab.terms == ["shared"]

    def test_stopwords_removed(self):
        docs = [["the", "vaccine"], ["the", "vaccine"]]
        vocab = build_vocabulary(docs, min_df=1)
        assert "the" in STOPWORDS
        assert vocab.terms == ["vaccine"]

    def test_indices_are_lexicographic(self):
        docs = [["zebra", "apple", "mango"]] * 2
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        assert vocab.terms == ["apple", "mango", "zebra"]
        assert [vocab.index[t] for t in vocab.terms] == [0, 1, 2]

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary([], min_df=1)

    def test_all_terms_filtered_leaves_empty_vocabulary(self):
        vocab = build_vocabulary([["solo"]], min_df=2)
        assert vocab.terms == []


class TestTransform:
    def test_matches_dense_oracle_on_random_corpora(self):
        rng = random.Random(20260814)
        nonempty = 0
        for trial in range(100):
            docs = make_random_token_docs(rng)
            min_df = rng.choice([1, 1, 2])
            expected_terms, expected = dense_tfidf_oracle(docs, min_df)
            vocab = build_vocabulary(docs, min_df=min_df, stopwords=())
            assert vocab.terms == expected_terms
            if not expected_terms:
                continue
            nonempty += 1
            model = fit_tfidf(docs, vocab)
            for doc, want in zip(docs, expected):
                got = transform(doc, model).to_dense()
                assert np.max(np.abs(got - np.asarray(want))) <= 1e-12
        assert nonempty >= 90

    def test_idf_hand_values(self):
        docs = [["a", "b"], ["b", "c"]]
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        idf = {t: model.idf[vocab.index[t]] for t in vocab.terms}
        assert idf["b"] == pytest.approx(1.0, abs=1e-12)
        assert idf["a"] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-12)
        vec = transform(["a", "b"], model).to_dense()
        weight_a = math.log(3 / 2) + 1.0
        total = weight_a + 1.0
        assert vec[vocab.index["a"]] == pytest.approx(weight_a / total, abs=1e-4)
        assert vec[vocab.index["b"]] == pytest.approx(1.0 / total, abs=1e-4)

    def test_idf_decreases_as_df_grows(self):
        docs = [["rare", "common"], ["common"], ["common", "middle"], ["middle"]]
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        idf = {t: model.idf[vocab.index[t]] for t in vocab.terms}
        assert idf["rare"] > idf["middle"] > idf["common"]

    def test_vector_is_l1_normalized(self):
        docs = [["flu", "shot", "flu"], ["shot", "dose"]]
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        vec = transform(docs[0], model)
        assert vec.l1() == pytest.approx(1.0, abs=1e-12)

    def test_out_of_vocabulary_terms_ignored(self):
        docs = [["flu", "shot"], ["flu", "dose"]]
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        with_unknown = transform(["flu", "unseen"], model)
        without = transform(["flu"], model)
        assert np.array_equal(with_unknown.to_dense(), without.to_dense())

    def test_no_known_terms_gives_zero_vector(self):
        docs = [["flu", "shot"]] * 2
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        vec = transform(["unseen"], model)
        assert vec.l1() == 0.0
        assert vec.dim == 2

    def test_model_round_trip_preserves_idf_exactly(self):
        docs = [["flu", "shot", "dose"], ["flu", "dose"], ["flu"]]
        vocab = build_vocabulary(docs, min_df=1, stopwords=())
        model = fit_tfidf(docs, vocab)
        data = model.to_dict()
        assert (data["min_df"], data["stopwords"]) == (1, [])
        restored = type(model).from_dict(data)
        assert restored.vocabulary.terms == vocab.terms
        assert np.array_equal(restored.idf, model.idf)
        assert restored.vocabulary.min_df == 1
        assert restored.vocabulary.stopwords == frozenset()


class TestSparseHelpers:
    def make_vectors(self):
        rng = random.Random(3)
        vectors = []
        for _ in range(6):
            idx = sorted(rng.sample(range(8), rng.randint(0, 4)))
            vectors.append(
                SparseVector(
                    indices=np.asarray(idx, dtype=np.int32),
                    values=np.asarray([rng.random() for _ in idx]),
                    dim=8,
                )
            )
        return vectors

    def test_csr_round_trip(self):
        vectors = self.make_vectors()
        indptr, indices, data, dim = to_csr(vectors)
        assert dim == 8
        assert indptr[0] == 0 and indptr[-1] == len(indices) == len(data)
        dense = to_dense(vectors)
        for i, vec in enumerate(vectors):
            start, end = indptr[i], indptr[i + 1]
            row = np.zeros(8)
            row[indices[start:end]] = data[start:end]
            assert np.array_equal(row, dense[i])
            assert np.array_equal(row, vec.to_dense())


# A small pool, so terms repeat within and across documents; "the" is a
# stop-word.
TERM_POOL = ["dose", "flu", "mask", "shot", "the", "virus", "x1"]
TOKEN_DOCS = st.lists(
    st.lists(st.sampled_from(TERM_POOL), max_size=12), min_size=1, max_size=8
)


class TestTermCounts:
    """A Counter of a document's tokens gives the same result as the list."""

    @settings(max_examples=200, deadline=None)
    @given(docs=TOKEN_DOCS, min_df=st.sampled_from([1, 2]))
    def test_vocabulary_and_vectors(self, docs, min_df):
        counts = [Counter(tokens) for tokens in docs]
        want = build_vocabulary(docs, min_df=min_df)
        got = build_vocabulary(counts, min_df=min_df)
        assert (got.terms, got.index, got.df, got.n_docs) == (
            want.terms, want.index, want.df, want.n_docs
        )
        model = fit_tfidf(docs, want)
        for tokens, count in zip(docs, counts):
            w, g = transform(tokens, model), transform(count, model)
            assert g.indices.dtype == w.indices.dtype
            assert np.array_equal(g.indices, w.indices)
            assert g.values.tobytes() == w.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(low=TOKEN_DOCS, other=TOKEN_DOCS)
    def test_term_significance(self, low, other):
        counted = (
            [Counter(tokens) for tokens in low], [Counter(tokens) for tokens in other]
        )
        assert term_significance(*counted, TERM_POOL) == term_significance(
            low, other, TERM_POOL
        )

    @settings(max_examples=50, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(TERM_POOL), max_size=12), min_size=4, max_size=8
        ),
        family=st.sampled_from(["svm", "rf"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_crossvalidation_scores(self, docs, family, seed):
        labels = [i % 2 for i in range(len(docs))]

        def scores(token_docs):
            try:
                f1s, accs = crossvalidate_criterion(
                    token_docs, labels, family, k=2, seed=seed
                )
            except DataError as exc:
                return str(exc)
            return [v.hex() for v in f1s + accs]

        assert scores([Counter(tokens) for tokens in docs]) == scores(docs)


# Each of the 64 rare terms is 1 draw in 81, so many fall under min_df 2;
# "the" is a stop-word.
BATCH_POOL = (
    [f"term{i:02d}" for i in range(16)] + [f"rare{i:02d}" for i in range(64)] + ["the"]
)
BATCH_DOCS = st.lists(
    st.lists(st.sampled_from(BATCH_POOL), max_size=40), min_size=1, max_size=12
)
# An empty page, pages with no term in the vocabulary (a stop-word, a rare
# term) and a page with more than 8 distinct terms.
EDGE_DOCS = [
    [], ["the", "the"], ["rare00"],
    [f"term{i:02d}" for i in range(12)] * 2, ["term00", "term03"],
]


def assert_same_csr(got: CsrMatrix, want: CsrMatrix) -> None:
    assert got.dim == want.dim
    assert np.array_equal(got.indptr, want.indptr)
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


class TestBatchFeaturizer:
    """Interned pages give the vocabulary and vectors the per-page path
    gives, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(docs=BATCH_DOCS, rows=st.lists(st.integers(0, 11), min_size=1),
           min_df=st.sampled_from([1, 2]), counted=st.booleans())
    @example(docs=EDGE_DOCS, rows=[3, 4, 0, 1, 2], min_df=2, counted=False)
    def test_equals_stacking_the_per_page_transform(
        self, docs, rows, min_df, counted
    ):
        pages = intern_pages([Counter(d) for d in docs] if counted else docs)
        rows = [r % len(docs) for r in rows]
        train = [docs[r] for r in rows]
        vocab = build_vocabulary(pages.select(rows), min_df=min_df)
        want = build_vocabulary(train, min_df=min_df)
        assert (vocab.index, vocab.df, vocab.n_docs) == (want.index, want.df, want.n_docs)
        model = fit_tfidf(train, want)
        # Every page, trained on or held out, as the model sees it.
        assert_same_csr(
            transform_pages(pages, model),
            to_csr([transform_oracle(d, model) for d in docs]),
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(docs=BATCH_DOCS, min_df=st.sampled_from([1, 2]))
    @example(docs=EDGE_DOCS, min_df=2)
    def test_matches_the_dense_oracle(self, docs, min_df):
        pages = intern_pages(docs)
        model = fit_tfidf(pages, build_vocabulary(pages, min_df=min_df))
        terms, matrix = dense_tfidf_oracle(docs, min_df, STOPWORDS)
        assert model.vocabulary.terms == terms
        got = transform_pages(pages, model).to_dense()
        assert got.shape == (len(docs), len(terms))
        if terms:
            assert np.max(np.abs(got - np.asarray(matrix))) <= 1e-12

    def test_select_keeps_the_given_order(self):
        docs = [["flu", "shot"], [], ["dose", "flu", "flu"]]
        pages = intern_pages(docs)
        assert pages.terms == ["dose", "flu", "shot"]
        picked = pages.select([2, 1, 0, 2])
        assert picked.indptr.tolist() == [0, 2, 2, 4, 6]
        assert picked.ids.tolist() == [0, 1, 1, 2, 0, 1]
        assert picked.counts.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, 2.0]

    def test_csr_input_passes_through(self):
        docs = [["flu", "shot"], ["flu"]]
        model = fit_tfidf(docs, build_vocabulary(docs, min_df=1, stopwords=()))
        csr = transform_pages(intern_pages(docs), model)
        assert to_csr(csr) is csr
        assert np.array_equal(to_dense(csr), to_dense(csr.rows()))

    def test_vocabulary_from_df_is_the_document_rule(self):
        docs = [["the", "flu", "shot"], ["flu", "dose"], ["flu", "shot"]]
        for min_df in (1, 2, 3):
            got = vocabulary_from_df(document_frequency(docs), len(docs), min_df)
            want = build_vocabulary(docs, min_df=min_df)
            assert (got.index, got.df, got.n_docs) == (want.index, want.df, want.n_docs)

    def test_term_significance_from_df_is_the_document_count(self):
        low, other = [["flu", "shot"], ["flu"]], [["dose"], ["flu", "dose"], []]
        terms = ["dose", "flu", "shot"]
        assert term_significance_from_df(
            document_frequency(low), 2, document_frequency(other), 3, terms
        ) == term_significance(low, other, terms)


def renumbered(model: TfIdfModel, seed: int | None) -> TfIdfModel:
    """``model`` as read back from a file whose vocab numbers its terms in a
    random order (seed ``seed``), or in their own order for None."""
    data = model.to_dict()
    order = list(range(len(data["vocab"])))
    if seed is not None:
        random.Random(seed).shuffle(order)
    for row, index in zip(data["vocab"], order):
        row["index"] = index
    return TfIdfModel.from_dict(data)


class TestOneFeaturizer:
    """Every front end of the one TF-IDF row builder gives the per-page
    oracle's vectors bit for bit: a fixed model's documents, one document,
    and interned pages."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(docs=BATCH_DOCS, rows=st.lists(st.integers(0, 11), min_size=1),
           min_df=st.sampled_from([1, 2]), counted=st.booleans(),
           order=st.none() | st.integers(0, 2**32 - 1))
    @example(docs=EDGE_DOCS, rows=[3, 4], min_df=2, counted=False, order=None)
    @example(docs=EDGE_DOCS, rows=[3, 4, 3], min_df=1, counted=True, order=7)
    def test_matches_the_per_page_oracle(self, docs, rows, min_df, counted, order):
        train = [docs[r % len(docs)] for r in rows]
        fitted = fit_tfidf(train, build_vocabulary(train, min_df=min_df))
        model = renumbered(fitted, order)
        inputs = [Counter(d) for d in docs] if counted else docs
        want = [transform_oracle(d, model) for d in docs]
        # A one-pass iterator: the documents are read one at a time.
        assert_same_csr(transform_docs(iter(inputs), model), to_csr(want))
        assert_same_csr(transform_pages(intern_pages(inputs), model), to_csr(want))
        assert_same_csr(to_csr([transform(d, model) for d in inputs]), to_csr(want))

    def test_renumbered_vocabulary_keeps_columns_sorted(self):
        docs = [["dose", "flu", "shot", "flu"], ["shot", "mask"], ["virus"]]
        model = fit_tfidf(docs, build_vocabulary(docs, min_df=1, stopwords=()))
        data = model.to_dict()
        # Reverse lexicographic: dose 4, flu 3, mask 2, shot 1, virus 0.
        for row in data["vocab"]:
            row["index"] = len(data["vocab"]) - 1 - row["index"]
        reversed_model = TfIdfModel.from_dict(data)
        got = transform_docs(docs, reversed_model)
        assert got.indices.tolist() == [1, 3, 4, 1, 2, 0]
        assert got.indptr.tolist() == [0, 3, 5, 6]
        want = [transform_oracle(d, reversed_model) for d in docs]
        assert_same_csr(got, to_csr(want))

    def test_no_documents_give_no_rows(self):
        docs = [["flu", "shot"]] * 2
        model = fit_tfidf(docs, build_vocabulary(docs, min_df=1, stopwords=()))
        got = transform_docs([], model)
        assert (got.n_rows, got.dim, len(got.indices)) == (0, 2, 0)
