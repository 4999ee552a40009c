import math
import random

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import clean_text_oracle, dense_tfidf_oracle, make_random_token_docs
from webcred.errors import DataError
from webcred.textprep import (
    STOPWORDS,
    SparseVector,
    build_vocabulary,
    clean_text,
    fit_tfidf,
    to_csr,
    to_dense,
    tokenize,
    transform,
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
