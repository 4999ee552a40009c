import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import dedupe_oracle, parse_tweets_oracle
from webcred import ingest
from webcred.errors import CorruptInputError, DataError
from webcred.ingest import (
    TweetTable,
    WebDocument,
    contiguous_word_count,
    dedupe_near_duplicates,
    filter_corpus,
    intersect_urlsets,
    jaccard,
    load_webpages,
    normalize_url,
    normalize_url_checked,
    parse_tweets,
)

ENGLISH_BLOCK = (
    "The committee published the final report this week and the schools were "
    "asked to review it with their staff before the meeting on Monday morning."
)

FRENCH_BLOCK = (
    "Les enfants sont arrivés à l'école ce matin avec leurs parents et les "
    "professeurs ont expliqué que la réunion aurait lieu dans la grande salle "
    "après le déjeuner parce que les travaux ne sont pas encore terminés. "
) * 8


def make_doc(url: str, text: str) -> WebDocument:
    return next(load_webpages([json.dumps({"url": url, "text": text})]))


def long_english_text(n_sentences: int) -> str:
    return " ".join(ENGLISH_BLOCK for _ in range(n_sentences))


class TestWordCount:
    def test_counts_only_blocks_of_twenty_or_more_tokens(self):
        block = " ".join(["word"] * 25)
        short = " ".join(["nav"] * 5)
        assert contiguous_word_count(f"{short}\n\n{block}\n\n{short}") == 25

    def test_blank_line_splits_blocks(self):
        a = " ".join(["alpha"] * 20)
        b = " ".join(["beta"] * 20)
        assert contiguous_word_count(f"{a}\n\n{b}") == 40
        # A single newline does not split, so both halves count as one block.
        assert contiguous_word_count(f"{a}\n{b}") == 40

    def test_empty_text_counts_zero(self):
        assert contiguous_word_count("") == 0
        assert contiguous_word_count("   \n\n   ") == 0


class TestNormalizeUrl:
    def test_lowercases_scheme_and_host_only(self):
        assert (
            normalize_url("HTTP://Example.COM/Path/To")
            == "http://example.com/Path/To"
        )

    def test_drops_fragment_and_utm_parameters(self):
        url = "http://a.org/p?utm_source=tw&id=3&UTM_campaign=x#section"
        assert normalize_url(url) == "http://a.org/p?id=3"

    def test_adds_slash_to_empty_path(self):
        assert normalize_url("http://a.org") == "http://a.org/"

    def test_idempotent_on_a_url_mix(self):
        urls = [
            "HTTPS://News.Example.org/a/b?x=1&utm_medium=feed",
            "http://a.org",
            "http://a.org/p#frag",
            "http://a.org/p?utm_source=t",
            "not a url at all",
        ]
        for url in urls:
            once = normalize_url(url)
            assert normalize_url(once) == once

    def test_empty_url_rejected(self):
        with pytest.raises(DataError):
            normalize_url("")

    def test_unparseable_url_flagged(self):
        bad = "http://[unclosed"
        normalized, ok = normalize_url_checked(bad)
        assert not ok
        assert normalized == bad


RAW_URLS = [
    "HTTP://A.ORG?utm_source=x&id=3#top", "http://a.org/?id=3", "http://B.org",
    "http://b.org/#frag", "http://[bad", "x", " http://c.org/p ",
]
TWEET_KEYS = ["tweet_id", "user_id", "follower_count", "urls", "is_retweet",
              "retweet_of", "timestamp"]
# JSON values of every kind, for a field of the wrong type.
ANY_VALUE = st.sampled_from([None, True, False, 0, 3, -1, 1.5, "", "x", [], ["x"], {}])
BAD_TIMESTAMPS = [
    "not a time", "2017-13-01T00:00:00Z", "2017-05-01T10:00:00+25:00", "",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
]
# Lines that are not tweet objects: non-object JSON, broken JSON, JSON
# nested past the recursion limit, and blank lines.
ODD_LINES = ["[1, 2]", "3", '"text"', "null", '{"tweet_id": ', "{broken", "",
             "   ", "[" * 100_000]


@st.composite
def tweet_record(draw):
    """A valid tweet object; ids come from small pools, so tweet ids repeat
    (also across a string and an integer that print alike)."""
    n = draw(st.integers(0, 40))
    is_retweet = draw(st.booleans())
    record = {
        "tweet_id": draw(st.sampled_from([n, str(n), f"t{n}"])),
        "user_id": draw(st.sampled_from(["u1", "u2", 3])),
        "follower_count": draw(st.one_of(st.integers(0, 10**6), st.just(10**400))),
        "urls": draw(st.lists(st.sampled_from(RAW_URLS), max_size=3)),
        "is_retweet": is_retweet,
        "retweet_of": draw(st.sampled_from(["t1", 5])) if is_retweet else None,
        "timestamp": draw(st.sampled_from(
            ["2017-05-01T10:00:00Z", "2017-05-01T10:00:00", "2017-05-01T10:00:00+02:00",
             "2017-05-01", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59+00:00"]
        )),
    }
    if not is_retweet and draw(st.booleans()):
        del record["retweet_of"]
    return record


@st.composite
def tweet_line(draw):
    """A valid tweet line, or one with a single field mutated."""
    record = draw(tweet_record())
    mutation = draw(st.sampled_from(
        ["none"] * 8 + ["missing", "wrong_type", "bool_followers",
         "negative_followers", "bad_url", "retweet_mismatch", "bad_timestamp"]
    ))
    if mutation == "missing":
        record.pop(draw(st.sampled_from(TWEET_KEYS)), None)
    elif mutation == "wrong_type":
        record[draw(st.sampled_from(TWEET_KEYS))] = draw(ANY_VALUE)
    elif mutation == "bool_followers":
        record["follower_count"] = draw(st.booleans())
    elif mutation == "negative_followers":
        record["follower_count"] = -draw(st.integers(1, 10**6))
    elif mutation == "bad_url":
        at = draw(st.integers(0, len(record["urls"])))
        record["urls"].insert(at, draw(st.sampled_from(["", 5, None, ["x"], {"u": 1}])))
    elif mutation == "retweet_mismatch":
        if record["is_retweet"]:
            record["retweet_of"] = None
        else:
            record["retweet_of"] = "t1"
    elif mutation == "bad_timestamp":
        record["timestamp"] = draw(st.sampled_from(BAD_TIMESTAMPS))
    return json.dumps(record)


class TestParseTweets:
    def make_line(self, tweet_id="t1", **overrides):
        record = {
            "tweet_id": tweet_id,
            "user_id": "u1",
            "follower_count": 10,
            "urls": ["http://a.org/"],
            "is_retweet": False,
            "retweet_of": None,
            "timestamp": "2017-05-01T10:00:00Z",
        }
        record.update(overrides)
        return json.dumps(record)

    def test_parses_valid_lines(self):
        table, skipped = parse_tweets([self.make_line("t1"), self.make_line("t2")])
        assert skipped == 0
        assert table.tweet_ids == ["t1", "t2"]
        assert table.follower_counts[0] == 10

    def test_skips_malformed_lines(self):
        table, skipped = parse_tweets(
            [self.make_line("t1"), "{broken json", self.make_line("t2"),
             self.make_line("t3"), self.make_line("t4")]
        )
        assert skipped == 1
        assert len(table) == 4

    def test_duplicate_tweet_ids_are_skipped(self):
        table, skipped = parse_tweets([self.make_line("t1"), self.make_line("t1")])
        assert skipped == 1
        assert len(table) == 1

    def test_majority_malformed_raises(self):
        with pytest.raises(CorruptInputError):
            parse_tweets(["oops", "nope", self.make_line("t1")])

    def test_negative_follower_count_skipped(self):
        table, skipped = parse_tweets(
            [self.make_line("t1", follower_count=-5), self.make_line("t2"),
             self.make_line("t3")]
        )
        assert skipped == 1
        assert table.tweet_ids == ["t2", "t3"]

    def test_urls_are_normalized(self):
        table, skipped = parse_tweets(
            [self.make_line("t1", urls=["HTTP://A.ORG?utm_source=x&id=3#top",
                                        "http://b.org/p"])]
        )
        assert skipped == 0
        assert table.urls[0] == ("http://a.org/?id=3", "http://b.org/p")

    def test_each_distinct_url_is_normalized_once(self, monkeypatch):
        raws = ["HTTP://A.ORG?utm_source=x&id=3#top", "http://a.org/?id=3",
                "http://B.org", "http://b.org/#frag", "http://[bad", "x"]
        rng = random.Random(4)
        lines = [
            self.make_line(f"t{i}", urls=rng.choices(raws, k=rng.randint(0, 4)))
            for i in range(200)
        ]
        calls = []

        def counting(raw):
            calls.append(raw)
            return normalize_url(raw)

        monkeypatch.setattr(ingest, "normalize_url", counting)
        table, skipped = parse_tweets(lines)
        assert skipped == 0
        assert table.urls == [
            tuple(normalize_url(u) for u in json.loads(line)["urls"]) for line in lines
        ]
        assert sorted(calls) == sorted(raws)

    def test_empty_url_line_is_skipped(self):
        table, skipped = parse_tweets(
            [self.make_line("t1", urls=[""]), self.make_line("t2"),
             self.make_line("t3")]
        )
        assert skipped == 1
        assert table.tweet_ids == ["t2", "t3"]

    @pytest.mark.parametrize(
        "timestamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
    )
    def test_timestamp_out_of_range_in_utc_is_skipped(self, timestamp):
        table, skipped = parse_tweets(
            [self.make_line("t1", timestamp=timestamp), self.make_line("t2"),
             self.make_line("t3")]
        )
        assert skipped == 1
        assert table.tweet_ids == ["t2", "t3"]

    def test_deeply_nested_line_is_skipped(self):
        table, skipped = parse_tweets(
            ["[" * 100_000, self.make_line("t1"), self.make_line("t2")]
        )
        assert skipped == 1
        assert table.tweet_ids == ["t1", "t2"]

    def test_columns_hold_the_kept_lines_in_input_order(self):
        table, skipped = parse_tweets(
            [self.make_line(7, user_id=3, follower_count=10**400, urls=[]),
             self.make_line("7"),
             self.make_line("t2", user_id="u2", follower_count=0,
                            urls=["http://b.org", "http://b.org"],
                            is_retweet=True, retweet_of=7)]
        )
        assert skipped == 1  # "7" repeats the id of the first line
        assert table == TweetTable(
            tweet_ids=["7", "t2"],
            user_ids=["3", "u2"],
            follower_counts=[10**400, 0],
            urls=[(), ("http://b.org/", "http://b.org/")],
        )
        assert len(table) == 2

    @settings(max_examples=300, deadline=None)
    # Four tweet lines to one odd line, so that most lists stay under the
    # more-than-half-malformed limit.
    @given(st.lists(st.one_of(*[tweet_line()] * 4, st.sampled_from(ODD_LINES)), max_size=30))
    def test_matches_the_record_parser(self, lines):
        try:
            records, want_skipped = parse_tweets_oracle(lines)
        except CorruptInputError as exc:
            with pytest.raises(CorruptInputError) as got:
                parse_tweets(lines)
            assert str(got.value) == str(exc)
            return
        table, skipped = parse_tweets(lines)
        assert skipped == want_skipped
        assert table.tweet_ids == [r.tweet_id for r in records]
        assert table.user_ids == [r.user_id for r in records]
        assert table.follower_counts == [r.follower_count for r in records]
        assert table.urls == [r.urls for r in records]


class TestLoadWebpages:
    def test_recomputes_word_count_and_language(self):
        doc = make_doc("HTTP://Site.org/A#x", long_english_text(15))
        assert doc.url == "http://site.org/A"
        assert doc.word_count == 15 * 25
        assert doc.language == "en"

    def test_empty_text_keeps_zero_count(self):
        doc = make_doc("http://site.org/a", "")
        assert doc.word_count == 0

    def test_language_is_detected_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return "en", 1.0

        monkeypatch.setattr(ingest, "detect_language", counting)
        doc = make_doc("http://site.org/a", long_english_text(15))
        assert calls == []
        assert doc.language == "en"
        assert doc.language == "en"
        assert len(calls) == 1

    def test_explicit_language_is_never_detected(self, monkeypatch):
        monkeypatch.setattr(ingest, "detect_language", pytest.fail)
        doc = WebDocument(url="http://a.org/", text=FRENCH_BLOCK, language="en")
        assert doc.language == "en"


class TestFilterCorpus:
    def test_rejection_priority_empty_then_language_then_length(self):
        docs = [
            make_doc("http://a.org/1", ""),
            make_doc("http://a.org/2", FRENCH_BLOCK),
            make_doc("http://a.org/3", long_english_text(2)),
            make_doc("http://a.org/4", long_english_text(20)),
        ]
        kept, report = filter_corpus(docs, min_words=300)
        assert [d.url for d in kept] == ["http://a.org/4"]
        assert report.broken_empty == 1
        assert report.non_english == 1
        assert report.too_short == 1
        assert report.retained == 1
        assert report.rejected == 3

    def test_min_words_boundary_is_inclusive(self):
        doc = make_doc("http://a.org/x", long_english_text(10))
        assert doc.word_count == 250
        kept, _ = filter_corpus([doc], min_words=250)
        assert kept == [doc]
        kept, _ = filter_corpus([doc], min_words=251)
        assert kept == []

    def test_min_words_must_be_positive(self):
        with pytest.raises(DataError):
            filter_corpus([], min_words=0)


class TestJaccard:
    def test_identical_sets(self):
        s = frozenset({1, 2, 3})
        assert jaccard(s, s) == 1.0

    def test_disjoint_sets(self):
        assert jaccard(frozenset({1}), frozenset({2})) == 0.0

    def test_both_empty_count_as_identical(self):
        assert jaccard(frozenset(), frozenset()) == 1.0


class TestDedupe:
    def test_keeps_the_longer_of_a_near_duplicate_pair(self):
        base = long_english_text(20)
        docs = [
            make_doc("http://b.org/long", base),
            make_doc("http://a.org/short", " ".join(base.split()[:-4])),
        ]
        kept = dedupe_near_duplicates(docs)
        assert [d.url for d in kept] == ["http://b.org/long"]

    def test_result_does_not_depend_on_input_order(self):
        rng = random.Random(5)
        base = long_english_text(20)
        docs = [
            make_doc("http://a.org/1", base),
            make_doc("http://a.org/2", " ".join(base.split()[:-3])),
            make_doc("http://b.org/other", long_english_text(12) + " extra tokens"),
            make_doc("http://b.org/mirror", long_english_text(12)),
        ]
        expected = [d.url for d in dedupe_near_duplicates(docs)]
        for _ in range(10):
            rng.shuffle(docs)
            assert [d.url for d in dedupe_near_duplicates(docs)] == expected

    def test_equal_length_duplicates_keep_the_smaller_url(self):
        text = long_english_text(20)
        docs = [
            make_doc("http://z.org/copy", text),
            make_doc("http://a.org/copy", text),
        ]
        kept = dedupe_near_duplicates(docs)
        assert [d.url for d in kept] == ["http://a.org/copy"]

    def test_output_is_sorted_by_url(self):
        docs = [
            make_doc("http://c.org/", long_english_text(10) + " unique third piece"),
            make_doc("http://a.org/", long_english_text(11) + " something else here"),
            make_doc("http://b.org/", "completely different " + long_english_text(9)),
        ]
        kept = dedupe_near_duplicates(docs)
        assert [d.url for d in kept] == sorted(d.url for d in kept)
        assert len(kept) == 3

    def test_threshold_validation(self):
        with pytest.raises(DataError):
            dedupe_near_duplicates([], jaccard_threshold=0.0)
        with pytest.raises(DataError):
            dedupe_near_duplicates([], jaccard_threshold=1.5)


# A 6-word vocabulary makes near-duplicates and shared prefix shingles
# common; texts of 0-4 words exercise the empty and single-shingle sets.
VOCAB = ["ant", "bee", "cat", "dog", "eel", "fox"]
THRESHOLDS = st.one_of(
    st.sampled_from([0.5, 0.7, 0.75, 0.8, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def near_duplicate_corpora(draw):
    words = st.lists(st.sampled_from(VOCAB), max_size=30)
    texts = draw(st.lists(words, min_size=1, max_size=12))
    # Edited copies: each drops, swaps or appends a few words of a source.
    for _ in range(draw(st.integers(0, 12))):
        copy = list(draw(st.sampled_from(texts)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(copy)))
            op = draw(st.sampled_from(["drop", "swap", "add"]))
            if op == "add" or i == len(copy):
                copy.insert(i, draw(st.sampled_from(VOCAB)))
            elif op == "drop":
                del copy[i]
            else:
                copy[i] = draw(st.sampled_from(VOCAB))
        texts.append(copy)
    return [
        WebDocument(
            url=f"http://d{i:02d}.org/",
            text=" ".join(words),
            word_count=draw(st.integers(0, 3)),
        )
        for i, words in enumerate(texts)
    ]


def urls(docs):
    return [d.url for d in docs]


class TestPrefixFilteredDedupe:
    """The prefix-filtered join keeps exactly what a pairwise scan keeps."""

    @settings(max_examples=400, deadline=None)
    @given(docs=near_duplicate_corpora(), threshold=THRESHOLDS)
    def test_matches_the_pairwise_oracle(self, docs, threshold):
        assert urls(dedupe_near_duplicates(docs, threshold)) == urls(
            dedupe_oracle(docs, threshold)
        )

    def test_prefix_bound_survives_float_rounding(self):
        # 0.56 * 25 rounds up past 14, yet 14 shared shingles out of 25
        # pass jaccard >= 0.56: the textbook prefix of
        # 25 - ceil(0.56 * 25) + 1 shingles is one short.  y is the first
        # 14 shingles of x, and x's 11 other shingles sort first by hash,
        # so only a prefix one longer reaches a shingle that y shares.
        assert 0.56 * 25 > 14 and 14 / 25 >= 0.56
        rng = random.Random(11)
        words = [f"w{rng.randrange(10**9)}" for _ in range(4)]
        for start in range(25):
            while True:
                word = f"w{rng.randrange(10**9)}"
                first_hash = hash(tuple(words[start:] + [word]))
                if (first_hash < 0) == (start >= 14):
                    break
            words.append(word)
        x = WebDocument(url="http://x.org/", text=" ".join(words))
        y = WebDocument(url="http://y.org/", text=" ".join(words[:18]))
        assert jaccard(ingest._shingles(x.text), ingest._shingles(y.text)) == 14 / 25
        assert urls(dedupe_near_duplicates([x, y], 0.56)) == ["http://x.org/"]
        assert urls(dedupe_oracle([x, y], 0.56)) == ["http://x.org/"]

    def test_disjoint_documents_are_never_compared(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return jaccard(a, b)

        monkeypatch.setattr(ingest, "jaccard", counting)
        # Equal lengths, so the size-ratio bound alone prunes nothing.
        docs = [
            WebDocument(
                url=f"http://d{d:02d}.org/",
                text=" ".join(f"w{d}x{i}" for i in range(40)),
            )
            for d in range(30)
        ]
        assert len(dedupe_near_duplicates(docs, 0.5)) == 30
        assert calls == []

    def test_empty_texts_duplicate_each_other_only(self):
        docs = [
            WebDocument(url="http://b.org/", text=""),
            WebDocument(url="http://a.org/", text="   "),
            WebDocument(url="http://c.org/", text="one two"),
        ]
        assert urls(dedupe_near_duplicates(docs, 1.0)) == ["http://a.org/", "http://c.org/"]


def test_intersect_urlsets():
    corpus = {"a", "b", "c"}
    reference = {"b", "c", "d"}
    both, corpus_only = intersect_urlsets(corpus, reference)
    assert both == {"b", "c"}
    assert corpus_only == {"a"}
