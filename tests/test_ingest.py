import importlib.util
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    dedupe_oracle,
    parse_tweets_oracle,
    parse_tweets_per_line_oracle,
    shingle_id_sets_oracle,
)
from test_contract import TEXT_MUTATIONS, mutated
from webcred import ingest
from webcred.errors import CorruptInputError, DataError
from webcred.ingest import (
    BULK_MIN_LINES,
    TweetTable,
    WebDocument,
    contiguous_word_count,
    dedupe_near_duplicates,
    filter_corpus,
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
        for blank in ("", "   "):
            with pytest.raises(DataError, match="empty URL"):
                normalize_url(blank)

    @pytest.mark.parametrize("raw", ["#top", "?utm_source=x", " ?utm_medium=a#b "])
    def test_url_with_nothing_left_rejected(self, raw):
        with pytest.raises(DataError, match="empty URL"):
            normalize_url(raw)

    def test_unparseable_url_flagged(self):
        bad = "http://[unclosed"
        normalized, ok = normalize_url_checked(bad)
        assert not ok
        assert normalized == bad


def assert_normalizes_like_urlsplit(raw: str) -> None:
    """normalize_url_checked and the urlsplit path agree on ``raw``: the
    same (url, ok), or the same DataError."""
    try:
        want = ingest._normalize_url_split(raw)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            normalize_url_checked(raw)
        assert str(got.value) == str(exc)
        return
    assert normalize_url_checked(raw) == want


# Inputs at and past the edges of the plain-URL form.  Outside it urlsplit
# differs between Python releases (whether "1http" is a scheme, whether
# leading control characters are stripped), so each case is compared with
# the running interpreter's urlsplit.
URL_EDGE_CASES = [
    "http:///x", "HTTP://A.B", "http://user:pw@host:8080",
    "HTTP://User:PW@Host:8080/P?Q=1", "http://a.org/p#frag?x=1",
    "http://a.org/p?x=1#frag?y#z", "http://a.org?x#y", "#top", "?utm_source=x",
    "http://a.org?", "http://a.org/?&&", "http://a.org/?utm_source=x&UTM_x",
    "http://a.org/?=1&utm_&a=b=c", "http://a.org#", "a+b.c-d://H/p", "http:/a.org",
    "http:a.org", "//a.org/p", "http://", "http://?x", "http://#x", "http://a.org//b",
    "http://[::1]/p", "http://[bad", "http://a]b/", "http://a[b/", "http://a.org/[x]",
    "http://a.org/p\tq", "http://a.org/\r", "http://a\n.org/", " http://a.org/ ",
    "http://a.org/p q", "http://a.org/\x01", "http://a.org/\x7f", "\x00http://a.org",
    "http://bücher.example/", "http://a.org/ü", "http://a.org/?q=ü", "http://ａ.org/",
    "mailto:x", "1http://x", "+http://x", "ht_tp://x", "http:://x", "not a url at all",
    "http://a.org/%41?%75tm_source=x", "HTTP://a.org:80", "http://a.org\\b/c",
]


@st.composite
def ascii_urls(draw):
    """ASCII strings shaped like URLs, from parts that hold every character
    the plain-URL form treats specially."""
    special = list("/?#[]@:;%&=+.-_~\\") + [" ", "\t", "\r", "\n", "\x00", "\x1f", "\x7f"]
    text = st.text(alphabet=st.sampled_from(list("aZ09") + special), max_size=12)
    scheme = draw(st.sampled_from(["http", "HTTPS", "a+b.c-d", "1http", "", "h t", "h_t"]))
    sep = draw(st.sampled_from(["://"] * 4 + [":/", ":", "//", ":///"]))
    query = draw(st.lists(st.sampled_from(["utm_source=x", "UTM_a", "id=3", "", "a=b=c", "=1"]),
                          max_size=3))
    url = scheme + sep + draw(text)
    if query or draw(st.booleans()):
        url += "?" + "&".join(query)
    if draw(st.booleans()):
        url += "#" + draw(text)
    return url


def load_workloads(repo_root):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", repo_root / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPlainUrlFastPath:
    @pytest.mark.parametrize("raw", URL_EDGE_CASES)
    def test_edge_cases_match_urlsplit(self, raw):
        assert_normalizes_like_urlsplit(raw)

    @pytest.mark.parametrize("raw", ["HTTP://A.B", "http://user:pw@host:8080",
                                     "http://a.org/p?x=1#frag?y#z", "a+b.c-d://H/p"])
    def test_plain_urls_take_the_fast_path(self, raw, monkeypatch):
        def fail(raw):
            raise AssertionError(f"{raw!r} went through urlsplit")

        monkeypatch.setattr(ingest, "_normalize_url_split", fail)
        normalize_url_checked(raw)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(st.one_of(ascii_urls(), st.text(st.characters(max_codepoint=127), max_size=30)))
    def test_ascii_strings_match_urlsplit(self, raw):
        assert_normalizes_like_urlsplit(raw)

    def test_every_fixture_and_benchmark_url_matches_urlsplit(self, repo_root, tmp_path):
        def lines(path):
            return path.read_text().splitlines()

        fx = repo_root / "fixtures"
        raws = {json.loads(line)["url"] for line in lines(fx / "webpages.jsonl")}
        for line in lines(fx / "tweets.jsonl"):
            raws.update(json.loads(line)["urls"])
        raws.update(line.strip() for line in lines(fx / "reference_urls.txt"))
        workloads = load_workloads(repo_root)
        workloads.make_share_network(repo_root, tmp_path / "share", seed=1)
        workloads.make_score_corpus(repo_root, tmp_path / "score", seed=1)
        for line in lines(tmp_path / "share" / "tweets.jsonl"):
            try:
                raws.update(json.loads(line)["urls"])
            except (ValueError, KeyError):
                pass  # the planted malformed lines
        raws.update(json.loads(line)["url"]
                    for line in lines(tmp_path / "score" / "webpages.jsonl"))
        raws.update(row.split(",", 1)[0]
                    for row in lines(tmp_path / "share" / "scores.csv")[1:])
        assert len(raws) > 20_000
        # All plain, so all on the fast path.
        assert all(ingest._PLAIN_URL.fullmatch(raw) for raw in raws)
        for raw in raws:
            assert normalize_url_checked(raw) == ingest._normalize_url_split(raw)


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
             self.make_line("t3"), self.make_line("t4", urls=["   "])]
        )
        assert skipped == 2
        assert table.tweet_ids == ["t2", "t3"]

    def test_url_that_normalizes_to_nothing_is_skipped(self):
        table, skipped = parse_tweets(
            [self.make_line("t1", urls=["#top"]), self.make_line("t2"),
             self.make_line("t3", urls=["http://a.org/", "?utm_source=x"]),
             self.make_line("t4"), self.make_line("t5")]
        )
        assert skipped == 2
        assert table.tweet_ids == ["t2", "t4", "t5"]

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


def tweet_json(tweet_id, urls=("http://a.org/",), **extra) -> str:
    """A valid tweet line; ``extra`` keys follow the usual ones (overriding
    one keeps its place) and ``urls`` comes last."""
    record = {"tweet_id": tweet_id, "user_id": "u1", "follower_count": 10,
              "is_retweet": False, "retweet_of": None,
              "timestamp": "2017-05-01T10:00:00Z"}
    record.update(extra)
    record["urls"] = list(urls)
    return json.dumps(record)


def nested_line(tweet_id, depth: int) -> str:
    """A valid tweet line with an array nested ``depth`` deep in key "x"."""
    return tweet_json(tweet_id)[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}"


def newline_pair() -> list[str]:
    """Two list entries that decode alone as nothing, but joined by ",\\n"
    as two tweets: the first holds a whole tweet, a newline and the start
    of a second one, whose last URL is the second entry."""
    second = tweet_json("n2", urls=["http://b.org/x", "http://c.org/y"])
    cut = second.index(', "http://c.org/y"')
    return [tweet_json("n1") + ",\n" + second[:cut], second[cut + 2:]]


# Runs of adjacent lines that a decode of several lines at once must not
# merge, split or misread: two lines that decode as one tweet when joined
# (with a brace too many on each, plain and tweet-shaped, or a line that
# ends inside an array and one that does not start with "{"), one line
# that decodes as two tweets, a value before a first line or after a last
# one, list entries with a newline inside, braces inside URL strings, NaN
# and Infinity, a repeated key or tweet id, a lone surrogate, an escaped
# non-ASCII URL, and arrays nested near Python's recursion limit.
MERGE_PAIR = [tweet_json("m1")[:-1] + ', "x": [{"b": 1}', '{"c": 2}]}']
OPEN_ARRAY_PAIR = [tweet_json("o1")[:-1] + ', "x": {"y": [1', '2]}}']
SPLIT_LINE = [tweet_json("s1") + "," + tweet_json("s2")]
LEADING_VALUE = ['"x", ' + tweet_json("e1")]
TRAILING_VALUE = [tweet_json("e2") + ", 2"]
ADVERSARIAL_BLOCKS = [
    MERGE_PAIR,
    ['{"a": [{"b": 1}', '{"c": 2}]}'],
    OPEN_ARRAY_PAIR,
    SPLIT_LINE,
    ['{"x": 1},{"y": 2}'],
    LEADING_VALUE,
    TRAILING_VALUE,
    newline_pair(),
    [tweet_json("b1", urls=["http://a.org/{x}"])],
    [tweet_json("b2", urls=["http://a.org/?q=},{"])],
    [tweet_json("b3", urls=["http://a.org/p}"]), tweet_json("b4", urls=["http://a.org/{"])],
    [tweet_json("nan1", follower_count=float("nan"))],
    [tweet_json("nan2", score=float("nan"), rank=float("-inf"))],
    ['{"tweet_id": "k1", ' + tweet_json("k2")[1:]],
    [tweet_json("dup"), tweet_json("dup")],
    [tweet_json("sur", urls=["http://a.org/\ud800"])],
    [tweet_json("esc", urls=["http://bücher.example/é"])],
    *[[nested_line(f"deep{d}", d)] for d in (50, 900, 990, 999, 1000, 1100)],
]


@st.composite
def bulk_lines(draw):
    """Tweet lines, mostly valid, mixed with one-field mutations, lines
    that are not tweet objects, the adversarial runs above, and runs of
    tweet lines mutated as the contract test mutates an input file."""
    def mutated_run(lines):
        data = draw(mutated("\n".join(lines).encode(), TEXT_MUTATIONS))
        return data.decode("utf-8", "replace").split("\n")

    # Valid lines get ids of their own, so that most lists stay under the
    # more-than-half-malformed limit; ADVERSARIAL_BLOCKS repeats an id.
    serial = iter(range(1 << 30))

    def fresh(record):
        record["tweet_id"] = f"r{next(serial)}"
        return [json.dumps(record)]

    runs = draw(st.lists(st.one_of(
        *[tweet_record().map(fresh)] * 8,
        *[tweet_line().map(lambda line: [line])] * 2,
        st.sampled_from(ODD_LINES).map(lambda line: [line]),
        st.sampled_from(ADVERSARIAL_BLOCKS),
        st.lists(tweet_line(), min_size=1, max_size=3).map(mutated_run),
    ), min_size=BULK_MIN_LINES + 1, max_size=60))
    return [line for run in runs for line in run]


def assert_parses_like_the_oracle(lines) -> None:
    """parse_tweets on ``lines`` gives the per-line oracle's table and
    skipped count, or the same CorruptInputError."""
    try:
        want = parse_tweets_per_line_oracle(lines)
    except CorruptInputError as exc:
        with pytest.raises(CorruptInputError) as got:
            parse_tweets(lines)
        assert str(got.value) == str(exc)
        return
    assert parse_tweets(lines) == want


def assert_bulk_objects_are_the_lines_own(lines) -> None:
    """Each object _bulk_decode gives is the one json.loads gives its line."""
    stripped = [line.strip() for line in lines if line.strip()]
    for line, obj in zip(stripped, ingest._bulk_decode(stripped), strict=True):
        if obj is not ingest._UNDECODED:
            assert repr(obj) == repr(json.loads(line))


class TestBulkDecode:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(bulk_lines())
    def test_matches_the_per_line_oracle(self, lines):
        assert_parses_like_the_oracle(lines)
        assert_bulk_objects_are_the_lines_own(lines)

    # Each run is placed where it would slip through a certificate without
    # one of its checks: the brace counts (merge, split), the newline count
    # (newline pair), the separator count (open array), or the first and
    # last characters (leading and trailing value).
    @pytest.mark.parametrize("before, run, after, skipped", [
        (10, MERGE_PAIR, 10, 2), (10, SPLIT_LINE, 10, 1),
        (10, newline_pair(), 10, 2), (10, OPEN_ARRAY_PAIR, 10, 2),
        (0, LEADING_VALUE, 20, 1), (20, TRAILING_VALUE, 0, 1),
    ])
    def test_runs_that_parse_differently_joined_decode_alone(
        self, before, run, after, skipped
    ):
        lines = [tweet_json(f"g{i}") for i in range(before)]
        lines += run + [tweet_json(f"h{i}") for i in range(after)]
        objs = ingest._bulk_decode([line.strip() for line in lines])
        assert all(objs[i] is ingest._UNDECODED for i in range(before, before + len(run)))
        assert_bulk_objects_are_the_lines_own(lines)
        table, got_skipped = parse_tweets(lines)
        assert (len(table), got_skipped) == (20, skipped)
        assert_parses_like_the_oracle(lines)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_chunk_edges_as_list_generator_and_file(self, n, tmp_path):
        rng = random.Random(n)
        pool = [run for run in ADVERSARIAL_BLOCKS if "\n" not in "".join(run)]
        lines = []
        while len(lines) < n:
            if rng.random() < 0.9:
                lines.append(tweet_json(f"t{len(lines)}", urls=[rng.choice(RAW_URLS)]))
            else:
                lines.extend(rng.choice(pool))
        lines = lines[:n]
        # Malformed lines on both sides of the chunk edge.
        for at in (0, 1022, 1023, 1024):
            if at < n:
                lines[at] = '{"tweet_id": "bad'
        want = parse_tweets_per_line_oracle(lines)
        assert parse_tweets(lines) == want
        assert parse_tweets(line for line in lines) == want
        path = tmp_path / "tweets.jsonl"
        path.write_text("\n".join(lines) + "\n\n")
        with open(path) as fh:
            assert parse_tweets(fh) == want

    @pytest.mark.parametrize("n, calls", [(8, 8), (9, 1), (1024, 1), (1025, 2),
                                          (1033, 2), (2048, 2)])
    def test_good_lines_take_one_decode_per_chunk(self, n, calls, monkeypatch):
        counted = []

        def loads(text):
            counted.append(text)
            return json.loads(text)

        monkeypatch.setattr(ingest, "json", SimpleNamespace(loads=loads))
        table, skipped = parse_tweets([tweet_json(f"t{i}") for i in range(n)])
        assert (len(table), skipped) == (n, 0)
        assert len(counted) == calls

    def test_depths_around_the_recursion_limit(self):
        # The deepest line that decodes from here; parse_tweets and the
        # oracle decode one frame further down, so the limit falls inside
        # the sweep.
        lo, hi = 1, 1 << 17
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                json.loads(nested_line("probe", mid))
                lo = mid
            except RecursionError:
                hi = mid - 1
        lines = [tweet_json(f"t{i}") for i in range(60)]
        lines += [nested_line(f"d{d}", d) for d in range(lo - 40, lo + 3)]
        table, skipped = parse_tweets_per_line_oracle(lines)
        assert 0 < skipped < 43
        assert parse_tweets(lines) == (table, skipped)

    def test_bytes_lines_decode_one_by_one(self):
        # Each is skipped (the str backslash test fails on bytes), as before.
        lines = [tweet_json(f"t{i}").encode() for i in range(20)]
        with pytest.raises(CorruptInputError, match="20/20"):
            parse_tweets_per_line_oracle(lines)
        assert_parses_like_the_oracle(lines)


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

    def test_language_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            WebDocument(url="http://a.org/", text=FRENCH_BLOCK, language="en")


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

    def test_prefix_bound_survives_float_rounding_in_id_order(self):
        # The same 14-of-25 case as above, built against shingle-id order.
        # z has the highest word_count, so its words, x's words 14-28, get
        # the smallest word ids, and x's 11 shingles that y lacks sort
        # before the 14 they share: the textbook prefix of
        # 25 - ceil(0.56 * 25) + 1 = 11 ids misses every shared one.
        words = [f"w{i}" for i in range(29)]
        z = WebDocument(
            url="http://z.org/", text=" ".join(reversed(words[14:])), word_count=100
        )
        x = WebDocument(url="http://x.org/", text=" ".join(words))
        y = WebDocument(url="http://y.org/", text=" ".join(words[:18]))
        z_ids, x_ids, y_ids = ingest._shingle_id_sets([z.text, x.text, y.text])
        assert len(x_ids) == 25 and len(y_ids) == 14
        shared = set(x_ids.tolist()) & set(y_ids.tolist())
        assert len(shared) == 14 and min(shared) == x_ids[11]
        assert not set(z_ids.tolist()) & set(x_ids.tolist())
        assert urls(dedupe_near_duplicates([z, x, y], 0.56)) == [
            "http://x.org/", "http://z.org/"
        ]
        assert urls(dedupe_oracle([z, x, y], 0.56)) == [
            "http://x.org/", "http://z.org/"
        ]

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


# Words whose lowercase forms meet or do not: "STRASSE" and "strasse" are
# one word and "Straße" another; "İx" lowers to "i̇x" (i plus a combining
# dot), not to "ix".
CASE_VOCAB = [
    "Straße", "STRASSE", "strasse", "İx", "i\u0307x", "ix", "Ant", "ant", "bee"
]
SEPARATORS = st.sampled_from([" ", "  ", "\n", "\t", "\u00a0"])


@st.composite
def texts_with_repeats(draw):
    words = draw(st.lists(st.sampled_from(CASE_VOCAB), max_size=30))
    separator = draw(SEPARATORS)
    return separator.join(words)


def assert_ids_match_shingles(texts):
    """Each text's shingle ids are a sorted set of as many ids as its
    shingles, array-equal to the int32 ranking's, and every pair has the
    same jaccard either way."""
    id_sets = ingest._shingle_id_sets(texts)
    for ids, expected in zip(id_sets, shingle_id_sets_oracle(texts), strict=True):
        assert ids.dtype == expected.dtype
        assert np.array_equal(ids, expected)
    reference = [ingest._shingles(text) for text in texts]
    assert [len(ids) for ids in id_sets] == [len(sh) for sh in reference]
    for ids in id_sets:
        assert np.issubdtype(ids.dtype, np.integer)
        assert (ids[1:] > ids[:-1]).all()
    as_sets = [frozenset(ids.tolist()) for ids in id_sets]
    for i in range(len(texts)):
        for j in range(i, len(texts)):
            expected = jaccard(reference[i], reference[j])
            assert jaccard(as_sets[i], as_sets[j]) == expected


class TestShingleIds:
    """The join's integer shingle ids stand for ``_shingles``' word tuples."""

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(texts_with_repeats(), min_size=1, max_size=8))
    def test_match_the_word_tuples(self, texts):
        assert_ids_match_shingles(texts)

    @pytest.mark.parametrize("n_words", [0, 1, 2, 3, 4, 5, 6])
    def test_short_and_empty_texts(self, n_words):
        words = ["a", "b", "c", "d", "e", "f"][:n_words]
        texts = [" ".join(words), " ".join(words + ["a"]), "a b c d e", "", "a"]
        assert_ids_match_shingles(texts)

    @pytest.mark.parametrize("n_distinct", [2**16 - 1, 2**16])
    def test_one_and_two_digit_word_ids(self, n_distinct):
        # 65,535 distinct words are ids 1..65535, one uint16 digit each;
        # one more word needs a second digit.
        rng = random.Random(n_distinct)
        vocab = [f"v{i}" for i in range(n_distinct)]
        texts = [
            " ".join(vocab),
            " ".join(rng.choice(vocab) for _ in range(3_000)),
            " ".join(vocab[-2:]),
            " ".join(vocab[2**8 : 2**8 + 5]),
        ]
        assert_ids_match_shingles(texts)

    def test_more_than_two_to_the_sixteen_distinct_words(self):
        rng = random.Random(3)
        vocab = [f"v{i}" for i in range(70_000)]
        # A copy of a stretch of the first text and words drawn with repeats.
        texts = [
            " ".join(vocab),
            " ".join(vocab[40_000:60_000]),
            " ".join(rng.choice(vocab) for _ in range(5_000)),
            " ".join(vocab[-3:]),
            "",
        ]
        assert_ids_match_shingles(texts)
