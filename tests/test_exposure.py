import random
from typing import NamedTuple

import pytest

from webcred.credibility import BUCKETS, score_from_labels
from webcred.errors import DataError
from webcred.exposure import (
    ShareRecord,
    aggregate_shares,
    bucket_share_report,
    build_user_profiles,
    top_exposures,
    write_exposure_csv,
)
from webcred.ingest import TweetTable


class Tweet(NamedTuple):
    """One row of a tweet table."""

    tweet_id: str
    user_id: str
    follower_count: int
    urls: tuple[str, ...]


class Tweets(TweetTable):
    """A TweetTable that also iterates over its rows, which the
    brute-force checks read one tweet at a time."""

    def __iter__(self):
        return map(Tweet, self.tweet_ids, self.user_ids, self.follower_counts, self.urls)


def make_tweet(tweet_id, user_id, followers, urls, retweet_of=None):
    # parse_tweets checks retweet_of but keeps nothing of it.
    return Tweet(tweet_id, user_id, followers, tuple(urls))


def table(tweets):
    """The table of these tweets, in order, as parse_tweets gives it."""
    return Tweets(
        tweet_ids=[t.tweet_id for t in tweets],
        user_ids=[t.user_id for t in tweets],
        follower_counts=[t.follower_count for t in tweets],
        urls=[t.urls for t in tweets],
    )


def labels_for_score(score):
    return tuple([1] * score + [0] * (7 - score))


def make_scored(urls, rng):
    return {url: score_from_labels(labels_for_score(rng.randrange(8))) for url in urls}


def random_tweets(rng, n_tweets, url_pool):
    """Tweets with duplicate urls inside a tweet and a retweet mix."""
    tweets = []
    for i in range(n_tweets):
        n_urls = rng.randrange(0, 4)
        urls = [rng.choice(url_pool) for _ in range(n_urls)]
        if urls and rng.random() < 0.2:
            urls.append(urls[0])
        retweet_of = f"t{rng.randrange(i)}" if i and rng.random() < 0.3 else None
        tweets.append(
            make_tweet(
                tweet_id=f"t{i}",
                user_id=f"u{rng.randrange(80)}",
                followers=rng.randrange(0, 50_000),
                urls=urls,
                retweet_of=retweet_of,
            )
        )
    return table(tweets)


class TestAggregateShares:
    def test_matches_brute_force_on_random_tweets(self):
        rng = random.Random(20260814)
        scored_urls = [f"http://site{i:02d}.org/" for i in range(30)]
        unscored_urls = [f"http://other{i}.org/" for i in range(10)]
        scored = make_scored(scored_urls, rng)
        tweets = random_tweets(rng, 1000, scored_urls + unscored_urls)

        want_counts = {url: 0 for url in scored}
        want_exposure = {url: 0 for url in scored}
        for tweet in tweets:
            for url in set(tweet.urls):
                if url in scored:
                    want_counts[url] += 1
                    want_exposure[url] += tweet.follower_count

        shares = aggregate_shares(tweets, scored)
        assert [s.url for s in shares] == sorted(scored)
        for share in shares:
            assert share.tweet_count == want_counts[share.url]
            assert share.potential_exposure == want_exposure[share.url]

    def test_hand_computed_counts_and_retweet_exposure(self):
        scored = {
            "http://a.org/": score_from_labels(labels_for_score(1)),
            "http://b.org/": score_from_labels(labels_for_score(6)),
            "http://never.org/": score_from_labels(labels_for_score(3)),
        }
        tweets = table([
            make_tweet("t0", "alice", 100, ["http://a.org/"]),
            make_tweet("t1", "bob", 30, ["http://a.org/", "http://b.org/"]),
            make_tweet("t2", "carol", 7, ["http://a.org/"], retweet_of="t0"),
            make_tweet("t3", "dave", 1000, ["http://ignored.org/"]),
        ])
        by_url = {s.url: s for s in aggregate_shares(tweets, scored)}
        assert by_url["http://a.org/"].tweet_count == 3
        assert by_url["http://a.org/"].potential_exposure == 100 + 30 + 7
        assert by_url["http://b.org/"].tweet_count == 1
        assert by_url["http://b.org/"].potential_exposure == 30
        assert by_url["http://never.org/"].tweet_count == 0
        assert by_url["http://never.org/"].potential_exposure == 0

    def test_duplicate_url_within_one_tweet_counts_once(self):
        scored = {"http://a.org/": score_from_labels(labels_for_score(5))}
        tweets = table([make_tweet("t0", "alice", 11, ["http://a.org/"] * 3)])
        (share,) = aggregate_shares(tweets, scored)
        assert share.tweet_count == 1
        assert share.potential_exposure == 11

    def test_sums_stay_exact_past_float64_and_int64(self):
        scored = {"http://a.org/": score_from_labels(labels_for_score(2))}
        followers = [2**53 + 1, 2**63, 1, 10**400]
        tweets = table([
            make_tweet(f"t{i}", "alice", n, ["http://a.org/"])
            for i, n in enumerate(followers)
        ])
        (share,) = aggregate_shares(tweets, scored)
        assert share.potential_exposure == sum(followers)
        assert build_user_profiles(tweets, scored)["alice"].follower_count == 10**400

    def test_no_tweets_yields_all_zero_records(self):
        scored = {
            "http://a.org/": score_from_labels(labels_for_score(0)),
            "http://b.org/": score_from_labels(labels_for_score(7)),
        }
        shares = aggregate_shares(table([]), scored)
        assert [(s.url, s.tweet_count, s.potential_exposure) for s in shares] == [
            ("http://a.org/", 0, 0),
            ("http://b.org/", 0, 0),
        ]


class TestBucketShareReport:
    def test_matches_brute_force_on_random_tweets(self):
        rng = random.Random(97)
        scored_urls = [f"http://site{i:02d}.org/" for i in range(30)]
        scored = make_scored(scored_urls, rng)
        tweets = random_tweets(rng, 1000, scored_urls)
        shares = aggregate_shares(tweets, scored)
        report = bucket_share_report(shares, scored)

        want_by_score = {s: 0 for s in range(8)}
        want_by_bucket = {b: 0 for b in BUCKETS}
        want_exposure = {b: 0 for b in BUCKETS}
        for share in shares:
            result = scored[share.url]
            want_by_score[result.score] += share.tweet_count
            want_by_bucket[result.bucket] += share.tweet_count
            want_exposure[result.bucket] += share.potential_exposure

        assert report["tweets_by_score"] == want_by_score
        assert report["tweets_by_bucket"] == want_by_bucket
        assert report["exposure_by_bucket"] == want_exposure
        assert report["total_tweets"] == sum(want_by_bucket.values())
        assert report["total_exposure"] == sum(want_exposure.values())

    def test_proportions_sum_to_one(self):
        rng = random.Random(3)
        scored_urls = [f"http://site{i:02d}.org/" for i in range(20)]
        scored = make_scored(scored_urls, rng)
        tweets = random_tweets(rng, 400, scored_urls)
        report = bucket_share_report(aggregate_shares(tweets, scored), scored)
        assert abs(sum(report["tweet_proportions"].values()) - 1.0) <= 1e-9
        assert abs(sum(report["exposure_proportions"].values()) - 1.0) <= 1e-9

    def test_zero_totals_report_null_proportions(self):
        scored = {"http://a.org/": score_from_labels(labels_for_score(2))}
        report = bucket_share_report(aggregate_shares(table([]), scored), scored)
        assert report["total_tweets"] == 0
        assert report["total_exposure"] == 0
        assert all(v is None for v in report["tweet_proportions"].values())
        assert all(v is None for v in report["exposure_proportions"].values())

    def test_distribution_summary_per_bucket(self):
        scored = {
            "http://a.org/": score_from_labels(labels_for_score(0)),
            "http://b.org/": score_from_labels(labels_for_score(1)),
            "http://c.org/": score_from_labels(labels_for_score(2)),
            "http://d.org/": score_from_labels(labels_for_score(6)),
        }
        tweets = table([
            make_tweet("t0", "alice", 10, ["http://a.org/"]),
            make_tweet("t1", "bob", 30, ["http://b.org/"]),
            make_tweet("t2", "carol", 50, ["http://c.org/"]),
            make_tweet("t3", "dave", 500, ["http://d.org/"]),
        ])
        report = bucket_share_report(aggregate_shares(tweets, scored), scored)
        dist = report["exposure_distribution_by_bucket"]
        low = dist["low"]
        assert low["pages"] == 3
        assert low["exposure_total"] == 90
        assert low["exposure_min"] == 10
        assert low["exposure_median"] == 30.0
        assert low["exposure_max"] == 50
        assert low["exposure_mean"] == 30.0
        assert dist["high"] == {
            "pages": 1,
            "exposure_total": 500,
            "exposure_min": 500,
            "exposure_q1": 500.0,
            "exposure_median": 500.0,
            "exposure_q3": 500.0,
            "exposure_max": 500,
            "exposure_mean": 500.0,
        }
        empty = dist["medium"]
        assert empty["pages"] == 0
        assert empty["exposure_total"] == 0
        assert empty["exposure_median"] is None

    def test_rejects_empty_share_list(self):
        with pytest.raises(DataError):
            bucket_share_report([], {})

    def test_rejects_share_for_unscored_url(self):
        shares = [ShareRecord(url="http://a.org/", tweet_count=1, potential_exposure=5)]
        with pytest.raises(DataError):
            bucket_share_report(shares, {})


class TestTopExposures:
    def test_matches_full_sort_on_random_data(self):
        rng = random.Random(12)
        shares = [
            ShareRecord(
                url=f"http://site{i:03d}.org/",
                tweet_count=rng.randrange(50),
                potential_exposure=rng.randrange(20),
            )
            for i in range(200)
        ]
        rng.shuffle(shares)
        full = sorted(shares, key=lambda s: (-s.potential_exposure, s.url))
        for n in (1, 5, 100, 200, 500):
            assert top_exposures(shares, n) == full[:n]

    def test_ties_break_by_url(self):
        shares = [
            ShareRecord(url="http://b.org/", tweet_count=1, potential_exposure=9),
            ShareRecord(url="http://a.org/", tweet_count=1, potential_exposure=9),
        ]
        assert [s.url for s in top_exposures(shares, 2)] == [
            "http://a.org/",
            "http://b.org/",
        ]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DataError):
            top_exposures([], 0)


class TestUserProfiles:
    def test_follower_count_is_maximum_across_tweets(self):
        scored = {"http://a.org/": score_from_labels(labels_for_score(4))}
        tweets = table([
            make_tweet("t0", "alice", 120, ["http://a.org/"]),
            make_tweet("t1", "alice", 80, ["http://a.org/"]),
            make_tweet("t2", "alice", 200, []),
        ])
        profiles = build_user_profiles(tweets, scored)
        assert profiles["alice"].follower_count == 200

    def test_repeat_shares_accumulate(self):
        scored = {
            "http://a.org/": score_from_labels(labels_for_score(1)),
            "http://b.org/": score_from_labels(labels_for_score(6)),
        }
        tweets = table([
            make_tweet("t0", "alice", 10, ["http://a.org/", "http://b.org/"]),
            make_tweet("t1", "alice", 10, ["http://a.org/"]),
            make_tweet("t2", "bob", 3, ["http://x.org/"]),
        ])
        profiles = build_user_profiles(tweets, scored)
        alice = profiles["alice"]
        assert sorted(alice.shared_scores) == [1, 1, 6]
        assert alice.scored_shares == 3
        assert alice.bucket_counts == {"low": 2, "medium": 0, "high": 1}
        bob = profiles["bob"]
        assert bob.scored_shares == 0
        assert bob.bucket_counts == {"low": 0, "medium": 0, "high": 0}

    def test_matches_brute_force_on_random_tweets(self):
        rng = random.Random(55)
        scored_urls = [f"http://site{i:02d}.org/" for i in range(25)]
        scored = make_scored(scored_urls, rng)
        tweets = random_tweets(rng, 1000, scored_urls)
        profiles = build_user_profiles(tweets, scored)

        want_followers = {}
        want_scores = {}
        for tweet in tweets:
            want_followers[tweet.user_id] = max(
                want_followers.get(tweet.user_id, 0), tweet.follower_count
            )
            for url in set(tweet.urls):
                if url in scored:
                    want_scores.setdefault(tweet.user_id, []).append(
                        scored[url].score
                    )

        assert set(profiles) == set(want_followers)
        for user_id, profile in profiles.items():
            assert profile.follower_count == want_followers[user_id]
            assert sorted(profile.shared_scores) == sorted(
                want_scores.get(user_id, [])
            )
            assert sum(profile.bucket_counts.values()) == profile.scored_shares


class TestExposureCsv:
    def test_golden_output(self, tmp_path):
        scored = {
            "http://a.org/": score_from_labels(labels_for_score(1)),
            "http://b.org/": score_from_labels(labels_for_score(6)),
        }
        tweets = table([
            make_tweet("t0", "alice", 100, ["http://a.org/"]),
            make_tweet("t1", "bob", 40, ["http://a.org/", "http://b.org/"]),
        ])
        shares = aggregate_shares(tweets, scored)
        path = tmp_path / "exposure.csv"
        write_exposure_csv(shares, scored, path)
        assert path.read_bytes() == (
            b"url,tweet_count,potential_exposure,score,bucket\r\n"
            b"http://a.org/,2,140,1,low\r\n"
            b"http://b.org/,1,40,6,high\r\n"
        )
