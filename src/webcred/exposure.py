"""Share counts, potential-exposure sums, and per-user sharing profiles.

Potential exposure for a link is the sum of follower counts over every
tweet and retweet that shared it.  It is an upper bound on the audience:
a user following two posters is counted twice, and no de-duplication is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .credibility import BUCKETS, N_CRITERIA, CredibilityResult
from .errors import DataError, write_csv
from .ingest import TweetRecord


@dataclass
class ShareRecord:
    url: str
    tweet_count: int
    potential_exposure: int


@dataclass
class UserProfile:
    """Everything known about one user's sharing of scored links."""

    user_id: str
    follower_count: int = 0
    shared_scores: list[int] = field(default_factory=list)
    bucket_counts: dict[str, int] = field(
        default_factory=lambda: {b: 0 for b in BUCKETS}
    )

    @property
    def scored_shares(self) -> int:
        return len(self.shared_scores)


def aggregate_shares(
    tweets: Sequence[TweetRecord], scored: dict[str, CredibilityResult]
) -> list[ShareRecord]:
    """One ShareRecord per scored url, sorted by url.

    A tweet linking k distinct scored urls increments k records; retweets
    count as posts by the retweeting user with that user's own follower
    count.  Scored urls never tweeted get zero-count records.
    """
    counts = {url: 0 for url in scored}
    exposure = {url: 0 for url in scored}
    for tweet in tweets:
        for url in set(tweet.urls):
            if url in counts:
                counts[url] += 1
                exposure[url] += tweet.follower_count
    return [
        ShareRecord(url=url, tweet_count=counts[url], potential_exposure=exposure[url])
        for url in sorted(scored)
    ]


def _quantile_summary(values: list[int]) -> dict:
    if not values:
        return {
            "pages": 0,
            "exposure_total": 0,
            "exposure_min": None,
            "exposure_q1": None,
            "exposure_median": None,
            "exposure_q3": None,
            "exposure_max": None,
            "exposure_mean": None,
        }
    arr = np.array(sorted(values), dtype=np.float64)
    q1, median, q3 = (float(v) for v in np.percentile(arr, [25, 50, 75]))
    return {
        "pages": len(values),
        "exposure_total": int(sum(values)),
        "exposure_min": int(arr[0]),
        "exposure_q1": q1,
        "exposure_median": median,
        "exposure_q3": q3,
        "exposure_max": int(arr[-1]),
        "exposure_mean": float(arr.mean()),
    }


def bucket_share_report(
    shares: Sequence[ShareRecord], scored: dict[str, CredibilityResult]
) -> dict:
    """Share totals by score and bucket, with tweet/exposure proportions.

    Proportions are over total tweets (respectively total exposure) and
    sum to 1 within 1e-9 whenever the totals are positive; with zero
    totals they are reported as null.  Per-bucket exposure distributions
    summarize the per-page exposure values.
    """
    if not shares:
        raise DataError("no share records to report on")
    tweets_by_score = {s: 0 for s in range(N_CRITERIA + 1)}
    tweets_by_bucket = {b: 0 for b in BUCKETS}
    exposure_by_bucket = {b: 0 for b in BUCKETS}
    pages_by_bucket: dict[str, list[int]] = {b: [] for b in BUCKETS}
    for share in shares:
        result = scored.get(share.url)
        if result is None:
            raise DataError(f"share record for unscored url {share.url}")
        tweets_by_score[result.score] += share.tweet_count
        tweets_by_bucket[result.bucket] += share.tweet_count
        exposure_by_bucket[result.bucket] += share.potential_exposure
        pages_by_bucket[result.bucket].append(share.potential_exposure)
    total_tweets = sum(tweets_by_bucket.values())
    total_exposure = sum(exposure_by_bucket.values())
    tweet_proportions = {
        b: (tweets_by_bucket[b] / total_tweets if total_tweets else None)
        for b in BUCKETS
    }
    exposure_proportions = {
        b: (exposure_by_bucket[b] / total_exposure if total_exposure else None)
        for b in BUCKETS
    }
    return {
        "total_tweets": total_tweets,
        "total_exposure": total_exposure,
        "tweets_by_score": tweets_by_score,
        "tweets_by_bucket": tweets_by_bucket,
        "exposure_by_bucket": exposure_by_bucket,
        "tweet_proportions": tweet_proportions,
        "exposure_proportions": exposure_proportions,
        "exposure_distribution_by_bucket": {
            b: _quantile_summary(pages_by_bucket[b]) for b in BUCKETS
        },
    }


def top_exposures(shares: Sequence[ShareRecord], n: int) -> list[ShareRecord]:
    """Top n records by exposure, descending, ties by url ascending."""
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    return sorted(shares, key=lambda s: (-s.potential_exposure, s.url))[:n]


def build_user_profiles(
    tweets: Sequence[TweetRecord], scored: dict[str, CredibilityResult]
) -> dict[str, UserProfile]:
    """Per-user sharing profiles over the scored urls.

    Every (tweet, distinct scored url) pair appends that url's score to
    the posting user's list, so repeat shares count repeatedly.  A user's
    follower_count is the maximum observed across their tweets, since the
    corpus may span follower-count changes.
    """
    profiles: dict[str, UserProfile] = {}
    for tweet in tweets:
        profile = profiles.get(tweet.user_id)
        if profile is None:
            profile = UserProfile(user_id=tweet.user_id)
            profiles[tweet.user_id] = profile
        profile.follower_count = max(profile.follower_count, tweet.follower_count)
        for url in sorted(set(tweet.urls)):
            result = scored.get(url)
            if result is not None:
                profile.shared_scores.append(result.score)
                profile.bucket_counts[result.bucket] += 1
    return profiles


def write_exposure_csv(
    shares: Sequence[ShareRecord],
    scored: dict[str, CredibilityResult],
    path: str | Path,
) -> None:
    write_csv(
        path,
        ("url", "tweet_count", "potential_exposure", "score", "bucket"),
        (
            (s.url, s.tweet_count, s.potential_exposure,
             scored[s.url].score, scored[s.url].bucket)
            for s in shares
        ),
    )
