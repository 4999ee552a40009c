#!/usr/bin/env python3
"""Compare the bulk tweet parser against the per-line loop it replaced.

Times ``ingest.parse_tweets``, which decodes a chunk of lines per
``json.loads`` call and normalizes plain URLs on a regex fast path,
against ``parse_tweets_per_line_oracle`` in ``tests/helpers.py`` (one
``json.loads`` per line, every URL through ``urlsplit``) on a generated
``tweets.jsonl``, read from the open file as the CLI reads it.  It also
times ``normalize_url_checked`` against the urlsplit path
(``ingest._normalize_url_split``) on every distinct raw URL of the file.
Any difference in the table, the skipped count or a normalized URL is
reported, and the script exits 1, so the benchmark doubles as an
exactness check at sizes the unit tests do not reach.

The tweets are shaped like the ``share-network`` perfbench workload's:
4,000 users, links drawn from 2,000 scored and 500 off-list URLs, each
written in one of ``tools/make_fixtures.py::messy_url``'s raw forms.  One
run of planted lines per 2,000 tweets (at least two of each kind) goes in
at a random place: malformed lines (broken JSON, a missing field, a
negative follower count) and adversarial ones: braces inside a URL, two
lines that decode as one object when joined, one line holding two
objects, NaN, a repeated tweet id or key, a lone surrogate, an escaped
non-ASCII URL, an array nested past the recursion limit, a blank line, and
URLs with whitespace, brackets or no scheme.  On one core of a 2-core x86
machine under Python 3.11 the 100,000-tweet default took 0.62-0.65 s per
line and 0.51-0.55 s in bulk (each planted run that the bulk decode cannot
vouch for costs a few halvings of its chunk), and its 22,919 URLs took
0.12-0.15 s through urlsplit and 0.03 s on the fast path.

Usage:
    python3 benchmarks/bench_tweets.py [--tweets N] [--seed S] [--repeats R]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

from webcred import ingest
from webcred.errors import DataError

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import parse_tweets_per_line_oracle  # noqa: E402


def load_fixture_tools():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tweet(tweet_id: str, **fields) -> str:
    record = {"tweet_id": tweet_id, "user_id": "u00000", "follower_count": 7,
              "urls": ["http://site00000.example.org/article/0"],
              "is_retweet": False, "retweet_of": None,
              "timestamp": "2017-01-01T00:00:00Z"}
    record.update(fields)
    return json.dumps(record)


def planted_runs(n: int) -> list[list[str]]:
    """``n`` runs of planted lines, every kind in turn."""
    runs = []
    for j in range(n):
        t = f"p{j}"
        kinds = [
            ['{"tweet_id": "' + t + '"'],
            [json.dumps({"tweet_id": t, "user_id": "u00000"})],
            [tweet(t, follower_count=-5)],
            [tweet(t, urls=["http://site00001.example.org/a/{x}", "http://b.org/}"])],
            [tweet(t)[:-1] + ', "x": [{"b": 1}', '{"c": 2}]}'],
            [tweet(t) + "," + tweet(t + "b")],
            [tweet(t, follower_count=float("nan"), score=float("inf"))],
            [tweet("t0000000")],
            ['{"tweet_id": "k' + t + '", ' + tweet(t)[1:]],
            [tweet(t, urls=["http://site00002.example.org/\ud800"])],
            [tweet(t, urls=["HTTP://Bücher.example/é?utm_source=x"])],
            [tweet(t)[:-1] + ', "x": ' + "[" * 5000 + "]" * 5000 + "}"],
            [""],
            [tweet(t, urls=[" http://site00003.example.org/p ", "http://[::1]/x",
                            "http://a.org/p\tq", "site00004.example.org/x", "#top"])],
        ]
        runs.append(kinds[j % len(kinds)])
    return runs


def make_lines(n_tweets: int, seed: int) -> list[str]:
    """``n_tweets`` tweet lines with one planted run per 2,000 of them
    (at least two of each kind) put in at random places."""
    mf = load_fixture_tools()
    rng = mf.SplitMix64(seed)
    scored = [f"http://site{i:05d}.example.org/article/{i}" for i in range(2000)]
    offlist = [f"http://other{i:04d}.example.net/post/{i}" for i in range(500)]
    users = [f"u{i:05d}" for i in range(4000)]
    followers = [20 + rng.randbelow(50_000) for _ in users]
    lines: list[str] = []
    for i in range(n_tweets):
        ui = rng.randbelow(len(users))
        links = [scored[rng.randbelow(len(scored))]]
        if rng.randbelow(10) == 0:
            links.append(offlist[rng.randbelow(len(offlist))])
        is_retweet = i > 0 and rng.randbelow(5) == 0
        lines.append(json.dumps({
            "tweet_id": f"t{i:07d}",
            "user_id": users[ui],
            "follower_count": followers[ui],
            "urls": [mf.messy_url(rng, u) for u in links],
            "is_retweet": is_retweet,
            "retweet_of": f"t{rng.randbelow(i):07d}" if is_retweet else None,
            "timestamp": f"2017-{1 + rng.randbelow(12):02d}-{1 + rng.randbelow(28):02d}"
            f"T{rng.randbelow(24):02d}:{rng.randbelow(60):02d}:00Z",
        }))
    for run in planted_runs(max(28, n_tweets // 2000)):
        at = rng.randbelow(len(lines) + 1)
        lines[at:at] = run
    return lines


def timed(fn, path: Path, repeats: int):
    """The best time of ``repeats`` calls of ``fn`` on the open file, and
    the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        with open(path) as fh:
            t0 = time.perf_counter()
            result = fn(fh)
            best = min(best, time.perf_counter() - t0)
    return best, result


def raw_urls(path: Path) -> list[str]:
    urls: set[str] = set()
    with open(path) as fh:
        for line in fh:
            try:
                urls.update(u for u in json.loads(line)["urls"] if isinstance(u, str))
            except (ValueError, KeyError, TypeError, RecursionError):
                pass
    return sorted(urls)


def normalized_all(fn, urls: list[str]) -> list:
    out = []
    for raw in urls:
        try:
            out.append(fn(raw))
        except DataError as exc:
            out.append(str(exc))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tweets", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tweets.jsonl"
        path.write_text("\n".join(make_lines(args.tweets, args.seed)) + "\n")
        t_line, want = timed(parse_tweets_per_line_oracle, path, args.repeats)
        t_bulk, got = timed(ingest.parse_tweets, path, args.repeats)
        urls = raw_urls(path)
        t0 = time.perf_counter()
        want_urls = normalized_all(ingest._normalize_url_split, urls)
        t_split = time.perf_counter() - t0
        t0 = time.perf_counter()
        got_urls = normalized_all(ingest.normalize_url_checked, urls)
        t_fast = time.perf_counter() - t0
    print(f"{args.tweets} tweets: {len(want[0])} lines kept, {want[1]} skipped")
    print(f"  per-line parse  {t_line:8.3f} s")
    print(f"  bulk parse      {t_bulk:8.3f} s  ({t_line / t_bulk:.2f}x)")
    print(f"{len(urls)} distinct raw URLs:")
    print(f"  urlsplit path   {t_split:8.3f} s")
    print(f"  fast path       {t_fast:8.3f} s  ({t_split / t_fast:.2f}x)")
    if got != want:
        print("  WARNING: the bulk and per-line parsers disagree")
        status = 1
    bad = [u for u, a, b in zip(urls, got_urls, want_urls) if a != b]
    if bad:
        print(f"  WARNING: {len(bad)} URLs normalize differently, first {bad[0]!r}")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
