"""Seeded input generators for the benchmark workloads.

Each generator writes a workload's input files into a directory and
returns the ground truth the output checks compare against; the same
truth is also written to ``truth.json`` beside the inputs.  The text
building blocks (English-like prose with per-criterion signal tokens,
the French paragraph, messy URL variants, label and score draws) are
imported from ``tools/make_fixtures.py``, which stays the one source of
fixture prose.  Every count below is planted by construction, so the
checks never need the program to tell them what the right answer is.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

N_CRITERIA = 7


def load_fixture_tools(root: Path):
    """Import ``tools/make_fixtures.py`` from the checkout at ``root``."""
    path = root / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bucket_for_score(score: int) -> str:
    """Bucket cut points of the paper: 0-2 low, 3-4 medium, 5-7 high."""
    if score <= 2:
        return "low"
    if score <= 4:
        return "medium"
    return "high"


# Long-tail lexicon: 3-letter consonant-vowel-consonant syllables, three
# per word, so every word decodes uniquely and reads as letters to the
# language detector.  Draws are log-uniform over the lexicon, so a larger
# corpus keeps meeting new terms and its vocabulary keeps growing.
_SYLLABLES = (
    "bal ber cor dan fen gil hob kir lom mav nel pim ros sut tav vek wil yar zon dur"
).split()
LEXICON_SIZE = len(_SYLLABLES) ** 3


def longtail_word(index: int) -> str:
    n = len(_SYLLABLES)
    return (
        _SYLLABLES[index // (n * n)]
        + _SYLLABLES[(index // n) % n]
        + _SYLLABLES[index % n]
    )


def draw_longtail(rng) -> str:
    return longtail_word(int(LEXICON_SIZE ** rng.uniform()) - 1)


def _sprinkle(rng, text: str, words: list[str]) -> str:
    """Insert ``words`` at random positions of random paragraphs."""
    paragraphs = text.split("\n\n")
    for word in words:
        i = rng.randbelow(len(paragraphs))
        tokens = paragraphs[i].split()
        tokens.insert(rng.randbelow(len(tokens) + 1), word)
        paragraphs[i] = " ".join(tokens)
    return "\n\n".join(paragraphs)


def _french_page(mf, rng) -> str:
    sentences = [s.strip() for s in mf.FRENCH_PARAGRAPH.split(". ") if s.strip()]
    order = list(range(len(sentences)))
    rng.shuffle(order)
    return ". ".join(sentences[i] for i in order) + "."


def make_score_corpus(
    root: Path,
    out: Path,
    seed: int,
    good: int = 520,
    duplicates: int = 30,
    too_short: int = 20,
    non_english: int = 20,
    empty: int = 10,
    longtail_per_page: int = 24,
) -> dict:
    """Webpages with planted rejects for ``ingest``/``score``/``terms``.

    Good pages are 360-420 words of fixture prose plus long-tail terms, so
    each clears the 300-word filter with margin.  A near-duplicate is a
    good page minus its last four words: it still clears the word filter,
    shares almost every 5-word shingle with its source and is shorter, so
    dedupe always drops the copy.  Pages are written in a seeded shuffled
    order.
    """
    mf = load_fixture_tools(root)
    rng = mf.SplitMix64(seed)
    pages: list[tuple[str, str]] = []
    good_pages: list[tuple[str, str]] = []
    for i in range(good):
        labels = mf.random_labels(rng, mf.draw_score(rng))
        text = mf.page_text(rng, labels, 360 + rng.randbelow(60))
        text = _sprinkle(rng, text, [draw_longtail(rng) for _ in range(longtail_per_page)])
        good_pages.append((f"http://page{i:05d}.example.org/article/{i}", text))
    pages.extend(good_pages)
    for j, src in enumerate(rng.sample_without_replacement(good, duplicates)):
        words = good_pages[src][1].split(" ")
        pages.append(
            (f"http://mirror{j:04d}.example.org/copy/{j}", " ".join(words[:-4]))
        )
    for j in range(too_short):
        text = mf.paragraph(rng, 80 + rng.randbelow(60))
        pages.append((f"http://stub{j:04d}.example.com/stub/{j}", text))
    for j in range(non_english):
        pages.append((f"http://fr{j:04d}.example.fr/article/{j}", _french_page(mf, rng)))
    for j in range(empty):
        pages.append((f"http://broken{j:04d}.example.com/page/{j}", "" if j % 2 else " \n "))
    rng.shuffle(pages)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "webpages.jsonl", "w") as fh:
        for url, text in pages:
            fh.write(json.dumps({"url": url, "text": text}) + "\n")
    truth = {
        "workload": "score-corpus",
        "seed": seed,
        "pages": len(pages),
        "filter_report": {
            "retained": good,
            "non_english": non_english,
            "too_short": too_short,
            "duplicate": duplicates,
            "broken_empty": empty,
        },
        "retained_urls": sorted(url for url, _ in good_pages),
    }
    _write_truth(out, truth)
    return truth


# Family choice per criterion for the harness-written CV report: svm for
# criteria 3 and 7 and rf for the rest, so ``score`` runs both predict paths.
SCORE_MODEL_FAMILIES = {1: "rf", 2: "rf", 3: "svm", 4: "rf", 5: "rf", 6: "rf", 7: "svm"}


def write_cv_report(path: Path) -> None:
    """A cv_report.csv that makes ``train`` pick SCORE_MODEL_FAMILIES."""
    with open(path, "w") as fh:
        fh.write("criterion,family,f1_mean,f1_std,acc_mean,acc_std\n")
        for k in range(1, N_CRITERIA + 1):
            for family in ("svm", "rf"):
                f1 = 0.9 if family == SCORE_MODEL_FAMILIES[k] else 0.8
                fh.write(f"{k},{family},{f1!r},0.05,{f1!r},0.05\n")


def make_share_network(
    root: Path,
    out: Path,
    seed: int,
    tweets: int = 100_000,
    users: int = 4000,
    scored_urls: int = 2000,
    offlist_urls: int = 500,
    follower_edges: int = 12_000,
    malformed: int = 50,
) -> dict:
    """Tweets, follower edges and a scores.csv for ``exposure``/``graph``.

    The first tenth of the users draw their main link from low-bucket
    pages and the second tenth from high-bucket pages, so the graph has
    both sharer classes.  15% of tweets add a second scored link and 10%
    an unscored one, and a few malformed lines exercise the parser's skip
    path.  The truth holds
    the per-url share counts and exposure sums, per-user profiles and the
    largest connected component, all computed here by brute force.
    """
    mf = load_fixture_tools(root)
    rng = mf.SplitMix64(seed)
    urls = [f"http://site{i:05d}.example.org/article/{i}" for i in range(scored_urls)]
    scores: dict[str, tuple[tuple[int, ...], int, str]] = {}
    for url in urls:
        labels = mf.random_labels(rng, mf.draw_score(rng))
        score = sum(labels)
        scores[url] = (labels, score, bucket_for_score(score))
    offlist = [f"http://other{i:04d}.example.net/post/{i}" for i in range(offlist_urls)]
    low_urls = [u for u in urls if scores[u][2] == "low"]
    high_urls = [u for u in urls if scores[u][2] == "high"]
    user_ids = [f"u{i:05d}" for i in range(users)]
    followers = {u: 20 + rng.randbelow(50_000) for u in user_ids}

    counts = {u: 0 for u in urls}
    exposure = {u: 0 for u in urls}
    shares = {u: 0 for u in user_ids}
    bucket_counts = {u: {"low": 0, "medium": 0, "high": 0} for u in user_ids}
    lines: list[str] = []
    for i in range(tweets):
        ui = rng.randbelow(users)
        user = user_ids[ui]
        if ui < users // 10:
            pool = low_urls
        elif ui < users // 5:
            pool = high_urls
        else:
            pool = urls
        links = [pool[rng.randbelow(len(pool))]]
        r = rng.uniform()
        if r < 0.15:
            links.append(urls[rng.randbelow(len(urls))])
        elif r < 0.25:
            links.append(offlist[rng.randbelow(len(offlist))])
        is_retweet = i > 0 and rng.uniform() < 0.2
        record = {
            "tweet_id": f"t{i:07d}",
            "user_id": user,
            "follower_count": followers[user],
            "urls": [mf.messy_url(rng, u) for u in links],
            "is_retweet": is_retweet,
            "retweet_of": f"t{rng.randbelow(i):07d}" if is_retweet else None,
            "timestamp": f"2017-{1 + rng.randbelow(12):02d}-{1 + rng.randbelow(28):02d}"
            f"T{rng.randbelow(24):02d}:{rng.randbelow(60):02d}:00Z",
        }
        lines.append(json.dumps(record))
        for url in set(links):
            if url in scores:
                counts[url] += 1
                exposure[url] += followers[user]
                shares[user] += 1
                bucket_counts[user][scores[url][2]] += 1
    # Malformed lines the parser must skip: bad JSON, a missing field, a
    # negative follower count.
    bad = [
        '{"tweet_id": "bad-json"',
        json.dumps({"tweet_id": "bad-missing", "user_id": "u00000"}),
        json.dumps(
            {
                "tweet_id": "bad-negative", "user_id": "u00000",
                "follower_count": -5, "urls": [urls[0]], "is_retweet": False,
                "retweet_of": None, "timestamp": "2017-01-01T00:00:00Z",
            }
        ),
    ]
    for j in range(malformed):
        lines.insert(rng.randbelow(len(lines) + 1), bad[j % len(bad)].replace("bad-", f"bad{j}-"))

    edges: set[tuple[str, str]] = set()
    while len(edges) < follower_edges:
        a, b = rng.randbelow(users), rng.randbelow(users)
        if a != b:
            edges.add((user_ids[a], user_ids[b]))
    edge_list = sorted(edges)
    rng.shuffle(edge_list)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "tweets.jsonl", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out / "followers.csv", "w") as fh:
        fh.write("follower_id,followee_id\n")
        for a, b in edge_list:
            fh.write(f"{a},{b}\n")
    with open(out / "scores.csv", "w") as fh:
        fh.write("url," + ",".join(f"c{k}" for k in range(1, N_CRITERIA + 1)))
        fh.write(",score,bucket\n")
        for url in urls:
            labels, score, bucket = scores[url]
            fh.write(f"{url},{','.join(map(str, labels))},{score},{bucket}\n")

    truth = {
        "workload": "share-network",
        "seed": seed,
        "tweets": tweets,
        "malformed": malformed,
        "exposure": {u: [counts[u], exposure[u], scores[u][1], scores[u][2]] for u in urls},
        "graph": largest_component(user_ids, edge_list, shares, bucket_counts, followers),
    }
    _write_truth(out, truth)
    return truth


def largest_component(user_ids, edges, shares, bucket_counts, followers, min_links=2):
    """LCC of the undirected follower graph over users with >= min_links
    scored shares, by union-find; ties go to the component whose smallest
    user id sorts first.  Returns its nodes (with follower count and
    sharer class) and its directed edges."""
    eligible = {u for u in user_ids if shares[u] >= min_links}
    parent = {u: u for u in eligible}

    def find(u: str) -> str:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    kept = [(a, b) for a, b in edges if a in eligible and b in eligible]
    for a, b in kept:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members: dict[str, list[str]] = {}
    for u in eligible:
        members.setdefault(find(u), []).append(u)
    if not members:
        return {"nodes": {}, "edges": []}
    best = min(members.values(), key=lambda c: (-len(c), min(c)))
    in_best = set(best)
    nodes = {}
    for u in sorted(best):
        c = bucket_counts[u]
        if c["high"] >= 2 and c["low"] == 0:
            cls = "high_sharer"
        elif c["low"] >= 2 and c["high"] == 0:
            cls = "low_sharer"
        else:
            cls = "unclassified"
        nodes[u] = [followers[u], cls]
    return {
        "nodes": nodes,
        "edges": sorted([a, b] for a, b in kept if a in in_best),
    }


def _write_truth(out: Path, truth: dict) -> None:
    with open(out / "truth.json", "w") as fh:
        json.dump(truth, fh, sort_keys=True)
        fh.write("\n")
