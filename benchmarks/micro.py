#!/usr/bin/env python3
"""Time the fast stages against their oracles in tests/helpers.py.

Each case builds generated data at sizes the unit tests do not reach,
times the implementations against a slow oracle kept in
``tests/helpers.py`` and compares their results item by item.  One loop
does the best-of-R timing, the comparison, a ``WARNING: ... disagree``
line for each implementation that differs, and the exit status: 1 on any
mismatch, else 0.  So every case is an exactness check as well as a
benchmark.

kernels
    ``svm_fit`` of the compiled kernels against the pure ones (equal
    passes, weights within rtol 1e-6).  ``node_best_split`` of both
    kernels against the per-feature loop that the pure kernel's blocked
    pass replaced, on one large node, many small nodes, and nodes just
    large enough that the candidate features are scored in two blocks;
    each split must agree on feature, threshold (bit for bit) and score.
    ``train_random_forest``, which grows its trees in lockstep with one
    ``node_best_splits`` call per step, against the one-tree-at-a-time
    loop on each kernel; every tree must be equal.  The compiled kernels
    are the library built from ``kernels.c`` (``python setup.py build_ext
    --inplace``); without it only the pure kernels are timed.
dedupe
    ``ingest.dedupe_near_duplicates`` against a pairwise scan of every
    kept document; both must keep the same urls.  Each corpus mixes
    distinct fixture-prose pages of 360-419 words with near-duplicate
    copies (a page minus its last four words), one per ~18 pages as in
    the ``score-corpus`` perfbench workload.  ``--vocab N`` deals N more
    distinct words round the pages, one closing paragraph each, so that
    above 65,535 the join ranks word ids of two uint16 digits.  The scan
    is quadratic: on one core of a 2-core x86 machine under Python 3.11
    and NumPy 2.4 it took 3.4 s at 550 documents and 390 s at 5,500,
    against 0.048 s and 0.61 s for the join, whose tracemalloc peak
    (printed, from a separate untimed call) was 5.8 MB and 54 MB.
language
    ``language.detect_language`` against the trigram ``Counter`` detector
    it replaced, on the fixture pages and on the 600-page
    ``score-corpus`` of the perfbench generator; every page must get the
    same ``(lang, sim)``.  Best of 3 passes, profiles built beforehand.
tweets
    ``ingest.parse_tweets``, which decodes a chunk of lines per
    ``json.loads`` call, against the per-line loop it replaced, on a
    generated ``tweets.jsonl`` read from the open file; every kept row
    and the skipped count must agree.  Then ``normalize_url_checked``
    against the urlsplit path (``ingest._normalize_url_split``) on every
    distinct raw URL of the file.  The tweets are shaped like the
    ``share-network`` workload's, with one run of planted malformed or
    adversarial lines per 2,000 tweets (at least two of each kind).  On
    the machine above the 100,000-tweet default took 0.62-0.65 s per line
    and 0.51-0.55 s in bulk, and its 22,919 URLs 0.12-0.15 s through
    urlsplit and 0.03 s on the fast path.

Usage:
    python3 benchmarks/micro.py kernels [--docs N] [--features D] [--nnz K]
                                        [--node-rows N] [--node-features K]
                                        [--repeats R] [--seed S]
    python3 benchmarks/micro.py dedupe [--sizes 550,5500] [--vocab N] [--seed S]
    python3 benchmarks/micro.py language [--seed S]
    python3 benchmarks/micro.py tweets [--tweets N] [--repeats R] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from webcred import _kernels, ingest
from webcred._kernels import LIBRARY, pure
from webcred._kernels.compiled import load
from webcred.errors import DataError
from webcred.forest import MIN_IMPURITY_SPLIT, train_random_forest
from webcred.language import detect_language
from webcred.rng import SplitMix64
from webcred.textprep import CsrMatrix

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from helpers import (  # noqa: E402
    dedupe_oracle,
    detect_language_oracle,
    forest_trees_oracle,
    node_best_split_oracle,
    parse_tweets_per_line_oracle,
)
from workloads import load_fixture_tools, make_score_corpus  # noqa: E402

# Trees in the kernels case's forest check.
FOREST_TREES = 10

compiled = None
if LIBRARY.exists():
    try:
        compiled = load(LIBRARY)
    except OSError as exc:
        print(f"note: {exc}; timing the pure kernels only", file=sys.stderr)


def best_of(fn, repeats: int):
    """The best wall time of ``repeats`` calls of ``fn()``, and the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def compare(repeats: int, title: str, reference, impls, same=operator.eq) -> int:
    """Time the ``(name, thunk)`` pair ``reference`` and each of ``impls``,
    whose thunks return lists, and compare each implementation's list with
    the reference's item by item under ``same``.  Prints a WARNING line for
    each implementation that disagrees; returns the number of differing
    items."""
    print(title)
    ref_name, ref = reference
    t_ref, want = best_of(ref, repeats)
    print(f"  {ref_name:20s} {t_ref:8.3f} s")
    total = 0
    for name, fn in impls:
        t, got = best_of(fn, repeats)
        differ = [i for i, (a, b) in enumerate(zip(got, want)) if not same(a, b)]
        n_differ = len(differ) + abs(len(got) - len(want))
        print(f"  {name:20s} {t:8.3f} s  ({t_ref / t:5.1f}x, "
              f"{n_differ} of {len(want)} differ)")
        if n_differ:
            first = differ[0] if differ else min(len(got), len(want))
            print(f"  WARNING: {name} and {ref_name} disagree, first at item {first}")
        total += n_differ
    return total


def each(fn, items):
    """A thunk that maps ``fn`` over ``items``."""
    return lambda: [fn(item) for item in items]


# kernels

def make_sparse_problem(n_docs: int, n_features: int, nnz_per_doc: int, seed: int):
    rng = SplitMix64(seed)
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    indices = []
    data = []
    y = np.empty(n_docs, dtype=np.float64)
    for i in range(n_docs):
        label = 1.0 if rng.randbelow(2) else -1.0
        y[i] = label
        cols = sorted(rng.sample_without_replacement(n_features - 2, nnz_per_doc))
        # Two class-correlated features make the problem separable enough
        # that the solver does real work instead of thrashing at random.
        cols.append(n_features - 2 if label > 0 else n_features - 1)
        vals = [0.05 + 0.95 * rng.uniform() for _ in cols]
        indices.extend(cols)
        data.extend(vals)
        indptr[i + 1] = len(indices)
    return (
        indptr,
        np.asarray(indices, dtype=np.int32),
        np.asarray(data, dtype=np.float64),
        y,
        n_features,
    )


def make_node_problem(n_rows: int, n_features: int, seed: int):
    rng = SplitMix64(seed)
    X = np.empty((n_rows, n_features), dtype=np.float64)
    for i in range(n_rows):
        for j in range(n_features):
            X[i, j] = rng.uniform()
    y = np.array([rng.randbelow(2) for _ in range(n_rows)], dtype=np.int8)
    rows = np.arange(n_rows, dtype=np.int32)
    feats = np.arange(n_features, dtype=np.int32)
    return X, rows, feats, y


def svm_agree(a, b) -> bool:
    """Equal passes, and weights within rtol 1e-6."""
    return a[3] == b[3] and np.allclose(a[0], b[0], rtol=1e-6, atol=1e-9)


def split_key(fn):
    def key(call) -> tuple:
        feature, threshold, score = fn(*call)
        return feature, float(threshold).hex(), score
    return key


def trees_agree(a, b) -> bool:
    return a.to_dict() == b.to_dict()


def kernels(args):
    if compiled is None:
        print("compiled kernels unavailable; timing the pure fallback only")
    impls = [("pure", pure)] + ([("compiled", compiled)] if compiled else [])
    problem = make_sparse_problem(args.docs, args.features, args.nnz, args.seed)

    def svm_fit(impl):
        return lambda: [impl.svm_fit(*problem, 1.0, 1e-4, 200, args.seed)]

    yield (f"svm_fit: {args.docs} docs, {args.features} features, "
           f"{args.nnz}+1 nnz/doc, C=1.0",
           ("pure", svm_fit(pure)),
           [(name, svm_fit(impl)) for name, impl in impls[1:]], svm_agree)

    X, rows, feats, y = make_node_problem(args.node_rows, args.node_features,
                                          args.seed + 1)
    # Deep trees spend most of their time on small nodes, where per-call
    # overhead dominates.
    n_small, n_calls = 64, 2000
    small = [
        (X, rows[(k * 17) % (args.node_rows - n_small):][:n_small].copy(), feats, y)
        for k in range(n_calls)
    ]
    # One row more than a single block holds, drawn with replacement as in
    # a bootstrap, on values rounded to one decimal: the features are
    # scored in two blocks, and equal scores across the block boundary are
    # common.
    n_cross = pure._BLOCK_ELEMENTS // args.node_features + 1
    Xr = np.round(X, 1)
    draws = SplitMix64(args.seed + 2)
    crossing = [
        (Xr, (draws.next_u64_array(n_cross) % np.uint64(args.node_rows)).astype(np.int32),
         feats, y)
        for _ in range(50)
    ]
    for title, calls in [
        (f"large node: {args.node_rows} rows, {args.node_features} features",
         [(X, rows, feats, y)]),
        (f"small nodes: {n_calls} calls on {n_small}-row nodes", small),
        (f"block-crossing: 50 calls on {n_cross}-row nodes "
         f"({n_cross * args.node_features} values)", crossing),
    ]:
        yield (f"node_best_split, {title}",
               ("per-feature loop", each(split_key(node_best_split_oracle), calls)),
               [(name, each(split_key(impl.node_best_split), calls))
                for name, impl in impls])

    # The SVM problem's rows, labelled by class, as a forest training set.
    indptr, indices, data, y_svm, dim = problem
    X_csr = CsrMatrix(indptr, indices, data, dim)
    labels = (y_svm > 0).astype(int).tolist()
    dense, labels8 = X_csr.to_dense(), np.asarray(labels, dtype=np.int8)
    for name, impl in impls:
        def loop(impl=impl):
            return forest_trees_oracle(dense, labels8, FOREST_TREES, args.seed,
                                       MIN_IMPURITY_SPLIT, impl.node_best_split)

        def lockstep(impl=impl):
            active, _kernels.node_best_splits = _kernels.node_best_splits, impl.node_best_splits
            try:
                return train_random_forest(X_csr, labels, FOREST_TREES,
                                           MIN_IMPURITY_SPLIT, args.seed).trees
            finally:
                _kernels.node_best_splits = active

        yield (f"train_random_forest, {name} kernels: {FOREST_TREES} trees "
               f"on the svm_fit problem",
               ("tree-at-a-time loop", loop), [("lockstep", lockstep)], trees_agree)


# dedupe

def make_docs(n_docs: int, seed: int, vocab: int = 0) -> list[ingest.WebDocument]:
    mf = load_fixture_tools(ROOT)
    rng = mf.SplitMix64(seed)
    n_copies = n_docs * 30 // 550
    n_pages = n_docs - n_copies
    docs = []
    for i in range(n_pages):
        labels = mf.random_labels(rng, mf.draw_score(rng))
        text = mf.page_text(rng, labels, 360 + rng.randbelow(60))
        # Page i's share of the long tail, one closing paragraph.
        tail = [f"tail{t}" for t in range(i, vocab, n_pages)]
        if tail:
            text += "\n\n" + " ".join(tail)
        docs.append(ingest.WebDocument(url=f"http://page{i:05d}.example.org/", text=text))
    for j, src in enumerate(rng.sample_without_replacement(len(docs), n_copies)):
        text = " ".join(docs[src].text.split(" ")[:-4])
        docs.append(ingest.WebDocument(url=f"http://mirror{j:05d}.example.org/", text=text))
    return docs


def kept_urls(fn, docs):
    return lambda: [d.url for d in fn(docs, ingest.DEFAULT_JACCARD)]


def dedupe(args):
    for n_docs in (int(s) for s in args.sizes.split(",")):
        docs = make_docs(n_docs, args.seed, args.vocab)
        n_words = len({w for d in docs for w in d.text.lower().split()})
        join = ingest.dedupe_near_duplicates
        tracemalloc.start()
        try:
            n_kept = len(join(docs, ingest.DEFAULT_JACCARD))
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        yield (f"{n_docs} docs, {n_words} distinct words, jaccard >= "
               f"{ingest.DEFAULT_JACCARD}: {n_docs - n_kept} duplicates, "
               f"the join's peak {peak_mb:.1f} MB",
               ("pairwise scan", kept_urls(dedupe_oracle, docs)),
               [("prefix join", kept_urls(join, docs))])


# language

def read_texts(path: Path) -> list[str]:
    return [json.loads(line)["text"] for line in path.read_text().splitlines()]


def language(args):
    with tempfile.TemporaryDirectory() as tmp:
        make_score_corpus(ROOT, Path(tmp), args.seed)
        corpora = {
            "fixture pages": read_texts(ROOT / "fixtures" / "webpages.jsonl"),
            f"score-corpus, seed {args.seed}": read_texts(Path(tmp) / "webpages.jsonl"),
        }
    detect_language("warm up the language profiles")
    detect_language_oracle("warm up the language profiles")
    for name, texts in corpora.items():
        yield (f"{name}: {len(texts)} pages",
               ("Counter oracle", each(detect_language_oracle, texts)),
               [("packed trigrams", each(detect_language, texts))])


# tweets

def tweet(tweet_id: str, **fields) -> str:
    record = {"tweet_id": tweet_id, "user_id": "u00000", "follower_count": 7,
              "urls": ["http://site00000.example.org/article/0"],
              "is_retweet": False, "retweet_of": None,
              "timestamp": "2017-01-01T00:00:00Z"}
    record.update(fields)
    return json.dumps(record)


def planted_runs(n: int) -> list[list[str]]:
    """``n`` runs of planted lines, every kind in turn: malformed lines
    (broken JSON, a missing field, a negative follower count) and
    adversarial ones (braces inside a URL, two lines that decode as one
    object when joined, one line holding two objects, NaN, a repeated tweet
    id or key, a lone surrogate, an escaped non-ASCII URL, an array nested
    past the recursion limit, a blank line, and URLs with whitespace,
    brackets or no scheme)."""
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
    """``n_tweets`` tweet lines from 4,000 users linking 2,000 scored and
    500 off-list URLs, each in one of ``tools/make_fixtures.py::messy_url``'s
    raw forms, with one planted run per 2,000 of them (at least two of each
    kind) put in at random places."""
    mf = load_fixture_tools(ROOT)
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


def parsed_rows(fn, path: Path):
    """A thunk that parses the open file with ``fn``: the kept rows, then
    the skipped count."""
    def run():
        with open(path) as fh:
            table, skipped = fn(fh)
        return [*zip(table.tweet_ids, table.user_ids, table.follower_counts,
                     table.urls), skipped]
    return run


def raw_urls(path: Path) -> list[str]:
    urls: set[str] = set()
    with open(path) as fh:
        for line in fh:
            try:
                urls.update(u for u in json.loads(line)["urls"] if isinstance(u, str))
            except (ValueError, KeyError, TypeError, RecursionError):
                pass
    return sorted(urls)


def normalized(fn):
    def run(raw: str):
        try:
            return fn(raw)
        except DataError as exc:
            return str(exc)
    return run


def tweets(args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tweets.jsonl"
        lines = make_lines(args.tweets, args.seed)
        path.write_text("\n".join(lines) + "\n")
        yield (f"{args.tweets} tweets in {len(lines)} lines",
               ("per-line parse", parsed_rows(parse_tweets_per_line_oracle, path)),
               [("bulk parse", parsed_rows(ingest.parse_tweets, path))])
        urls = raw_urls(path)
    yield (f"{len(urls)} distinct raw URLs",
           ("urlsplit path", each(normalized(ingest._normalize_url_split), urls)),
           [("fast path", each(normalized(ingest.normalize_url_checked), urls))])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cases = parser.add_subparsers(dest="case", required=True)
    case = cases.add_parser("kernels", help="SVM fit, split search and forest")
    case.add_argument("--docs", type=int, default=1500)
    case.add_argument("--features", type=int, default=3000)
    case.add_argument("--nnz", type=int, default=40)
    case.add_argument("--node-rows", type=int, default=4000)
    case.add_argument("--node-features", type=int, default=40)
    case.add_argument("--repeats", type=int, default=3)
    case.add_argument("--seed", type=int, default=42)
    case.set_defaults(run=kernels)
    case = cases.add_parser("dedupe", help="near-duplicate join")
    case.add_argument("--sizes", default="550,5500", help="comma-separated corpus sizes")
    case.add_argument("--seed", type=int, default=1)
    case.add_argument("--vocab", type=int, default=0,
                      help="distinct long-tail words spread over the pages")
    case.set_defaults(run=dedupe, repeats=1)
    case = cases.add_parser("language", help="packed-trigram language detector")
    case.add_argument("--seed", type=int, default=1)
    case.set_defaults(run=language, repeats=3)
    case = cases.add_parser("tweets", help="bulk tweet parser and URL fast path")
    case.add_argument("--tweets", type=int, default=100_000)
    case.add_argument("--seed", type=int, default=1)
    case.add_argument("--repeats", type=int, default=3)
    case.set_defaults(run=tweets)
    args = parser.parse_args(argv)
    mismatches = sum(compare(args.repeats, *check) for check in args.run(args))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
