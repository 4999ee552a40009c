#!/usr/bin/env python3
"""Compare the prefix-filtered near-duplicate join against a pairwise scan.

Times ``ingest.dedupe_near_duplicates`` and the brute-force oracle in
``tests/helpers.py`` (a scan of every kept document) on generated corpora
and checks that both keep the same urls, so the benchmark doubles as an
exactness check at sizes the unit tests do not reach.

Each corpus mixes distinct fixture-prose pages of 360-419 words with
near-duplicate copies (a page minus its last four words), one copy per
~18 pages as in the ``score-corpus`` perfbench workload.  The scan is
quadratic: on one core of a 2-core x86 machine under Python 3.11 and
NumPy 2.4 it took 3.4 s at 550 documents and 390 s at 5,500, against
0.048 s and 0.61 s for the join.  The join's tracemalloc peak, printed
beside its time, was 5.8 MB and 54 MB, about 25 bytes per word.
``--sizes 550`` skips the long run.

The fixture prose has under 200 distinct words.  ``--vocab N`` adds N
more, ``tail0`` to ``tail{N-1}``, dealt round the distinct pages as one
closing paragraph each (copies keep theirs), so that with N above 65,535
the join ranks word ids of two uint16 digits.  At 550 documents,
``--vocab 70000`` took 0.096 s and peaked at 14 MB.

Usage:
    python3 benchmarks/bench_dedupe.py [--sizes 550,5500] [--jaccard T]
                                       [--seed S] [--vocab N]
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
import tracemalloc
from pathlib import Path

from webcred import ingest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import dedupe_oracle  # noqa: E402


def load_fixture_tools():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_docs(n_docs: int, seed: int, vocab: int = 0) -> list[ingest.WebDocument]:
    mf = load_fixture_tools()
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


def timed_urls(fn, docs, threshold) -> tuple[float, list[str]]:
    t0 = time.perf_counter()
    kept = fn(docs, threshold)
    return time.perf_counter() - t0, [d.url for d in kept]


def peak_mb(fn, docs, threshold) -> float:
    """The tracemalloc peak of one call, in MB, from a second, traced call
    (tracing slows the call, so it is not the timed one)."""
    tracemalloc.start()
    try:
        fn(docs, threshold)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="550,5500",
                        help="comma-separated corpus sizes")
    parser.add_argument("--jaccard", type=float, default=ingest.DEFAULT_JACCARD)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vocab", type=int, default=0,
                        help="distinct long-tail words spread over the pages")
    args = parser.parse_args()

    status = 0
    for n_docs in (int(s) for s in args.sizes.split(",")):
        docs = make_docs(n_docs, args.seed, args.vocab)
        calls = 0
        jaccard = ingest.jaccard

        def counting(a, b):
            nonlocal calls
            calls += 1
            return jaccard(a, b)

        ingest.jaccard = counting
        try:
            t_join, kept_join = timed_urls(ingest.dedupe_near_duplicates, docs, args.jaccard)
        finally:
            ingest.jaccard = jaccard
        join_mb = peak_mb(ingest.dedupe_near_duplicates, docs, args.jaccard)
        t_scan, kept_scan = timed_urls(dedupe_oracle, docs, args.jaccard)
        n_words = len({w for d in docs for w in d.text.lower().split()})
        print(f"{n_docs} docs, {n_words} distinct words, jaccard >= {args.jaccard}: "
              f"{n_docs - len(kept_join)} duplicates")
        print(f"  pairwise scan  {t_scan:8.3f} s")
        print(f"  prefix join    {t_join:8.3f} s  {join_mb:6.1f} MB peak "
              f"({calls} jaccard calls)")
        print(f"  speedup        {t_scan / t_join:8.1f}x")
        if kept_join != kept_scan:
            print("  WARNING: the join and the scan keep different documents")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
