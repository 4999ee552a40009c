#!/usr/bin/env python3
"""Compare the packed-trigram language detector against the Counter oracle.

Times ``language.detect_language`` and the trigram-string ``Counter``
detector in ``tests/helpers.py`` that it replaced on the bundled fixture
pages and on the 600-page ``score-corpus`` of the perfbench workload
generator (520 English pages with long-tail terms, 30 near-duplicates, 20
short, 20 French and 10 empty pages), and checks that both give the same
``(lang, sim)`` for every page, with exact equality.  Both detectors build
their profiles before the timed passes, and each prints its best of
``REPEAT`` passes.  Exits 1 on any mismatch.

Usage:
    python3 benchmarks/bench_language.py [--seed S]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from webcred.language import detect_language

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from helpers import detect_language_oracle  # noqa: E402
from workloads import make_score_corpus  # noqa: E402


def read_texts(path: Path) -> list[str]:
    return [json.loads(line)["text"] for line in path.read_text().splitlines()]


def timed(fn, texts: list[str]) -> tuple[float, list[tuple[str, float]]]:
    """Best wall time of ``REPEAT`` passes over ``texts``, and the results."""
    best = float("inf")
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        results = [fn(text) for text in texts]
        best = min(best, time.perf_counter() - t0)
    return best, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        make_score_corpus(ROOT, Path(tmp), args.seed)
        corpora = {
            "fixture pages": read_texts(ROOT / "fixtures" / "webpages.jsonl"),
            f"score-corpus, seed {args.seed}": read_texts(Path(tmp) / "webpages.jsonl"),
        }

    detect_language("warm up the language profiles")
    detect_language_oracle("warm up the language profiles")
    status = 0
    for name, texts in corpora.items():
        t_oracle, expected = timed(detect_language_oracle, texts)
        t_packed, got = timed(detect_language, texts)
        mismatches = sum(a != b for a, b in zip(got, expected))
        print(f"{name}: {len(texts)} pages")
        print(f"  Counter oracle   {t_oracle:8.3f} s")
        print(f"  packed trigrams  {t_packed:8.3f} s")
        print(f"  speedup          {t_oracle / t_packed:8.1f}x")
        if mismatches:
            print(f"  WARNING: {mismatches} pages get a different (lang, sim)")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
