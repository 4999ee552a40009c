"""The cases of ``benchmarks/micro.py`` at tiny sizes: each exits 0 when its
implementations agree with their oracles, and exits 1 with a ``disagree``
line when one of them is replaced by a wrong one."""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from webcred import ingest
from webcred._kernels import pure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import micro  # noqa: E402

TINY = {
    "kernels": ["--docs", "60", "--features", "200", "--nnz", "10",
                "--node-rows", "300", "--node-features", "10", "--repeats", "1"],
    "dedupe": ["--sizes", "60"],
    "language": [],
    "tweets": ["--tweets", "2000", "--repeats", "1"],
}


@pytest.fixture(autouse=True)
def small_score_corpus(monkeypatch):
    """The language case's score-corpus at 28 pages instead of 600."""
    monkeypatch.setattr(micro, "make_score_corpus", functools.partial(
        micro.make_score_corpus, good=20, duplicates=2, too_short=2,
        non_english=2, empty=2,
    ))


def run(case: str, capsys) -> tuple[int, str]:
    status = micro.main([case, *TINY[case]])
    return status, capsys.readouterr().out


def wrong_svm_fit(*args):
    weights, *rest = pure.svm_fit(*args)
    return (weights * 1.01, *rest)


def wrong_split(*args):
    feature, threshold, score = pure.node_best_split(*args)
    return feature, np.nextafter(threshold, np.inf), score


@pytest.mark.parametrize("case", list(TINY))
def test_case_agrees(case, monkeypatch, capsys):
    # Stand the pure kernels in for the compiled library, so that the
    # compiled-kernel checks run too.
    monkeypatch.setattr(micro, "compiled", SimpleNamespace(
        svm_fit=pure.svm_fit, node_best_split=pure.node_best_split,
        node_best_splits=pure.node_best_splits,
    ))
    status, out = run(case, capsys)
    assert status == 0, out
    assert "disagree" not in out
    assert " 0 of " in out


def test_kernels_exit_1_on_wrong_kernels(monkeypatch, capsys):
    monkeypatch.setattr(micro, "compiled", SimpleNamespace(
        svm_fit=wrong_svm_fit, node_best_split=wrong_split,
        node_best_splits=pure.node_best_splits,
    ))
    status, out = run("kernels", capsys)
    assert status == 1
    assert "WARNING: compiled and pure disagree" in out
    assert "WARNING: compiled and per-feature loop disagree" in out
    # The loop grows its trees with the wrong split, lockstep with the
    # right one.
    assert "WARNING: lockstep and tree-at-a-time loop disagree" in out
    assert "WARNING: pure" not in out


@pytest.mark.parametrize("case, module, name, wrong, line", [
    ("dedupe", ingest, "dedupe_near_duplicates",
     lambda real: lambda docs, t: real(docs, t)[:-1],
     "prefix join and pairwise scan disagree"),
    ("language", micro, "detect_language",
     lambda real: lambda text: ("en", real(text)[1]),
     "packed trigrams and Counter oracle disagree"),
    ("tweets", ingest, "parse_tweets",
     lambda real: lambda fh: (lambda table, skipped: (table, skipped + 1))(*real(fh)),
     "bulk parse and per-line parse disagree"),
    ("tweets", ingest, "normalize_url_checked",
     lambda real: lambda raw: (real(raw)[0].upper(), True),
     "fast path and urlsplit path disagree"),
], ids=["dedupe", "language", "tweets-parser", "tweets-urls"])
def test_case_exits_1_on_a_wrong_implementation(case, module, name, wrong, line,
                                                monkeypatch, capsys):
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    status, out = run(case, capsys)
    assert status == 1
    assert f"WARNING: {line}" in out
