"""The one-line-error contract, checked as a whole.

Every stage, given a mutated copy of one of its own good inputs, exits 0,
or exits 1 with exactly one stderr line that starts ``error: ``, names the
path of one of the stage's input files, and leaves its outputs as they
were: each output path holds a sentinel before the run, and on exit 1
every sentinel and the directory listing are unchanged.
The mutations are drawn by hypothesis with ``derandomize=True``, so every
run checks the same examples:

* a token swapped for ``"``, ``,``, ``NaN``, ``Infinity``, ``1e309``,
  5,000 digits, a BOM, a NUL or a stray bracket;
* a ``\\ud800`` escape put inside a JSON string;
* a span deleted, a line duplicated, or the file truncated;
* for ``model.json``, also a JSON node replaced by one of another type, or
  an object key deleted.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli import write_corpus, write_side_inputs
from webcred.cli import STAGES, main

# The file each input option reads, as the good inputs fixture names it.
INPUT_FILES = {
    "webpages": "webpages.jsonl",
    "docs": "webpages.jsonl",
    "tweets": "tweets.jsonl",
    "reference_urls": "reference_urls.txt",
    "labels": "labels.csv",
    "cv_report": "cv.csv",
    "model": "model.json",
    "ratings": "ratings.csv",
    "scores": "scores.csv",
    "followers": "followers.csv",
}

# The options of each stage besides its files, small enough that an
# unbroken run takes a fraction of a second.
STAGE_OPTIONS = {
    "ingest": ["--min-words", "50"],
    "cv": ["--folds", "2", "--rf-estimators", "3"],
    "train": ["--rf-estimators", "3"],
    "grid": ["--criterion", "1", "--family", "svm", "--folds", "2",
             "--grid", '{"C": [1, 10]}'],
    "score": ["--min-words", "50"],
    "evaluate": [],
    "kappa": [],
    "terms": [],
    "exposure": ["--top", "5"],
    "graph": ["--min-links", "1"],
}

SENTINEL = b"sentinel output\n"

TOKEN = rb"[A-Za-z0-9_.+\-]+"
JSON_STRING = rb'"(?:[^"\\]|\\.)*"'
REPLACEMENTS = [
    b'"', b",", b"NaN", b"Infinity", b"1e309", b"7" * 5000, b"\xef\xbb\xbf",
    b"\x00", b"[", b"]", b"{", b"}",
]
TEXT_MUTATIONS = ["token", "surrogate", "delete", "duplicate", "truncate"]
MODEL_MUTATIONS = TEXT_MUTATIONS + ["retype", "drop-key"]


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """Every stage's good inputs in one directory: a small corpus and the
    side inputs of test_cli, with the cv report, model and scores that the
    stages make from them."""
    d = tmp_path_factory.mktemp("contract")
    write_corpus(d, n_docs=20)
    write_side_inputs(d)
    for stage, out in (("cv", "cv.csv"), ("train", "model.json"), ("score", "scores.csv")):
        assert run_stage(stage, d, {"out": d / out}, d / "m.json") == (0, "")
    (d / "m.json").unlink()
    return d


def run_stage(stage, inputs, outputs, manifest):
    """``main`` on ``stage`` with each input option read from ``inputs``
    and the given output paths; returns the exit code and stderr."""
    argv = [stage, *STAGE_OPTIONS[stage], "--manifest", str(manifest)]
    for name in STAGES[stage].inputs:
        argv += ["--" + name.replace("_", "-"), str(inputs / INPUT_FILES[name])]
    for name, path in outputs.items():
        argv += ["--" + name.replace("_", "-"), str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def mutate_model(draw, data: bytes, kind: str) -> bytes:
    """``data``, a JSON document, with one node replaced by a value of
    another type (``retype``) or one object key deleted (``drop-key``)."""
    root = json.loads(data)
    # (container, key) of every node below the root.
    slots = []
    stack = [root]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            slots.append((node, key))
            if isinstance(child, (dict, list)):
                stack.append(child)
    if kind == "drop-key":
        slots = [(node, key) for node, key in slots if isinstance(node, dict)]
    node, key = draw(st.sampled_from(slots))
    if kind == "drop-key":
        del node[key]
    else:
        old = type(node[key])
        others = [v for v in ("x", 1, 0.5, None, True, [], {}) if type(v) is not old]
        node[key] = draw(st.sampled_from(others))
    return json.dumps(root).encode()


@st.composite
def mutated(draw, data: bytes, kinds: list[str]) -> bytes:
    kind = draw(st.sampled_from(kinds))
    if kind in ("retype", "drop-key"):
        return mutate_model(draw, data, kind)
    if kind == "token":
        m = draw(st.sampled_from(list(re.finditer(TOKEN, data))))
        new = draw(st.sampled_from(REPLACEMENTS))
        return data[: m.start()] + new + data[m.end() :]
    if kind == "surrogate":
        strings = list(re.finditer(JSON_STRING, data))
        if not strings:  # not JSON: the escape goes anywhere
            at = draw(st.integers(0, len(data)))
        else:
            m = draw(st.sampled_from(strings))
            at = draw(st.integers(m.start() + 1, m.end() - 1))
        return data[:at] + rb"\ud800" + data[at:]
    if kind == "delete":
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 200)))
        return data[:start] + data[end:]
    if kind == "duplicate":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[: i + 1] + lines[i:])
    return data[: draw(st.integers(0, len(data)))]


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_mutated_input_exits_0_or_1_with_one_error_line(
    good_inputs, tmp_path_factory, stage
):
    names = sorted({INPUT_FILES[name] for name in STAGES[stage].inputs})

    @settings(
        max_examples=12,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(names))
        kinds = MODEL_MUTATIONS if name == "model.json" else TEXT_MUTATIONS
        bad = data.draw(mutated((good_inputs / name).read_bytes(), kinds))
        d = tmp_path_factory.mktemp(stage)
        for other in names:
            shutil.copyfile(good_inputs / other, d / other)
        (d / name).write_bytes(bad)
        outputs = {out: d / f"out_{out}" for out in STAGES[stage].outputs}
        manifest = d / "manifest.json"
        for path in (*outputs.values(), manifest):
            path.write_bytes(SENTINEL)
        before = listing(d)

        rc, err = run_stage(stage, d, outputs, manifest)

        assert rc in (0, 1), err
        if rc == 1:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            assert any(str(d / other) in err for other in names), err
            assert listing(d) == before
        shutil.rmtree(d)

    check()


def listing(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}
