"""The fixture pipeline's outputs, pinned by sha256.

Every stage of the README pipeline, plus one small ``grid``, runs in one
process on a copy of ``fixtures/`` with relative paths and the default
seed.  The sha256 of each output must equal the one in
``golden_outputs.json``, so a change that moves any output, every run
alike, fails here; test 10 only checks that two runs agree.

Two things are hashed in a canonical form instead of as bytes, because
they name the kernel path or hold pure SVM weights, whose last bits follow
the BLAS kernel NumPy picks for the CPU:

* a manifest, with its ``kernels`` field and every sha256 of
  ``model.json`` masked;
* ``model.json``, with each SVM criterion's ``weights_or_trees`` masked,
  so its TF-IDF entries, trees, parameters and provenance are pinned by
  value.

A change that means to move an output rewrites the golden file with
``python tests/test_golden.py`` (from the repo root, with ``src`` on
``PYTHONPATH``) and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from webcred.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MASKED = "masked"

STAGES = [
    ["ingest", "--webpages", "webpages.jsonl", "--tweets", "tweets.jsonl",
     "--reference-urls", "reference_urls.txt"],
    ["cv", "--docs", "webpages.jsonl", "--labels", "labels.csv"],
    ["train", "--docs", "webpages.jsonl", "--labels", "labels.csv",
     "--cv-report", "cv_report.csv"],
    ["score", "--model", "model.json", "--docs", "webpages.jsonl"],
    ["evaluate", "--model", "model.json", "--docs", "webpages.jsonl",
     "--labels", "labels.csv"],
    ["kappa", "--ratings", "ratings.csv"],
    ["terms", "--docs", "webpages.jsonl", "--scores", "scores.csv"],
    ["exposure", "--tweets", "tweets.jsonl", "--scores", "scores.csv"],
    ["graph", "--tweets", "tweets.jsonl", "--scores", "scores.csv",
     "--followers", "followers.csv",
     "--graphml", "network.graphml", "--dot", "network.dot"],
    ["grid", "--docs", "webpages.jsonl", "--labels", "labels.csv",
     "--criterion", "1", "--family", "rf", "--folds", "3",
     "--grid", '{"n_estimators": [3, 5]}'],
]


def canonical(name: str, data: bytes) -> bytes:
    """``data`` as it is hashed: the bytes, or for a manifest and for
    ``model.json`` a sorted-key JSON dump with the masked parts replaced."""
    if name.endswith("_manifest.json"):
        manifest = json.loads(data)
        manifest["kernels"] = MASKED
        for side in ("inputs", "outputs"):
            if "model.json" in manifest[side]:
                manifest[side]["model.json"] = MASKED
        return json.dumps(manifest, sort_keys=True).encode()
    if name == "model.json":
        model = json.loads(data)
        for entry in model["criteria"]:
            if entry["family"] == "svm":
                entry["weights_or_trees"] = MASKED
        return json.dumps(model, sort_keys=True).encode()
    return data


def run_pipeline(directory: Path) -> dict[str, str]:
    """Run ``STAGES`` in ``directory`` on a copy of the fixtures; returns
    the sha256 of each output's canonical form, by file name."""
    for path in FIXTURES.iterdir():
        shutil.copyfile(path, directory / path.name)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in STAGES:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == 0, f"{argv[0]} failed: {err.getvalue()}"
    finally:
        os.chdir(cwd)
    return {
        path.name: hashlib.sha256(canonical(path.name, path.read_bytes())).hexdigest()
        for path in sorted(directory.iterdir())
        if not (FIXTURES / path.name).exists()
    }


def test_fixture_pipeline_outputs_match_the_golden_hashes(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_pipeline(tmp_path)
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"outputs moved: {changed}; now {json.dumps(got, indent=2)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        digests = run_pipeline(Path(d))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
