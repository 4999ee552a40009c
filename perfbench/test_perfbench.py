"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
They run the real CLI stages on small generated inputs, check that every
output check passes on good outputs and fails on a corrupted copy, that
the generator is byte-deterministic, that the tracer finds every binding
and computes self time, and that ``benchmarks/bench_kernels.py`` still
runs and agrees with itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from webcred import cli  # noqa: E402

FIXTURES = ROOT / "fixtures"
SMALL_CORPUS = dict(good=40, duplicates=5, too_short=3, non_english=3, empty=2)
SMALL_NETWORK = dict(
    tweets=3000, users=200, scored_urls=100, offlist_urls=20,
    follower_edges=600, malformed=5,
)


def _digest(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _stage(argv: list[str]) -> None:
    assert cli.main(argv) == 0, argv


@pytest.mark.parametrize(
    "make, sizes",
    [(workloads.make_score_corpus, SMALL_CORPUS), (workloads.make_share_network, SMALL_NETWORK)],
)
def test_generator_is_byte_deterministic(tmp_path, make, sizes):
    make(ROOT, tmp_path / "a", 7, **sizes)
    make(ROOT, tmp_path / "b", 7, **sizes)
    make(ROOT, tmp_path / "c", 8, **sizes)
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


@pytest.fixture(scope="module")
def score_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("score")
    truth = workloads.make_score_corpus(ROOT, work / "in", 3, **SMALL_CORPUS)
    workloads.write_cv_report(work / "cv.csv")
    pages = str(work / "in" / "webpages.jsonl")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        _stage(["train", "--docs", str(FIXTURES / "webpages.jsonl"),
                "--labels", str(FIXTURES / "labels.csv"), "--cv-report", "cv.csv"])
        _stage(["ingest", "--webpages", pages])
        _stage(["score", "--model", "model.json", "--docs", pages])
        _stage(["terms", "--docs", pages, "--scores", "scores.csv"])
    return work, truth


@pytest.fixture(scope="module")
def share_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("share")
    truth = workloads.make_share_network(ROOT, work / "in", 3, **SMALL_NETWORK)
    tweets, scores = str(work / "in" / "tweets.jsonl"), str(work / "in" / "scores.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        _stage(["exposure", "--tweets", tweets, "--scores", scores])
        _stage(["graph", "--tweets", tweets, "--scores", scores,
                "--followers", str(work / "in" / "followers.csv"),
                "--graphml", "network.graphml", "--dot", "network.dot"])
    return work, truth


@pytest.fixture(scope="module")
def fit_outputs(tmp_path_factory):
    # Two folds keep this to a few seconds; the checks only
    # look at the shape of the outputs and loose quality floors.
    work = tmp_path_factory.mktemp("fit")
    docs, labels = str(FIXTURES / "webpages.jsonl"), str(FIXTURES / "labels.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        _stage(["cv", "--docs", docs, "--labels", labels, "--folds", "2"])
        _stage(["train", "--docs", docs, "--labels", labels,
                "--cv-report", "cv_report.csv"])
        _stage(["evaluate", "--model", "model.json", "--docs", docs, "--labels", labels])
    return work, {}


def _problems(workload, work, truth):
    return checks.check_outputs(workload, work, truth, FIXTURES)


def _edit(path: Path, old: str, new: str, count: int = 1) -> None:
    text = path.read_text()
    assert old in text, old
    path.write_text(text.replace(old, new, count))


def _drop_line(path: Path, index: int) -> None:
    lines = path.read_text().splitlines(keepends=True)
    del lines[index]
    path.write_text("".join(lines))


def _flip_first_bucket(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].rstrip("\n").split(",")
    cells[-1] = "high" if cells[-1] != "high" else "low"
    lines[1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _set_first_cv_f1(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = "1.5"
    lines[1] = ",".join(cells)
    path.write_text("".join(lines))


def _bump_filter_count(path: Path) -> None:
    report = json.loads(path.read_text())
    report["duplicate"] += 1
    path.write_text(json.dumps(report))


def _bump_first_term(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[1] = str(int(cells[1]) + 1)
    lines[2] = ",".join(cells)
    path.write_text("".join(lines))


def _bump_first_exposure(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)
    lines[1] = ",".join(cells)
    path.write_text("".join(lines))


def _bump_accuracy(path: Path) -> None:
    report = json.loads(path.read_text())
    report["three_class_accuracy"] -= 0.01
    path.write_text(json.dumps(report))


CORRUPTIONS = [
    ("fit-fixture", "cv_report", "cv_report.csv", lambda p: _drop_line(p, 3)),
    ("fit-fixture", "cv_report", "cv_report.csv", _set_first_cv_f1),
    ("fit-fixture", "model", "model.json",
     lambda p: _edit(p, '"criterion": 7', '"criterion": 6')),
    ("fit-fixture", "evaluation", "evaluation.json", _bump_accuracy),
    ("score-corpus", "filter_report", "filter_report.json", _bump_filter_count),
    ("score-corpus", "scores", "scores.csv", _flip_first_bucket),
    ("score-corpus", "scores", "scores.csv", lambda p: _drop_line(p, 1)),
    ("score-corpus", "terms", "terms.csv", _bump_first_term),
    ("share-network", "exposure", "exposure.csv", lambda p: _drop_line(p, 1)),
    ("share-network", "exposure", "exposure.csv", _bump_first_exposure),
    ("share-network", "graph", "network.graphml",
     lambda p: _edit(p, "<edge ", "<!-- dropped --><x ")),
    ("share-network", "graph", "network.graphml",
     lambda p: _edit(p, ">unclassified<", ">low_sharer<")),
    ("share-network", "graph", "network.dot", lambda p: _drop_line(p, 1)),
]


@pytest.fixture
def outputs(fit_outputs, score_outputs, share_outputs):
    return {
        "fit-fixture": fit_outputs,
        "score-corpus": score_outputs,
        "share-network": share_outputs,
    }


@pytest.mark.parametrize("workload", ["fit-fixture", "score-corpus", "share-network"])
def test_checks_pass_on_real_outputs(outputs, workload):
    work, truth = outputs[workload]
    problems = _problems(workload, work, truth)
    assert problems and not any(problems.values()), problems


@pytest.mark.parametrize(
    "workload, check, filename, corrupt", CORRUPTIONS,
    ids=[f"{c[1]}-{i}" for i, c in enumerate(CORRUPTIONS)],
)
def test_each_check_fails_on_corrupted_output(outputs, tmp_path, workload, check, filename, corrupt):
    work, truth = outputs[workload]
    copy = tmp_path / "out"
    shutil.copytree(work, copy, ignore=shutil.ignore_patterns("in"))
    corrupt(copy / filename)
    problems = _problems(workload, copy, truth)
    assert problems[check], f"{check} passed a corrupted {filename}"


def test_planted_filter_counts_hold_on_other_seeds(tmp_path):
    """At full corpus size, on seeds the benchmark runs rarely use, every
    planted empty, non-English and short page is rejected for that reason
    and every other page passes the filters (dedupe is checked per run)."""
    from webcred import ingest

    for seed in range(1000, 1010):
        truth = workloads.make_score_corpus(ROOT, tmp_path / str(seed), seed)
        with open(tmp_path / str(seed) / "webpages.jsonl") as fh:
            docs = list(ingest.load_webpages(fh))
        _kept, report = ingest.filter_corpus(docs)
        planted = dict(truth["filter_report"])
        planted["retained"] += planted.pop("duplicate")
        report_counts = report.to_dict()
        del report_counts["duplicate"]
        assert report_counts == planted, seed


def test_tracer_self_time_and_counts():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("toy.inner", inner)
    tracer.wrap("toy.outer", outer)()
    metrics = tracer.metrics()
    assert metrics["toy.inner.calls"] == 2 and metrics["toy.outer.calls"] == 1
    assert 0.015 < metrics["toy.outer.busy_s"] < 0.035
    assert 0.035 < metrics["toy.inner.busy_s"] < 0.07


def test_tracer_wraps_every_binding_and_reports_absent(monkeypatch):
    import webcred

    modules = [m for k, m in sys.modules.items() if k.startswith("webcred")]
    saved = [(m, dict(vars(m))) for m in modules]
    saved_methods = dict(vars(cli.RunManifest))
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + [("gone.fn", "webcred.textprep", "no_such_function", None, None)],
    )
    try:
        original = webcred.textprep.transform
        tracer = tracing.Tracer()
        tracer.install()
        wrapped = webcred.textprep.transform
        assert wrapped is not original
        assert cli.transform is wrapped
        assert webcred.eval.transform is wrapped
        assert webcred.credibility.transform is wrapped
        assert tracer.absent == ["webcred.textprep.no_such_function"]
    finally:
        for module, namespace in saved:
            for key, value in namespace.items():
                setattr(module, key, value)
        for key in ("record_input", "record_output"):
            setattr(cli.RunManifest, key, saved_methods[key])


def test_benchmark_json_matches_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.per_layer_metrics()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "share-network",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_bench_kernels_still_runs_and_agrees():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--docs", "60", "--features", "200", "--nnz", "10",
         "--node-rows", "300", "--node-features", "10", "--repeats", "1"],
        env=run.child_env(ROOT / "src"), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "disagree" not in proc.stdout
