#!/usr/bin/env python3
"""Pipeline benchmark for webcred: one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``fit-fixture``: ``cv``, ``train``, ``evaluate`` on the bundled
  ``fixtures/``; the seed is the CLI ``--seed``.
* ``score-corpus``: ``ingest``, ``score``, ``terms`` on a generated corpus
  of 600 pages with planted rejects and near-duplicates; the model comes
  from an untimed ``train`` on the fixtures with a harness-written CV
  report.
* ``share-network``: ``exposure``, ``graph`` on 100k generated tweets,
  4,000 users and 12k follower edges with a harness-written scores.csv.

The harness generates the inputs from the seed, times the spawn of fresh
interpreters that import ``webcred.cli`` (``setup_s``), then runs the
stages in-process through ``webcred.cli.main(argv)`` in one child process
(``perfbench/worker.py``) for about ``--seconds``, and checks the
outputs.  With ``--trace 1`` the child also runs traced passes and the
harness prints per-layer metrics instead of the end-to-end ones.

Standard output: one ``report`` JSON line with the environment, every
stage metric with its median, quartiles and sample count, and any check
failures; then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Without webcred
sources under the current directory it exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import numpy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5
# A run must end within 180 s; the child gets what is left of this.
RUN_DEADLINE_S = 170.0
CV_FOLDS = 10
# cv fits both families on every fold of every criterion; train fits one
# model per criterion.
FIXTURE_FITS = (2 * CV_FOLDS + 1) * workloads.N_CRITERIA

# The CLI stages each workload times, in order.
STAGES = {
    "fit-fixture": ("cv", "train", "evaluate"),
    "score-corpus": ("ingest", "score", "terms"),
    "share-network": ("exposure", "graph"),
}
WORKLOADS = tuple(STAGES)

# items_per_s under the name the workload's items go by.
THROUGHPUT = {
    "fit-fixture": "fits_per_s",
    "score-corpus": "pages_per_s",
    "share-network": "tweets_per_s",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def child_env(src: Path) -> dict:
    """The caller's environment with the absolute ``src`` first on
    PYTHONPATH and any relative entries made absolute, so children that
    change directory still import this checkout."""
    env = dict(os.environ)
    extra = [str(Path(p).resolve()) for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + extra)
    return env


def git_rev(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def plan(workload: str, root: Path, work: Path, seed: int) -> tuple[dict, dict, float]:
    """Generate the inputs; returns (worker spec, truth, items per pass).

    Stage outputs use the CLI's default relative names inside the
    worker's output directory; inputs and the pre-built model are given
    by absolute path.
    """
    fixtures = root / "fixtures"
    inputs = work / "inputs"
    pre: list[tuple[str, list[str]]] = []
    if workload == "fit-fixture":
        docs, labels = str(fixtures / "webpages.jsonl"), str(fixtures / "labels.csv")
        truth, items = {}, FIXTURE_FITS
        stages = [
            ["cv", "--docs", docs, "--labels", labels, "--folds", str(CV_FOLDS)],
            ["train", "--docs", docs, "--labels", labels, "--cv-report", "cv_report.csv"],
            ["evaluate", "--model", "model.json", "--docs", docs, "--labels", labels],
        ]
    elif workload == "score-corpus":
        truth = workloads.make_score_corpus(root, inputs, seed)
        items = truth["pages"]
        model_dir = work / "model"
        model_dir.mkdir()
        workloads.write_cv_report(model_dir / "cv_report.csv")
        model = str(model_dir / "model.json")
        pages = str(inputs / "webpages.jsonl")
        pre = [("train", [
            "train", "--docs", str(fixtures / "webpages.jsonl"),
            "--labels", str(fixtures / "labels.csv"),
            "--cv-report", str(model_dir / "cv_report.csv"), "--out", model,
            "--manifest", str(model_dir / "train_manifest.json"), "--seed", str(seed),
        ])]
        stages = [
            ["ingest", "--webpages", pages],
            ["score", "--model", model, "--docs", pages],
            ["terms", "--docs", pages, "--scores", "scores.csv"],
        ]
    else:
        truth = workloads.make_share_network(root, inputs, seed)
        items = truth["tweets"]
        tweets, scores = str(inputs / "tweets.jsonl"), str(inputs / "scores.csv")
        stages = [
            ["exposure", "--tweets", tweets, "--scores", scores],
            ["graph", "--tweets", tweets, "--scores", scores,
             "--followers", str(inputs / "followers.csv"),
             "--graphml", "network.graphml", "--dot", "network.dot"],
        ]
    spec = {
        "pre": pre,
        "stages": [(argv[0], argv + ["--seed", str(seed)]) for argv in stages],
        "out": str(work / "out"),
        "result": str(work / "result.json"),
    }
    return spec, truth, items


def time_setup(src: Path, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-only", str(src)],
            env=env, check=True, timeout=60,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def run_worker(spec: dict, env: dict, timeout: float) -> dict | None:
    spec_path = Path(spec["out"]).parent / "spec.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            env=env, timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker ran past {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(Path(spec["result"]).read_text())


def stage_samples(passes: list[dict], items: float, workload: str) -> dict[str, list[float]]:
    """Per-pass samples of the wall time, the throughput and each stage."""
    samples: dict[str, list[float]] = {"wall_s": [], "items_per_s": []}
    for p in passes:
        wall = sum(p["stage_s"].values())
        samples["wall_s"].append(wall)
        # fits_per_s counts only the fitting stages.
        busy = p["stage_s"]["cv"] + p["stage_s"]["train"] if workload == "fit-fixture" else wall
        samples["items_per_s"].append(items / busy)
        for name, seconds in p["stage_s"].items():
            samples.setdefault(f"{name}_s", []).append(seconds)
    return samples


def repeat_problems(passes: list[dict]) -> dict[str, list[str]]:
    """Every pass after the first must reproduce its output bytes."""
    first = passes[0]["outputs"]
    problems = {}
    for i, p in enumerate(passes[1:], start=2):
        changed = sorted(k for k in set(p["outputs"]) | set(first)
                         if p["outputs"].get(k) != first.get(k))
        problems[f"repeat_pass_{i}"] = [f"outputs differ from pass 1: {changed}"] if changed else []
    return problems


def layer_metrics(result: dict, samples: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the names found absent."""
    traced = result["traced_passes"]
    layers = [p["layers"] for p in traced]
    traced_wall = statistics.median(sum(p["stage_s"].values()) for p in traced)
    metrics, absent = {}, []
    for name, unit, _better in per_layer_metrics():
        if name == "trace.overhead_s":
            value = traced_wall - statistics.median(samples["wall_s"])
        elif name.startswith("stage."):
            stage = name[len("stage."):]
            value = statistics.median(samples[stage]) if stage in samples else 0.0
        elif all(name in layer for layer in layers):
            value = statistics.median(layer[name] for layer in layers)
        else:
            absent.append(name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"stage.{stage}_s", "s", "lower") for names in STAGES.values() for stage in names]
    for name in tracing.span_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.busy_s", "s", "lower"))
    out.extend(tracing.COUNT_METRICS)
    out.append(("trace.spans", "count", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "webcred" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print(f"perfbench: no webcred checkout at {root}", file=sys.stderr)
        return 2
    env = child_env(src)
    work_root = root / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec, truth, items = plan(args.workload, root, work, args.seed)
        setup = [] if args.trace else time_setup(src, env)
        spec.update(src=str(src), seconds=args.seconds, trace=args.trace)
        result = run_worker(spec, env, RUN_DEADLINE_S - (time.perf_counter() - started))
        if result is None:
            return 1
        problems = checks.check_outputs(args.workload, work / "out", truth, root / "fixtures")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    passes = result["passes"]
    problems.update(repeat_problems(passes + result.get("traced_passes", [])))
    # Ops: every stage execution, the untimed model training included, and
    # every output check.
    rcs = list(result["pre_rc"].values()) + [
        rc for p in passes + result.get("traced_passes", []) for rc in p["rc"].values()
    ]
    attempted = len(rcs) + len(problems)
    failed = sum(1 for rc in rcs if rc != 0) + sum(1 for v in problems.values() if v)

    samples = stage_samples(passes, items, args.workload)
    summary = {
        name: dict(quartiles(values), unit="1/s" if name.endswith("per_s") else "s")
        for name, values in samples.items()
    }
    summary[THROUGHPUT[args.workload]] = summary["items_per_s"]
    if setup:
        summary["setup_s"] = dict(quartiles(setup), unit="s")
    summary["peak_rss_mb"] = {"median": result["peak_rss_mb"], "n": 1, "unit": "MB"}
    summary["ops_failed"] = {"value": failed, "attempted": attempted, "unit": "count"}
    if args.trace:
        metrics, absent = layer_metrics(result, samples)
    else:
        metrics = {name: {"value": summary[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
        absent = []

    print(json.dumps({"report": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_rev": git_rev(root),
        "kernels": result["kernels"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "traced_passes": len(result.get("traced_passes", [])),
        "metrics": summary,
        "problems": {k: v for k, v in problems.items() if v},
        "absent": absent,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
