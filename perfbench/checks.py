"""Output checks for the benchmark workloads.

Each check reads a stage's output files and compares them with facts the
harness knows independently: counts planted by the generator, sums
recomputed by brute force over the generated inputs, the paper's bucket
cut points, and loose quality floors.  None of them depends on the
kernel path or on exact model weights, so a faster or slightly different
model passes while a broken one fails.  Every check returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from workloads import N_CRITERIA, bucket_for_score

# Quality floors for the fixture pipeline; today's fits sit well above
# them (cv rows F1 >= 0.87, accuracy >= 0.85; evaluation accuracy 0.98).
CV_F1_FLOOR = 0.6
CV_ACC_FLOOR = 0.6
EVAL_ACC_FLOOR = 0.7


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_cv_report(out: Path) -> list[str]:
    rows = _read_csv(out / "cv_report.csv")
    problems = []
    if rows[0] != ["criterion", "family", "f1_mean", "f1_std", "acc_mean", "acc_std"]:
        problems.append(f"cv_report.csv header {rows[0]}")
    body = rows[1:]
    keys = sorted((int(r[0]), r[1]) for r in body)
    want = sorted((k, f) for k in range(1, N_CRITERIA + 1) for f in ("svm", "rf"))
    if keys != want:
        problems.append(f"cv_report.csv has rows {keys}, want 7 criteria x (svm, rf)")
    for r in body:
        f1, acc = float(r[2]), float(r[4])
        if not (CV_F1_FLOOR <= f1 <= 1.0 and CV_ACC_FLOOR <= acc <= 1.0):
            problems.append(f"cv_report.csv criterion {r[0]} {r[1]}: f1 {f1} acc {acc}")
    return problems


def check_model(out: Path) -> list[str]:
    with open(out / "model.json") as fh:
        model = json.load(fh)
    criteria = sorted(int(c["criterion"]) for c in model["criteria"])
    if criteria != list(range(1, N_CRITERIA + 1)):
        return [f"model.json criteria {criteria}"]
    return []


def check_evaluation(out: Path, labels_csv: Path) -> list[str]:
    with open(out / "evaluation.json") as fh:
        report = json.load(fh)
    labels = _read_csv(labels_csv)[1:]
    problems = []
    confusion = report["confusion"]
    total = sum(sum(row) for row in confusion)
    if report["n_documents"] != len(labels) or total != len(labels):
        problems.append(f"evaluation.json covers {total} documents, want {len(labels)}")
    gold = {"low": 0, "medium": 0, "high": 0}
    for row in labels:
        gold[bucket_for_score(sum(int(v) for v in row[1:]))] += 1
    if [sum(r) for r in confusion] != [gold[b] for b in ("low", "medium", "high")]:
        problems.append(f"evaluation.json gold rows {confusion}, want {gold}")
    correct = sum(confusion[i][i] for i in range(3))
    if abs(report["three_class_accuracy"] - correct / max(total, 1)) > 1e-12:
        problems.append("evaluation.json accuracy disagrees with its confusion matrix")
    if report["three_class_accuracy"] < EVAL_ACC_FLOOR:
        problems.append(f"evaluation accuracy {report['three_class_accuracy']}")
    proportions = [float(r[1]) for r in _read_csv(out / "label_distribution.csv")[1:]]
    for k in range(N_CRITERIA):
        want = sum(int(row[k + 1]) for row in labels) / len(labels)
        if abs(proportions[k] - want) > 1e-12:
            problems.append(f"label_distribution.csv criterion {k + 1}")
    return problems


def check_filter_report(out: Path, truth: dict) -> list[str]:
    with open(out / "filter_report.json") as fh:
        report = json.load(fh)
    if report != truth["filter_report"]:
        return [f"filter_report.json {report}, planted {truth['filter_report']}"]
    return []


def check_scores(out: Path, truth: dict) -> list[str]:
    rows = _read_csv(out / "scores.csv")
    header = ["url"] + [f"c{k}" for k in range(1, N_CRITERIA + 1)] + ["score", "bucket"]
    problems = [] if rows[0] == header else [f"scores.csv header {rows[0]}"]
    urls = [r[0] for r in rows[1:]]
    if sorted(urls) != truth["retained_urls"] or len(set(urls)) != len(urls):
        problems.append(
            f"scores.csv has {len(urls)} rows, want one per retained page "
            f"({len(truth['retained_urls'])})"
        )
    for r in rows[1:]:
        labels = [int(v) for v in r[1:8]]
        if any(v not in (0, 1) for v in labels) or int(r[8]) != sum(labels) \
                or r[9] != bucket_for_score(int(r[8])):
            problems.append(f"scores.csv row {r[0]} is inconsistent: {r[1:]}")
    return problems


def check_terms(out: Path) -> list[str]:
    """Each term's 2x2 table must split the low and other buckets of
    scores.csv exactly, p-values lie in [0, 1] and rows come in p order."""
    buckets = [r[9] for r in _read_csv(out / "scores.csv")[1:]]
    n_low = buckets.count("low")
    n_other = len(buckets) - n_low
    rows = [r for r in _read_csv(out / "terms.csv") if not r[0].startswith("#")]
    col = {name: i for i, name in enumerate(rows[0])}
    problems = []
    if len(rows) < 2:
        problems.append("terms.csv has no terms")
    previous = 0.0
    for r in rows[1:]:
        a, b, c, d = (int(r[col[k]]) for k in ("a", "b", "c", "d"))
        p = float(r[col["p_value"]])
        if a + b != n_low or c + d != n_other or not 0.0 <= p <= 1.0 or p < previous:
            problems.append(f"terms.csv row {r[col['term']]}: {a},{b},{c},{d} p={p}")
            break
        previous = p
    return problems


def check_exposure(out: Path, truth: dict) -> list[str]:
    want = truth["exposure"]
    rows = _read_csv(out / "exposure.csv")
    problems = []
    got = {r[0]: [int(r[1]), int(r[2]), int(r[3]), r[4]] for r in rows[1:]}
    if len(rows) - 1 != len(want) or got != want:
        wrong = sorted(u for u in want if got.get(u) != want[u])
        problems.append(
            f"exposure.csv: {len(rows) - 1} rows for {len(want)} scored urls; "
            f"{len(wrong)} differ from the brute-force sums"
        )
    with open(out / "bucket_report.json") as fh:
        report = json.load(fh)
    tweets_by_bucket = {"low": 0, "medium": 0, "high": 0}
    exposure_by_bucket = {"low": 0, "medium": 0, "high": 0}
    for count, exposure, _score, bucket in want.values():
        tweets_by_bucket[bucket] += count
        exposure_by_bucket[bucket] += exposure
    if report["tweets_by_bucket"] != tweets_by_bucket:
        problems.append(f"bucket_report.json tweets_by_bucket {report['tweets_by_bucket']}")
    if report["exposure_by_bucket"] != exposure_by_bucket:
        problems.append("bucket_report.json exposure_by_bucket disagrees")
    return problems


_NODE = re.compile(r'<node id="([^"]*)">')
_DATA = re.compile(r'<data key="(d[012])">([^<]*)</data>')
_EDGE = re.compile(r'<edge source="([^"]*)" target="([^"]*)"/>')


def check_graph(out: Path, truth: dict) -> list[str]:
    """GraphML nodes, classes and edges equal the harness's own largest
    connected component; the DOT file has the same node and edge counts."""
    want = truth["graph"]
    nodes: dict[str, list] = {}
    current = None
    edges = []
    for line in (out / "network.graphml").read_text().splitlines():
        if m := _NODE.search(line):
            current = m.group(1)
            nodes[current] = [None, None]
        elif (m := _DATA.search(line)) and current is not None:
            if m.group(1) == "d1":
                nodes[current][0] = int(m.group(2))
            elif m.group(1) == "d2":
                nodes[current][1] = m.group(2)
        elif m := _EDGE.search(line):
            edges.append([m.group(1), m.group(2)])
    problems = []
    if nodes != want["nodes"]:
        problems.append(
            f"network.graphml has {len(nodes)} nodes, the largest component has "
            f"{len(want['nodes'])} (or classes/follower counts differ)"
        )
    if sorted(edges) != want["edges"]:
        problems.append(
            f"network.graphml has {len(edges)} edges, want {len(want['edges'])}"
        )
    dot = (out / "network.dot").read_text().splitlines()
    dot_edges = sum(1 for line in dot if " -> " in line)
    dot_nodes = sum(1 for line in dot if "[follower_count=" in line)
    if (dot_nodes, dot_edges) != (len(want["nodes"]), len(want["edges"])):
        problems.append(f"network.dot has {dot_nodes} nodes and {dot_edges} edges")
    return problems


def check_outputs(workload: str, out: Path, truth: dict, fixtures: Path) -> dict[str, list[str]]:
    """Problems found by each check of ``workload``, keyed by check name."""
    if workload == "fit-fixture":
        checks = {
            "cv_report": lambda: check_cv_report(out),
            "model": lambda: check_model(out),
            "evaluation": lambda: check_evaluation(out, fixtures / "labels.csv"),
        }
    elif workload == "score-corpus":
        checks = {
            "filter_report": lambda: check_filter_report(out, truth),
            "scores": lambda: check_scores(out, truth),
            "terms": lambda: check_terms(out),
        }
    else:
        checks = {
            "exposure": lambda: check_exposure(out, truth),
            "graph": lambda: check_graph(out, truth),
        }
    results = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results
