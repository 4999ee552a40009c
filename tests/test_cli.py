import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import shlex
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_marker_corpus
from test_acceptance import subprocess_env
from webcred import __version__, ingest
from webcred.cli import build_parser, main
from webcred.credibility import read_scores_csv, select_families
from webcred.eval import CV_REPORT_HEADER, read_cv_report_csv

nx = pytest.importorskip("networkx")

# A plain English paragraph carried by every synthetic webpage so the
# language filter keeps them; the marker tokens alone are too odd for
# the trigram detector.
CARRIER = (
    "The committee reviewed the published report in detail and noted that "
    "several of the key findings were consistent with earlier work on the "
    "same question, although the authors were careful to describe the limits "
    "of their evidence and the need for further study."
)

# Six subjects rated by three raters; two categories.
RATING_COUNTS = [(3, 0), (2, 1), (1, 2), (0, 3), (2, 1), (3, 0)]
EXPECTED_KAPPA = 23 / 77

TWEET_LINES = [
    '{"tweet_id": "t1", "user_id": "u1", "follower_count": 500, "urls": ["HTTP://DOC00.EXAMPLE.ORG/?utm_source=feed"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-01T12:00:00Z"}',
    '{"tweet_id": "t2", "user_id": "u1", "follower_count": 500, "urls": ["http://doc01.example.org/#top"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-01T13:00:00Z"}',
    '{"tweet_id": "t3", "user_id": "u2", "follower_count": 80, "urls": ["http://doc00.example.org/", "http://doc02.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-02T09:00:00Z"}',
    '{"tweet_id": "t4", "user_id": "u3", "follower_count": 1200, "urls": ["http://doc00.example.org/"], "is_retweet": true, "retweet_of": "t1", "timestamp": "2019-03-02T10:00:00Z"}',
    '{"tweet_id": "t5", "user_id": "u4", "follower_count": 10, "urls": ["http://unrelated.example.net/story"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-02T11:00:00Z"}',
    '{"tweet_id": "t6", "user_id": "u5", "follower_count": 60, "urls": ["http://doc01.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-03T08:00:00Z"}',
    '{"tweet_id": "t7", "user_id": "u5", "follower_count": 60, "urls": ["http://doc03.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-03T09:00:00Z"}',
    '{"tweet_id": "t8", "user_id": "u5", "follower_count": 60, "urls": ["http://doc05.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-03T10:00:00Z"}',
    '{"tweet_id": "t9", "user_id": "u6", "follower_count": 5, "urls": ["http://doc00.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-04T07:00:00Z"}',
    '{"tweet_id": "t10", "user_id": "u1", "follower_count": 500, "urls": ["http://doc02.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-04T08:00:00Z"}',
    '{"tweet_id": "t11", "user_id": "u2", "follower_count": 80, "urls": ["http://doc04.example.org/"], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-04T09:00:00Z"}',
    '{"tweet_id": "t12", "user_id": "u4", "follower_count": 10, "urls": [], "is_retweet": false, "retweet_of": null, "timestamp": "2019-03-04T10:00:00Z"}',
    "{not json",
]

# JSON that Python's decoder cannot turn into a value: nested past the
# recursion limit, and an integer past the 4300-digit conversion limit.
DEEP_JSON = "[" * 100_000
LONG_INT = "1" + "0" * 5000

FOLLOWER_LINES = [
    "follower_id,followee_id",
    "u2,u1",
    "u3,u1",
    "u5,u2",
    "u6,u5",
    "ghost,u1",
    "u4,u5",
]


def doc_url(i):
    return f"http://doc{i:02d}.example.org/"


def write_corpus(directory, n_docs=40, seed=7):
    """webpages.jsonl plus labels.csv where every criterion equals the
    marker label, so scores are 0 or 7."""
    docs, labels = make_marker_corpus(n_docs, seed=seed, fidelity=1.0)
    with open(directory / "webpages.jsonl", "w") as fh:
        for i, tokens in enumerate(docs):
            record = {"url": doc_url(i), "text": CARRIER + " " + " ".join(tokens)}
            fh.write(json.dumps(record) + "\n")
    with open(directory / "labels.csv", "w") as fh:
        fh.write("url," + ",".join(f"c{k}" for k in range(1, 8)) + "\n")
        for i, label in enumerate(labels):
            fh.write(doc_url(i) + ("," + str(label)) * 7 + "\n")
    return labels


def write_side_inputs(directory):
    (directory / "tweets.jsonl").write_text("\n".join(TWEET_LINES) + "\n")
    (directory / "followers.csv").write_text("\n".join(FOLLOWER_LINES) + "\n")
    with open(directory / "ratings.csv", "w") as fh:
        fh.write("subject,rater,category\n")
        for s, (n_yes, n_no) in enumerate(RATING_COUNTS):
            assignments = ["credible"] * n_yes + ["suspect"] * n_no
            for r, category in enumerate(assignments):
                fh.write(f"s{s},r{r},{category}\n")
    (directory / "reference_urls.txt").write_text(
        "http://doc00.example.org/\n"
        "HTTP://doc01.example.org\n"
        "http://elsewhere.org/page\n"
    )


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """The full CLI pipeline over a synthetic corpus, run once."""
    root = tmp_path_factory.mktemp("cli")
    fx = root / "fx"
    fx.mkdir()
    gold = write_corpus(fx)
    write_side_inputs(fx)
    out = root / "out"
    out.mkdir()

    stages = [
        ["ingest", "--webpages", f"{fx}/webpages.jsonl",
         "--tweets", f"{fx}/tweets.jsonl",
         "--reference-urls", f"{fx}/reference_urls.txt",
         "--report", f"{out}/filter_report.json", "--min-words", "50"],
        ["cv", "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
         "--folds", "5", "--out", f"{out}/cv.csv"],
        ["train", "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
         "--cv-report", f"{out}/cv.csv", "--out", f"{out}/model.json"],
        ["score", "--model", f"{out}/model.json", "--docs", f"{fx}/webpages.jsonl",
         "--min-words", "50", "--out", f"{out}/scores.csv"],
        ["evaluate", "--model", f"{out}/model.json",
         "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
         "--out", f"{out}/evaluation.json",
         "--distribution", f"{out}/label_distribution.csv"],
        ["kappa", "--ratings", f"{fx}/ratings.csv", "--out", f"{out}/kappa.json"],
        ["terms", "--docs", f"{fx}/webpages.jsonl", "--scores", f"{out}/scores.csv",
         "--out", f"{out}/terms.csv"],
        ["exposure", "--tweets", f"{fx}/tweets.jsonl",
         "--scores", f"{out}/scores.csv", "--out", f"{out}/exposure.csv",
         "--report", f"{out}/bucket_report.json", "--top", "5"],
        ["graph", "--tweets", f"{fx}/tweets.jsonl", "--scores", f"{out}/scores.csv",
         "--followers", f"{fx}/followers.csv", "--graphml", f"{out}/net.graphml",
         "--dot", f"{out}/net.dot", "--min-links", "1"],
    ]
    for argv in stages:
        argv += ["--manifest", f"{out}/{argv[0]}_manifest.json"]
        rc = main(argv)
        assert rc == 0, f"stage {argv[0]} failed"
    return {"fx": fx, "out": out, "gold": gold}


class TestPipelineOutputs:
    def test_filter_report(self, pipeline):
        report = json.loads((pipeline["out"] / "filter_report.json").read_text())
        assert report["retained"] == 40
        assert report["non_english"] == 0
        assert report["too_short"] == 0
        assert report["duplicate"] == 0
        assert report["broken_empty"] == 0
        assert report["tweets_parsed"] == 12
        assert report["tweets_skipped"] == 1
        assert report["reference_intersection"] == 2
        assert report["reference_corpus_only"] == 38

    def test_cv_report_covers_both_families(self, pipeline):
        report = read_cv_report_csv(pipeline["out"] / "cv.csv", folds=5)
        assert [(r.criterion, r.family) for r in report.rows] == [
            (k, fam) for k in range(1, 8) for fam in ("svm", "rf")
        ]
        for row in report.rows:
            assert 0.0 <= row.f1_mean <= 1.0
            assert 0.0 <= row.acc_mean <= 1.0
            assert row.f1_std >= 0.0

    def test_trained_model_matches_family_selection(self, pipeline):
        data = json.loads((pipeline["out"] / "model.json").read_text())
        assert data["schema_version"] == 1
        chosen = select_families(read_cv_report_csv(pipeline["out"] / "cv.csv"))
        by_criterion = {
            entry["criterion"]: entry["family"] for entry in data["criteria"]
        }
        assert by_criterion == chosen

    def test_scores_recover_the_planted_labels(self, pipeline):
        scores = read_scores_csv(pipeline["out"] / "scores.csv")
        assert sorted(scores) == [doc_url(i) for i in range(40)]
        for i, label in enumerate(pipeline["gold"]):
            result = scores[doc_url(i)]
            assert result.score == (7 if label else 0)
            assert result.bucket == ("high" if label else "low")

    def test_evaluation_report(self, pipeline):
        report = json.loads((pipeline["out"] / "evaluation.json").read_text())
        assert report["n_documents"] == 40
        assert report["three_class_accuracy"] == 1.0
        assert report["bucket_order"] == ["low", "medium", "high"]
        assert sum(map(sum, report["confusion"])) == 40
        dist = (pipeline["out"] / "label_distribution.csv").read_text().splitlines()
        assert dist[0] == "criterion,proportion_satisfied"
        assert len(dist) == 8
        assert all(line.endswith(",0.5") for line in dist[1:])

    def test_kappa_output(self, pipeline):
        payload = json.loads((pipeline["out"] / "kappa.json").read_text())
        assert payload["kappa"] == pytest.approx(EXPECTED_KAPPA, rel=1e-12)
        assert payload["n_subjects"] == 6
        assert payload["n_raters"] == 3
        assert payload["n_categories"] == 2
        assert payload["categories"] == ["credible", "suspect"]
        assert payload["ci95_low"] <= payload["kappa"] <= payload["ci95_high"]
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_terms_rank_markers_first(self, pipeline):
        lines = (pipeline["out"] / "terms.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "term,a,b,c,d,odds_ratio,ci_low,ci_high,p_value"
        top_terms = [line.split(",")[0] for line in lines[2:8]]
        assert top_terms == [
            "markeralpha", "markerbravo", "markercharlie",
            "markerxray", "markeryankee", "markerzulu",
        ]

    def test_exposure_outputs(self, pipeline):
        rows = (pipeline["out"] / "exposure.csv").read_text().splitlines()[1:]
        assert len(rows) == 40
        by_url = {}
        for row in rows:
            url, count, exposure_sum = row.split(",")[:3]
            by_url[url] = (int(count), int(exposure_sum))
        assert by_url[doc_url(0)] == (4, 500 + 80 + 1200 + 5)
        assert by_url[doc_url(1)] == (2, 560)
        assert by_url[doc_url(2)] == (2, 580)
        assert by_url[doc_url(39)] == (0, 0)

        report = json.loads((pipeline["out"] / "bucket_report.json").read_text())
        assert report["total_tweets"] == 11
        assert report["total_exposure"] == 3125
        assert report["tweets_by_bucket"] == {"low": 7, "medium": 0, "high": 4}
        assert report["exposure_by_bucket"] == {"low": 2445, "medium": 0, "high": 680}
        top = report["top_exposures"]
        assert [t["url"] for t in top] == [
            doc_url(0), doc_url(2), doc_url(1), doc_url(4), doc_url(3),
        ]

    def test_graph_outputs(self, pipeline):
        parsed = nx.parse_graphml((pipeline["out"] / "net.graphml").read_text())
        assert set(parsed.nodes) == {"u1", "u2", "u3", "u5", "u6"}
        assert set(parsed.edges) == {
            ("u2", "u1"), ("u3", "u1"), ("u5", "u2"), ("u6", "u5"),
        }
        assert parsed.nodes["u2"]["class"] == "low_sharer"
        assert parsed.nodes["u5"]["class"] == "high_sharer"
        assert parsed.nodes["u3"]["class"] == "unclassified"
        assert parsed.nodes["u1"]["class"] == "unclassified"
        assert parsed.nodes["u3"]["follower_count"] == 1200
        dot = (pipeline["out"] / "net.dot").read_text()
        assert dot.startswith("digraph followers {")
        assert '"u6" -> "u5";' in dot


class TestManifests:
    def test_every_stage_writes_a_complete_manifest(self, pipeline):
        out = pipeline["out"]
        for stage in (
            "ingest", "cv", "train", "score", "evaluate",
            "kappa", "terms", "exposure", "graph",
        ):
            manifest = json.loads((out / f"{stage}_manifest.json").read_text())
            assert set(manifest) == {
                "tool", "version", "kernels", "subcommand",
                "config", "inputs", "outputs",
            }
            assert manifest["tool"] == "webcred"
            assert manifest["version"] == __version__
            assert manifest["kernels"] in ("pure", "compiled")
            assert manifest["subcommand"] == stage
            assert manifest["inputs"], stage
            assert manifest["outputs"], stage
            assert "command" not in manifest["config"]
            assert "manifest" not in manifest["config"]

    def test_manifest_hashes_match_files(self, pipeline):
        manifest = json.loads(
            (pipeline["out"] / "train_manifest.json").read_text()
        )
        for section in ("inputs", "outputs"):
            for path, digest in manifest[section].items():
                actual = hashlib.sha256(open(path, "rb").read()).hexdigest()
                assert actual == digest, path

    def test_manifest_carries_no_timestamps(self, pipeline):
        text = (pipeline["out"] / "cv_manifest.json").read_text().lower()
        for needle in ("time", "date", "hostname"):
            assert needle not in text


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path, monkeypatch):
        fx = tmp_path / "fx"
        fx.mkdir()
        write_corpus(fx, n_docs=20, seed=11)
        outputs = ["cv.csv", "model.json", "scores.csv",
                   "cv_manifest.json", "train_manifest.json",
                   "score_manifest.json"]
        for run in ("run1", "run2"):
            rundir = tmp_path / run
            rundir.mkdir()
            shutil.copy(fx / "webpages.jsonl", rundir / "webpages.jsonl")
            shutil.copy(fx / "labels.csv", rundir / "labels.csv")
            monkeypatch.chdir(rundir)
            assert main(["cv", "--docs", "webpages.jsonl", "--labels", "labels.csv",
                         "--folds", "5", "--out", "cv.csv"]) == 0
            assert main(["train", "--docs", "webpages.jsonl",
                         "--labels", "labels.csv", "--cv-report", "cv.csv",
                         "--out", "model.json"]) == 0
            assert main(["score", "--model", "model.json",
                         "--docs", "webpages.jsonl", "--min-words", "50",
                         "--out", "scores.csv"]) == 0
        for name in outputs:
            first = (tmp_path / "run1" / name).read_bytes()
            second = (tmp_path / "run2" / name).read_bytes()
            assert first == second, name


class TestGrid:
    def test_grid_writes_one_row_per_point_and_selects_one(
        self, pipeline, tmp_path
    ):
        fx = pipeline["fx"]
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--docs", f"{fx}/webpages.jsonl",
                   "--labels", f"{fx}/labels.csv", "--criterion", "2",
                   "--family", "svm", "--grid", '{"C": [0.1, 1.0, 10.0]}',
                   "--folds", "5", "--out", str(out),
                   "--manifest", str(tmp_path / "grid_manifest.json")])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "criterion,family,params,f1_mean,f1_std,acc_mean,acc_std,selected"
        )
        rows = lines[1:]
        assert len(rows) == 3
        assert all(row.startswith("2,svm,") for row in rows)
        selected = [row.rsplit(",", 1)[1] for row in rows]
        assert sorted(selected) == ["0", "0", "1"]

    def run_grid(self, pipeline, tmp_path, grid):
        fx = pipeline["fx"]
        out = tmp_path / "grid.csv"
        rc = main(["grid", "--docs", f"{fx}/webpages.jsonl",
                   "--labels", f"{fx}/labels.csv", "--criterion", "2",
                   "--family", "svm", "--grid", grid,
                   "--folds", "5", "--out", str(out),
                   "--manifest", str(tmp_path / "grid_manifest.json")])
        assert rc == 0
        with open(out, newline="") as fh:
            return list(csv.reader(fh))[1:]

    def test_report_is_valid_csv_for_a_two_parameter_grid(
        self, pipeline, tmp_path, capsys
    ):
        # A linear svm has one parameter, so a second one is a data error.
        fx = pipeline["fx"]
        rc = main(["grid", "--docs", f"{fx}/webpages.jsonl",
                   "--labels", f"{fx}/labels.csv", "--criterion", "2",
                   "--family", "svm", "--grid", '{"C": [1.0], "gamma": [0.5]}',
                   "--folds", "5", "--out", str(tmp_path / "grid.csv"),
                   "--manifest", str(tmp_path / "grid_manifest.json")])
        assert rc == 1
        assert_one_error_line(
            capsys.readouterr().err, "svm has no parameter 'gamma' (expected one of C)"
        )
        assert list(tmp_path.iterdir()) == []

    def test_repeated_grid_values_select_one_row(self, pipeline, tmp_path):
        rows = self.run_grid(pipeline, tmp_path, '{"C": [10.0, 10.0]}')
        assert [row[2] for row in rows] == ['{"C": 10.0}'] * 2
        assert [row[7] for row in rows] == ["1", "0"]


def assert_one_error_line(err, message):
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_required_argument_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["cv"])
        assert excinfo.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_version_flag_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_bad_input_data_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "ratings.csv"
        bad.write_text("wrong,header,entirely\na,b,c\n")
        rc = main(["kappa", "--ratings", str(bad),
                   "--out", str(tmp_path / "kappa.json"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["kappa", "--ratings", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "kappa.json"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("{not json", "webpages.jsonl:2: invalid JSON"),
            ("[1, 2]", "webpages.jsonl:2: expected a JSON object, got list"),
            ('{"text": "words"}', "webpages.jsonl:2: missing key 'url'"),
            ('{"url": "http://b.example.org/"}',
             "webpages.jsonl:2: missing key 'text'"),
            ('{"url": null, "text": "words"}',
             "webpages.jsonl:2: 'url' is not a string"),
            ('{"url": "", "text": "words"}', "webpages.jsonl:2: empty URL"),
            ('{"url": "   ", "text": "words"}', "webpages.jsonl:2: empty URL"),
            ('{"url": "#top", "text": "words"}', "webpages.jsonl:2: empty URL"),
            ('{"url": "?utm_source=x", "text": "words"}', "webpages.jsonl:2: empty URL"),
            ('{"url": "HTTP://A.example.org", "text": "words"}',
             "webpages.jsonl:2: duplicate url http://a.example.org/ (first on line 1)"),
            pytest.param(DEEP_JSON, "webpages.jsonl:2: invalid JSON: maximum recursion",
                         id="deep"),
            pytest.param('{"url": "http://b.example.org/", "text": %s}' % LONG_INT,
                         "webpages.jsonl:2: invalid JSON: Exceeds the limit", id="long-int"),
        ],
    )
    def test_malformed_webpage_line_exits_1(self, tmp_path, capsys, bad_line, message):
        good = json.dumps({"url": "http://a.example.org/", "text": CARRIER})
        (tmp_path / "webpages.jsonl").write_text(f"{good}\n{bad_line}\n")
        rc = main(["ingest", "--webpages", str(tmp_path / "webpages.jsonl"),
                   "--report", str(tmp_path / "report.json"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, message)

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"url": "http://a.example.org/"}\n{"url": "x"}\n',
             "model.json:2: not a model file"),
            ("url,c1\n", "model.json:1: not a model file"),
            ("[1, 2]\n", "model.json: not a model file"),
            ('{"schema_version": 1}\n', "model.json: not a model file"),
            ('{"schema_version": 1, "tfidf": []}\n', "model.json: not a model file"),
            ("{}\n", "model.json: unsupported model schema_version"),
            pytest.param(DEEP_JSON, "model.json: not a model file: maximum recursion",
                         id="deep"),
            pytest.param('{"schema_version": %s}' % LONG_INT,
                         "model.json: not a model file: Exceeds the limit", id="long-int"),
        ],
    )
    def test_non_model_file_exits_1(self, tmp_path, capsys, content, message):
        write_corpus(tmp_path, n_docs=4, seed=3)
        (tmp_path / "model.json").write_text(content)
        rc = main(["score", "--model", str(tmp_path / "model.json"),
                   "--docs", str(tmp_path / "webpages.jsonl"),
                   "--out", str(tmp_path / "scores.csv"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, message)

    # Criterion 1 is made an SVM over the pipeline model's vocabulary;
    # criterion 2 is a forest.
    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("criteria", 0, "weights_or_trees", "weights", 0), "x",
             "criterion 1: svm weight must be a finite number, got 'x'"),
            (("criteria", 1, "weights_or_trees", "trees", 0, "threshold", 0), "x",
             "criterion 2: tree 0: threshold must be a finite number, got 'x'"),
            (("criteria", 2, "criterion"), "x",
             "criterion must be a 64-bit integer, got 'x'"),
            (("criteria", 1, "weights_or_trees", "trees", 0, "feature", 0), 1000000,
             "criterion 2: tree 0: feature 1000000 outside -1.."),
            (("tfidf", "norm"), "l2", "unsupported norm 'l2'"),
            (("tfidf", "vocab", 1, "index"), 0,
             "vocab indices must number the terms 0..V-1, each once"),
            (("criteria", 0, "weights_or_trees", "weights"), [0.0],
             "criterion 1: model dimension 1 is not the TF-IDF dimension"),
            (("criteria", 1, "weights_or_trees", "trees"), [],
             "criterion 2: 0 trees for n_estimators"),
            (("criteria", 0, "weights_or_trees", "fit"),
             {"epochs_run": 3, "converged": "false", "relative_gap": 0.0},
             "criterion 1: converged must be true or false, got 'false'"),
            (("criteria", 0, "weights_or_trees", "fit"),
             {"epochs_run": -3, "converged": True, "relative_gap": 0.0},
             "criterion 1: epochs_run must be at least 0, got -3"),
            (("criteria", 0, "params", "C"), -1.0,
             "criterion 1: C must be a positive finite number, got -1.0"),
        ],
        ids=["svm-weight", "threshold", "criterion", "feature", "norm", "vocab-index",
             "dimension", "no-trees", "converged", "epochs-run", "svm-c"],
    )
    def test_malformed_model_value_exits_1(self, pipeline, tmp_path, capsys, where,
                                           value, message):
        model = json.loads((pipeline["out"] / "model.json").read_text())
        dim = len(model["tfidf"]["vocab"])
        model["criteria"][0].update(
            family="svm",
            params={"C": 1.0},
            weights_or_trees={"weights": [0.0] * dim, "bias": 0.0},
        )
        node = model
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["score", "--model", str(path),
                   "--docs", f"{pipeline['fx']}/webpages.jsonl",
                   "--out", str(tmp_path / "scores.csv"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, f"error: {path}: {message}")

    def test_labelled_url_missing_from_docs_exits_1(self, tmp_path, capsys):
        write_corpus(tmp_path, n_docs=4, seed=3)
        labels = (tmp_path / "labels.csv").read_text()
        labels += "http://ghost.example.org/,1,1,1,1,1,1,1\n"
        (tmp_path / "labels.csv").write_text(labels)
        rc = main(["cv", "--docs", str(tmp_path / "webpages.jsonl"),
                   "--labels", str(tmp_path / "labels.csv"),
                   "--out", str(tmp_path / "cv.csv"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(
            capsys.readouterr().err,
            f"error: {tmp_path}/labels.csv: 1 urls not in {tmp_path}/webpages.jsonl, "
            "first: http://ghost.example.org/",
        )

    @pytest.mark.parametrize(
        "bad_file, argv",
        [
            ("webpages.jsonl", ["ingest", "--webpages", "{d}/webpages.jsonl",
                                "--report", "{d}/report.json"]),
            ("tweets.jsonl", ["ingest", "--webpages", "{d}/webpages.jsonl",
                              "--tweets", "{d}/tweets.jsonl",
                              "--report", "{d}/report.json"]),
            ("reference_urls.txt", ["ingest", "--webpages", "{d}/webpages.jsonl",
                                    "--reference-urls", "{d}/reference_urls.txt",
                                    "--report", "{d}/report.json"]),
            ("labels.csv", ["cv", "--docs", "{d}/webpages.jsonl",
                            "--labels", "{d}/labels.csv", "--out", "{d}/cv_out.csv"]),
            ("cv.csv", ["train", "--docs", "{d}/webpages.jsonl",
                        "--labels", "{d}/labels.csv", "--cv-report", "{d}/cv.csv",
                        "--out", "{d}/model_out.json"]),
            ("model.json", ["score", "--model", "{d}/model.json",
                            "--docs", "{d}/webpages.jsonl",
                            "--out", "{d}/scores_out.csv"]),
            ("scores.csv", ["terms", "--docs", "{d}/webpages.jsonl",
                            "--scores", "{d}/scores.csv", "--out", "{d}/terms.csv"]),
            ("ratings.csv", ["kappa", "--ratings", "{d}/ratings.csv",
                             "--out", "{d}/kappa.json"]),
            ("followers.csv", ["graph", "--tweets", "{d}/tweets.jsonl",
                               "--scores", "{d}/scores.csv",
                               "--followers", "{d}/followers.csv",
                               "--dot", "{d}/net.dot"]),
        ],
    )
    def test_non_utf8_input_exits_1(self, pipeline, tmp_path, capsys, bad_file, argv):
        for path in pipeline["fx"].iterdir():
            shutil.copy(path, tmp_path)
        for name in ("model.json", "scores.csv", "cv.csv"):
            shutil.copy(pipeline["out"] / name, tmp_path)
        bad = tmp_path / bad_file
        data = bad.read_bytes()
        if bad_file == "webpages.jsonl":
            data = b"\xff\xfe" + data  # a UTF-16 byte-order mark
        else:
            data = data.replace(b"\n", b"\n\xff", 1)
        bad.write_bytes(data)
        argv = [a.format(d=tmp_path) for a in argv]
        rc = main(argv + ["--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, f"{bad}: not UTF-8")

    @pytest.mark.parametrize(
        "bad_file, bad_row, message",
        [
            ("cv.csv", "x,svm,0.9,0.1,0.9,0.1", "invalid literal for int()"),
            ("cv.csv", "1,svm,0.9", "expected 6 fields, got 3"),
            ("scores.csv", "http://a.example.org/,1,1,1,1,1,1,1,seven,high",
             "invalid literal for int()"),
            ("scores.csv", "http://a.example.org/,1,1,1", "expected 10 fields, got 4"),
        ],
    )
    def test_malformed_csv_row_exits_1(self, pipeline, tmp_path, capsys, bad_file,
                                       bad_row, message):
        fx, out = pipeline["fx"], pipeline["out"]
        bad = tmp_path / bad_file
        header = (out / bad_file).read_text().splitlines()[0]
        bad.write_text(f"{header}\n{bad_row}\n")
        argv = {
            "cv.csv": ["train", "--docs", f"{fx}/webpages.jsonl",
                       "--labels", f"{fx}/labels.csv", "--cv-report", str(bad),
                       "--out", f"{tmp_path}/model.json"],
            "scores.csv": ["terms", "--docs", f"{fx}/webpages.jsonl",
                           "--scores", str(bad), "--out", f"{tmp_path}/terms.csv"],
        }[bad_file]
        rc = main(argv + ["--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, f"error: {bad}:2: {message}")

    @pytest.mark.parametrize(
        "bad_file, bad_row, message",
        [
            ("labels.csv", "http://doc00.example.org/,2,1,1,1,1,1,0",
             "criterion labels must be 0 or 1"),
            ("ratings.csv", "s0,r0", "expected 3 fields, got 2"),
        ],
    )
    def test_malformed_input_row_exits_1(self, pipeline, tmp_path, capsys, bad_file,
                                         bad_row, message):
        fx = pipeline["fx"]
        bad = tmp_path / bad_file
        header = (fx / bad_file).read_text().splitlines()[0]
        bad.write_text(f"{header}\n{bad_row}\n")
        argv = {
            "labels.csv": ["cv", "--docs", f"{fx}/webpages.jsonl",
                           "--labels", str(bad), "--out", f"{tmp_path}/cv.csv"],
            "ratings.csv": ["kappa", "--ratings", str(bad),
                            "--out", f"{tmp_path}/kappa.json"],
        }[bad_file]
        rc = main(argv + ["--manifest", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys.readouterr().err, f"error: {bad}:2: {message}")


@pytest.mark.parametrize(
    "stage, rows, message",
    [
        ("kappa", ["s0,r0,yes", "s0,r1,no", "s0,r2,no", "s1,r0,yes", "s1,r1,no"],
         "row sums to 2, expected 3 raters per subject"),
        ("kappa", ["s0,r0,yes", "s0,r1,no"], "fleiss kappa needs at least 2 subjects"),
        ("kappa", ["s0,r0,yes", "s0,r1,yes", "s1,r0,yes", "s1,r1,yes"],
         "fleiss kappa needs at least 2 categories"),
        ("exposure", [], "no share records to report on"),
        ("terms", [], "cannot build a vocabulary from an empty corpus"),
        ("terms", "high", "both document sets must be non-empty"),
    ],
    ids=["ragged-raters", "one-subject", "one-category", "exposure-empty",
         "terms-empty", "terms-all-high"],
)
def test_whole_file_error_names_the_file(pipeline, tmp_path, capsys, stage, rows,
                                         message):
    fx, out = pipeline["fx"], pipeline["out"]
    source = fx / "ratings.csv" if stage == "kappa" else out / "scores.csv"
    header, *lines = source.read_text().splitlines()
    if rows == "high":
        rows = [line for line in lines if line.endswith(",high")]
        assert rows
    bad = tmp_path / source.name
    bad.write_text("\n".join([header, *rows]) + "\n")
    argv = {
        "kappa": ["kappa", "--ratings", str(bad)],
        "exposure": ["exposure", "--tweets", f"{fx}/tweets.jsonl", "--scores", str(bad),
                     "--report", f"{tmp_path}/report.json"],
        "terms": ["terms", "--docs", f"{fx}/webpages.jsonl", "--scores", str(bad)],
    }[stage]
    rc = main(argv + ["--out", f"{tmp_path}/out", "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, f"error: {bad}: {message}")


def test_graph_on_a_header_only_scores_file_writes_an_empty_graph(pipeline, tmp_path):
    fx = pipeline["fx"]
    scores = tmp_path / "scores.csv"
    scores.write_text((pipeline["out"] / "scores.csv").read_text().splitlines()[0] + "\n")
    rc = main(["graph", "--tweets", f"{fx}/tweets.jsonl", "--scores", str(scores),
               "--followers", f"{fx}/followers.csv", "--dot", f"{tmp_path}/net.dot",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 0
    assert (tmp_path / "net.dot").read_text().splitlines() == ["digraph followers {", "}"]


def test_cv_joins_labels_that_spell_urls_another_way(fixtures_dir, tmp_path):
    """labels.csv with scheme and host upper-cased gives the same report."""
    lines = (fixtures_dir / "labels.csv").read_text().splitlines()
    respelled = [lines[0]]
    for line in lines[1:]:
        scheme, rest = line.split("://", 1)
        host, rest = rest.split("/", 1)
        respelled.append(f"{scheme.upper()}://{host.upper()}/{rest}")
    (tmp_path / "labels.csv").write_text("\n".join(respelled) + "\n")
    for name, labels in [("fixture", fixtures_dir / "labels.csv"),
                         ("respelled", tmp_path / "labels.csv")]:
        assert main(["cv", "--docs", str(fixtures_dir / "webpages.jsonl"),
                     "--labels", str(labels), "--out", f"{tmp_path}/{name}.csv",
                     "--manifest", f"{tmp_path}/{name}.json"]) == 0
    assert (tmp_path / "respelled.csv").read_bytes() == (
        tmp_path / "fixture.csv"
    ).read_bytes()


def test_tweet_with_an_empty_url_is_skipped(pipeline, tmp_path):
    fx, out = pipeline["fx"], pipeline["out"]
    empty = json.loads(TWEET_LINES[0]) | {"tweet_id": "t99", "urls": [""]}
    blank = empty | {"tweet_id": "t98", "urls": ["   "]}
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("\n".join(TWEET_LINES + [json.dumps(empty), json.dumps(blank)]) + "\n")
    argv = ["--scores", f"{out}/scores.csv", "--manifest", f"{tmp_path}/m.json"]
    assert main(["exposure", "--tweets", str(tweets),
                 "--out", f"{tmp_path}/exposure.csv",
                 "--report", f"{tmp_path}/bucket_report.json"] + argv) == 0
    assert (tmp_path / "exposure.csv").read_bytes() == (
        out / "exposure.csv"
    ).read_bytes()
    assert main(["ingest", "--webpages", f"{fx}/webpages.jsonl",
                 "--tweets", str(tweets), "--min-words", "50",
                 "--report", f"{tmp_path}/filter_report.json",
                 "--manifest", f"{tmp_path}/m.json"]) == 0
    report = json.loads((tmp_path / "filter_report.json").read_text())
    assert report["tweets_skipped"] == 3  # the "{not json" line, t99 and t98


def test_tweet_with_a_url_that_normalizes_to_nothing_is_skipped(
    pipeline, tmp_path
):
    top = json.loads(TWEET_LINES[0]) | {"tweet_id": "t99", "urls": ["#top"]}
    utm = top | {"tweet_id": "t98", "urls": ["?utm_source=x"]}
    tweets = tmp_path / "tweets.jsonl"
    lines = TWEET_LINES + [json.dumps(top), json.dumps(utm)]
    tweets.write_text("\n".join(lines) + "\n")
    assert main(["ingest", "--webpages", f"{pipeline['fx']}/webpages.jsonl",
                 "--tweets", str(tweets), "--min-words", "50",
                 "--report", f"{tmp_path}/filter_report.json",
                 "--manifest", f"{tmp_path}/m.json"]) == 0
    report = json.loads((tmp_path / "filter_report.json").read_text())
    assert report["tweets_skipped"] == 3  # the "{not json" line, t99 and t98


@pytest.mark.parametrize("bad_line", ["#top", "?utm_source=x"])
def test_reference_url_that_normalizes_to_nothing_names_its_line(
    pipeline, tmp_path, capsys, bad_line
):
    reference = tmp_path / "reference_urls.txt"
    # Line 2 is blank and skipped; line 3 is the bad one.
    reference.write_text(f"http://a.example.org/\n\n{bad_line}\n")
    rc = main(["ingest", "--webpages", f"{pipeline['fx']}/webpages.jsonl",
               "--min-words", "50", "--reference-urls", str(reference),
               "--report", f"{tmp_path}/filter_report.json",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, f"{reference}:3: empty URL")


def test_scores_that_spell_urls_another_way_join_the_same_tweets(pipeline, tmp_path):
    # Tweet URLs are normalized on the way in, so the scores' URLs must be
    # too: upper-case scheme and host and a fragment once matched nothing.
    fx, out = pipeline["fx"], pipeline["out"]
    header, *rows = (out / "scores.csv").read_text().splitlines()
    respelled = [header]
    for row in rows:
        url, rest = row.split(",", 1)
        scheme, after = url.split("://", 1)
        host, path = after.split("/", 1)
        respelled.append(f"{scheme.upper()}://{host.upper()}/{path}#top,{rest}")
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(respelled) + "\n")
    argv = ["--tweets", f"{fx}/tweets.jsonl", "--scores", str(scores),
            "--manifest", f"{tmp_path}/m.json"]
    assert main(["exposure", "--out", f"{tmp_path}/exposure.csv",
                 "--report", f"{tmp_path}/bucket_report.json", "--top", "5"] + argv) == 0
    for name in ("exposure.csv", "bucket_report.json"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    assert json.loads((tmp_path / "bucket_report.json").read_text())["total_tweets"] > 0
    assert main(["graph", "--followers", f"{fx}/followers.csv", "--min-links", "1",
                 "--dot", f"{tmp_path}/net.dot"] + argv) == 0
    assert (tmp_path / "net.dot").read_bytes() == (out / "net.dot").read_bytes()


@pytest.mark.parametrize(
    "timestamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"]
)
def test_tweet_with_a_timestamp_out_of_range_in_utc_is_skipped(
    pipeline, tmp_path, timestamp
):
    fx, out = pipeline["fx"], pipeline["out"]
    bad = json.loads(TWEET_LINES[0]) | {"tweet_id": "t99", "timestamp": timestamp}
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("\n".join(TWEET_LINES + [json.dumps(bad)]) + "\n")
    argv = ["--tweets", str(tweets), "--scores", f"{out}/scores.csv",
            "--manifest", f"{tmp_path}/m.json"]
    assert main(["exposure", "--out", f"{tmp_path}/exposure.csv",
                 "--report", f"{tmp_path}/bucket_report.json"] + argv) == 0
    assert (tmp_path / "exposure.csv").read_bytes() == (
        out / "exposure.csv"
    ).read_bytes()
    assert main(["graph", "--followers", f"{fx}/followers.csv", "--min-links", "1",
                 "--dot", f"{tmp_path}/net.dot"] + argv) == 0
    assert (tmp_path / "net.dot").read_bytes() == (out / "net.dot").read_bytes()
    assert main(["ingest", "--webpages", f"{fx}/webpages.jsonl",
                 "--tweets", str(tweets), "--min-words", "50",
                 "--report", f"{tmp_path}/filter_report.json",
                 "--manifest", f"{tmp_path}/m.json"]) == 0
    report = json.loads((tmp_path / "filter_report.json").read_text())
    assert report["tweets_skipped"] == 2  # the "{not json" line and t99


def test_webpage_url_with_a_lone_surrogate_exits_1(pipeline, tmp_path, capsys):
    # The JSON escape decodes to a str that no UTF-8 output can hold; the
    # page passes every filter, so its url would reach scores.csv.
    lines = (pipeline["fx"] / "webpages.jsonl").read_text().splitlines()
    bad = json.dumps({"url": "http://a.org/x\ud800y", "text": CARRIER + " " + CARRIER})
    assert "\\ud800" in bad
    docs = tmp_path / "webpages.jsonl"
    docs.write_text("\n".join(lines[:3] + [bad] + lines[3:]) + "\n")
    rc = main(["score", "--model", f"{pipeline['out']}/model.json",
               "--docs", str(docs), "--min-words", "50",
               "--out", f"{tmp_path}/scores.csv", "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(
        capsys.readouterr().err, f"{docs}:4: 'url' is not valid Unicode"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["webpages.jsonl"]


@pytest.mark.parametrize("field", ["tweet_id", "user_id", "urls"])
def test_tweet_with_a_lone_surrogate_is_skipped(pipeline, tmp_path, field):
    fx, out = pipeline["fx"], pipeline["out"]
    # A new user sharing five scored links, so the graph would keep it.
    bad = json.loads(TWEET_LINES[0]) | {
        "tweet_id": "t99", "user_id": "u99", "urls": [doc_url(i) for i in range(5)]
    }
    bad[field] = [doc_url(0), "http://a.org/\ud800"] if field == "urls" else "u\ud800"
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("\n".join(TWEET_LINES + [json.dumps(bad)]) + "\n")
    argv = ["--tweets", str(tweets), "--scores", f"{out}/scores.csv",
            "--manifest", f"{tmp_path}/m.json"]
    assert main(["graph", "--followers", f"{fx}/followers.csv", "--min-links", "1",
                 "--graphml", f"{tmp_path}/net.graphml",
                 "--dot", f"{tmp_path}/net.dot"] + argv) == 0
    for name in ("net.graphml", "net.dot"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    assert main(["ingest", "--webpages", f"{fx}/webpages.jsonl",
                 "--tweets", str(tweets), "--min-words", "50",
                 "--report", f"{tmp_path}/filter_report.json",
                 "--manifest", f"{tmp_path}/m.json"]) == 0
    report = json.loads((tmp_path / "filter_report.json").read_text())
    assert report["tweets_skipped"] == 2  # the "{not json" line and t99


def test_score_writes_utf8_under_an_ascii_locale(pipeline, tmp_path):
    """Outputs are UTF-8 whatever the locale's preferred encoding."""
    fx, out = pipeline["fx"], pipeline["out"]
    lines = (fx / "webpages.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    first["url"] = "http://doc00.example.org/caf\u00e9"
    docs = tmp_path / "webpages.jsonl"
    docs.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    argv = ["score", "--model", str(out / "model.json"), "--docs", str(docs),
            "--min-words", "50"]
    assert main(argv + ["--out", f"{tmp_path}/utf8.csv",
                        "--manifest", f"{tmp_path}/m.json"]) == 0

    env = subprocess_env() | {
        "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"
    }
    proc = subprocess.run(
        [sys.executable, "-m", "webcred"] + argv
        + ["--out", "ascii.csv", "--manifest", "ascii_manifest.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    written = (tmp_path / "ascii.csv").read_bytes()
    assert "http://doc00.example.org/caf\u00e9,".encode("utf-8") in written
    assert written == (tmp_path / "utf8.csv").read_bytes()


@pytest.mark.parametrize("stage", ["train", "evaluate", "terms"])
def test_stages_that_never_filter_run_no_language_detection(
    pipeline, tmp_path, monkeypatch, stage
):
    monkeypatch.setattr(ingest, "detect_language", pytest.fail)
    fx, out = pipeline["fx"], pipeline["out"]
    docs, labels = f"{fx}/webpages.jsonl", f"{fx}/labels.csv"
    argv = {
        "train": ["train", "--docs", docs, "--labels", labels,
                  "--cv-report", f"{out}/cv.csv", "--out", f"{tmp_path}/model.json"],
        "evaluate": ["evaluate", "--model", f"{out}/model.json", "--docs", docs,
                     "--labels", labels, "--out", f"{tmp_path}/evaluation.json",
                     "--distribution", f"{tmp_path}/distribution.csv"],
        "terms": ["terms", "--docs", docs, "--scores", f"{out}/scores.csv",
                  "--out", f"{tmp_path}/terms.csv"],
    }[stage]
    assert main(argv + ["--manifest", f"{tmp_path}/m.json"]) == 0


@pytest.mark.parametrize(
    "family, grid, message",
    [
        ("svm", "not json", "--grid is not JSON"),
        ("svm", '{"C": 1}', "non-empty list"),
        ("svm", "[1]", "non-empty list"),
        ("svm", '{"C": ["x"]}', "C must be a number, got 'x'"),
        ("svm", '{"C": [Infinity]}', "C must be a positive finite number, got inf"),
        pytest.param("svm", '{"C": [1%s]}' % ("0" * 400),
                     "C must be a positive finite number, got 1000", id="C-10**400"),
        ("rf", '{"n_estimators": [2.5]}', "n_estimators must be an integer, got 2.5"),
        ("svm", '{"C": [1.0], "c": [1, 2]}',
         "svm has no parameter 'c' (expected one of C)"),
        ("rf", '{"C": [1.0]}', "rf has no parameter 'C' (expected one of n_estimators)"),
        pytest.param("svm", DEEP_JSON, "--grid is not JSON: maximum recursion", id="deep"),
        pytest.param("svm", '{"C": [%s]}' % LONG_INT, "--grid is not JSON: Exceeds the limit",
                     id="long-int"),
    ],
)
def test_invalid_grid_exits_1(pipeline, tmp_path, capsys, family, grid, message):
    fx = pipeline["fx"]
    rc = main(["grid", "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
               "--criterion", "2", "--family", family, "--grid", grid,
               "--folds", "3", "--out", f"{tmp_path}/grid.csv",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def write_cv_report(path, winner):
    """A cv report in which family ``winner`` has the higher F1 on every
    criterion, so ``train`` picks it throughout."""
    rows = [
        f"{k},{family},{0.9 if family == winner else 0.1},0.0,0.5,0.0"
        for k in range(1, 8)
        for family in ("svm", "rf")
    ]
    path.write_text("\n".join([",".join(CV_REPORT_HEADER), *rows]) + "\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("stage", ["cv", "train"])
def test_non_finite_svm_c_exits_1(pipeline, tmp_path, capsys, stage, value):
    fx = pipeline["fx"]
    cv_report = tmp_path / "cv.csv"
    write_cv_report(cv_report, "svm")
    argv = {
        "cv": ["--svm-c", value, "--folds", "3"],
        "train": ["--svm-c", value, "--cv-report", str(cv_report)],
    }[stage]
    rc = main([stage, "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
               *argv, "--out", f"{tmp_path}/out", "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "C must be a positive finite number")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.csv"]


@pytest.mark.parametrize(
    "stage, options, message",
    [
        ("cv", ["--families", "rf", "--svm-c", "nan"],
         "C must be a positive finite number, got nan"),
        ("cv", ["--families", "svm", "--rf-estimators", "0"],
         "n_estimators must be >= 1, got 0"),
        ("cv", ["--families", ","], "--families must name one or more of svm, rf"),
        ("cv", ["--families", ""], "--families must name one or more of svm, rf"),
        ("train", ["--svm-c", "-1"], "C must be a positive finite number, got -1.0"),
        ("train", ["--rf-estimators", "0"], "n_estimators must be >= 1, got 0"),
        ("cv", ["--families", "svm,svm"], "--families names 'svm' twice"),
    ],
)
def test_invalid_model_option_exits_1_whichever_families_are_fitted(
    pipeline, tmp_path, capsys, stage, options, message
):
    """The cv report picks, for every criterion, the family whose option is
    valid, and a cv run fits only that family or none."""
    fx = pipeline["fx"]
    cv_report = tmp_path / "cv.csv"
    write_cv_report(cv_report, "svm" if "--rf-estimators" in options else "rf")
    argv = {
        "cv": ["--folds", "3"],
        "train": ["--cv-report", str(cv_report)],
    }[stage]
    rc = main([stage, "--docs", f"{fx}/webpages.jsonl", "--labels", f"{fx}/labels.csv",
               *argv, *options, "--out", f"{tmp_path}/out",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.csv"]


def test_train_on_a_corpus_without_shared_terms_exits_1(tmp_path, capsys):
    """No term occurs in two of the four pages, so the vocabulary is empty;
    the forest chosen for every criterion never sees it."""
    with open(tmp_path / "webpages.jsonl", "w") as fh:
        for i, word in enumerate(["alpha", "bravo", "charlie", "delta"]):
            fh.write(json.dumps({"url": doc_url(i), "text": f"{word} {word}"}) + "\n")
    with open(tmp_path / "labels.csv", "w") as fh:
        fh.write("url," + ",".join(f"c{k}" for k in range(1, 8)) + "\n")
        for i in range(4):
            fh.write(doc_url(i) + f",{i % 2}" * 7 + "\n")
    write_cv_report(tmp_path / "cv.csv", "rf")
    rc = main(["train", "--docs", f"{tmp_path}/webpages.jsonl",
               "--labels", f"{tmp_path}/labels.csv",
               "--cv-report", f"{tmp_path}/cv.csv", "--out", f"{tmp_path}/model.json",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "empty vocabulary")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cv.csv", "labels.csv", "webpages.jsonl"
    ]


@pytest.mark.parametrize(
    "blank_urls",
    [["http://doc05b.example.org/"],
     # Written in the other order: evaluate reads pages in url order.
     ["http://doc20b.example.org/", "http://doc05b.example.org/"]],
)
def test_evaluate_a_page_with_no_text_left_exits_1(pipeline, tmp_path, capsys,
                                                   blank_urls):
    """A labelled page whose text cleans to nothing, among good pages, stops
    evaluate with one error line naming the docs file and the first such
    page in url order, and neither output is written."""
    fx = pipeline["fx"]
    pages = (fx / "webpages.jsonl").read_text()
    labels = (fx / "labels.csv").read_text()
    for url in blank_urls:
        pages += json.dumps({"url": url, "text": "\U0001F489 \U0001F9A0"}) + "\n"
        labels += url + ",1" * 7 + "\n"
    (tmp_path / "webpages.jsonl").write_text(pages)
    (tmp_path / "labels.csv").write_text(labels)
    rc = main(["evaluate", "--model", f"{pipeline['out']}/model.json",
               "--docs", f"{tmp_path}/webpages.jsonl",
               "--labels", f"{tmp_path}/labels.csv",
               "--out", f"{tmp_path}/evaluation.json",
               "--distribution", f"{tmp_path}/label_distribution.csv",
               "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path}/webpages.jsonl: document http://doc05b.example.org/: "
        "no text left after cleaning\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "labels.csv", "webpages.jsonl"
    ]


# Each stage's options besides --docs, --out and --manifest.
NO_TEXT_STAGES = {
    "cv": ["--labels", "{fx}/labels.csv", "--folds", "3", "--rf-estimators", "3"],
    "train": ["--labels", "{fx}/labels.csv", "--cv-report", "{d}/cv.csv",
              "--rf-estimators", "3"],
    "grid": ["--labels", "{fx}/labels.csv", "--criterion", "1", "--family", "svm",
             "--folds", "3", "--grid", '{{"C": [1]}}'],
    "evaluate": ["--labels", "{fx}/labels.csv", "--model", "{out}/model.json"],
    "terms": ["--scores", "{out}/scores.csv"],
}


@pytest.mark.parametrize("stage", sorted(NO_TEXT_STAGES))
def test_a_labelled_page_with_no_text_left_exits_1_naming_the_docs(
    pipeline, tmp_path, capsys, stage
):
    """Every stage that tokenizes labelled or scored pages applies one rule:
    a page whose text cleans to nothing stops it with one error line that
    names ``--docs`` and the page.  (``score`` filters its pages first, and
    such a page is never English, so it is dropped there.)"""
    fx, out = pipeline["fx"], pipeline["out"]
    first = doc_url(0)
    assert first in read_scores_csv(out / "scores.csv")
    lines = (fx / "webpages.jsonl").read_text().splitlines()
    pages = [json.loads(line) for line in lines]
    assert min(page["url"] for page in pages) == first
    for page in pages:
        if page["url"] == first:
            page["text"] = "☃☃☃ ☃"
    docs = tmp_path / "webpages.jsonl"
    docs.write_text("".join(json.dumps(page) + "\n" for page in pages))
    write_cv_report(tmp_path / "cv.csv", "svm")
    argv = [stage, "--docs", str(docs),
            *(o.format(fx=fx, out=out, d=tmp_path) for o in NO_TEXT_STAGES[stage]),
            "--out", f"{tmp_path}/out", "--manifest", f"{tmp_path}/m.json"]
    rc = main(argv)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {docs}: document {first}: no text left after cleaning\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.csv", "webpages.jsonl"]


@pytest.mark.parametrize(
    "argv, first, second",
    [
        (["evaluate", "--model", "{out}/model.json", "--docs", "{fx}/webpages.jsonl",
          "--labels", "{fx}/labels.csv"], "--out", "--distribution"),
        (["exposure", "--tweets", "{fx}/tweets.jsonl", "--scores", "{out}/scores.csv"],
         "--out", "--report"),
        (["graph", "--tweets", "{fx}/tweets.jsonl", "--scores", "{out}/scores.csv",
          "--followers", "{fx}/followers.csv", "--min-links", "1"],
         "--graphml", "--dot"),
    ],
)
def test_a_failing_second_output_keeps_the_first(pipeline, tmp_path, capsys, argv,
                                                 first, second):
    """A stage's outputs are committed together: when the second cannot be
    written, the first stays as it was and no temporary file is left."""
    fx, out = pipeline["fx"], pipeline["out"]
    kept = tmp_path / "first.out"
    kept.write_bytes(b"previous run\n")
    argv = [a.format(fx=fx, out=out) for a in argv]
    rc = main(argv + [first, str(kept), second, f"{tmp_path}/nodir/second.out",
                      "--manifest", f"{tmp_path}/m.json"])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, "nodir")
    assert kept.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.out"]


@pytest.mark.parametrize(
    "bad_file, rows, message",
    [
        ("scores.csv", ["{row}", "{row}"], "scores.csv:3: duplicate url"),
        ("ratings.csv", ["s0,r0,credible", "s1,r0,credible", "s0,r0,suspect"],
         "ratings.csv:4: rater 'r0' rated subject 's0' twice"),
        # The quoted url spans lines 2 and 3, so the bad row is on line 4.
        ("labels.csv", ['"http://a.example.org/\nx",1,1,1,1,1,1,1', "{row}",
                        "http://b.example.org/,1,1,1,1,1,1,x"],
         "labels.csv:5: invalid literal for int()"),
        ("cv.csv", ["{row}", "1,rf,1.0,0.0,1.0,0.0", "1,rf,1.0,0.0,1.0,0.0"],
         "cv.csv:4: duplicate row for criterion 1, family rf"),
        ("cv.csv", ["{row}", "1,xgb,1.0,0.0,1.0,0.0"], "cv.csv:3: unknown family 'xgb'"),
    ],
)
def test_bad_row_is_reported_at_its_file_line(pipeline, tmp_path, capsys, bad_file,
                                              rows, message):
    fx, out = pipeline["fx"], pipeline["out"]
    source = out / bad_file if bad_file in ("scores.csv", "cv.csv") else fx / bad_file
    header, first_row = source.read_text().splitlines()[:2]
    bad = tmp_path / bad_file
    bad.write_text("\n".join([header] + [r.format(row=first_row) for r in rows]) + "\n")
    argv = {
        "scores.csv": ["terms", "--docs", f"{fx}/webpages.jsonl", "--scores", str(bad),
                       "--out", f"{tmp_path}/terms.csv"],
        "ratings.csv": ["kappa", "--ratings", str(bad),
                        "--out", f"{tmp_path}/kappa.json"],
        "labels.csv": ["cv", "--docs", f"{fx}/webpages.jsonl", "--labels", str(bad),
                       "--out", f"{tmp_path}/cv.csv"],
        "cv.csv": ["train", "--docs", f"{fx}/webpages.jsonl",
                   "--labels", f"{fx}/labels.csv", "--cv-report", str(bad),
                   "--out", f"{tmp_path}/model.json"],
    }[bad_file]
    rc = main(argv + ["--manifest", str(tmp_path / "m.json")])
    assert rc == 1
    assert_one_error_line(capsys.readouterr().err, f"error: {tmp_path}/{message}")


# Each CSV input, the pipeline directory it comes from, and the stage that
# reads it ({d} is the directory the mutated file and outputs go to).
CSV_INPUTS = {
    "labels.csv": ("fx", ["evaluate", "--model", "{out}/model.json",
                          "--docs", "{fx}/webpages.jsonl", "--labels", "{d}/labels.csv",
                          "--out", "{d}/evaluation.json",
                          "--distribution", "{d}/distribution.csv"]),
    "cv.csv": ("out", ["train", "--docs", "{fx}/webpages.jsonl",
                       "--labels", "{fx}/labels.csv", "--cv-report", "{d}/cv.csv",
                       "--out", "{d}/model.json"]),
    "scores.csv": ("out", ["terms", "--docs", "{fx}/webpages.jsonl",
                           "--scores", "{d}/scores.csv", "--out", "{d}/terms.csv"]),
    "ratings.csv": ("fx", ["kappa", "--ratings", "{d}/ratings.csv",
                           "--out", "{d}/kappa.json"]),
    "followers.csv": ("fx", ["graph", "--tweets", "{fx}/tweets.jsonl",
                             "--scores", "{out}/scores.csv",
                             "--followers", "{d}/followers.csv",
                             "--dot", "{d}/net.dot", "--min-links", "1"]),
}


# A JSON number or integer standing alone, not inside a string or a longer
# number, and an object member whose value is a string, number or literal.
JSON_NUMBER = rb"(?<=[\[: ,])-?\d+(\.\d+)?([eE][-+]?\d+)?(?=[,\]} ]|$)"
JSON_INTEGER = rb"(?<=[\[: ,])-?\d+(?=[,\]} ]|$)"
JSON_MEMBER = rb'"(?:[^"\\]|\\.)*": *("(?:[^"\\]|\\.)*"|[-\w.+]+)(, *)?'

# Each mutation that rewrites one match of a pattern in a line: the pattern
# and the replacements to draw from.
VALUE_MUTATIONS = {
    "text": (rb"\d+(\.\d+)?", [b"seven"]),
    "quoted": (JSON_NUMBER, [b'"seven"']),
    "large": (JSON_INTEGER, [b"1000000", str(2**63).encode(), str(2**64).encode()]),
    "delete": (JSON_MEMBER, [b""]),
}
CSV_MUTATIONS = ["truncate", "drop", "add", "text", "byte"]
JSON_MUTATIONS = CSV_MUTATIONS + ["quoted", "large", "delete"]


@st.composite
def mutated(draw, data, kinds=CSV_MUTATIONS):
    """``data`` with one line truncated, a field dropped or added, a number
    swapped for text, or a non-UTF-8 byte injected; with JSON_MUTATIONS
    also a JSON number swapped for a string or, if an integer, for a large
    one, or an object member deleted."""
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        line = line[: draw(st.integers(0, len(line)))]
    elif kind == "drop":
        fields = line.split(b",")
        del fields[draw(st.integers(0, len(fields) - 1))]
        line = b",".join(fields)
    elif kind == "add":
        line += b"," + draw(st.sampled_from([b"", b"1", b"x", b'"q"']))
    elif kind in VALUE_MUTATIONS:
        pattern, replacements = VALUE_MUTATIONS[kind]
        matches = list(re.finditer(pattern, line))
        if matches:
            m = draw(st.sampled_from(matches))
            new = draw(st.sampled_from(replacements))
            line = line[: m.start()] + new + line[m.end() :]
    else:
        at = draw(st.integers(0, len(line)))
        byte = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"]))
        line = line[:at] + byte + line[at:]
    lines[i] = line
    return b"\n".join(lines)


def check_mutated_input(pipeline, tmp_path, name, source, argv, kinds):
    """Run ``argv`` on mutations of the input ``name`` from the pipeline
    directory ``source``: each exits 0, or 1 with one ``error:`` line."""
    data = (pipeline[source] / name).read_bytes()
    argv = [
        a.format(d=tmp_path, fx=pipeline["fx"], out=pipeline["out"]) for a in argv
    ] + ["--manifest", f"{tmp_path}/m.json"]

    # One directory serves every example; each overwrites the same files.
    @settings(max_examples=25, deadline=None)
    @given(bad=mutated(data, kinds))
    def check(bad):
        (tmp_path / name).write_bytes(bad)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert "Traceback" not in err.getvalue()

    check()


@pytest.mark.parametrize("name", sorted(CSV_INPUTS))
def test_mutated_csv_input_exits_0_or_1_with_one_error_line(pipeline, tmp_path, name):
    source, argv = CSV_INPUTS[name]
    check_mutated_input(pipeline, tmp_path, name, source, argv, CSV_MUTATIONS)


# The JSON and plain-text inputs, in the form of CSV_INPUTS.
OTHER_INPUTS = {
    "webpages.jsonl": ("fx", ["ingest", "--webpages", "{d}/webpages.jsonl",
                              "--min-words", "50", "--report", "{d}/report.json"]),
    "tweets.jsonl": ("fx", ["exposure", "--tweets", "{d}/tweets.jsonl",
                            "--scores", "{out}/scores.csv", "--out", "{d}/exposure.csv",
                            "--report", "{d}/bucket_report.json"]),
    "reference_urls.txt": ("fx", ["ingest", "--webpages", "{fx}/webpages.jsonl",
                                  "--reference-urls", "{d}/reference_urls.txt",
                                  "--min-words", "50", "--report", "{d}/report.json"]),
    "model.json": ("out", ["score", "--model", "{d}/model.json",
                           "--docs", "{fx}/webpages.jsonl", "--min-words", "50",
                           "--out", "{d}/scores.csv"]),
}


@pytest.mark.parametrize("name", sorted(OTHER_INPUTS))
def test_mutated_json_or_text_input_exits_0_or_1_with_one_error_line(
    pipeline, tmp_path, name
):
    source, argv = OTHER_INPUTS[name]
    check_mutated_input(pipeline, tmp_path, name, source, argv, JSON_MUTATIONS)


# Every option of every subcommand, as (dest, type, default, required,
# choices, help), keyed by the subcommand and its help line.  Manifests
# record vars(args) as their config, so a change here changes every
# manifest; --seed must stay, since the benchmark passes it to each stage.
SEED = ("seed", int, 42, False, None, "PRNG seed")
MANIFEST = ("manifest", None, None, False, None,
            "run-manifest path (default: <subcommand>_manifest.json)")
JACCARD = ("jaccard", float, 0.9, False, None, "near-duplicate similarity threshold")
CLI_SURFACE = {
    ("ingest", "filter the webpage corpus"): {
        "--webpages": ("webpages", None, None, True, None, None),
        "--tweets": ("tweets", None, None, False, None, None),
        "--reference-urls": ("reference_urls", None, None, False, None, None),
        "--report": ("report", None, "filter_report.json", False, None, None),
        "--min-words": ("min_words", int, 300, False, None, None),
        "--jaccard": JACCARD,
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("cv", "cross-validate both model families"): {
        "--docs": ("docs", None, None, True, None, None),
        "--labels": ("labels", None, None, True, None, None),
        "--out": ("out", None, "cv_report.csv", False, None, None),
        "--folds": ("folds", int, 10, False, None, None),
        "--families": ("families", None, "svm,rf", False, None, None),
        "--svm-c": ("svm_c", float, 100.0, False, None, None),
        "--rf-estimators": ("rf_estimators", int, 10, False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("train", "train the per-criterion ensemble"): {
        "--docs": ("docs", None, None, True, None, None),
        "--labels": ("labels", None, None, True, None, None),
        "--cv-report": ("cv_report", None, None, True, None, None),
        "--out": ("out", None, "model.json", False, None, None),
        "--svm-c": ("svm_c", float, 100.0, False, None, None),
        "--rf-estimators": ("rf_estimators", int, 10, False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("grid", "hyperparameter grid search"): {
        "--docs": ("docs", None, None, True, None, None),
        "--labels": ("labels", None, None, True, None, None),
        "--criterion": ("criterion", int, None, True, None, None),
        "--family": ("family", None, None, True, ("svm", "rf"), None),
        "--grid": ("grid", None, None, False, None, """JSON grid, e.g. '{"C": [1, 10]}'"""),
        "--folds": ("folds", int, 10, False, None, None),
        "--out": ("out", None, "grid_report.csv", False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("score", "score filtered documents"): {
        "--model": ("model", None, None, True, None, None),
        "--docs": ("docs", None, None, True, None, None),
        "--out": ("out", None, "scores.csv", False, None, None),
        "--min-words": ("min_words", int, 300, False, None, None),
        "--jaccard": JACCARD,
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("evaluate", "3-class evaluation on labels"): {
        "--model": ("model", None, None, True, None, None),
        "--docs": ("docs", None, None, True, None, None),
        "--labels": ("labels", None, None, True, None, None),
        "--out": ("out", None, "evaluation.json", False, None, None),
        "--distribution": ("distribution", None, "label_distribution.csv", False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("kappa", "rater agreement from a ratings file"): {
        "--ratings": ("ratings", None, None, True, None, None),
        "--out": ("out", None, "kappa.json", False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("terms", "term significance for low bucket"): {
        "--docs": ("docs", None, None, True, None, None),
        "--scores": ("scores", None, None, True, None, None),
        "--out": ("out", None, "terms.csv", False, None, None),
        "--min-df": ("min_df", int, 2, False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("exposure", "share counts and exposure sums"): {
        "--tweets": ("tweets", None, None, True, None, None),
        "--scores": ("scores", None, None, True, None, None),
        "--out": ("out", None, "exposure.csv", False, None, None),
        "--report": ("report", None, "bucket_report.json", False, None, None),
        "--top": ("top", int, 100, False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
    ("graph", "follower network construction"): {
        "--tweets": ("tweets", None, None, True, None, None),
        "--scores": ("scores", None, None, True, None, None),
        "--followers": ("followers", None, None, True, None, None),
        "--graphml": ("graphml", None, None, False, None, None),
        "--dot": ("dot", None, None, False, None, None),
        "--min-links": ("min_links", int, 2, False, None, None),
        "--seed": SEED,
        "--manifest": MANIFEST,
    },
}


def test_every_subcommand_keeps_its_options():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    surface = {
        (name, helps[name]): {
            "/".join(a.option_strings): (
                a.dest, a.type, a.default, a.required,
                tuple(a.choices) if a.choices else None, a.help,
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 73


def readme_pipeline_commands(repo_root):
    """The ``webcred ...`` command lines of README's Pipeline block, each
    with its continuation lines joined."""
    text = (repo_root / "README.md").read_text(encoding="utf-8")
    block = text.split("## Pipeline", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        line for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("webcred ")
    ]


def test_readme_pipeline_commands_parse(repo_root):
    commands = readme_pipeline_commands(repo_root)
    assert [line.split()[1] for line in commands] == [
        "ingest", "cv", "train", "score", "evaluate", "kappa", "terms",
        "exposure", "graph",
    ]
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
