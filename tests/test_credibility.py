import itertools
import json

import pytest

from helpers import make_marker_corpus
from webcred.credibility import (
    BUCKETS,
    N_CRITERIA,
    bucket_for_score,
    build_ensemble,
    ensemble_from_dict,
    ensemble_to_dict,
    evaluate_ensemble,
    predict_credibility,
    read_labels_csv,
    read_scores_csv,
    score_from_labels,
    select_families,
    validate_labels,
    write_label_distribution_csv,
    write_scores_csv,
)
from webcred.errors import DataError
from webcred.eval import CvReport, CvRow
from webcred.ingest import WebDocument
from webcred.models import train_model
from webcred.textprep import build_vocabulary, fit_tfidf, transform

# Reference 10-fold means the selection rule must reproduce: the SVM wins
# on F1 for criteria 3 and 7 only.
REFERENCE_MEANS = {
    1: {"svm": (0.903, 0.842), "rf": (0.950, 0.924)},
    2: {"svm": (0.802, 0.828), "rf": (0.915, 0.943)},
    3: {"svm": (0.761, 0.917), "rf": (0.745, 0.944)},
    4: {"svm": (0.903, 0.833), "rf": (0.959, 0.936)},
    5: {"svm": (0.787, 0.721), "rf": (0.921, 0.920)},
    6: {"svm": (0.912, 0.852), "rf": (0.964, 0.943)},
    7: {"svm": (0.801, 0.924), "rf": (0.764, 0.936)},
}


def reference_report() -> CvReport:
    rows = []
    for criterion, families in REFERENCE_MEANS.items():
        for family, (f1, acc) in families.items():
            rows.append(
                CvRow(criterion=criterion, family=family, f1_mean=f1,
                      f1_std=0.0, acc_mean=acc, acc_std=0.0)
            )
    return CvReport(rows=rows, folds=10)


class TestScoring:
    def test_all_128_label_vectors_map_to_score_and_bucket(self):
        for labels in itertools.product((0, 1), repeat=N_CRITERIA):
            result = score_from_labels(labels)
            expected_score = sum(labels)
            assert result.score == expected_score
            if expected_score <= 2:
                assert result.bucket == "low"
            elif expected_score <= 4:
                assert result.bucket == "medium"
            else:
                assert result.bucket == "high"

    def test_bucket_boundaries(self):
        assert [bucket_for_score(s) for s in range(8)] == [
            "low", "low", "low", "medium", "medium", "high", "high", "high",
        ]

    def test_bucket_rejects_out_of_range_scores(self):
        with pytest.raises(DataError):
            bucket_for_score(-1)
        with pytest.raises(DataError):
            bucket_for_score(8)

    def test_validate_labels_rejects_bad_input(self):
        with pytest.raises(DataError):
            validate_labels((1, 0, 1))
        with pytest.raises(DataError):
            validate_labels((1, 0, 1, 0, 1, 0, 2))

    def test_bucket_order_constant(self):
        assert BUCKETS == ("low", "medium", "high")


def report_with_criterion_1(svm_row: CvRow, rf_row: CvRow) -> CvReport:
    """A full 7-criterion report whose criterion-1 rows are the given pair."""
    rows = [svm_row, rf_row]
    for criterion in range(2, N_CRITERIA + 1):
        rows.append(CvRow(criterion, "svm", 0.6, 0.0, 0.6, 0.0))
        rows.append(CvRow(criterion, "rf", 0.7, 0.0, 0.7, 0.0))
    return CvReport(rows=rows, folds=10)


class TestFamilySelection:
    def test_reference_means_select_svm_for_criteria_3_and_7(self):
        choice = select_families(reference_report())
        assert choice == {
            1: "rf", 2: "rf", 3: "svm", 4: "rf", 5: "rf", 6: "rf", 7: "svm",
        }

    def test_f1_tie_broken_by_accuracy(self):
        report = report_with_criterion_1(
            CvRow(1, "svm", 0.9, 0.0, 0.95, 0.0),
            CvRow(1, "rf", 0.9, 0.0, 0.90, 0.0),
        )
        assert select_families(report)[1] == "svm"

    def test_full_tie_goes_to_rf(self):
        report = report_with_criterion_1(
            CvRow(1, "svm", 0.9, 0.0, 0.9, 0.0),
            CvRow(1, "rf", 0.9, 0.0, 0.9, 0.0),
        )
        assert select_families(report)[1] == "rf"

    def test_missing_family_rejected(self):
        rows = [CvRow(1, "svm", 0.9, 0.0, 0.9, 0.0)]
        with pytest.raises(DataError):
            select_families(CvReport(rows=rows, folds=10))


def train_toy_ensemble():
    """A real 7-criterion ensemble over a tiny marker corpus."""
    docs, labels = make_marker_corpus(40, seed=51, fidelity=1.0)
    vocab = build_vocabulary(docs, min_df=1, stopwords=())
    tfidf = fit_tfidf(docs, vocab)
    X = [transform(d, tfidf) for d in docs]
    rows = []
    models = {}
    for criterion in range(1, 8):
        family = "svm" if criterion in (3, 7) else "rf"
        for fam in ("svm", "rf"):
            f1 = 0.9 if fam == family else 0.5
            rows.append(CvRow(criterion, fam, f1, 0.0, f1, 0.0))
        models[(criterion, family)] = train_model(
            family, X, labels, seed=criterion
        )
    report = CvReport(rows=rows, folds=10)
    ensemble = build_ensemble(report, models)
    return ensemble, tfidf, docs, labels


def as_webdocs(token_docs):
    return [
        WebDocument(
            url=f"http://doc{i:02d}.example.org/",
            text=" ".join(tokens),
            word_count=len(tokens),
        )
        for i, tokens in enumerate(token_docs)
    ]


class TestEnsemble:
    def test_build_records_provenance_for_both_families(self):
        ensemble, _, _, _ = train_toy_ensemble()
        assert sorted(ensemble.entries) == list(range(1, 8))
        for entry in ensemble.entries.values():
            assert set(entry.provenance) == {"svm", "rf"}
            for stats in entry.provenance.values():
                assert set(stats) == {"f1_mean", "f1_std", "acc_mean", "acc_std"}

    def test_predicts_scores_consistent_with_labels(self):
        ensemble, tfidf, docs, labels = train_toy_ensemble()
        for doc in as_webdocs(docs):
            result = predict_credibility(doc, ensemble, tfidf)
            assert 0 <= result.score <= 7
            assert result.bucket == bucket_for_score(result.score)
            assert result.score == sum(result.labels)

    def test_empty_document_rejected(self):
        ensemble, tfidf, _, _ = train_toy_ensemble()
        blank = WebDocument(url="http://blank.example.org/", text="   ", word_count=0)
        with pytest.raises(DataError):
            predict_credibility(blank, ensemble, tfidf)

    def test_round_trip_preserves_predictions(self):
        ensemble, tfidf, docs, _ = train_toy_ensemble()
        payload = json.dumps(ensemble_to_dict(ensemble, tfidf))
        restored_ensemble, restored_tfidf = ensemble_from_dict(json.loads(payload))
        for doc in as_webdocs(docs):
            want = predict_credibility(doc, ensemble, tfidf)
            got = predict_credibility(doc, restored_ensemble, restored_tfidf)
            assert got.labels == want.labels
            assert got.score == want.score

    def test_unknown_schema_version_rejected(self):
        ensemble, tfidf, _, _ = train_toy_ensemble()
        data = ensemble_to_dict(ensemble, tfidf)
        data["schema_version"] = 99
        with pytest.raises(DataError):
            ensemble_from_dict(data)

    def test_evaluation_reports_three_class_accuracy(self):
        ensemble, tfidf, docs, labels = train_toy_ensemble()
        webdocs = as_webdocs(docs)
        gold = [tuple([label] * 7) for label in labels]
        report = evaluate_ensemble(webdocs, gold, ensemble, tfidf)
        assert report["n_documents"] == len(docs)
        assert 0.0 <= report["three_class_accuracy"] <= 1.0
        confusion = report["confusion"]
        assert len(confusion) == 3 and all(len(r) == 3 for r in confusion)
        assert sum(map(sum, confusion)) == len(docs)
        assert report["bucket_order"] == ["low", "medium", "high"]

    def test_evaluation_rejects_mismatched_lengths(self):
        ensemble, tfidf, docs, labels = train_toy_ensemble()
        webdocs = as_webdocs(docs)
        gold = [tuple([label] * 7) for label in labels]
        with pytest.raises(DataError):
            evaluate_ensemble(webdocs, gold[:-1], ensemble, tfidf)


class TestCsvFormats:
    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7\n"
            "http://a.org/,1,0,1,0,1,0,1\n"
            "http://b.org/,0,0,0,0,0,0,0\n"
        )
        labels = read_labels_csv(path)
        assert labels["http://a.org/"] == (1, 0, 1, 0, 1, 0, 1)
        assert labels["http://b.org/"] == (0, 0, 0, 0, 0, 0, 0)

    def test_labels_reject_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("url,x1\nhttp://a.org/,1\n")
        with pytest.raises(DataError):
            read_labels_csv(path)

    def test_labels_reject_duplicate_urls(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7\n"
            "http://a.org/,1,0,1,0,1,0,1\n"
            "http://a.org/,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(DataError):
            read_labels_csv(path)

    def test_labels_are_keyed_by_normalized_url(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7\n"
            "HTTP://A.org?utm_source=x#top,1,0,1,0,1,0,1\n"
        )
        assert read_labels_csv(path) == {"http://a.org/": (1, 0, 1, 0, 1, 0, 1)}

    def test_labels_reject_urls_that_normalize_alike(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7\n"
            "http://a.org/,1,0,1,0,1,0,1\n"
            "HTTP://A.org#top,0,0,0,0,0,0,0\n"
        )
        with pytest.raises(DataError, match=r"labels\.csv:3: duplicate url http://a\.org/"):
            read_labels_csv(path)

    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        results = {
            "http://a.org/": score_from_labels((1, 1, 1, 0, 0, 0, 0)),
            "http://b.org/": score_from_labels((1, 1, 1, 1, 1, 1, 0)),
        }
        write_scores_csv(sorted(results.items()), path)
        restored = read_scores_csv(path)
        assert set(restored) == set(results)
        for url, want in results.items():
            assert restored[url].labels == want.labels
            assert restored[url].score == want.score
            assert restored[url].bucket == want.bucket

    def test_scores_are_keyed_by_normalized_url(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7,score,bucket\n"
            "HTTP://A.org?utm_source=x#top,1,1,1,0,0,0,0,3,medium\n"
        )
        assert list(read_scores_csv(path)) == ["http://a.org/"]

    def test_scores_reject_urls_that_normalize_alike(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7,score,bucket\n"
            "http://a.org/,1,1,1,0,0,0,0,3,medium\n"
            "HTTP://A.org#top,1,1,1,0,0,0,0,3,medium\n"
        )
        with pytest.raises(DataError, match=r"scores\.csv:3: duplicate url http://a\.org/"):
            read_scores_csv(path)

    def test_scores_reject_inconsistent_bucket(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "url,c1,c2,c3,c4,c5,c6,c7,score,bucket\n"
            "http://a.org/,1,1,1,0,0,0,0,3,high\n"
        )
        with pytest.raises(DataError):
            read_scores_csv(path)

    def test_label_distribution_csv(self, tmp_path):
        path = tmp_path / "dist.csv"
        gold = [
            (1, 0, 1, 0, 1, 0, 1),
            (1, 0, 0, 0, 1, 0, 1),
        ]
        write_label_distribution_csv(gold, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "criterion,proportion_satisfied"
        values = [line.split(",") for line in lines[1:]]
        assert [v[0] for v in values] == [str(c) for c in range(1, 8)]
        assert float(values[0][1]) == 1.0
        assert float(values[2][1]) == 0.5
