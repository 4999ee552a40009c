import random
from collections import Counter

import numpy as np
import pytest

import webcred.eval
from helpers import make_marker_corpus
from webcred.errors import DataError, StratificationError
from webcred.eval import (
    CvReport,
    CvRow,
    cross_validate,
    crossvalidate_criterion,
    f1_and_accuracy,
    read_cv_report_csv,
    stratified_kfold,
)


def oracle_f1_accuracy(y_true, y_pred):
    pairs = Counter(zip(y_true, y_pred))
    tp = pairs[(1, 1)]
    fp = pairs[(0, 1)]
    fn = pairs[(1, 0)]
    tn = pairs[(0, 0)]
    accuracy = (tp + tn) / len(y_true)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return f1, accuracy


class TestF1Accuracy:
    def test_matches_confusion_matrix_oracle_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 30)
            y_true = [rng.randint(0, 1) for _ in range(n)]
            y_pred = [rng.randint(0, 1) for _ in range(n)]
            f1, acc = f1_and_accuracy(y_true, y_pred)
            want_f1, want_acc = oracle_f1_accuracy(y_true, y_pred)
            assert f1 == pytest.approx(want_f1, abs=1e-12)
            assert acc == pytest.approx(want_acc, abs=1e-12)

    def test_perfect_predictions(self):
        assert f1_and_accuracy([1, 0, 1], [1, 0, 1]) == (1.0, 1.0)

    def test_no_positive_predictions_or_labels_gives_zero_f1(self):
        f1, acc = f1_and_accuracy([0, 0], [0, 0])
        assert f1 == 0.0
        assert acc == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            f1_and_accuracy([1], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            f1_and_accuracy([], [])


class TestStratifiedKfold:
    def test_balanced_20_samples_give_one_positive_per_fold(self):
        labels = [1] * 10 + [0] * 10
        folds = stratified_kfold(labels, k=10, seed=0)
        assert len(folds) == 10
        for fold in folds:
            assert sum(labels[i] for i in fold) == 1
            assert len(fold) == 2

    def test_folds_partition_the_indices(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(20, 60)
            labels = [rng.randint(0, 1) for _ in range(n)]
            k = rng.randint(2, 5)
            if min(sum(labels), n - sum(labels)) < k:
                continue
            folds = stratified_kfold(labels, k=k, seed=rng.randint(0, 99))
            seen = [i for fold in folds for i in fold]
            assert sorted(seen) == list(range(n))
            sizes = sorted(len(fold) for fold in folds)
            assert sizes[-1] - sizes[0] <= 2

    def test_same_seed_reproduces_folds(self):
        labels = [i % 2 for i in range(40)]
        assert stratified_kfold(labels, seed=7) == stratified_kfold(labels, seed=7)

    def test_different_seeds_differ(self):
        labels = [i % 2 for i in range(40)]
        assert stratified_kfold(labels, seed=1) != stratified_kfold(labels, seed=2)

    def test_class_smaller_than_k_rejected(self):
        labels = [1] * 3 + [0] * 20
        with pytest.raises(StratificationError):
            stratified_kfold(labels, k=10, seed=0)

    def test_fewer_than_two_folds_rejected(self):
        with pytest.raises(DataError):
            stratified_kfold([0, 1], k=1, seed=0)


class TestCrossValidation:
    def test_separable_corpus_scores_perfectly_in_every_fold(self):
        docs, labels = make_marker_corpus(80, seed=31, fidelity=1.0)
        f1s, accs = crossvalidate_criterion(docs, labels, "svm", k=10, seed=0)
        assert f1s == [1.0] * 10
        assert accs == [1.0] * 10

    def test_std_of_constant_fold_metric_is_zero(self):
        docs, labels = make_marker_corpus(80, seed=35, fidelity=1.0)
        report = cross_validate(docs, {1: labels}, families=("svm",), k=10, seed=0)
        row = report.rows[0]
        assert row.f1_std == 0.0
        assert row.acc_std == 0.0

    def test_report_has_one_row_per_criterion_and_family(self):
        docs, labels = make_marker_corpus(40, seed=32)
        labels_by_criterion = {k: labels for k in range(1, 8)}
        report = cross_validate(
            docs, labels_by_criterion, families=("svm", "rf"), k=4, seed=0
        )
        assert len(report.rows) == 14
        seen = [(row.criterion, row.family) for row in report.rows]
        assert seen == [(c, f) for c in range(1, 8) for f in ("svm", "rf")]

    def test_csv_round_trip(self, tmp_path):
        rows = [
            CvRow(criterion=1, family="svm", f1_mean=0.5, f1_std=0.1,
                  acc_mean=0.75, acc_std=0.825),
            CvRow(criterion=1, family="rf", f1_mean=1 / 3, f1_std=0.0,
                  acc_mean=2 / 3, acc_std=0.0),
        ]
        path = tmp_path / "report.csv"
        CvReport(rows=rows, folds=10).write_csv(path)
        restored = read_cv_report_csv(path)
        assert len(restored.rows) == 2
        for got, want in zip(restored.rows, rows):
            assert got.criterion == want.criterion
            assert got.family == want.family
            assert got.f1_mean == want.f1_mean
            assert got.f1_std == want.f1_std
            assert got.acc_mean == want.acc_mean
            assert got.acc_std == want.acc_std

    def test_unknown_family_rejected(self):
        docs, labels = make_marker_corpus(30, seed=33)
        with pytest.raises(DataError):
            crossvalidate_criterion(docs, labels, "boosted", k=3, seed=0)

    def test_deterministic_across_runs(self):
        docs, labels = make_marker_corpus(40, seed=34)
        a = crossvalidate_criterion(docs, labels, "rf", k=4, seed=9)
        b = crossvalidate_criterion(docs, labels, "rf", k=4, seed=9)
        assert a == b


class TestSharedFolds:
    def test_families_share_each_folds_vocabulary(self, monkeypatch):
        docs, labels = make_marker_corpus(40, seed=36)
        calls = []
        original = webcred.eval.build_vocabulary

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(webcred.eval, "build_vocabulary", counting)
        labels_by_criterion = {1: labels, 2: labels[1:] + labels[:1]}
        cross_validate(
            docs, labels_by_criterion, families=("svm", "rf"), k=4, seed=0
        )
        assert len(calls) == 4 * len(labels_by_criterion)

    def test_rows_equal_each_family_cross_validated_alone(self):
        docs, labels = make_marker_corpus(40, seed=37, fidelity=0.7)
        params = {"svm": {"C": 1.0}, "rf": {"n_estimators": 5}}
        report = cross_validate(
            docs, {3: labels}, families=("svm", "rf"), params_by_family=params,
            k=4, seed=11,
        )
        for row in report.rows:
            f1s, accs = crossvalidate_criterion(
                docs, labels, row.family, params[row.family], k=4, seed=11
            )
            assert row.f1_mean.hex() == float(np.mean(f1s)).hex()
            assert row.f1_std.hex() == float(np.std(f1s)).hex()
            assert row.acc_mean.hex() == float(np.mean(accs)).hex()
            assert row.acc_std.hex() == float(np.std(accs)).hex()
