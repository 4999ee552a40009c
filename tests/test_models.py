from dataclasses import fields

import numpy as np
import pytest

import webcred.eval
from helpers import make_marker_corpus
from webcred.errors import DataError
from webcred.eval import CV_REPORT_HEADER, crossvalidate_criterion
from webcred.models import GridPoint, grid_search


def best_by_rule(table):
    """Highest mean F1, then highest mean accuracy, then earliest point."""
    best = table[0]
    for point in table[1:]:
        if (point.f1_mean, point.acc_mean) > (best.f1_mean, best.acc_mean):
            best = point
    return best.params


class TestGridSearch:
    def test_a_grid_point_ends_with_the_fold_summary_fields_of_a_cv_row(self):
        # fold_summary's values fill both records by position.
        assert [f.name for f in fields(GridPoint)] == ["params", *CV_REPORT_HEADER[2:]]

    def test_rows_equal_cross_validating_each_point(self):
        docs, labels = make_marker_corpus(40, seed=41, fidelity=0.6)
        result = grid_search(docs, labels, "svm", {"C": [0.1, 10.0]}, k=4, seed=5)
        assert result.family == "svm"
        assert [point.params for point in result.table] == [{"C": 0.1}, {"C": 10.0}]
        for point in result.table:
            f1s, accs = crossvalidate_criterion(
                docs, labels, "svm", point.params, k=4, seed=5
            )
            assert point.f1_mean.hex() == float(np.mean(f1s)).hex()
            assert point.f1_std.hex() == float(np.std(f1s)).hex()
            assert point.acc_mean.hex() == float(np.mean(accs)).hex()
            assert point.acc_std.hex() == float(np.std(accs)).hex()
        assert result.table[result.best_index].params == best_by_rule(result.table)

    def test_ties_break_on_accuracy_then_enumeration_order(self, monkeypatch):
        canned = [
            ([0.5, 0.5], [0.9, 0.9]),
            ([0.8, 0.8], [0.6, 0.6]),
            ([0.8, 0.8], [0.7, 0.7]),
            ([0.8, 0.8], [0.7, 0.7]),
        ]
        seen = []

        def fake(token_docs, labels, candidates, k, seed):
            seen.extend(candidates)
            return canned

        monkeypatch.setattr(webcred.eval, "crossvalidate_candidates", fake)
        result = grid_search([], [], "rf", {"n_estimators": [1, 2, 3, 4]})
        assert seen == [("rf", {"n_estimators": n}) for n in (1, 2, 3, 4)]
        assert result.best_index == 2
        assert result.table[2].params == {"n_estimators": 3}

    def test_grid_points_are_the_product_in_declaration_order(self):
        # svm's only grid parameter is C; a linear kernel has no gamma.
        with pytest.raises(DataError, match="svm has no parameter 'gamma'"):
            grid_search([], [], "svm", {"C": [1.0, 2.0], "gamma": [0.5, 3.0]})

    @pytest.mark.parametrize("grid", [{}, {"C": []}])
    def test_empty_grid_rejected(self, grid):
        with pytest.raises(DataError):
            grid_search([["a"]], [1], "svm", grid)
