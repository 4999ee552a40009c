import json
import logging
import random
import re

import numpy as np
import pytest

from helpers import svm_relative_gap_oracle
import webcred.models
import webcred.svm
from webcred import _kernels
from webcred.credibility import N_CRITERIA, read_labels_csv
from webcred.errors import DataError
from webcred.eval import cross_validate
from webcred.ingest import load_webpages
from webcred.svm import BIAS_SCALE, SvmModel, train_linear_svm
from webcred.textprep import SparseVector, clean_text, to_csr, tokenize


def sv(pairs: dict[int, float], dim: int) -> SparseVector:
    idx = sorted(pairs)
    return SparseVector(
        indices=np.asarray(idx, dtype=np.int32),
        values=np.asarray([pairs[i] for i in idx], dtype=np.float64),
        dim=dim,
    )


def random_separable_problem(rng: random.Random, n_docs: int, dim: int):
    """Sparse points whose first coordinate carries the class signal."""
    X, y = [], []
    for _ in range(n_docs):
        label = rng.randint(0, 1)
        idx = sorted(rng.sample(range(dim), rng.randint(1, min(4, dim))))
        vals = [rng.uniform(0.1, 1.0) for _ in idx]
        if 0 not in idx:
            idx = [0] + idx
            vals = [0.0] + vals
        vals[0] = rng.uniform(1.0, 2.0) if label else rng.uniform(-2.0, -1.0)
        X.append(sv(dict(zip(idx, vals)), dim))
        y.append(label)
    if len(set(y)) < 2:
        y[0] = 1 - y[0]
        vals = X[0].values.copy()
        vals[0] = -vals[0]
        X[0] = SparseVector(indices=X[0].indices, values=vals, dim=dim)
    return X, y


def objective_histories(X, y, C: float, seed: int):
    """(primal, dual, model): the documented objectives after each pass of
    ``train_linear_svm``'s fit, and its model.  A fit capped at e passes
    runs the first e passes of the uncapped one, so entry e - 1 is
    ``pure.objectives`` of the fit capped at e passes, scaled by
    BIAS_SCALE**2 from the kernel's units to the documented ones."""
    kernel, calls = _kernels.svm_fit, []

    def recording_fit(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    primal, dual = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "svm_fit", recording_fit)
        model = train_linear_svm(X, y, C=C, seed=seed)
        for cap in range(1, model.epochs_run + 1):
            mp.setattr(webcred.svm, "MAX_EPOCHS", cap)
            capped = train_linear_svm(X, y, C=C, seed=seed)
            (indptr, indices, data, signs, _dim, kernel_c, *_), fit = calls[-1]
            w, wb, alpha = fit[:3]
            p, d = _kernels.pure.objectives(
                indptr, indices, data, signs, w, wb, kernel_c, alpha
            )
            primal.append(BIAS_SCALE**2 * p)
            dual.append(BIAS_SCALE**2 * d)
    # The fit capped at its own pass count is the fit.
    assert np.array_equal(capped.weights, model.weights)
    assert capped.bias == model.bias
    return primal, dual, model


class TestTwoPointProblem:
    def test_recovers_the_analytic_solution(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        y = [1, 0]
        model = train_linear_svm(X, y, C=100.0, seed=0)
        # Minimizing w1^2 + w2^2 subject to w1 + b >= 1 and w2 + b <= -1
        # gives w = (1, -1), b = 0.
        assert model.weights[0] == pytest.approx(1.0, abs=1e-3)
        assert model.weights[1] == pytest.approx(-1.0, abs=1e-3)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        assert model.converged

    def test_two_point_predictions(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        model = train_linear_svm(X, [1, 0], C=100.0, seed=0)
        assert model.predict(X[0]) == 1
        assert model.predict(X[1]) == 0


class TestSeparableProblems:
    def test_full_training_accuracy_on_separable_data(self):
        for trial in range(10):
            rng = random.Random(200 + trial)
            X, y = random_separable_problem(rng, rng.randint(10, 40), 6)
            model = train_linear_svm(X, y, C=100.0, seed=trial)
            predictions = [model.predict(x) for x in X]
            assert predictions == y

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(77)
        X, y = random_separable_problem(rng, 30, 5)
        a = train_linear_svm(X, y, C=10.0, seed=9)
        b = train_linear_svm(X, y, C=10.0, seed=9)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.epochs_run == b.epochs_run


class TestValidation:
    def test_single_class_rejected(self):
        X = [sv({0: 1.0}, 2), sv({0: 2.0}, 2)]
        with pytest.raises(DataError):
            train_linear_svm(X, [1, 1], C=1.0, seed=0)

    def test_length_mismatch_rejected(self):
        X = [sv({0: 1.0}, 2)]
        with pytest.raises(DataError):
            train_linear_svm(X, [1, 0], C=1.0, seed=0)

    def test_non_binary_labels_rejected(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        with pytest.raises(DataError):
            train_linear_svm(X, [1, 2], C=1.0, seed=0)

    def test_nonpositive_c_rejected(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        for C in (0.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match="positive finite"):
                train_linear_svm(X, [1, 0], C=C, seed=0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError):
            train_linear_svm([sv({0: 1.0}, 2)], [1], C=1.0, seed=0)

    def test_decision_batch_checks_dimension(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        model = train_linear_svm(X, [1, 0], C=1.0, seed=0)
        with pytest.raises(DataError):
            model.decision_batch(to_csr([sv({0: 1.0}, 3)]))


class TestSolverProperties:
    def test_dual_variables_stay_in_the_box(self):
        for trial in range(10):
            rng = random.Random(300 + trial)
            X, y = random_separable_problem(rng, rng.randint(8, 25), 5)
            C = rng.choice([0.1, 1.0, 10.0])
            indptr, indices, data, dim = to_csr(X)
            signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
            out = _kernels.svm_fit(indptr, indices, data, signs, dim,
                                   C, 1e-4, 1000, trial)
            alpha = out[2]
            assert np.all(alpha >= 0.0)
            assert np.all(alpha <= C)

    def test_dual_objective_never_decreases(self):
        for trial in range(10):
            rng = random.Random(400 + trial)
            X, y = random_separable_problem(rng, rng.randint(8, 25), 5)
            _primal, history, _model = objective_histories(X, y, 1.0, trial)
            for earlier, later in zip(history, history[1:]):
                assert later >= earlier - 1e-9

    def test_duality_gap_small_at_convergence(self):
        for trial in range(10):
            rng = random.Random(500 + trial)
            X, y = random_separable_problem(rng, rng.randint(8, 25), 5)
            primals, duals, model = objective_histories(X, y, 1.0, trial)
            assert model.converged
            primal, dual = primals[-1], duals[-1]
            assert primal >= dual - 1e-9
            assert (primal - dual) / max(1.0, abs(primal)) < 1e-3

    def test_primal_objective_net_decrease(self):
        for trial in range(10):
            rng = random.Random(600 + trial)
            X, y = random_separable_problem(rng, rng.randint(8, 25), 5)
            primal, _dual, _model = objective_histories(X, y, 1.0, trial)
            assert primal[-1] <= primal[0] + 1e-9

    def test_histories_use_the_documented_objective(self):
        rng = random.Random(700)
        X, y = random_separable_problem(rng, 20, 5)
        C = 10.0
        primals, duals, model = objective_histories(X, y, C, 1)
        hinge = sum(
            max(0.0, 1.0 - (1.0 if label else -1.0) * decision)
            for decision, label in zip(model.decision_batch(to_csr(X)).tolist(), y)
        )
        primal = (
            0.5 * (model.weights @ model.weights + (BIAS_SCALE * model.bias) ** 2)
            + C * hinge
        )
        assert primals[-1] == pytest.approx(primal, rel=1e-12)
        gap = primals[-1] - duals[-1]
        assert model.relative_gap == pytest.approx(
            gap / max(1.0, primals[-1]), rel=1e-6, abs=1e-12
        )

    @pytest.mark.parametrize("impl", ["pure", "compiled"])
    def test_relative_gap_equals_the_documented_scale_formula(
        self, monkeypatch, request, impl
    ):
        if impl == "pure":
            kernel = _kernels.pure
        else:
            kernel = request.getfixturevalue("compiled_kernels")
        fits = []

        def recording_fit(*args):
            fits.append(kernel.svm_fit(*args))
            return fits[-1]

        monkeypatch.setattr(_kernels, "svm_fit", recording_fit)
        rng = random.Random(900)
        for trial in range(120):
            X, y = random_separable_problem(rng, rng.randint(2, 25), rng.randint(1, 6))
            # Flipped labels make some problems inseparable, so that the
            # hinge term is non-zero at the solution.
            y = [1 - v if rng.random() < 0.2 else v for v in y]
            if len(set(y)) < 2:
                continue
            C = 10.0 ** rng.uniform(-5, 5)
            cap = rng.choice([1, 2, 10, 100, webcred.svm.MAX_EPOCHS])
            monkeypatch.setattr(webcred.svm, "MAX_EPOCHS", cap)
            model = train_linear_svm(X, y, C=C, seed=trial)
            indptr, indices, data, _dim = to_csr(X)
            signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
            want = svm_relative_gap_oracle(
                indptr, indices, data, signs, model.weights, model.bias,
                C, BIAS_SCALE, fits[-1][2],
            )
            assert model.relative_gap.hex() == want.hex()

    def test_epoch_cap_is_reported_and_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(webcred.svm, "MAX_EPOCHS", 1)
        rng = random.Random(8)
        X, y = random_separable_problem(rng, 30, 5)
        with caplog.at_level(logging.WARNING, logger="webcred.svm"):
            model = train_linear_svm(X, y, C=100.0, seed=0)
        assert model.epochs_run == 1
        assert not model.converged
        assert model.relative_gap > 0.0
        [record] = caplog.records
        assert "C=100" in record.getMessage()
        assert "1 epochs" in record.getMessage()

    def test_every_fixture_fold_fit_converges(self, fixtures_dir, monkeypatch):
        fits = []

        def recording_fit(*args, **kwargs):
            fits.append(train_linear_svm(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(webcred.models, "train_linear_svm", recording_fit)
        labels = read_labels_csv(fixtures_dir / "labels.csv")
        with open(fixtures_dir / "webpages.jsonl") as fh:
            docs = {doc.url: doc for doc in load_webpages(fh)}
        urls = sorted(labels)
        token_docs = [tokenize(clean_text(docs[u].text)) for u in urls]
        by_criterion = {
            k: [labels[u][k - 1] for u in urls] for k in range(1, N_CRITERIA + 1)
        }
        cross_validate(token_docs, by_criterion, families=["svm"], k=10, seed=42)
        assert len(fits) == N_CRITERIA * 10
        assert all(fit.converged for fit in fits)
        assert max(fit.relative_gap for fit in fits) < 1e-3

    def test_epoch_cap_reported_as_not_converged(self):
        rng = random.Random(8)
        X, y = random_separable_problem(rng, 30, 5)
        indptr, indices, data, dim = to_csr(X)
        signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
        out = _kernels.svm_fit(indptr, indices, data, signs, dim,
                               100.0, 1e-12, 1, 0)
        assert out[3] == 1
        assert not out[4]


class TestSerialization:
    def test_round_trip_is_exact(self):
        rng = random.Random(12)
        X, y = random_separable_problem(rng, 20, 5)
        model = train_linear_svm(X, y, C=100.0, seed=3)
        payload = json.dumps(model.to_dict())
        restored = SvmModel.from_dict(json.loads(payload))
        assert np.array_equal(restored.weights, model.weights)
        assert restored.bias == model.bias
        assert restored.C == model.C
        for x in X:
            assert restored.predict(x) == model.predict(x)
        assert restored.to_dict() == model.to_dict()

    @pytest.mark.parametrize(
        "fit, params, message",
        [
            ({"converged": "false"}, {}, "converged must be true or false, got 'false'"),
            ({"converged": 1}, {}, "converged must be true or false, got 1"),
            ({"epochs_run": -3}, {}, "epochs_run must be at least 0, got -3"),
            ({}, {"C": -1.0}, "C must be a positive finite number, got -1.0"),
        ],
        ids=["converged-string", "converged-int", "epochs-run", "c"],
    )
    def test_from_dict_rejects_what_training_cannot_write(self, fit, params, message):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        data = train_linear_svm(X, [1, 0], C=100.0, seed=0).to_dict()
        data["fit"].update(fit)
        data["params"].update(params)
        with pytest.raises(DataError, match=re.escape(message)):
            SvmModel.from_dict(data)

    def test_dict_shape(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        model = train_linear_svm(X, [1, 0], C=100.0, seed=0)
        data = model.to_dict()
        assert data["family"] == "svm"
        assert data["params"] == {"C": 100.0}
        assert len(data["weights"]) == 2
        assert data["fit"] == {
            "epochs_run": model.epochs_run,
            "converged": True,
            "relative_gap": model.relative_gap,
        }

    def test_fit_report_round_trips_and_is_optional(self):
        X = [sv({0: 1.0}, 2), sv({1: 1.0}, 2)]
        data = json.loads(json.dumps(train_linear_svm(X, [1, 0], seed=0).to_dict()))
        assert SvmModel.from_dict(data).to_dict() == data
        del data["fit"]
        legacy = SvmModel.from_dict(data)
        assert legacy.relative_gap is None
        assert legacy.to_dict() == data
