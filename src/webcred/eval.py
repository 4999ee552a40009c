"""Cross-validation harness and classification metrics.

The harness refits the vocabulary and TF-IDF weights inside every fold so
no document frequency from a held-out fold leaks into training, and
stratifies folds because several criteria are heavily imbalanced.
``fit_features`` is that fit, shared by every fold and by ``train``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, StratificationError, read_csv, write_csv
from .models import FAMILIES, train_model
from .rng import SplitMix64, stream_seed
from .textprep import SparseVector, TfIdfModel, build_vocabulary, fit_tfidf, transform

DEFAULT_FOLDS = 10


def f1_and_accuracy(
    y_true: Sequence[int], y_pred: Sequence[int]
) -> tuple[float, float]:
    """Positive-class F1 and accuracy; F1 is 0 when precision+recall is 0."""
    if len(y_true) != len(y_pred):
        raise DataError(
            f"length mismatch: {len(y_true)} true vs {len(y_pred)} predicted"
        )
    if not y_true:
        raise DataError("cannot score an empty label sequence")
    tp = fp = fn = correct = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            correct += 1
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
    accuracy = correct / len(y_true)
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return f1, accuracy


def stratified_kfold(
    labels: Sequence[int], k: int = DEFAULT_FOLDS, seed: int = 0
) -> list[list[int]]:
    """Split indices 0..n-1 into k folds with near-equal class balance.

    Each class is shuffled and dealt round-robin, the second class picking
    up where the first left off so fold sizes differ by at most 1.
    """
    n = len(labels)
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    if n < k:
        raise DataError(f"cannot make {k} folds from {n} samples")
    positives = [i for i, v in enumerate(labels) if v == 1]
    negatives = [i for i, v in enumerate(labels) if v != 1]
    for name, members in (("positive", positives), ("negative", negatives)):
        if len(members) < k:
            raise StratificationError(
                f"{name} class has {len(members)} members, fewer than {k} "
                f"folds; relabel more documents or lower the fold count"
            )
    rng = SplitMix64(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for members in (positives, negatives):
        for idx in members:
            folds[cursor % k].append(idx)
            cursor += 1
    return [sorted(fold) for fold in folds]


@dataclass
class CvRow:
    """Mean and spread of fold metrics for one (criterion, family) pair."""

    criterion: int
    family: str
    f1_mean: float
    f1_std: float
    acc_mean: float
    acc_std: float


CV_REPORT_HEADER = tuple(f.name for f in fields(CvRow))


@dataclass
class CvReport:
    rows: list[CvRow]
    folds: int

    def write_csv(self, path: str | Path) -> None:
        write_csv(path, CV_REPORT_HEADER, map(astuple, self.rows))


def read_cv_report_csv(path: str | Path, folds: int = DEFAULT_FOLDS) -> CvReport:
    """Load a cv_report.csv written by CvReport.write_csv.

    Each row is one (criterion, family) pair of a family in ``FAMILIES``,
    given once.  The fold count is not persisted in the file; callers that
    care can pass it, but family selection only needs the per-row means.
    """
    seen: set[tuple[int, str]] = set()

    def parse(r: list[str]) -> CvRow:
        row = CvRow(int(r[0]), r[1], *map(float, r[2:]))
        if row.family not in FAMILIES:
            raise DataError(f"unknown family {row.family!r}")
        if (row.criterion, row.family) in seen:
            raise DataError(
                f"duplicate row for criterion {row.criterion}, family {row.family}"
            )
        seen.add((row.criterion, row.family))
        return row

    rows = read_csv(path, CV_REPORT_HEADER, parse)
    if not rows:
        raise DataError(f"{path}: no report rows")
    return CvReport(rows=rows, folds=folds)


def fold_summary(
    f1s: Sequence[float], accs: Sequence[float]
) -> tuple[float, float, float, float]:
    """Mean and population (divide-by-N) standard deviation of the fold F1
    scores, then of the fold accuracies: the values of the summary fields
    that end ``CvRow`` and ``models.GridPoint``, in their order."""
    return (
        float(np.mean(f1s)), float(np.std(f1s)),
        float(np.mean(accs)), float(np.std(accs)),
    )


def fit_features(
    train_docs: Sequence[Sequence[str]],
) -> tuple[TfIdfModel, list[SparseVector]]:
    """The vocabulary and TF-IDF weights fitted on ``train_docs``, and the
    vectors of those documents.

    Raises DataError when no term survives pruning, since no model can
    learn from an empty feature space.
    """
    vocab = build_vocabulary(train_docs)
    if not len(vocab):
        raise DataError(
            "training documents yield an empty vocabulary: no term outside "
            f"the stop-words occurs in {vocab.min_df} or more of them"
        )
    tfidf = fit_tfidf(train_docs, vocab)
    return tfidf, [transform(tokens, tfidf) for tokens in train_docs]


def crossvalidate_candidates(
    token_docs: Sequence[Sequence[str]],
    labels: Sequence[int],
    candidates: Sequence[tuple[str, dict | None]],
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> list[tuple[list[float], list[float]]]:
    """Per-fold (F1, accuracy) lists for each (family, params) candidate.

    Every candidate is scored on the same folds, and each fold's
    vocabulary, TF-IDF weights and vectors are built once and shared by
    all candidates.  A document may be its tokens or their ``Counter``;
    callers that score many candidates or criteria pass the ``Counter``, so
    each document is counted once.  Fold f trains with substream seed
    stream_seed(seed, f), so folds can be evaluated in any order with
    identical results.
    """
    if len(token_docs) != len(labels):
        raise DataError(
            f"got {len(token_docs)} documents but {len(labels)} labels"
        )
    folds = stratified_kfold(labels, k=k, seed=seed)
    scores: list[tuple[list[float], list[float]]] = [([], []) for _ in candidates]
    for f, held_out in enumerate(folds):
        held = set(held_out)
        train_idx = [i for i in range(len(labels)) if i not in held]
        tfidf, X_train = fit_features([token_docs[i] for i in train_idx])
        y_train = [labels[i] for i in train_idx]
        X_test = [transform(token_docs[i], tfidf) for i in held_out]
        y_test = [labels[i] for i in held_out]
        for (family, params), (f1s, accs) in zip(candidates, scores):
            model = train_model(
                family, X_train, y_train, params, seed=stream_seed(seed, f)
            )
            f1, acc = f1_and_accuracy(y_test, [model.predict(x) for x in X_test])
            f1s.append(f1)
            accs.append(acc)
    return scores


def crossvalidate_criterion(
    token_docs: Sequence[Sequence[str]],
    labels: Sequence[int],
    family: str,
    params: dict | None = None,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> tuple[list[float], list[float]]:
    """Per-fold (F1, accuracy) lists for one criterion's labels and one
    model family."""
    return crossvalidate_candidates(
        token_docs, labels, [(family, params)], k=k, seed=seed
    )[0]


def cross_validate(
    token_docs: Sequence[Sequence[str]],
    labels_by_criterion: dict[int, Sequence[int]],
    families: Sequence[str] = FAMILIES,
    params_by_family: dict[str, dict] | None = None,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> CvReport:
    """Fold-averaged F1/accuracy for every criterion and model family.

    All families of a criterion share its folds and fold features.
    """
    candidates = [
        (family, (params_by_family or {}).get(family)) for family in families
    ]
    rows: list[CvRow] = []
    for criterion in sorted(labels_by_criterion):
        scores = crossvalidate_candidates(
            token_docs, labels_by_criterion[criterion], candidates, k=k, seed=seed
        )
        for (family, _params), (f1s, accs) in zip(candidates, scores):
            rows.append(CvRow(criterion, family, *fold_summary(f1s, accs)))
    return CvReport(rows=rows, folds=k)
