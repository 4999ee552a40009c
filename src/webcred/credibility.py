"""Checklist scores, buckets, the per-criterion ensemble, and its files.

A page's credibility score counts how many of the 7 checklist criteria its
text satisfies; scores bucket into low (0-2), medium (3-4), and high (5-7).
The ensemble keeps, for every criterion, whichever model family scored the
higher cross-validated F1, so different criteria may use different
families.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, json_number, read_csv, write_csv
from .eval import CvReport
from .forest import ForestModel
from .ingest import WebDocument, normalize_url
from .models import FAMILIES, model_from_dict, pick_best
from .svm import SvmModel
# transform is unused here but stays bound: perfbench's tracer self-test
# checks that tracing wraps credibility.transform.
from .textprep import TfIdfModel, clean_text, tokenize, transform, transform_docs

N_CRITERIA = 7

BUCKETS = ("low", "medium", "high")

LABELS_HEADER = ("url", *(f"c{k}" for k in range(1, N_CRITERIA + 1)))
SCORES_HEADER = (*LABELS_HEADER, "score", "bucket")


def validate_labels(labels: Sequence[int]) -> tuple[int, ...]:
    if len(labels) != N_CRITERIA:
        raise DataError(f"expected {N_CRITERIA} criterion labels, got {len(labels)}")
    values = tuple(int(v) for v in labels)
    if any(v not in (0, 1) for v in values):
        raise DataError(f"criterion labels must be 0 or 1, got {values}")
    return values


def bucket_for_score(score: int) -> str:
    if not 0 <= score <= N_CRITERIA:
        raise DataError(f"credibility score must be 0..{N_CRITERIA}, got {score}")
    if score <= 2:
        return "low"
    if score <= 4:
        return "medium"
    return "high"


@dataclass
class CredibilityResult:
    labels: tuple[int, ...]
    score: int
    bucket: str


def score_from_labels(labels: Sequence[int]) -> CredibilityResult:
    """Score = number of satisfied criteria; bucket per the cut points."""
    values = validate_labels(labels)
    score = sum(values)
    return CredibilityResult(labels=values, score=score, bucket=bucket_for_score(score))


@dataclass
class EnsembleEntry:
    """One criterion's chosen model plus the CV numbers that justified it;
    ``EnsembleModel.entries`` keys it by its criterion."""

    family: str
    model: SvmModel | ForestModel
    provenance: dict[str, dict[str, float]]


@dataclass
class EnsembleModel:
    entries: dict[int, EnsembleEntry]

    def __post_init__(self):
        missing = [k for k in range(1, N_CRITERIA + 1) if k not in self.entries]
        if missing:
            raise DataError(f"ensemble is missing criteria {missing}")


def select_families(cv_report: CvReport) -> dict[int, str]:
    """Per criterion, the family with the higher mean F1, then the higher
    mean accuracy, then the random forest: ``models.pick_best`` over the
    criterion's rows in reverse ``FAMILIES`` order, the forest's first."""
    rows = {(row.criterion, row.family): row for row in cv_report.rows}
    chosen: dict[int, str] = {}
    for criterion in range(1, N_CRITERIA + 1):
        candidates = [rows.get((criterion, family)) for family in reversed(FAMILIES)]
        if None in candidates:
            have = sorted(family for k, family in rows if k == criterion)
            raise DataError(
                f"criterion {criterion}: need CV rows for both families, have {have}"
            )
        chosen[criterion] = candidates[pick_best(candidates)].family
    return chosen


def build_ensemble(
    cv_report: CvReport,
    models: dict[tuple[int, str], SvmModel | ForestModel],
) -> EnsembleModel:
    """Assemble the 7-entry ensemble from CV results and trained models."""
    chosen = select_families(cv_report)
    stats = {}
    for row in cv_report.rows:
        summary = asdict(row)
        stats[summary.pop("criterion"), summary.pop("family")] = summary
    entries: dict[int, EnsembleEntry] = {}
    for criterion, family in chosen.items():
        model = models.get((criterion, family))
        if model is None:
            raise DataError(
                f"no trained {family} model supplied for criterion {criterion}"
            )
        entries[criterion] = EnsembleEntry(
            family=family,
            model=model,
            provenance={f: stats[(criterion, f)] for f in FAMILIES},
        )
    return EnsembleModel(entries=entries)


def page_tokens(doc: WebDocument) -> list[str]:
    """The tokens of ``doc``'s cleaned text, the one rule every stage that
    featurizes pages follows: a page with no text left after cleaning
    raises DataError naming its url."""
    cleaned = clean_text(doc.text)
    if not cleaned:
        raise DataError(f"document {doc.url}: no text left after cleaning")
    return tokenize(cleaned)


def predict_pages(
    docs: Iterable[WebDocument], ensemble: EnsembleModel, tfidf: TfIdfModel
) -> list[CredibilityResult]:
    """Featurize the pages (:func:`page_tokens`) into one CSR batch, one
    page at a time, then apply each of the 7 criterion models to all of its
    rows at once.  Raises DataError for the first page with no text left
    after cleaning."""
    X = transform_docs(map(page_tokens, docs), tfidf)
    labels = np.column_stack(
        [ensemble.entries[k].model.predict_batch(X) for k in range(1, N_CRITERIA + 1)]
    )
    return [score_from_labels(row) for row in labels.tolist()]


def predict_credibility(
    doc: WebDocument, ensemble: EnsembleModel, tfidf: TfIdfModel
) -> CredibilityResult:
    """``predict_pages`` of one page."""
    return predict_pages([doc], ensemble, tfidf)[0]


def evaluate_ensemble(
    docs: Sequence[WebDocument],
    gold_labels: Sequence[Sequence[int]],
    ensemble: EnsembleModel,
    tfidf: TfIdfModel,
) -> dict:
    """Three-class bucket evaluation against expert labels.

    Returns overall accuracy, precision of the predicted-low bucket (None
    when nothing was predicted low), and the 3x3 confusion matrix with
    rows = gold bucket, columns = predicted bucket, both in low, medium,
    high order.
    """
    if len(docs) != len(gold_labels):
        raise DataError(f"got {len(docs)} documents but {len(gold_labels)} labels")
    if not docs:
        raise DataError("cannot evaluate on an empty document set")
    index = {b: i for i, b in enumerate(BUCKETS)}
    confusion = [[0, 0, 0] for _ in BUCKETS]
    correct = 0
    gold_buckets = [score_from_labels(labels).bucket for labels in gold_labels]
    for gold, result in zip(gold_buckets, predict_pages(docs, ensemble, tfidf)):
        predicted = result.bucket
        confusion[index[gold]][index[predicted]] += 1
        if gold == predicted:
            correct += 1
    predicted_low = sum(confusion[i][0] for i in range(3))
    low_precision = confusion[0][0] / predicted_low if predicted_low else None
    return {
        "three_class_accuracy": correct / len(docs),
        "low_precision": low_precision,
        "confusion": confusion,
        "bucket_order": list(BUCKETS),
        "n_documents": len(docs),
    }


def ensemble_to_dict(ensemble: EnsembleModel, tfidf: TfIdfModel) -> dict:
    """Single-file model format bundling the TF-IDF stage and all 7 models."""
    criteria = []
    for k in range(1, N_CRITERIA + 1):
        entry = ensemble.entries[k]
        payload = entry.model.to_dict()
        family = payload.pop("family")
        params = payload.pop("params")
        criteria.append(
            {
                "criterion": k,
                "family": family,
                "params": params,
                "weights_or_trees": payload,
                "provenance": entry.provenance,
            }
        )
    return {"schema_version": 1, "tfidf": tfidf.to_dict(), "criteria": criteria}


def ensemble_from_dict(data: dict) -> tuple[EnsembleModel, TfIdfModel]:
    if data.get("schema_version") != 1:
        raise DataError(f"unsupported model schema_version {data.get('schema_version')!r}")
    if not isinstance(data.get("tfidf"), dict) or not isinstance(data.get("criteria"), list):
        raise DataError("not a model file: expected a 'tfidf' object and a 'criteria' list")
    tfidf = TfIdfModel.from_dict(data["tfidf"])
    entries: dict[int, EnsembleEntry] = {}
    for item in data["criteria"]:
        criterion = json_number(item["criterion"], "criterion", integer=True)
        if not 1 <= criterion <= N_CRITERIA or criterion in entries:
            raise DataError(f"criterion {criterion} repeated or not in 1..{N_CRITERIA}")
        try:
            model = model_from_dict(
                {"family": item["family"], "params": item["params"],
                 **item["weights_or_trees"]}
            )
            if model.dim != tfidf.dim:
                raise DataError(
                    f"model dimension {model.dim} is not the TF-IDF "
                    f"dimension {tfidf.dim}"
                )
        except DataError as exc:
            raise DataError(f"criterion {criterion}: {exc}") from None
        entries[criterion] = EnsembleEntry(
            family=item["family"],
            model=model,
            provenance=item.get("provenance", {}),
        )
    return EnsembleModel(entries=entries), tfidf


def read_labels_csv(path: str | Path) -> dict[str, tuple[int, ...]]:
    """labels.csv: url,c1,...,c7 with a header row; values 0/1.

    The labels are keyed by normalized URL, as the webpages are, so a file
    that spells a URL another way still joins; two rows whose URLs
    normalize alike are an error.
    """
    labels: dict[str, tuple[int, ...]] = {}

    def parse(row: list[str]) -> None:
        url = normalize_url(row[0])
        if url in labels:
            raise DataError(f"duplicate url {url}")
        labels[url] = validate_labels([int(v) for v in row[1:]])

    read_csv(path, LABELS_HEADER, parse)
    if not labels:
        raise DataError(f"{path}: no label rows")
    return labels


def write_scores_csv(
    results: Sequence[tuple[str, CredibilityResult]], path: str | Path
) -> None:
    write_csv(
        path,
        SCORES_HEADER,
        ((url, *r.labels, r.score, r.bucket) for url, r in results),
    )


def read_scores_csv(path: str | Path) -> dict[str, CredibilityResult]:
    """scores.csv as write_scores_csv writes it, each row self-consistent.

    The results are keyed by normalized URL, as the tweets' URLs and the
    webpages are, so a file that spells a URL another way still joins; two
    rows whose URLs normalize alike are an error.
    """
    results: dict[str, CredibilityResult] = {}

    def parse(row: list[str]) -> None:
        url = normalize_url(row[0])
        if url in results:
            raise DataError(f"duplicate url {url}")
        result = score_from_labels([int(v) for v in row[1:8]])
        if result.score != int(row[8]) or result.bucket != row[9]:
            raise DataError(f"inconsistent row for {row[0]}")
        results[url] = result

    read_csv(path, SCORES_HEADER, parse)
    return results


def write_label_distribution_csv(
    labels: Sequence[Sequence[int]], path: str | Path
) -> None:
    """Per-criterion proportion of documents satisfying it."""
    if not labels:
        raise DataError("no labels to summarize")
    rows = [validate_labels(v) for v in labels]
    write_csv(
        path,
        ("criterion", "proportion_satisfied"),
        ((k + 1, sum(r[k] for r in rows) / len(rows)) for k in range(N_CRITERIA)),
    )
