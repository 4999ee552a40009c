"""Agreement and association statistics for the labelled corpus.

Fleiss' kappa (with the Fleiss-Nee-Landis large-sample variance) measures
rater agreement; Fisher's exact test plus Woolf-interval odds ratios rank
vocabulary terms by how strongly their presence separates low-credibility
documents from the rest.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from .errors import DataError, write_csv
from .textprep import document_frequency

logger = logging.getLogger(__name__)

Z_95 = 1.959964
# Tables whose point probability exceeds the observed one by less than this
# are still counted as "at least as extreme"; covers float rounding in the
# log-factorial evaluation without admitting genuinely larger tables.
POINT_PROB_SLACK = 1e-12


@dataclass
class KappaResult:
    kappa: float
    se: float
    ci_low: float
    ci_high: float
    p_value: float
    n_subjects: int
    n_raters: int
    n_categories: int

    def to_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "se": self.se,
            "ci95_low": self.ci_low,
            "ci95_high": self.ci_high,
            "p_value": self.p_value,
            "n_subjects": self.n_subjects,
            "n_raters": self.n_raters,
            "n_categories": self.n_categories,
        }


def fleiss_kappa(ratings: Sequence[Sequence[int]]) -> KappaResult:
    """Chance-corrected agreement over a subjects x categories count matrix.

    Every row must sum to the same rater count n >= 2.  The standard error
    uses the Fleiss-Nee-Landis large-sample variance; the CI is
    kappa +- 1.959964 se and the p-value is a two-sided z-test of kappa=0.
    """
    if len(ratings) < 2:
        raise DataError("fleiss kappa needs at least 2 subjects")
    n_categories = len(ratings[0])
    if n_categories < 2:
        raise DataError("fleiss kappa needs at least 2 categories")
    n = sum(ratings[0])
    if n < 2:
        raise DataError("fleiss kappa needs at least 2 raters per subject")
    col_sums = [0] * n_categories
    p_bar = 0.0
    for row in ratings:
        if len(row) != n_categories:
            raise DataError("ragged ratings matrix")
        if any(v < 0 for v in row):
            raise DataError("negative rating count")
        if sum(row) != n:
            raise DataError(
                f"row sums to {sum(row)}, expected {n} raters per subject"
            )
        p_bar += (sum(v * v for v in row) - n) / (n * (n - 1))
        for j, v in enumerate(row):
            col_sums[j] += v
    N = len(ratings)
    p_bar /= N
    p_j = [s / (N * n) for s in col_sums]
    p_e = sum(p * p for p in p_j)
    if p_e >= 1.0:
        raise DataError(
            "all ratings fall in a single category; kappa is undefined"
        )
    kappa = (p_bar - p_e) / (1.0 - p_e)
    spq = sum(p * (1.0 - p) for p in p_j)
    sp_qp = sum(p * (1.0 - p) * ((1.0 - p) - p) for p in p_j)
    var = (2.0 / (N * n * (n - 1))) * (spq * spq - sp_qp) / (spq * spq)
    se = math.sqrt(var)
    z = kappa / se
    p_value = math.erfc(abs(z) / math.sqrt(2.0))
    return KappaResult(
        kappa=kappa,
        se=se,
        ci_low=kappa - Z_95 * se,
        ci_high=kappa + Z_95 * se,
        p_value=p_value,
        n_subjects=N,
        n_raters=n,
        n_categories=n_categories,
    )


_LOG_FACT = [0.0]


def _log_factorial(n: int) -> float:
    while len(_LOG_FACT) <= n:
        _LOG_FACT.append(_LOG_FACT[-1] + math.log(len(_LOG_FACT)))
    return _LOG_FACT[n]


def _log_comb(n: int, k: int) -> float:
    return _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)


def _validate_table(a: int, b: int, c: int, d: int) -> None:
    for v in (a, b, c, d):
        if not isinstance(v, int) or v < 0:
            raise DataError(f"table cells must be non-negative integers, got {v!r}")


def fisher_exact(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher's exact p for the 2x2 table [[a, b], [c, d]].

    Sums hypergeometric point probabilities, over all tables with the
    observed margins, that do not exceed the observed table's probability.
    """
    _validate_table(a, b, c, d)
    r1, r2 = a + b, c + d
    if r1 == 0 or r2 == 0:
        logger.warning(
            "degenerate 2x2 table (%d, %d, %d, %d): empty row, p = 1", a, b, c, d
        )
        return 1.0
    n = r1 + r2
    cs = a + c
    log_denom = _log_comb(n, cs)
    lo = max(0, cs - r2)
    hi = min(r1, cs)
    p_obs = math.exp(_log_comb(r1, a) + _log_comb(r2, cs - a) - log_denom)
    total = 0.0
    excluded = False
    for x in range(lo, hi + 1):
        p_x = math.exp(_log_comb(r1, x) + _log_comb(r2, cs - x) - log_denom)
        if p_x <= p_obs + POINT_PROB_SLACK:
            total += p_x
        else:
            excluded = True
    if not excluded:
        # The whole support was summed, so the true value is exactly 1;
        # return it without the float summation error.
        return 1.0
    return min(total, 1.0)


def odds_ratio_ci(a: int, b: int, c: int, d: int) -> tuple[float, float, float]:
    """Odds ratio ad/bc with its 95% Woolf interval.

    Any zero cell triggers the Haldane-Anscombe correction (add 0.5 to all
    four cells); both the ratio and the interval use the corrected table.
    """
    _validate_table(a, b, c, d)
    if min(a, b, c, d) == 0:
        af, bf, cf, df = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    else:
        af, bf, cf, df = float(a), float(b), float(c), float(d)
    ratio = (af * df) / (bf * cf)
    half = Z_95 * math.sqrt(1.0 / af + 1.0 / bf + 1.0 / cf + 1.0 / df)
    log_or = math.log(ratio)
    return ratio, math.exp(log_or - half), math.exp(log_or + half)


@dataclass
class TermStat:
    """Association of one term with the low-credibility document set.

    a = low docs containing the term, b = low docs without it, c = other
    docs containing it, d = other docs without it.
    """

    term: str
    a: int
    b: int
    c: int
    d: int
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float


def term_significance(
    docs_low: Sequence[Sequence[str]],
    docs_other: Sequence[Sequence[str]],
    terms: Sequence[str],
) -> list[TermStat]:
    """2x2 association stats for each of ``terms`` (each given once), most
    significant first.

    Presence is counted once per document.  Rows are ranked by p ascending,
    then |ln OR| descending, then term, so the output order is total.
    """
    if not docs_low or not docs_other:
        raise DataError("both document sets must be non-empty")
    low_df, other_df = document_frequency(docs_low), document_frequency(docs_other)
    n_low, n_other = len(docs_low), len(docs_other)
    out: list[TermStat] = []
    for term in terms:
        a, c = low_df[term], other_df[term]
        b, d = n_low - a, n_other - c
        ratio, ci_low, ci_high = odds_ratio_ci(a, b, c, d)
        out.append(
            TermStat(
                term=term,
                a=a,
                b=b,
                c=c,
                d=d,
                odds_ratio=ratio,
                ci_low=ci_low,
                ci_high=ci_high,
                p_value=fisher_exact(a, b, c, d),
            )
        )
    out.sort(key=lambda t: (t.p_value, -abs(math.log(t.odds_ratio)), t.term))
    return out


def write_terms_csv(stats: Sequence[TermStat], path: str | Path) -> None:
    """terms.csv: one ranked row per term, with a comment line naming the
    statistical choices so downstream readers need not guess."""
    header = [f.name for f in fields(TermStat)]
    write_csv(
        path,
        header,
        map(attrgetter(*header), stats),
        preamble="# two-sided fisher exact (point-probability rule); "
        "haldane-anscombe zero-cell correction; woolf 95% ci\n",
    )


def ratings_matrix_from_rows(
    rows: Sequence[tuple[str, str, str]]
) -> tuple[list[list[int]], list[str], list[str]]:
    """Pivot (subject, rater, category) rows into a Fleiss count matrix.

    Returns (matrix, subjects, categories) with subjects and categories in
    sorted order.  Each (subject, rater) pair may appear once.
    """
    seen: set[tuple[str, str]] = set()
    by_subject: dict[str, dict[str, int]] = {}
    categories: set[str] = set()
    for subject, rater, category in rows:
        key = (subject, rater)
        if key in seen:
            raise DataError(f"rater {rater!r} rated subject {subject!r} twice")
        seen.add(key)
        categories.add(category)
        by_subject.setdefault(subject, {})
        by_subject[subject][category] = by_subject[subject].get(category, 0) + 1
    subjects = sorted(by_subject)
    cat_list = sorted(categories)
    matrix = [
        [by_subject[s].get(c, 0) for c in cat_list] for s in subjects
    ]
    return matrix, subjects, cat_list
