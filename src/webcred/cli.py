"""Command-line entry point wiring the pipeline stages into batch runs.

Every subcommand is deterministic for a fixed --seed and writes a run
manifest (effective config plus sha256 hashes of all inputs and outputs,
no timestamps), so repeat runs can be diffed byte for byte.  Exit codes:
0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, NamedTuple

from . import __version__, _kernels, credibility, eval as evalmod, exposure, graph
from . import ingest, models, stats, textprep
from .errors import (
    DataError, open_input, open_output, output_transaction, read_csv, write_csv
)
from .rng import stream_seed
# transform is unused here but stays bound: perfbench's tracer self-test
# checks that tracing wraps cli.transform.
from .textprep import transform

DEFAULT_SEED = 42


class RunManifest:
    """Provenance record for one CLI run."""

    def __init__(self, subcommand: str, config: dict):
        self.data = {
            "tool": "webcred",
            "version": __version__,
            "kernels": _kernels.ACTIVE_IMPL,
            "subcommand": subcommand,
            "config": config,
            "inputs": {},
            "outputs": {},
        }

    @staticmethod
    def _sha256(path: str | Path) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
        return digest.hexdigest()

    def record_input(self, path: str | Path | None) -> None:
        if path:
            self.data["inputs"][str(path)] = self._sha256(path)

    def record_output(self, path: str | Path | None) -> None:
        if path:
            self.data["outputs"][str(path)] = self._sha256(path)


@contextmanager
def _naming(path: str | Path):
    """Prefix ``path: `` to a DataError raised inside, which is about the
    whole input file at ``path`` and so names no line of it."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_json(payload: dict, path: str | Path) -> None:
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_docs(path: str | Path) -> dict[str, ingest.WebDocument]:
    with open_input(path) as fh:
        return {doc.url: doc for doc in ingest.load_webpages(fh)}


def _load_tweets(path: str | Path) -> tuple[ingest.TweetTable, int]:
    with open_input(path) as fh, _naming(path):
        return ingest.parse_tweets(fh)


def _docs_for_urls(
    docs_path: str | Path, urls_path: str | Path, urls: list[str]
) -> list[ingest.WebDocument]:
    """The documents of ``urls``, read from ``urls_path``, in url order;
    the error raised when some are missing names both files."""
    docs = _load_docs(docs_path)
    missing = [u for u in urls if u not in docs]
    if missing:
        raise DataError(
            f"{urls_path}: {len(missing)} urls not in {docs_path}, first: {missing[0]}"
        )
    return [docs[u] for u in urls]


def _labelled_corpus(
    docs_path: str | Path, labels_path: str | Path
) -> tuple[list[str], list[Counter], dict[int, list[int]]]:
    """Join labels.csv with documents; returns (urls, each document's term
    counts, labels per criterion) with urls in sorted order."""
    labels = credibility.read_labels_csv(labels_path)
    urls = sorted(labels)
    docs = _docs_for_urls(docs_path, labels_path, urls)
    with _naming(docs_path):
        term_counts = [Counter(credibility.page_tokens(doc)) for doc in docs]
    labels_by_criterion = {
        k: [labels[u][k - 1] for u in urls] for k in range(1, credibility.N_CRITERIA + 1)
    }
    return urls, term_counts, labels_by_criterion


def _filtered_docs(
    path: str | Path, min_words: int, jaccard: float
) -> tuple[list[ingest.WebDocument], ingest.FilterReport]:
    docs = list(_load_docs(path).values())
    retained, report = ingest.filter_corpus(docs, min_words=min_words)
    deduped = ingest.dedupe_near_duplicates(retained, jaccard_threshold=jaccard)
    report.duplicate = len(retained) - len(deduped)
    report.retained = len(deduped)
    return deduped, report


def _cmd_ingest(args) -> None:
    deduped, report = _filtered_docs(args.webpages, args.min_words, args.jaccard)
    payload = report.to_dict()
    if args.tweets:
        table, skipped = _load_tweets(args.tweets)
        payload["tweets_parsed"] = len(table)
        payload["tweets_skipped"] = skipped
    if args.reference_urls:
        path = args.reference_urls
        reference = set()
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    reference.add(ingest.normalize_url(line.strip()))
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
        corpus = {d.url for d in deduped}
        payload["reference_intersection"] = len(corpus & reference)
        payload["reference_corpus_only"] = len(corpus - reference)
    _write_json(payload, args.report)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _run_share(fn: Callable, items: list, share: range) -> list[tuple[bool, object]]:
    """``(True, fn(items[i]))`` for each index ``i`` of ``share`` in turn, up
    to the first call that raises, which ends the list as ``(False, exc)``:
    the later items cannot change which exception is raised."""
    outcomes = []
    for i in share:
        try:
            outcomes.append((True, fn(items[i])))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    return outcomes


def _fork_share(fn: Callable, items: list, share: range) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``_run_share`` and pickles its outcomes into a
    pipe; returns the child's pid and the read end of the pipe.  The child
    never returns into the caller: it leaves through ``os._exit``."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        payload = memoryview(pickle.dumps(_run_share(fn, items, share)))
        while payload:  # os._exit closes the pipe
            payload = payload[os.write(write_fd, payload):]
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started without it
            stream.flush()


def _fork_map(fn: Callable, items: Iterable, workers: int | None = None) -> list:
    """``[fn(item) for item in items]``, computed by ``workers`` processes
    (default: one per usable CPU, at most one per item).

    The items are dealt round-robin into one share per worker.  This
    process computes the first share while one forked child computes each
    other share; every child is a copy-on-write image of this process, so
    ``fn`` and the items need no pickling, only the results and
    exceptions do.  When calls raise, the exception of the lowest such
    item is re-raised, as the serial loop would.  A child that ends
    without sending its outcomes raises ChildProcessError.  The call runs
    serially in this process without ``os.fork``, with one worker or while
    another thread runs, since a fork copies only the calling thread.
    """
    items = list(items)
    workers = min(_usable_cpus() if workers is None else workers, len(items))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [fn(item) for item in items]
    shares = [range(w, len(items), workers) for w in range(workers)]
    _flush_std_streams()  # or each child would write the buffered text again
    children: dict[int, tuple[range, BinaryIO]] = {}
    outcomes: dict[int, tuple[bool, object]] = {}
    try:
        for share in shares[1:]:
            pid, reader = _fork_share(fn, items, share)
            children[pid] = share, reader
        outcomes.update(zip(shares[0], _run_share(fn, items, shares[0])))
        for pid, (share, reader) in list(children.items()):
            with reader:
                payload = reader.read()
            _pid, status = os.waitpid(pid, 0)
            del children[pid]
            try:
                outcomes.update(zip(share, pickle.loads(payload)))
            except (EOFError, pickle.UnpicklingError):  # no or cut-off payload
                code = os.waitstatus_to_exitcode(status)
                outcomes[share[0]] = False, ChildProcessError(
                    f"worker process {pid} ended with exit code {code} "
                    f"before sending its results"
                )
    finally:
        if children:  # this process raised or was interrupted
            from signal import SIGKILL  # here: the CLI imports no module more

            for pid, (_share, reader) in children.items():
                reader.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    results = []
    # Each share's outcomes stop at its first failure, so an index with no
    # outcome comes after a failure in its own share and is never reached.
    for i in range(len(items)):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _cmd_cv(args) -> None:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    if not families:
        raise DataError(
            f"--families must name one or more of {', '.join(models.FAMILIES)}"
        )
    for i, family in enumerate(families):
        if family not in models.FAMILIES:
            raise DataError(f"unknown family {family!r}")
        if family in families[:i]:
            raise DataError(f"--families names {family!r} twice")
    params = _model_params(args)
    _urls, term_counts, labels_by_criterion = _labelled_corpus(args.docs, args.labels)
    pages = textprep.intern_pages(term_counts)

    def criterion_rows(criterion: int) -> list[evalmod.CvRow]:
        return evalmod.cross_validate(
            pages,
            {criterion: labels_by_criterion[criterion]},
            families=families,
            params_by_family=params,
            k=args.folds,
            seed=args.seed,
        ).rows

    # The criteria share no state and each fold's seed is fixed, so each
    # CPU cross-validates its share of them and the report is the same.
    per_criterion = _fork_map(criterion_rows, sorted(labels_by_criterion))
    rows = [row for criterion in per_criterion for row in criterion]
    evalmod.CvReport(rows, folds=args.folds).write_csv(args.out)


def _cmd_train(args) -> None:
    params = _model_params(args)
    _urls, token_docs, labels_by_criterion = _labelled_corpus(args.docs, args.labels)
    cv_report = evalmod.read_cv_report_csv(args.cv_report)
    with _naming(args.cv_report):
        chosen = credibility.select_families(cv_report)
    tfidf, X = evalmod.fit_features(token_docs)
    trained = {}
    for criterion, family in chosen.items():
        trained[(criterion, family)] = models.train_model(
            family,
            X,
            labels_by_criterion[criterion],
            params[family],
            seed=stream_seed(args.seed, criterion),
        )
    ensemble = credibility.build_ensemble(cv_report, trained)
    _write_json(credibility.ensemble_to_dict(ensemble, tfidf), args.out)


def _cmd_grid(args) -> None:
    _urls, token_docs, labels_by_criterion = _labelled_corpus(args.docs, args.labels)
    if args.criterion not in labels_by_criterion:
        raise DataError(f"criterion must be 1..7, got {args.criterion}")
    try:
        grid = json.loads(args.grid) if args.grid else None
    except (ValueError, RecursionError) as exc:
        raise DataError(f"--grid is not JSON: {exc}") from None
    result = models.grid_search(
        token_docs,
        labels_by_criterion[args.criterion],
        args.family,
        grid=grid,
        k=args.folds,
        seed=args.seed,
    )
    params, *summary = (f.name for f in fields(models.GridPoint))
    summary_values = attrgetter(*summary)
    write_csv(
        args.out,
        ("criterion", "family", params, *summary, "selected"),
        (
            (args.criterion, args.family, json.dumps(p.params, sort_keys=True),
             *summary_values(p), int(i == result.best_index))
            for i, p in enumerate(result.table)
        ),
    )


def _load_model(path: str | Path):
    with open_input(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:{exc.lineno}: not a model file: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not a model file: {exc}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: not a model file: expected a JSON object")
    try:
        return credibility.ensemble_from_dict(data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a model file: {exc!r}") from None


def _cmd_score(args) -> None:
    ensemble, tfidf = _load_model(args.model)
    deduped, _report = _filtered_docs(args.docs, args.min_words, args.jaccard)
    with _naming(args.docs):
        results = credibility.predict_pages(deduped, ensemble, tfidf)
    credibility.write_scores_csv(
        [(doc.url, result) for doc, result in zip(deduped, results)], args.out
    )


def _cmd_evaluate(args) -> None:
    ensemble, tfidf = _load_model(args.model)
    labels = credibility.read_labels_csv(args.labels)
    urls = sorted(labels)
    docs = _docs_for_urls(args.docs, args.labels, urls)
    gold = [labels[u] for u in urls]
    with _naming(args.docs):
        report = credibility.evaluate_ensemble(docs, gold, ensemble, tfidf)
    _write_json(report, args.out)
    credibility.write_label_distribution_csv(gold, args.distribution)


def _cmd_kappa(args) -> None:
    seen: set[tuple[str, str]] = set()

    def parse(row: list[str]) -> tuple[str, str, str]:
        subject, rater, category = row
        stats.check_first_rating(seen, subject, rater)
        return subject, rater, category

    rows = read_csv(args.ratings, ("subject", "rater", "category"), parse)
    with _naming(args.ratings):
        matrix, _subjects, categories = stats.ratings_matrix_from_rows(rows)
        result = stats.fleiss_kappa(matrix)
    payload = result.to_dict()
    payload["categories"] = categories
    _write_json(payload, args.out)


def _cmd_terms(args) -> None:
    scored = credibility.read_scores_csv(args.scores)
    urls = sorted(scored)
    docs = _docs_for_urls(args.docs, args.scores, urls)
    # Each side's document frequencies, from one pass over the pages.
    low_df, other_df = Counter(), Counter()
    n_low = 0
    with _naming(args.docs):
        for url, doc in zip(urls, docs):
            low = scored[url].bucket == "low"
            n_low += low
            (low_df if low else other_df).update(set(credibility.page_tokens(doc)))
    with _naming(args.scores):
        vocab = textprep.vocabulary_from_df(low_df + other_df, len(urls), args.min_df)
        ranked = stats.term_significance_from_df(
            low_df, n_low, other_df, len(urls) - n_low, vocab.terms
        )
    stats.write_terms_csv(ranked, args.out)


def _cmd_exposure(args) -> None:
    tweets, _skipped = _load_tweets(args.tweets)
    scored = credibility.read_scores_csv(args.scores)
    shares = exposure.aggregate_shares(tweets, scored)
    exposure.write_exposure_csv(shares, scored, args.out)
    # One share record per scored url: none means an empty scores file.
    with _naming(args.scores):
        report = exposure.bucket_share_report(shares, scored)
    report["top_exposures"] = [
        asdict(s) for s in exposure.top_exposures(shares, args.top)
    ]
    _write_json(report, args.report)


def _cmd_graph(args) -> None:
    if not args.graphml and not args.dot:
        raise DataError("graph: need --graphml and/or --dot output path")
    tweets, _skipped = _load_tweets(args.tweets)
    scored = credibility.read_scores_csv(args.scores)
    profiles = exposure.build_user_profiles(tweets, scored)
    edges = graph.read_followers_csv(args.followers)
    network = graph.build_follower_graph(edges, profiles, min_links=args.min_links)
    graph.classify_nodes(network)
    for path, fmt in ((args.graphml, "graphml"), (args.dot, "dot")):
        if path:
            with open_output(path) as fh:
                fh.write(graph.export_graph(network, fmt))


REQUIRED = object()  # the default of a file argument that must be given


class Stage(NamedTuple):
    """A subcommand: its handler and help line, then its input and output
    files, each as ``name: default``, in the order the run manifest records
    them.  File ``name`` is the option ``--name`` (with ``_`` as ``-``); one
    left unset (an optional input or output) is not recorded."""

    handler: Callable[[argparse.Namespace], None]
    help: str
    inputs: dict[str, object]
    outputs: dict[str, object]


STAGES = {
    "ingest": Stage(_cmd_ingest, "filter the webpage corpus",
                    {"webpages": REQUIRED, "tweets": None, "reference_urls": None},
                    {"report": "filter_report.json"}),
    "cv": Stage(_cmd_cv, "cross-validate both model families",
                {"docs": REQUIRED, "labels": REQUIRED}, {"out": "cv_report.csv"}),
    "train": Stage(_cmd_train, "train the per-criterion ensemble",
                   {"docs": REQUIRED, "labels": REQUIRED, "cv_report": REQUIRED},
                   {"out": "model.json"}),
    "grid": Stage(_cmd_grid, "hyperparameter grid search",
                  {"docs": REQUIRED, "labels": REQUIRED}, {"out": "grid_report.csv"}),
    "score": Stage(_cmd_score, "score filtered documents",
                   {"model": REQUIRED, "docs": REQUIRED}, {"out": "scores.csv"}),
    "evaluate": Stage(_cmd_evaluate, "3-class evaluation on labels",
                      {"model": REQUIRED, "docs": REQUIRED, "labels": REQUIRED},
                      {"out": "evaluation.json",
                       "distribution": "label_distribution.csv"}),
    "kappa": Stage(_cmd_kappa, "rater agreement from a ratings file",
                   {"ratings": REQUIRED}, {"out": "kappa.json"}),
    "terms": Stage(_cmd_terms, "term significance for low bucket",
                   {"docs": REQUIRED, "scores": REQUIRED}, {"out": "terms.csv"}),
    "exposure": Stage(_cmd_exposure, "share counts and exposure sums",
                      {"tweets": REQUIRED, "scores": REQUIRED},
                      {"out": "exposure.csv", "report": "bucket_report.json"}),
    "graph": Stage(_cmd_graph, "follower network construction",
                   {"tweets": REQUIRED, "scores": REQUIRED, "followers": REQUIRED},
                   {"graphml": None, "dot": None}),
}


def _add_filter_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--min-words", type=int, default=ingest.DEFAULT_MIN_WORDS)
    sub.add_argument(
        "--jaccard", type=float, default=ingest.DEFAULT_JACCARD,
        help="near-duplicate similarity threshold",
    )


def _add_model_params(sub: argparse.ArgumentParser) -> None:
    svm, rf = models.DEFAULT_PARAMS["svm"], models.DEFAULT_PARAMS["rf"]
    sub.add_argument("--svm-c", type=float, default=svm["C"])
    sub.add_argument("--rf-estimators", type=int, default=rf["n_estimators"])


def _model_params(args: argparse.Namespace) -> dict[str, dict]:
    """The --svm-c and --rf-estimators values by family, each checked as its
    trainer checks it, whichever families the run fits."""
    params = {"svm": {"C": args.svm_c}, "rf": {"n_estimators": args.rf_estimators}}
    models.check_params(params)
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webcred",
        description="Credibility appraisal pipeline for shared webpages",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, stage in STAGES.items():
        p = sub[name] = commands.add_parser(name, help=stage.help)
        for dest, default in (*stage.inputs.items(), *stage.outputs.items()):
            flag = "--" + dest.replace("_", "-")
            if default is REQUIRED:
                p.add_argument(flag, required=True)
            else:
                p.add_argument(flag, default=default)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="PRNG seed")
        p.add_argument(
            "--manifest",
            default=None,
            help="run-manifest path (default: <subcommand>_manifest.json)",
        )

    for name in ("ingest", "score"):
        _add_filter_flags(sub[name])
    for name in ("cv", "train"):
        _add_model_params(sub[name])
    for name in ("cv", "grid"):
        sub[name].add_argument("--folds", type=int, default=evalmod.DEFAULT_FOLDS)
    sub["cv"].add_argument("--families", default=",".join(models.FAMILIES))
    sub["grid"].add_argument("--criterion", type=int, required=True)
    sub["grid"].add_argument("--family", required=True, choices=models.FAMILIES)
    sub["grid"].add_argument(
        "--grid", default=None, help="JSON grid, e.g. '{\"C\": [1, 10]}'"
    )
    sub["terms"].add_argument("--min-df", type=int, default=textprep.DEFAULT_MIN_DF)
    sub["exposure"].add_argument("--top", type=int, default=100)
    sub["graph"].add_argument("--min-links", type=int, default=graph.DEFAULT_MIN_LINKS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "manifest")
    }
    manifest = RunManifest(args.command, config)
    stage = STAGES[args.command]
    try:
        for name in stage.inputs:
            manifest.record_input(getattr(args, name))
        with output_transaction():
            stage.handler(args)
        for name in stage.outputs:
            manifest.record_output(getattr(args, name))
        _write_json(manifest.data, args.manifest or f"{args.command}_manifest.json")
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
