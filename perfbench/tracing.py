"""Tracing of webcred's public functions, installed from outside the package.

The tracer wraps functions without editing the package: every module-level
binding of a target function (for example ``transform`` as bound in
``cli``, ``eval`` and ``credibility``) is replaced by one wrapper that
records a span (name, start, end, parent span) in flat in-memory arrays.
Self time is computed afterwards as each span's duration minus the part
covered by its child spans.  Hooks on a few functions read their
arguments or results to count work (SVM epochs, tree nodes, vocabulary
terms, graph size, bytes hashed).  A target that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _as_list(args, kwargs, position, keyword):
    """Make the iterable argument at ``position`` a list so a hook can
    count it without consuming a one-shot iterator the callee needs."""
    if len(args) > position:
        if not isinstance(args[position], list):
            args = args[:position] + (list(args[position]),) + args[position + 1:]
        return args, kwargs, args[position]
    if not isinstance(kwargs.get(keyword), list):
        kwargs = dict(kwargs, **{keyword: list(kwargs[keyword])})
    return args, kwargs, kwargs[keyword]


def _count_lang_checks(counters, args, kwargs):
    args, kwargs, docs = _as_list(args, kwargs, 0, "docs")
    counters["language.checks"] += sum(1 for d in docs if d.text.strip())
    return args, kwargs


def _count_dedupe_input(counters, args, kwargs):
    args, kwargs, docs = _as_list(args, kwargs, 0, "docs")
    counters["ingest.dedupe.input"] += len(docs)
    return args, kwargs


def _count_io_bytes(counters, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None:
        counters["cli.record_io.bytes"] += os.path.getsize(path)
    return args, kwargs


def _after_svm_fit(counters, result):
    counters["svm.fits"] += 1
    counters["svm.epochs"] += int(result[3])
    counters["svm.converged"] += int(bool(result[4]))


def _forest_nodes(forest) -> int:
    return sum(len(tree.feature) for tree in forest.trees)


def _after_forest(counters, result):
    counters["forest.tree_nodes"] += _forest_nodes(result)


def _after_model_load(counters, result):
    ensemble, _tfidf = result
    for entry in ensemble.entries.values():
        if hasattr(entry.model, "trees"):
            counters["forest.loaded_tree_nodes"] += _forest_nodes(entry.model)


def _after_vocabulary(counters, result):
    counters["textprep.vocab_terms"] += len(result)


def _after_dedupe(counters, result):
    counters["ingest.dedupe.output"] += len(result)


def _after_parse_tweets(counters, result):
    counters["ingest.parse_tweets.records"] += len(result[0])
    counters["ingest.parse_tweets.skipped"] += int(result[1])


def _after_terms(counters, result):
    counters["stats.term_significance.terms"] += len(result)


def _after_graph(counters, result):
    counters["graph.nodes"] += len(result.nodes)
    counters["graph.edges"] += len(result.edges)


# (metric name, module, attribute path, before hook, after hook).  Every
# target reports ``<name>.calls`` and ``<name>.busy_s`` (self time).
TARGETS = [
    ("_kernels.svm_fit", "webcred._kernels", "svm_fit", None, _after_svm_fit),
    ("_kernels.node_best_split", "webcred._kernels", "node_best_split", None, None),
    ("svm.train_linear_svm", "webcred.svm", "train_linear_svm", None, None),
    ("forest.train_random_forest", "webcred.forest", "train_random_forest", None, _after_forest),
    ("textprep.clean_text", "webcred.textprep", "clean_text", None, None),
    ("textprep.tokenize", "webcred.textprep", "tokenize", None, None),
    ("textprep.build_vocabulary", "webcred.textprep", "build_vocabulary", None, _after_vocabulary),
    ("textprep.fit_tfidf", "webcred.textprep", "fit_tfidf", None, None),
    ("textprep.transform", "webcred.textprep", "transform", None, None),
    ("textprep.to_csr", "webcred.textprep", "to_csr", None, None),
    ("textprep.to_dense", "webcred.textprep", "to_dense", None, None),
    ("language.detect_language", "webcred.language", "detect_language", None, None),
    ("ingest.filter_corpus", "webcred.ingest", "filter_corpus", _count_lang_checks, None),
    ("ingest.dedupe_near_duplicates", "webcred.ingest", "dedupe_near_duplicates",
     _count_dedupe_input, _after_dedupe),
    ("ingest.jaccard", "webcred.ingest", "jaccard", None, None),
    ("ingest.parse_tweets", "webcred.ingest", "parse_tweets", None, _after_parse_tweets),
    ("ingest.normalize_url", "webcred.ingest", "normalize_url", None, None),
    ("eval.crossvalidate_criterion", "webcred.eval", "crossvalidate_criterion", None, None),
    ("models.train_model", "webcred.models", "train_model", None, None),
    ("credibility.predict_credibility", "webcred.credibility", "predict_credibility",
     None, None),
    ("credibility.ensemble_from_dict", "webcred.credibility", "ensemble_from_dict",
     None, _after_model_load),
    ("credibility.ensemble_to_dict", "webcred.credibility", "ensemble_to_dict", None, None),
    ("credibility.evaluate_ensemble", "webcred.credibility", "evaluate_ensemble", None, None),
    ("stats.term_significance", "webcred.stats", "term_significance", None, _after_terms),
    ("stats.fisher_exact", "webcred.stats", "fisher_exact", None, None),
    ("exposure.aggregate_shares", "webcred.exposure", "aggregate_shares", None, None),
    ("exposure.build_user_profiles", "webcred.exposure", "build_user_profiles", None, None),
    ("exposure.bucket_share_report", "webcred.exposure", "bucket_share_report", None, None),
    ("graph.read_followers_csv", "webcred.graph", "read_followers_csv", None, None),
    ("graph.build_follower_graph", "webcred.graph", "build_follower_graph", None, _after_graph),
    ("graph.export_graph", "webcred.graph", "export_graph", None, None),
    # Input and output sha256 hashing for the run manifest.
    ("cli.record_io", "webcred.cli", "RunManifest.record_input", _count_io_bytes, None),
    ("cli.record_io", "webcred.cli", "RunManifest.record_output", _count_io_bytes, None),
]

# Counts derived from the hooks: (metric, unit, better).
COUNT_METRICS = [
    ("svm.epochs", "count", "lower"),
    ("svm.converged_ratio", "ratio", "higher"),
    ("forest.tree_nodes", "count", "lower"),
    ("forest.loaded_tree_nodes", "count", "lower"),
    ("textprep.vocab_terms", "count", "lower"),
    ("language.used_ratio", "ratio", "higher"),
    ("ingest.dedupe.useful_ratio", "ratio", "higher"),
    ("ingest.parse_tweets.records", "count", "higher"),
    ("ingest.parse_tweets.skipped", "count", "lower"),
    ("stats.term_significance.terms", "count", "lower"),
    ("graph.nodes", "count", "lower"),
    ("graph.edges", "count", "lower"),
    ("cli.record_io.bytes", "bytes", "lower"),
]


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, *_ in TARGETS))


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, function) or None when the target is gone."""
    owner = sys.modules.get(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, parts[-1], None) if owner is not None else None
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    """Spans and counters of one pass; ``reset`` starts the next pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self.counters, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(self.counters, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded webcred modules."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if (key == "webcred" or key.startswith("webcred.")) and m is not None
        ]
        for name, module_name, attr_path, before, after in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            owner, attr, fn = found
            traced = self.wrap(name, fn, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)

    def metrics(self) -> dict[str, float]:
        """Per-name calls and self time, plus the hook counts, of this pass."""
        n_names = len(self.names)
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(ids, minlength=n_names)
        busy = np.bincount(ids, weights=self_time, minlength=n_names)
        out: dict[str, float] = {"trace.spans": float(len(dur))}
        for i, name in enumerate(self.names):
            if name.startswith("stage."):
                continue
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.busy_s"] = float(busy[i])
        c = self.counters
        for name, _unit, _better in COUNT_METRICS:
            out[name] = float(c[name])
        out["svm.converged_ratio"] = _ratio(c["svm.converged"], c["svm.fits"])
        out["language.used_ratio"] = _ratio(
            c["language.checks"], out.get("language.detect_language.calls", 0.0)
        )
        out["ingest.dedupe.useful_ratio"] = _ratio(
            c["ingest.dedupe.input"] - c["ingest.dedupe.output"],
            out.get("ingest.jaccard.calls", 0.0),
        )
        return out


def _ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when the layer did no work this pass."""
    return part / whole if whole else 0.0
