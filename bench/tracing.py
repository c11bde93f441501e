"""Outside-in tracing of eegstrata's layers for the benchmark's traced run.

Each traced function is replaced where its caller looks it up, either a
module global (``pipeline.extract_vector``) or a class attribute
(``RandomForestClassifier.fit``), so the program runs unchanged apart from
the spans recorded around those calls. Spans nest: a span's parent is the
traced call that was open when it started, and its self time is its
duration minus the durations of its direct children. Counters are updated
after a span closes, from the call's arguments and result.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from eegstrata import classifiers, corpus, evaluation, features, pipeline, selection

STAGES = ("ingest", "sample", "extract", "select", "classify", "report")
LAYERS = ("pipeline", "corpus", "sampler", "features", "selection", "classifiers", "evaluation")

# (owner, attribute, span name): the owner is where the caller looks the name up
TARGETS = (
    (pipeline, "stage_ingest", "pipeline.ingest"),
    (pipeline, "stage_sample", "pipeline.sample"),
    (pipeline, "stage_extract", "pipeline.extract"),
    (pipeline, "stage_select", "pipeline.select"),
    (pipeline, "stage_classify", "pipeline.classify"),
    (pipeline, "assemble_report", "pipeline.report"),
    (corpus, "load_channel", "corpus.load_channel"),
    (pipeline, "save_channel", "corpus.save_channel"),
    (pipeline, "generate_synthetic_case", "corpus.generate_synthetic_case"),
    (pipeline, "allocate", "sampler.allocate"),
    (pipeline, "reduce_channel", "sampler.reduce_channel"),
    (pipeline, "extract_vector", "features.extract_vector"),
    (features, "sample_entropy", "features.sample_entropy"),
    (features, "hurst_exponent", "features.hurst_exponent"),
    (features.FeatureMatrix, "to_csv", "features.csv_write"),
    (features.FeatureMatrix, "from_csv", "features.csv_read"),
    (pipeline, "select_features", "selection.select_features"),
    (evaluation, "select_features", "selection.select_features"),
    (selection, "correlation_matrix", "selection.correlation_matrix"),
    (selection, "best_first_search", "selection.best_first_search"),
    (classifiers.RandomForestClassifier, "fit", "classifiers.fit"),
    (classifiers.NaiveBayesClassifier, "fit", "classifiers.fit"),
    (classifiers.KNNClassifier, "fit", "classifiers.fit"),
    (classifiers.RandomForestClassifier, "predict", "classifiers.predict"),
    (classifiers.NaiveBayesClassifier, "predict", "classifiers.predict"),
    (classifiers.KNNClassifier, "predict", "classifiers.predict"),
    (pipeline, "run_cv", "evaluation.run_cv"),
    (evaluation, "kfold_split", "evaluation.kfold_split"),
)


def _bytes_read(counts, args, kwargs, result):
    counts["bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, kwargs, result):
    counts["bytes_written"] += os.path.getsize(args[1])


def _sample_entropy_pairs(counts, args, kwargs, result):
    # template pairs (i < j) compared over [0, n - m), as in sample_entropy
    m = kwargs.get("m", args[1] if len(args) > 1 else 2)
    n_m = len(args[0]) - m
    counts["sample_entropy.pairs"] += n_m * (n_m - 1) // 2


def _kept(counts, args, kwargs, result):
    counts["reduce.kept"] += len(result)
    counts["reduce.seen"] += len(args[0])


def _subset(counts, args, kwargs, result):
    counts["selected"] += len(result.names)


def _trees(counts, args, kwargs, result):
    if isinstance(args[0], classifiers.RandomForestClassifier):
        counts["rf.trees"] += args[0].n_trees


def _folds(counts, args, kwargs, result):
    counts["folds"] += len(result)


# span name -> hook(counts, args, kwargs, result), run after the span closes
HOOKS = {
    "corpus.load_channel": _bytes_read,
    "corpus.save_channel": _bytes_written,
    "sampler.reduce_channel": _kept,
    "features.sample_entropy": _sample_entropy_pairs,
    "selection.select_features": _subset,
    "classifiers.fit": _trees,
    "evaluation.kfold_split": _folds,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.counts = defaultdict(int)
        self._open = []

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore
        the original objects, also when the block raises."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def _wrap(self, raw, name):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        hook = HOOKS.get(name)

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
            self.spans.append(span)
            self._open.append(index)
            start = perf_counter()
            try:
                result = raw(*args, **kwargs)
            finally:
                span[2:] = start, perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, _, start, end) in enumerate(self.spans)]

    def segments(self, start: float, end: float) -> tuple:
        """Cut [start, end] at the edges of the leaf spans, the spans with no
        traced call inside them. Returns the leaves' names in order and the
        durations gap, leaf, gap, ..., leaf, gap, which sum to end - start."""
        parents = {parent for _, parent, _, _ in self.spans}
        names, durations, edge = [], [], start
        for i, (name, _, s, e) in enumerate(self.spans):
            if i not in parents:
                names.append(name)
                durations += [s - edge, e - s]
                edge = e
        durations.append(end - edge)
        return names, durations

    def metrics(self, wall_s: float) -> dict:
        """Per-layer numbers of the traced run; ``wall_s`` is its timed body."""
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, _, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, _, _, _), own in zip(self.spans, self.self_times()):
            layer_self[name.split(".", 1)[0]] += own
        c = self.counts
        stage_s = {stage: total[f"pipeline.{stage}"] for stage in STAGES}
        out = {f"pipeline.{stage}_s": s for stage, s in stage_s.items()}
        out["pipeline.coverage_pct"] = 100.0 * sum(stage_s.values()) / wall_s
        for name in ("corpus.load_channel", "corpus.save_channel", "sampler.reduce_channel",
                     "features.extract_vector", "features.sample_entropy",
                     "selection.select_features", "classifiers.fit"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for name in ("corpus.generate_synthetic_case", "sampler.allocate",
                     "features.hurst_exponent", "selection.best_first_search",
                     "selection.correlation_matrix", "classifiers.predict", "evaluation.run_cv"):
            out[f"{name}.s"] = total[name]
        out["corpus.bytes_read"] = c["bytes_read"]
        out["corpus.bytes_written"] = c["bytes_written"]
        out["sampler.kept_fraction"] = c["reduce.kept"] / c["reduce.seen"] if c["reduce.seen"] else 0.0
        out["features.sample_entropy.pairs"] = c["sample_entropy.pairs"]
        out["features.csv_write_s"] = total["features.csv_write"]
        out["features.csv_read_s"] = total["features.csv_read"]
        n_select = calls["selection.select_features"]
        out["selection.subset_size"] = c["selected"] / n_select if n_select else 0.0
        out["classifiers.rf.trees"] = c["rf.trees"]
        out["evaluation.folds"] = c["folds"]
        for layer, own in layer_self.items():
            out[f"{layer}.self_s"] = own
        out["trace.spans"] = len(self.spans)
        return out
