"""Repeated stratified cross-validation and accuracy aggregation.

A repeat reshuffles the fold assignment with a seed derived from the base
seed and the repeat index, scores every fold, and pools correct
predictions over folds into one accuracy. Reported numbers are the mean
and population std over repeats, in percent. The settings are a
PipelineConfig's, which checks them when it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .classifiers import make_classifier
from .errors import ConfigError
from .features import FeatureMatrix
from .seeding import derive_seed
from .selection import select_features

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

SELECTION_MODES = ("per-fold", "global", "off")


def kfold_split(labels, cfg: PipelineConfig, repeat: int = 0) -> list:
    """Partition the rows of labels into cfg.cv_folds (train, test) index pairs.

    Stratified splitting (cfg.cv_stratified) shuffles each class separately
    and deals its indices round-robin across folds, so per-fold class counts
    are within one of proportional. Folds are deterministic in (cfg.seed,
    repeat).
    """
    labels = np.asarray(labels)
    n, n_folds = len(labels), cfg.cv_folds
    if n_folds > n:
        raise ConfigError(f"cannot split {n} rows into {n_folds} folds")
    rng = np.random.default_rng(derive_seed(cfg.seed, "cv-repeat", repeat))

    fold_of = np.empty(n, dtype=np.int64)
    if cfg.cv_stratified:
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            if idx.size < n_folds:
                raise ConfigError(f"class {c} has {idx.size} rows, fewer than {n_folds} folds")
            fold_of[rng.permutation(idx)] = np.arange(idx.size) % n_folds
    else:
        fold_of[rng.permutation(n)] = np.arange(n) % n_folds

    splits = []
    for f in range(n_folds):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class CVResult:
    mean: float
    std: float
    per_repeat: tuple


def run_cv(fm: FeatureMatrix, cfg: PipelineConfig) -> CVResult:
    """Cross-validated accuracy of cfg's classifier on fm, over cfg.cv_repeats
    repeats of cfg.cv_folds folds.

    selection_mode "per-fold" reruns feature selection on each fold's
    training rows only, so the test fold never influences the chosen
    features; "global" selects once on the full matrix first; "off" keeps
    all features. A seed parameter is derived per (repeat, fold) from the
    configured one, so folds decorrelate but stay reproducible.
    """
    kind, params = cfg.classifier_spec()
    select_kwargs = {"stall_limit": cfg.stall_limit, "threshold": cfg.range_threshold}
    if cfg.selection_mode == "global":
        fm = fm.select(select_features(fm, **select_kwargs).names)

    accuracies = []
    for r in range(cfg.cv_repeats):
        correct = 0
        for fold_i, (train_idx, test_idx) in enumerate(kfold_split(fm.labels, cfg, repeat=r)):
            train = FeatureMatrix(names=fm.names, values=fm.values[train_idx],
                                  labels=fm.labels[train_idx])
            test_values = fm.values[test_idx]
            if cfg.selection_mode == "per-fold":
                chosen = select_features(train, **select_kwargs).names
                cols = [fm.names.index(n) for n in chosen]
                train = train.select(chosen)
                test_values = test_values[:, cols]
            fold_params = dict(params)
            if "seed" in params:
                fold_params["seed"] = derive_seed(params["seed"], "rf", r, fold_i)
            model = make_classifier(kind, **fold_params).fit(train)
            predicted = model.predict(test_values)
            correct += int((predicted == fm.labels[test_idx]).sum())
        accuracies.append(100.0 * correct / fm.n_rows)

    arr = np.array(accuracies)
    return CVResult(mean=float(arr.mean()), std=float(arr.std()),
                    per_repeat=tuple(float(a) for a in arr))


def weighted_accuracy(values, weights) -> float:
    """Weight-proportional average: sum(w*x) / sum(w)."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape or values.ndim != 1:
        raise ConfigError(
            f"values and weights must be equal-length 1-d, got {values.shape} and {weights.shape}"
        )
    if values.size == 0 or np.any(weights <= 0):
        raise ConfigError("weights must be positive and non-empty")
    return float((values * weights).sum() / weights.sum())

