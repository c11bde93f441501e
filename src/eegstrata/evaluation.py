"""Repeated stratified cross-validation and accuracy aggregation.

A repeat reshuffles the fold assignment with a seed derived from the base
seed and the repeat index, scores every fold, and pools correct
predictions over folds into one accuracy. Reported numbers are the mean
and population std over repeats, in percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import make_classifier
from .errors import ConfigError, DataError
from .features import FeatureMatrix
from .seeding import derive_seed
from .selection import RANGE_THRESHOLD, STALL_LIMIT, select_features

SELECTION_MODES = ("per-fold", "global", "off")


@dataclass(frozen=True)
class CVConfig:
    n_folds: int = 10
    n_repeats: int = 20
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be at least 2, got {self.n_folds}")
        if self.n_repeats < 1:
            raise ConfigError(f"n_repeats must be at least 1, got {self.n_repeats}")


def kfold_split(n: int, labels, cfg: CVConfig, repeat: int = 0) -> list:
    """Partition [0, n) into cfg.n_folds (train, test) index pairs.

    Stratified splitting shuffles each class separately and deals its
    indices round-robin across folds, so per-fold class counts are within
    one of proportional. Folds are deterministic in (seed, repeat).
    """
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DataError(f"expected {n} labels, got shape {labels.shape}")
    if cfg.n_folds > n:
        raise ConfigError(f"cannot split {n} rows into {cfg.n_folds} folds")
    rng = np.random.default_rng(derive_seed(cfg.seed, "cv-repeat", repeat))

    fold_of = np.empty(n, dtype=np.int64)
    if cfg.stratified:
        for c in np.unique(labels):
            idx = np.flatnonzero(labels == c)
            if idx.size < cfg.n_folds:
                raise ConfigError(
                    f"class {c} has {idx.size} rows, fewer than {cfg.n_folds} folds"
                )
            fold_of[rng.permutation(idx)] = np.arange(idx.size) % cfg.n_folds
    else:
        fold_of[rng.permutation(n)] = np.arange(n) % cfg.n_folds

    splits = []
    for f in range(cfg.n_folds):
        test = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        splits.append((train, test))
    return splits


@dataclass(frozen=True)
class CVResult:
    mean: float
    std: float
    per_repeat: tuple


def _resolve_classifier(classifier):
    if isinstance(classifier, str):
        return classifier, {}
    kind, params = classifier
    return kind, dict(params)


def run_cv(fm: FeatureMatrix, classifier, cfg: CVConfig, select: str = "per-fold",
           stall_limit: int | None = STALL_LIMIT,
           range_threshold: float = RANGE_THRESHOLD) -> CVResult:
    """Cross-validated accuracy of a classifier spec ("rf" or ("rf", params)).

    select="per-fold" reruns feature selection on each fold's training
    rows only, so the test fold never influences the chosen features;
    "global" selects once on the full matrix first; "off" keeps all
    features. Forest seeds are derived per (repeat, fold) from the
    configured base so folds decorrelate but stay reproducible.
    """
    if select not in SELECTION_MODES:
        raise ConfigError(f"unknown selection mode {select!r}; expected one of {SELECTION_MODES}")
    kind, params = _resolve_classifier(classifier)
    select_kwargs = {"stall_limit": stall_limit, "threshold": range_threshold}

    if select == "global":
        fm = fm.select(select_features(fm, **select_kwargs).names)

    rf_base = params.pop("seed", cfg.seed) if kind == "rf" else None
    accuracies = []
    for r in range(cfg.n_repeats):
        correct = 0
        for fold_i, (train_idx, test_idx) in enumerate(kfold_split(fm.n_rows, fm.labels, cfg, repeat=r)):
            train = FeatureMatrix(names=fm.names, values=fm.values[train_idx],
                                  labels=fm.labels[train_idx])
            test_values = fm.values[test_idx]
            if select == "per-fold":
                chosen = select_features(train, **select_kwargs).names
                cols = [fm.names.index(n) for n in chosen]
                train = train.select(chosen)
                test_values = test_values[:, cols]
            fold_params = dict(params)
            if kind == "rf":
                fold_params["seed"] = derive_seed(rf_base, "rf", r, fold_i)
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

