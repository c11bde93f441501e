"""
Three classifiers under one cross-validation harness
====================================================

Random forest, Gaussian naive Bayes, and k-nearest-neighbours share a
fit/predict interface, so the repeated stratified k-fold harness treats
them uniformly: it reads the classifier, cross-validation and selection
settings from one PipelineConfig. Per-case accuracies combine into one
channel-count weighted average.
"""

import dataclasses

import numpy as np

from eegstrata import FeatureMatrix, PipelineConfig, run_cv, weighted_accuracy

# two overlapping classes in five dimensions
rng = np.random.default_rng(5)
n_per_class = 40
values = np.vstack([
    rng.normal(0.0, 1.0, size=(n_per_class, 5)),
    rng.normal(1.6, 1.0, size=(n_per_class, 5)),
])
labels = np.array([0] * n_per_class + [1] * n_per_class)
fm = FeatureMatrix(names=tuple(f"f{i}" for i in range(5)), values=values, labels=labels)

# 5 folds, 5 reshuffled repeats; accuracy is pooled over folds per repeat.
# Only the classifier, cv_*, selection and seed fields matter here.
cfg = PipelineConfig(cv_folds=5, cv_repeats=5, seed=1, rf_trees=50, knn_k=3,
                     selection_mode="off")

for kind in ("rf", "nb", "knn"):
    result = run_cv(fm, dataclasses.replace(cfg, classifier=kind))
    print(f"{kind:4s} accuracy: {result.mean:5.2f} +/- {result.std:.2f} %")

# per-fold selection re-picks features inside each training split, so the
# held-out fold never leaks into the choice
result = run_cv(fm, dataclasses.replace(cfg, selection_mode="per-fold"))
print(f"rf + per-fold selection: {result.mean:5.2f} +/- {result.std:.2f} %")

# combining several cases: each case's accuracy is weighted by how many
# channels it contains
cases = {"small": (98.5, 300), "medium": (96.0, 300), "large": (97.1, 500)}
means = [m for m, _ in cases.values()]
weights = [w for _, w in cases.values()]
print("weighted average accuracy:", round(weighted_accuracy(means, weights), 2))
