"""Binary classifiers behind a shared fit/predict interface.

All three are self-contained numpy implementations with pinned
tie-breaking so results are reproducible bit for bit: distance ties go to
the lower training-row index, vote and posterior ties to the smaller
class label. Labels are 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureMatrix

NB_VAR_FLOOR = 1e-9
KNN_K = 3
RF_TREES = 100


def _check_matrix(train: FeatureMatrix) -> None:
    if train.n_rows == 0:
        raise DataError("training set is empty")
    present = set(np.unique(train.labels).tolist())
    if not present <= {0, 1}:
        raise DataError(f"labels must be 0/1, got {sorted(present)}")
    if len(present) < 2:
        raise DataError("training data must contain both classes")


def _check_rows(rows, n_features: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_features:
        raise DataError(f"expected rows with {n_features} features, got shape {arr.shape}")
    return arr


class KNNClassifier:
    """k nearest neighbours by Euclidean distance on z-scored features.

    Standardization uses training mean and std (std 0 maps to 1 so constant
    features contribute nothing); it can be switched off to measure raw
    distances.
    """

    kind = "knn"

    def __init__(self, k: int = KNN_K, standardize: bool = True):
        if k < 1:
            raise ConfigError(f"k must be at least 1, got {k}")
        self.k = k
        self.standardize = standardize
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "KNNClassifier":
        _check_matrix(train)
        if self.k > train.n_rows:
            raise ConfigError(f"k={self.k} exceeds the {train.n_rows} training rows")
        self.feature_names = train.names
        self._mean = train.values.mean(axis=0)
        std = train.values.std(axis=0)
        self._std = np.where(std == 0.0, 1.0, std)
        self._train = self._transform(train.values)
        self._labels = train.labels.copy()
        return self

    def _transform(self, rows: np.ndarray) -> np.ndarray:
        if not self.standardize:
            return rows
        return (rows - self._mean) / self._std

    def predict(self, rows) -> np.ndarray:
        x = self._transform(_check_rows(rows, len(self.feature_names)))
        d2 = ((x[:, None, :] - self._train[None, :, :]) ** 2).sum(axis=2)
        # stable sort: equal distances resolve to the lower training index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes = self._labels[nearest]
        ones = votes.sum(axis=1)
        zeros = self.k - ones
        # strict majority for class 1, ties to the smaller label
        return (ones > zeros).astype(np.int64)


class NaiveBayesClassifier:
    """Gaussian naive Bayes with a variance floor against zero-variance
    features."""

    kind = "nb"

    def __init__(self, var_floor: float = NB_VAR_FLOOR):
        if var_floor <= 0.0:
            raise ConfigError(f"var_floor must be positive, got {var_floor}")
        self.var_floor = var_floor
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "NaiveBayesClassifier":
        _check_matrix(train)
        self.feature_names = train.names
        self._means = np.empty((2, train.n_features))
        self._vars = np.empty((2, train.n_features))
        self._log_priors = np.empty(2)
        for c in (0, 1):
            rows = train.values[train.labels == c]
            self._means[c] = rows.mean(axis=0)
            self._vars[c] = np.maximum(rows.var(axis=0), self.var_floor)
            self._log_priors[c] = math.log(rows.shape[0] / train.n_rows)
        return self

    def log_posterior(self, rows) -> np.ndarray:
        """Unnormalized log posterior per class, shape (n_rows, 2)."""
        x = _check_rows(rows, len(self.feature_names))
        out = np.empty((x.shape[0], 2))
        for c in (0, 1):
            ll = -0.5 * (np.log(2.0 * np.pi * self._vars[c])
                         + (x - self._means[c]) ** 2 / self._vars[c])
            out[:, c] = self._log_priors[c] + ll.sum(axis=1)
        return out

    def predict(self, rows) -> np.ndarray:
        scores = self.log_posterior(rows)
        # argmax ties resolve to the smaller label
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    counts: np.ndarray | None = None  # leaf class votes

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    return float(1.0 - (p ** 2).sum())


def _best_split(values: np.ndarray, labels: np.ndarray, feature_order) -> tuple | None:
    """Best (feature, threshold) by Gini decrease over the given features.

    Candidate thresholds are midpoints of consecutive distinct sorted
    values. Ties keep the first candidate in feature order, then in
    ascending threshold order. Returns None when no feature varies.
    """
    n = labels.size
    best = None
    best_gain = -1.0
    parent = _gini(np.bincount(labels, minlength=2))
    for f in feature_order:
        col = values[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_lab = labels[order]
        distinct = np.nonzero(np.diff(sorted_col))[0]
        if distinct.size == 0:
            continue
        ones = np.cumsum(sorted_lab == 1)
        left_n = distinct + 1
        left_ones = ones[distinct]
        left_zeros = left_n - left_ones
        right_n = n - left_n
        right_ones = ones[-1] - left_ones
        right_zeros = right_n - right_ones
        gini_l = 1.0 - ((left_zeros / left_n) ** 2 + (left_ones / left_n) ** 2)
        gini_r = 1.0 - ((right_zeros / right_n) ** 2 + (right_ones / right_n) ** 2)
        gain = parent - (left_n * gini_l + right_n * gini_r) / n
        pos = int(np.argmax(gain))
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            cut = distinct[pos]
            best = (int(f), float((sorted_col[cut] + sorted_col[cut + 1]) / 2.0))
    return best


def _grow(values: np.ndarray, labels: np.ndarray, rng, max_features: int | None) -> _Node:
    counts = np.bincount(labels, minlength=2)
    if labels.size < 2 or counts.min() == 0:
        return _Node(counts=counts)
    d = values.shape[1]
    if max_features is None:
        feature_order = np.arange(d)
    else:
        feature_order = rng.choice(d, size=min(max_features, d), replace=False)
    split = _best_split(values, labels, feature_order)
    if split is None:
        return _Node(counts=counts)
    f, t = split
    mask = values[:, f] <= t
    return _Node(feature=f, threshold=t,
                 left=_grow(values[mask], labels[mask], rng, max_features),
                 right=_grow(values[~mask], labels[~mask], rng, max_features))


def _tree_predict(node: _Node, rows: np.ndarray) -> np.ndarray:
    out = np.empty(rows.shape[0], dtype=np.int64)
    idx = np.arange(rows.shape[0])
    stack = [(node, idx)]
    while stack:
        nd, sel = stack.pop()
        if sel.size == 0:
            continue
        if nd.is_leaf:
            out[sel] = int(nd.counts[1] > nd.counts[0])
            continue
        mask = rows[sel, nd.feature] <= nd.threshold
        stack.append((nd.left, sel[mask]))
        stack.append((nd.right, sel[~mask]))
    return out


class RandomForestClassifier:
    """Bagged Gini decision trees with per-node feature subsampling.

    Defaults: 100 trees, ceil(sqrt(d)) candidate features per node,
    bootstrap resampling, unlimited depth. Turning bootstrap off and
    max_features to "all" reduces a 1-tree forest to a plain decision
    tree, which is how the implementation is cross-checked.
    """

    kind = "rf"

    def __init__(self, n_trees: int = RF_TREES, seed: int = 0,
                 max_features: str = "sqrt", bootstrap: bool = True):
        if n_trees < 1:
            raise ConfigError(f"n_trees must be at least 1, got {n_trees}")
        if max_features not in ("sqrt", "all"):
            raise ConfigError(f"max_features must be 'sqrt' or 'all', got {max_features!r}")
        self.n_trees = n_trees
        self.seed = seed
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "RandomForestClassifier":
        _check_matrix(train)
        self.feature_names = train.names
        d = train.n_features
        per_node = math.ceil(math.sqrt(d)) if self.max_features == "sqrt" else None
        n = train.n_rows
        self._trees = []
        for ss in np.random.SeedSequence(self.seed).spawn(self.n_trees):
            rng = np.random.default_rng(ss)
            if self.bootstrap:
                sample = rng.integers(0, n, size=n)
                values, labels = train.values[sample], train.labels[sample]
            else:
                values, labels = train.values, train.labels
            self._trees.append(_grow(values, labels, rng, per_node))
        return self

    def predict(self, rows) -> np.ndarray:
        x = _check_rows(rows, len(self.feature_names))
        votes = np.zeros(x.shape[0], dtype=np.int64)
        for tree in self._trees:
            votes += _tree_predict(tree, x)
        # majority over trees, ties to the smaller label
        return (2 * votes > self.n_trees).astype(np.int64)


CLASSIFIER_KINDS = ("rf", "nb", "knn")


def make_classifier(kind: str, **params):
    """Factory keyed by classifier name; unknown keys are rejected by the
    constructors so config typos surface early."""
    builders = {
        "knn": KNNClassifier,
        "nb": NaiveBayesClassifier,
        "rf": RandomForestClassifier,
    }
    if kind not in builders:
        raise ConfigError(f"unknown classifier {kind!r}; expected one of {CLASSIFIER_KINDS}")
    try:
        return builders[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind}: {exc}") from None
