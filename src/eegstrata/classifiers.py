"""Binary classifiers behind a shared fit/predict interface.

All three are self-contained numpy implementations with pinned
tie-breaking so results are reproducible bit for bit: distance ties go to
the lower training-row index, vote and posterior ties to the smaller
class label. Labels are 0/1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError
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


def _moments(rows: np.ndarray, names: tuple, scale: float = 1.0) -> tuple:
    """Column means and variances of rows; a feature column whose spread, or
    its variance times scale, overflows float64 is refused rather than
    scored at chance."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = rows.mean(axis=0), rows.var(axis=0)
        bad = ~np.isfinite(scale * var)  # an overflowing mean makes the variance inf or NaN too
    if bad.any():
        raise DegenerateDataError(f"feature {names[int(np.argmax(bad))]}: its variance "
                                  "overflows float64; rescale the data")
    return mean, var


def _check_rows(rows, n_features: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_features:
        raise DataError(f"expected rows with {n_features} features, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(f"row {row}, column {col} is not finite: {arr[row, col]}")
    return arr


class KNNClassifier:
    """k nearest neighbours by Euclidean distance on z-scored features.

    Standardization uses training mean and std (std 0 maps to 1 so constant
    features contribute nothing); it can be switched off to measure raw
    distances, which standardizes by mean 0 and std 1.
    """

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
        mean, var = _moments(train.values, train.names)
        std = np.sqrt(var)
        self._mean, self._std = ((mean, np.where(std == 0.0, 1.0, std)) if self.standardize
                                 else (0.0, 1.0))
        self._train = self._transform(train.values)
        self._labels = train.labels.copy()
        return self

    def _transform(self, rows: np.ndarray, exponent=0) -> np.ndarray:
        """rows standardized and scaled by 2^-exponent."""
        return (np.ldexp(rows, -exponent) - np.ldexp(self._mean, -exponent)) / self._std

    def predict(self, rows) -> np.ndarray:
        q = _check_rows(rows, len(self.feature_names))
        with np.errstate(over="ignore"):
            x = self._transform(q)
            d2 = ((x[:, None, :] - self._train[None, :, :]) ** 2).sum(axis=2)
        far = np.flatnonzero(~np.isfinite(d2).all(axis=1))
        if far.size:
            # rank by |t|^2 - 2 x.t, the squared distance less |x|^2, on x and t scaled by one
            # power of two into (-1, 1): it keeps their order, and no t is lost in x - t. x is
            # standardized at that scale, as it may pass float64: for a, b and s of frexp
            # exponents e_a, e_b and e_s, |a - b| / s < 2^(max(e_a, e_b) - e_s + 2)
            _, e_far = np.frexp(np.maximum(np.abs(q[far]), np.abs(self._mean)))
            _, e_std = np.frexp(self._std)
            _, e_train = np.frexp(np.abs(self._train).max())
            k = np.maximum((e_far - e_std + 2).max(axis=1), e_train)
            t = np.ldexp(self._train, -k[:, None, None])
            d2[far] = (t * (t - 2.0 * self._transform(q[far], k[:, None])[:, None, :])).sum(axis=2)
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

    def __init__(self, var_floor: float = NB_VAR_FLOOR):
        # each class density takes log(2 pi var), so 2 pi var must stay finite
        if not (var_floor > 0.0 and math.isfinite(2.0 * math.pi * var_floor)):
            raise ConfigError("var_floor must be positive and finite, at most "
                              f"{np.finfo(np.float64).max / (2.0 * np.pi):g}, got {var_floor}")
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
            # 2 pi var_floor is finite, so 2 pi times the floored variance is when 2 pi var is
            self._means[c], var = _moments(rows, train.names, scale=2.0 * np.pi)
            self._vars[c] = np.maximum(var, self.var_floor)
            self._log_priors[c] = math.log(rows.shape[0] / train.n_rows)
        return self

    def log_posterior(self, rows) -> np.ndarray:
        """Unnormalized log posterior per class, shape (n_rows, 2)."""
        x = _check_rows(rows, len(self.feature_names))
        out = np.empty((x.shape[0], 2))
        for c in (0, 1):
            with np.errstate(over="ignore"):
                ll = -0.5 * (np.log(2.0 * np.pi * self._vars[c])
                             + (x - self._means[c]) ** 2 / self._vars[c])
            out[:, c] = self._log_priors[c] + ll.sum(axis=1)
        return out

    def predict(self, rows) -> np.ndarray:
        x = _check_rows(rows, len(self.feature_names))
        scores = self.log_posterior(x)
        # where a class's quadratic sum overflows, the classes are ranked by
        # those sums on x and the means scaled by one power of two into (-1, 1)
        far = np.flatnonzero(np.isinf(scores).any(axis=1))
        if far.size:
            _, k = np.frexp(np.maximum(np.abs(x[far]).max(axis=1), np.abs(self._means).max()))
            diff = np.ldexp(x[far][:, None], -k[:, None, None]) - np.ldexp(self._means, -k[:, None, None])
            scores[far] = -(diff ** 2 / self._vars).sum(axis=2)
        # argmax ties resolve to the smaller label
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)


# a step's (tree, candidate feature, row) arrays hold at most this many
# elements; the trees of a step are grown in chunks below it
_STEP_ELEMENTS = 1 << 15


def _best_splits(x, y, members, feats):
    """Best (feature, threshold) by Gini decrease for one node of each tree.

    members[i] holds node i's training rows (x and y end in a padding row
    of +inf and label 0) and feats[i] its candidate features in draw order.
    Candidate thresholds are midpoints of consecutive distinct sorted
    values. Ties keep the first candidate in feature order, then in
    ascending threshold order. Returns per node the feature (-1 where no
    split separates the rows), the threshold, the rows sorted by that
    feature, and how many of them, and of their ones, go left; all but the
    sorted rows as lists.
    """
    sizes = np.array([m.size for m in members])
    width = int(sizes.max())
    real = np.arange(width) < sizes[:, None]
    rows = np.full(real.shape, x.shape[0] - 1)
    rows[real] = np.concatenate(members)
    vals = x[rows[:, None, :], feats[:, :, None]]
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    rows = np.take_along_axis(rows[:, None, :], order, axis=-1)
    ones = np.cumsum(y[rows], axis=-1)
    total_ones = ones[:, 0, -1]
    p = np.stack([sizes - total_ones, total_ones], axis=1) / sizes[:, None]
    parent = 1.0 - (p ** 2).sum(axis=1)
    n = sizes[:, None, None]
    left_n = np.arange(1, width)
    left_ones = ones[..., :-1]
    left_zeros = left_n - left_ones
    right_n = n - left_n
    right_ones = total_ones[:, None, None] - left_ones
    right_zeros = right_n - right_ones
    # past a node's last row right_n is 0 or less; those cuts are masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - ((left_zeros / left_n) ** 2 + (left_ones / left_n) ** 2)
        gini_r = 1.0 - ((right_zeros / right_n) ** 2 + (right_ones / right_n) ** 2)
        gain = parent[:, None, None] - (left_n * gini_l + right_n * gini_r) / n
    cuts = (left_n < n) & (vals[..., 1:] != vals[..., :-1])
    gain = np.where(cuts, gain, -np.inf).reshape(len(members), -1)
    best = np.argmax(gain, axis=1)
    node = np.arange(len(members))
    slot, cut = np.divmod(best, width - 1)
    with np.errstate(over="ignore"):
        threshold = (vals[node, slot, cut] + vals[node, slot, cut + 1]) / 2.0
    go_left = np.minimum((vals[node, slot] <= threshold[:, None]).sum(axis=1), sizes)
    # a midpoint that rounds onto a value, or overflows, can leave one side empty
    found = (gain[node, best] > -1.0) & (go_left > 0) & (go_left < sizes)
    ones_left = ones[node, slot, np.maximum(go_left - 1, 0)]
    return (np.where(found, feats[node, slot], -1).tolist(), threshold.tolist(), rows[node, slot],
            go_left.tolist(), ones_left.tolist())


def _grow_forest(values, labels, samples, rngs, per_node):
    """Grow one tree per row of samples (its training rows) and rng, all
    side by side.

    Each tree keeps a stack of its nodes still to split, in preorder. A
    step pops the next one of every tree, draws its candidate features from
    that tree's rng and splits all of them with one batched search. Nodes
    that hold one class only are leaves when made and draw nothing; nodes
    where no candidate split separates the rows become leaves after their
    draw. Returns flat node arrays feature (-1 at leaves), threshold, left,
    right and vote; node t is the root of tree t.
    """
    d = values.shape[1]
    x = np.vstack([values, np.full(d, np.inf)])
    y = np.append(labels, 0)
    feature, threshold, left, right, vote = [], [], [], [], []
    stacks = [[] for _ in rngs]

    def make(t, rows, ones):
        """Add a leaf of tree t voting for the majority of these rows; push it
        onto the tree's stack to be split if both classes are there."""
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(int(2 * ones > rows.size))
        if 0 < ones < rows.size:
            stacks[t].append((len(vote) - 1, rows.copy(), ones))
        return len(vote) - 1

    for t, (rows, ones) in enumerate(zip(samples, labels[samples].sum(axis=1).tolist())):
        make(t, rows, ones)
    all_features = np.arange(d)
    while True:
        step = [(t, stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not step:
            break
        feats = np.array([all_features if per_node is None
                          else rngs[t].choice(d, size=min(per_node, d), replace=False)
                          for t, _ in step])
        width = max(rows.size for _, (_, rows, _) in step)
        chunk = max(1, _STEP_ELEMENTS // (feats.shape[1] * width))
        for lo in range(0, len(step), chunk):
            part = step[lo:lo + chunk]
            splits = _best_splits(x, y, [rows for _, (_, rows, _) in part], feats[lo:lo + chunk])
            for (t, (node, rows, ones)), f, thr, ordered, k, k_ones in zip(part, *splits):
                if f < 0:
                    continue
                feature[node], threshold[node] = f, thr
                # the right child is pushed first, so the left subtree is grown first
                right[node] = make(t, ordered[k:rows.size], ones - k_ones)
                left[node] = make(t, ordered[:k], k_ones)
    return (np.array(feature), np.array(threshold), np.array(left), np.array(right),
            np.array(vote))


class RandomForestClassifier:
    """Bagged Gini decision trees with per-node feature subsampling.

    Defaults: 100 trees, ceil(sqrt(d)) candidate features per node,
    bootstrap resampling, unlimited depth. Turning bootstrap off and
    max_features to "all" reduces a 1-tree forest to a plain decision
    tree, which is how the implementation is cross-checked.
    """

    def __init__(self, trees: int = RF_TREES, seed: int = 0,
                 max_features: str = "sqrt", bootstrap: bool = True):
        if trees < 1:
            raise ConfigError(f"trees must be at least 1, got {trees}")
        if max_features not in ("sqrt", "all"):
            raise ConfigError(f"max_features must be 'sqrt' or 'all', got {max_features!r}")
        self.n_trees = trees  # the name bench/tracing.py reads for classifiers.rf.trees
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
        rngs = [np.random.default_rng(ss)
                for ss in np.random.SeedSequence(self.seed).spawn(self.n_trees)]
        samples = np.array([rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
                            for rng in rngs])
        self._nodes = _grow_forest(train.values, train.labels, samples, rngs, per_node)
        return self

    def predict(self, rows) -> np.ndarray:
        x = _check_rows(rows, len(self.feature_names))
        feature, threshold, left, right, vote = self._nodes
        # every tree's node for every row, walked down one level per pass
        node = np.repeat(np.arange(self.n_trees)[:, None], x.shape[0], axis=1)
        row = np.arange(x.shape[0])
        while True:
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = x[row, f] <= threshold[node]
            node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        votes = vote[node].sum(axis=0)
        # majority over trees, ties to the smaller label
        return (2 * votes > self.n_trees).astype(np.int64)


# classifier name -> class; the CLI's --classifier choices, in this order
CLASSIFIER_KINDS = {"rf": RandomForestClassifier, "nb": NaiveBayesClassifier,
                    "knn": KNNClassifier}


def make_classifier(kind: str, **params):
    """Factory keyed by classifier name; unknown keys are rejected by the
    constructors so config typos surface early."""
    if kind not in CLASSIFIER_KINDS:
        raise ConfigError(f"unknown classifier {kind!r}; expected one of {tuple(CLASSIFIER_KINDS)}")
    try:
        return CLASSIFIER_KINDS[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind}: {exc}") from None
