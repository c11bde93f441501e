"""Property tests for the batched forest grower against the recursive one."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from eegstrata import FeatureMatrix, RandomForestClassifier  # noqa: E402


def _reference_forest(values, labels, n_trees, seed, max_features, bootstrap):
    """The trees RandomForestClassifier.fit grows, one at a time, recursively."""
    n, d = values.shape
    per_node = math.ceil(math.sqrt(d)) if max_features == "sqrt" else None
    trees = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        sample = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        trees.append(oracles.grow_reference(values[sample], labels[sample], rng, per_node))
    return trees


def _reference_preorder(node):
    """(feature, threshold, vote) of each node in preorder; -1 and None stand
    for what a leaf or an inner node does not have."""
    if node.is_leaf:
        return [(-1, None, int(node.counts[1] > node.counts[0]))]
    return ([(node.feature, node.threshold, None)]
            + _reference_preorder(node.left) + _reference_preorder(node.right))


def _preorder(model, tree):
    feature, threshold, left, right, vote = model._nodes
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if feature[node] < 0:
            out.append((-1, None, int(vote[node])))
        else:
            out.append((int(feature[node]), float(threshold[node]), None))
            stack += [right[node], left[node]]
    return out


@st.composite
def _training_sets(draw):
    """(values, labels): 1-8 features x 2-40 rows with both classes, either
    small integers (tied gains, constant columns, duplicated rows) or
    Gaussian values."""
    d = draw(st.integers(1, 8), label="features")
    n = draw(st.integers(2, 40), label="rows")
    if draw(st.booleans(), label="grid"):
        cells = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
        values = np.array(cells, dtype=np.float64).reshape(n, d)
    else:
        values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if labels.min() == labels.max():
        flip = draw(st.integers(0, n - 1), label="flip")
        labels[flip] = 1 - labels[flip]
    return values, labels


_DUPLICATED = (np.array([[0.0], [0.0], [1.0], [1.0], [1.0]]), np.array([0, 1, 0, 1, 1]))
_CONSTANT = (np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0], [5.0, 2.0]]), np.array([0, 1, 1, 0]))
_SYMMETRIC = (np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]), np.array([0, 0, 1, 1]))
_TWO_ROWS = (np.array([[0.0], [1.0]]), np.array([1, 0]))


@settings(max_examples=150, deadline=None, database=None)
@given(data=_training_sets(), n_trees=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       max_features=st.sampled_from(["sqrt", "all"]), bootstrap=st.booleans())
@example(data=_DUPLICATED, n_trees=5, seed=0, max_features="all", bootstrap=False)
@example(data=_CONSTANT, n_trees=3, seed=1, max_features="sqrt", bootstrap=True)
@example(data=_SYMMETRIC, n_trees=1, seed=0, max_features="all", bootstrap=False)
@example(data=_TWO_ROWS, n_trees=20, seed=2, max_features="sqrt", bootstrap=True)
def test_forest_grows_the_reference_trees(data, n_trees, seed, max_features, bootstrap):
    values, labels = data
    d = values.shape[1]
    train = FeatureMatrix(names=tuple(f"f{i}" for i in range(d)), values=values, labels=labels)
    model = RandomForestClassifier(trees=n_trees, seed=seed, max_features=max_features,
                                   bootstrap=bootstrap).fit(train)
    reference = _reference_forest(values, labels, n_trees, seed, max_features, bootstrap)
    for t, tree in enumerate(reference):
        assert _preorder(model, t) == _reference_preorder(tree), t

    queries = np.vstack([values, np.random.default_rng(seed).normal(1.0, 2.0, size=(10, d))])
    votes = sum(oracles.tree_predict_reference(tree, queries) for tree in reference)
    assert model.predict(queries).tolist() == (2 * votes > n_trees).astype(np.int64).tolist()
