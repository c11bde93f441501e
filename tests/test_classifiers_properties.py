"""Property tests for the batched forest grower against the recursive one,
for its draws against numpy's Generator and the plain-loop draws, and for
its computed PCG64 words against numpy's bit generators and plain loops."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from eegstrata import FeatureMatrix, RandomForestClassifier  # noqa: E402
from eegstrata.classifiers import _PCG64Words, _sample_features, _Streams  # noqa: E402


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


@settings(max_examples=150)
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


def _forest_draws(streams, trees, rows, bound, ds, active):
    """Each tree's bounded draws, then its feature draws for each d in ds
    by the trees active at that draw, as lists per tree."""
    got = [[row] for row in streams.draw(trees, np.full(rows, bound)).tolist()]
    for d, on in zip(ds, active):
        for t, picks in zip(trees[on], _sample_features(streams, trees[on], d,
                                                        math.ceil(math.sqrt(d))).tolist()):
            got[t].append(picks)
    return got


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), n_trees=st.integers(1, 4),
       bound=st.one_of(st.integers(2, 300), st.integers(3 * 2**30 - 2**20, 3 * 2**30 + 2**20)),
       rows=st.integers(0, 40), spare=st.integers(0, 3), ds=st.permutations(range(1, 61)),
       data=st.data())
def test_draws_equal_generator_integers_then_choice(seed, n_trees, bound, rows, spare, ds, data):
    # a bound near 3 * 2^30 rejects about a quarter of its draws; spare
    # sets how soon each stream runs past its buffer
    active = [np.array(data.draw(st.lists(st.booleans(), min_size=n_trees, max_size=n_trees)))
              for _ in ds]
    children = np.random.SeedSequence(seed).spawn(n_trees)
    streams = _Streams(_PCG64Words(seed, n_trees), n_trees, rows // 2 + 8 + spare)
    got = _forest_draws(streams, np.arange(n_trees), rows, bound, ds, active)
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        want = [rng.integers(0, bound, size=rows).tolist()]
        want += [rng.choice(d, size=math.ceil(math.sqrt(d)), replace=False).tolist()
                 for d, on in zip(ds, active) if on[t]]
        assert got[t] == want, t


class _Words:
    """A bit generator whose raw words start with the given 32-bit halves,
    low half first, and go on as PCG64 from seed."""

    def __init__(self, halves, seed):
        halves = np.array(halves + [0] * (len(halves) % 2), dtype=np.uint64)
        self._head = list(halves[0::2] | halves[1::2] << np.uint64(32))
        self._tail = np.random.PCG64(seed)

    def random_raw(self, size=None):
        if size is None:
            return self.random_raw(1)[0]
        head, self._head = self._head[:size], self._head[size:]
        return np.concatenate([np.array(head, dtype=np.uint64),
                               self._tail.random_raw(size - len(head))])


def _source(bit_generators):
    """A word source that reads each tree's words from its bit generator,
    checking that every call starts where the tree's last one ended."""
    taken = [0] * len(bit_generators)

    def words(trees, start, count):
        for t in trees.tolist():
            assert start == taken[t], (t, start, taken[t])
            taken[t] += count
        return np.array([bit_generators[t].random_raw(count) for t in trees.tolist()])
    return words


# halves that make small bounds reject: 0 does for every bound that is not a
# power of two (for 17, 2^32 mod 17 is 1), and a half whose product with a
# bound wraps to just past 2^32 leaves a small low half too
_REJECTING = st.one_of(st.just(0), st.integers(0, 2**32 - 1),
                       st.integers(2, 60).map(lambda b: -(-2**32 // b)))


@settings(max_examples=150)
@given(heads=st.lists(st.lists(_REJECTING, max_size=40), min_size=1, max_size=3),
       rows=st.integers(0, 30), bound=st.integers(2, 40), d=st.integers(1, 60),
       calls=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(heads=[[0] * 5], rows=3, bound=17, d=17, calls=2, seed=0)
@example(heads=[[0] * 12, [7, 0, 0]], rows=1, bound=3, d=60, calls=3, seed=1)
def test_rejecting_halves_are_drawn_again_as_the_reference_does(heads, rows, bound, d, calls,
                                                                seed):
    trees = np.arange(len(heads))
    streams = _Streams(_source([_Words(h, seed + t) for t, h in enumerate(heads)]), len(heads),
                       rows // 2 + 8)
    got = _forest_draws(streams, trees, rows, bound, [d] * calls, [trees >= 0] * calls)
    for t, head in enumerate(heads):
        halves = oracles.raw_halves(_Words(head, seed + t))
        want = [[oracles.bounded_reference(halves, bound) for _ in range(rows)]]
        want += [oracles.choice_reference(halves, d, math.ceil(math.sqrt(d)))
                 for _ in range(calls)]
        assert got[t] == want, t


# a seed of 1 to 6 32-bit words: numpy pads one shorter than 4 words with
# zeros before a child's spawn key, and mixes the words past the fourth in
# after the pool is made
_SEEDS = st.integers(1, 6).flatmap(
    lambda k: st.integers(2**(32 * k - 32) - (k == 1), 2**(32 * k) - 1))
# the plain loop steps one word at a time, so it checks windows that start
# within its first _STEPPED words
_STEPPED = 2000


@settings(max_examples=60)
@given(seed=_SEEDS, trees=st.integers(1, 300),
       start=st.one_of(st.integers(0, _STEPPED), st.integers(0, 2**128 - 1)),
       count=st.integers(1, 40), checked=st.lists(st.integers(0, 299), min_size=1, max_size=3))
@example(seed=0, trees=1, start=0, count=1, checked=[0])
@example(seed=2**32 - 1, trees=300, start=301, count=40, checked=[0, 299])
@example(seed=2**64 - 1, trees=2, start=_STEPPED, count=7, checked=[1])
@example(seed=2**128, trees=17, start=2**64 + 3, count=5, checked=[16])
@example(seed=2**160 + 1, trees=100, start=17, count=17, checked=[0, 57, 99])
def test_stream_words_equal_numpy_and_the_plain_loops(seed, trees, start, count, checked):
    source = _PCG64Words(seed, trees)
    got = source(np.arange(trees), start, count)
    children = np.random.SeedSequence(seed).spawn(trees)
    generators = [np.random.PCG64(child) for child in children]
    seeded = [(g.state["state"]["state"], g.state["state"]["inc"]) for g in generators]
    for t, (child, generator) in enumerate(zip(children, generators)):
        assert [int(word[t]) for word in source.pool] == child.pool.tolist(), t
        assert (int(source.state[0][t]) << 64 | int(source.state[1][t])) == seeded[t][0], t
        assert (int(source.inc[0][t]) << 64 | int(source.inc[1][t])) == seeded[t][1], t
        generator.advance(start)
        assert got[t].tolist() == generator.random_raw(count).tolist(), t
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    for t in sorted({c % trees for c in checked}):
        pool, state_words = oracles.seed_sequence_state_reference(seed_words, t)
        assert pool == children[t].pool.tolist(), t
        assert state_words == children[t].generate_state(4, np.uint64).tolist(), t
        assert oracles.pcg64_seed_reference(state_words) == seeded[t], t
        if start <= _STEPPED:
            assert oracles.pcg64_words_reference(state_words, start, count) == got[t].tolist(), t


def test_deep_forests_read_past_each_streams_first_block():
    # noisy labels grow trees of many splits, each drawing 2 * 8 - 1 halves
    # after the bootstrap's 301, so every stream refills its 301-word buffer,
    # with the last word's high half still unread
    rng = np.random.default_rng(5)
    values = rng.normal(size=(301, 60))
    labels = (values[:, 0] + 2.0 * rng.normal(size=301) > 0).astype(np.int64)
    train = FeatureMatrix(names=tuple(f"f{i}" for i in range(60)), values=values, labels=labels)
    model = RandomForestClassifier(trees=5, seed=11).fit(train)
    reference = _reference_forest(values, labels, 5, 11, "sqrt", True)
    for t, tree in enumerate(reference):
        preorder = _preorder(model, t)
        assert sum(f >= 0 for f, _, _ in preorder) > 301 // 15, t
        assert preorder == _reference_preorder(tree), t


def test_a_fit_leaves_no_state_for_the_next():
    rng = np.random.default_rng(6)
    values = rng.normal(size=(50, 9))
    labels = (values[:, 0] + rng.normal(size=50) > 0).astype(np.int64)
    train = FeatureMatrix(names=tuple(f"f{i}" for i in range(9)), values=values, labels=labels)
    model = RandomForestClassifier(trees=7, seed=1)
    first = [a.copy() for a in model.fit(train)._nodes]
    other = RandomForestClassifier(trees=7, seed=2).fit(train)._nodes
    again = model.fit(train)._nodes
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))

