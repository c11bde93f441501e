"""Property test for k-fold splitting over any class sizes, fold counts and
seeds, stratified and not."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eegstrata import PipelineConfig, kfold_split  # noqa: E402


@st.composite
def _labels(draw):
    """(labels, n_folds): 2-10 folds and 1-3 classes of at least that many
    rows each, in shuffled order."""
    n_folds = draw(st.integers(2, 10))
    sizes = draw(st.lists(st.integers(n_folds, 60), min_size=1, max_size=3))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return np.array(draw(st.permutations(labels))), n_folds


@settings(max_examples=200)
@given(data=_labels(), stratified=st.booleans(), seed=st.integers(0, 2**32 - 1),
       repeat=st.integers(0, 50))
@example(data=(np.tile([0, 1], 150), 10), stratified=True, seed=3, repeat=0)  # 30 rows a fold
@example(data=(np.array([0] * 200 + [1] * 100), 10), stratified=True, seed=4, repeat=0)  # 20 + 10
def test_kfold_splits_partition_the_rows(data, stratified, seed, repeat):
    labels, n_folds = data
    n = len(labels)
    cfg = PipelineConfig(cv_folds=n_folds, cv_stratified=stratified, seed=seed)
    splits = kfold_split(labels, cfg, repeat=repeat)
    assert len(splits) == n_folds
    all_test = np.concatenate([test for _, test in splits])
    assert sorted(all_test.tolist()) == list(range(n))
    for train, test in splits:
        # indices come back sorted so downstream slicing is reproducible
        assert np.all(np.diff(test) > 0)
        assert np.all(np.diff(train) > 0)
        assert np.array_equal(train, np.setdiff1d(np.arange(n), test))
        if stratified:
            for c in np.unique(labels):
                n_c = int(np.sum(labels == c))
                assert np.sum(labels[test] == c) in (n_c // n_folds, -(-n_c // n_folds))
        else:
            assert test.size in (n // n_folds, -(-n // n_folds))
    again = kfold_split(labels, cfg, repeat=repeat)
    for (train, test), (train2, test2) in zip(splits, again):
        assert np.array_equal(train, train2) and np.array_equal(test, test2)
