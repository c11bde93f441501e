"""Property tests: allocation and the kNN and forest classifiers do not depend
on the data's units.

Every value is 0 or has a magnitude in [2^-20, 2^4], and the data are scaled
by 2^k for k in [-1000, 500]. Scaled, every nonzero value stays in
[2^-1020, 2^504]: none is subnormal, and no variance of such values
overflows. Naive Bayes is left out on purpose: its var_floor is in squared
data units, so its answers may change with them.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eegstrata import (Channel, DegenerateDataError, FeatureMatrix, KNNClassifier,  # noqa: E402
                       RandomForestClassifier, allocate)

_MAGNITUDE = st.floats(2.0 ** -20, 2.0 ** 4)
_VALUES = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda v: -v))
_SHIFTS = st.integers(-1000, 500)


def _matrix(draw, rows, columns):
    cells = draw(st.lists(_VALUES, min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=np.float64).reshape(rows, columns)


@settings(max_examples=150)
@given(data=st.data(), k=_SHIFTS)
def test_knn_and_forest_predictions_do_not_depend_on_units(data, k):
    d = data.draw(st.integers(1, 4), label="features")
    n = data.draw(st.integers(4, 24), label="rows")
    values = _matrix(data.draw, n, d)
    queries = _matrix(data.draw, data.draw(st.integers(1, 8), label="queries"), d)
    labels = np.array(data.draw(st.permutations([i % 2 for i in range(n)]), label="labels"))
    names = tuple(f"f{i}" for i in range(d))
    fm = FeatureMatrix(names=names, values=values, labels=labels)
    scaled = FeatureMatrix(names=names, values=np.ldexp(values, k), labels=labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (KNNClassifier(), KNNClassifier(standardize=False),
                      RandomForestClassifier(trees=5, seed=1)):
            expected = model.fit(fm).predict(queries)
            got = model.fit(scaled).predict(np.ldexp(queries, k))
            assert got.tolist() == expected.tolist(), type(model).__name__


@settings(max_examples=150)
@given(data=st.data(), k=_SHIFTS)
def test_allocation_does_not_depend_on_units(data, k):
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5), label="sizes")
    length = sum(sizes)
    n_bar = data.draw(st.integers(0, length), label="n_bar")
    samples = _matrix(data.draw, data.draw(st.integers(1, 3), label="channels"), length)

    def counts(scale):
        channels = [Channel(id=f"A/c{i}", set_label="A", samples=np.ldexp(row, scale))
                    for i, row in enumerate(samples)]
        try:
            return allocate(channels, sizes, n_bar)[0]
        except DegenerateDataError:
            return "degenerate"

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert counts(k) == counts(0)
