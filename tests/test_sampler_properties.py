"""Property tests for allocation and reduction over arbitrary stratum sizes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from eegstrata import Channel, DegenerateDataError, allocate, reduce_channel  # noqa: E402
from eegstrata.sampler import SELECTION_POLICIES  # noqa: E402

_SIZES = st.lists(st.integers(1, 300), min_size=1, max_size=8)


@settings(max_examples=200)
@given(sizes=_SIZES, n_channels=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
@example(sizes=[1, 1, 1], n_channels=2, seed=0, data=None)  # every stratum has no variance
@example(sizes=[300, 1, 2], n_channels=1, seed=1, data=None)
def test_allocation_and_reduction_over_any_sizes(sizes, n_channels, seed, data):
    length = sum(sizes)
    n_bar = length if data is None else data.draw(st.integers(1, length), label="n_bar")
    rng = np.random.default_rng(seed)
    channels = [Channel(id=f"A/c{i}", set_label="A", samples=rng.standard_normal(length))
                for i in range(n_channels)]
    if max(sizes) == 1:  # a one-sample stratum has no sample variance
        with pytest.raises(DegenerateDataError):
            allocate(channels, sizes, n_bar)
        return
    counts, _ = allocate(channels, sizes, n_bar)
    assert sum(counts) == n_bar
    assert all(0 <= count <= size for count, size in zip(counts, sizes))

    # positions are recoverable from the values of a strictly increasing channel
    ramp = Channel(id="A/ramp", set_label="A", samples=np.arange(length, dtype=np.float64))
    for policy in SELECTION_POLICIES:
        reduced = reduce_channel(ramp, sizes, counts, seed, policy)
        positions = reduced.samples.astype(np.int64)
        assert positions.size == n_bar
        assert np.all(np.diff(positions) > 0)
        assert 0 <= positions[0] and positions[-1] < length
        # stratum i contributes exactly its count, drawn from within its bounds
        edges = np.concatenate([[0], np.cumsum(sizes)])
        per_stratum = np.histogram(positions, bins=edges)[0]
        assert per_stratum.tolist() == list(counts)


@settings(max_examples=100)
@given(sizes=_SIZES, values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
       data=st.data())
# the mean of eleven copies of this value rounds, leaving a variance of 2.3e-22
@example(sizes=[11], values=[95325.9637840084], data=None)
@example(sizes=[100, 100, 100, 100], values=[0.1, 0.0], data=None)
def test_constant_channels_are_degenerate(sizes, values, data):
    length = sum(sizes)
    n_bar = length if data is None else data.draw(st.integers(1, length), label="n_bar")
    flat = [Channel(id=f"A/c{i}", set_label="A", samples=np.full(length, value))
            for i, value in enumerate(values)]
    with pytest.raises(DegenerateDataError):
        allocate(flat, sizes, n_bar)


@settings(max_examples=300)
@given(sizes=_SIZES, data=st.data())
# after the first round the two quiet strata's raw - count both round to -1.0,
# -2.0, ...; the loop gives the sample left in the last round to the lower index
@example(sizes=[100, 100, 100], data=None)
def test_allocation_hands_out_the_leftover_as_the_one_by_one_loop(sizes, data):
    """Stratum i alternates +-10**e_i, so its weight is set by e_i: equal
    exponents give equal fractional shares, a spread of 26 decades gives
    shares that round to nothing, and a loud stratum is capped at its size."""
    if data is None:
        exponents, n_bar = [0, -20, -19.7], 251
    else:
        exponents = data.draw(st.lists(st.sampled_from([-20, -19.7, -8, -1, 0, 0.5, 3, 6]),
                                       min_size=len(sizes), max_size=len(sizes)), label="exponents")
        n_bar = data.draw(st.integers(0, sum(sizes)), label="n_bar")
    if max(sizes) == 1:
        return  # no stratum has a sample variance
    samples = np.concatenate([10.0 ** e * np.resize([1.0, -1.0], size)
                              for e, size in zip(exponents, sizes)])
    counts, weights = allocate([Channel(id="A/c", set_label="A", samples=samples)], sizes, n_bar)
    weights = np.array(weights)
    raw = n_bar * weights / weights.sum()
    assert counts == oracles.allocate_reference(raw, np.array(sizes), n_bar)
    if data is None:
        assert counts == (100, 76, 75)

