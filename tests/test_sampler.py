import warnings

import numpy as np
import pytest

from eegstrata import (CONFIDENCE_Z, Channel, ConfigError, DataError,
                       DegenerateDataError, allocate, reduce_channel,
                       required_sample_size, stratify)


def _channels(rng, n, length, scale=1.0):
    return [Channel(id=f"A/c{i}", set_label="A",
                    samples=scale * rng.standard_normal(length))
            for i in range(n)]


def test_reference_sample_sizes():
    for level, expected in ((70, 1629), (85, 2288), (95, 2872), (99, 3287)):
        assert required_sample_size(CONFIDENCE_Z[level], 4097) == expected


def test_sample_size_monotonic():
    base = required_sample_size(1.96, 4097)
    assert required_sample_size(2.58, 4097) >= base
    assert required_sample_size(1.96, 10000) >= base
    assert required_sample_size(1.96, 4097, e=0.02) <= base


def test_sample_size_validation():
    with pytest.raises(ConfigError, match="z must be positive, got 0.0"):
        required_sample_size(0.0, 100)
    with pytest.raises(ConfigError, match=r"p must be in \(0, 1\), got 1.0"):
        required_sample_size(1.96, 100, p=1.0)
    with pytest.raises(ConfigError, match=r"e must be in \(0, 1\), got 0.0"):
        required_sample_size(1.96, 100, e=0.0)


def test_stratify_reference_case():
    sizes = stratify(4097, 4)
    assert sizes == (1024, 1024, 1024, 1025)
    assert all(type(n) is int for n in sizes)


def test_stratify_remainder_goes_last():
    assert stratify(10, 4) == (2, 2, 3, 3)
    assert stratify(12, 4) == (3, 3, 3, 3)
    assert stratify(7, 1) == (7,)


def test_stratify_properties():
    rng = np.random.default_rng(5)
    for _ in range(100):
        length = int(rng.integers(10, 5000))
        k = int(rng.integers(1, min(10, length) + 1))
        sizes = stratify(length, k)
        assert sum(sizes) == length and len(sizes) == k
        assert max(sizes) - min(sizes) <= 1


def test_stratify_errors():
    with pytest.raises(ConfigError):
        stratify(3, 4)
    with pytest.raises(ConfigError):
        stratify(10, 0)


def test_sizes_must_be_positive_integers():
    ch = Channel(id="A/c", set_label="A", samples=np.arange(10, dtype=float))
    for sizes in ((10, 0), (), (2.5, 7.5), (12, -2), (True, 9)):
        with pytest.raises(ConfigError, match="stratum sizes must be positive integers"):
            allocate([ch], sizes, 5)
        with pytest.raises(ConfigError, match="stratum sizes must be positive integers"):
            reduce_channel(ch, sizes, (1,) * len(sizes), seed=0)


@pytest.mark.parametrize("scale", [1e160, 2.0 ** 1010], ids=["1e160", "2^1010"])
def test_allocation_of_data_whose_variances_overflow(scale):
    # stratum variances overflow from about 1e154; at 2^1010, n_bar times a weight does too
    rng = np.random.default_rng(5)
    large = _channels(rng, 4, 4097, scale)
    small = [Channel(id=ch.id, set_label="A", samples=np.ldexp(ch.samples, -600)) for ch in large]
    plan = stratify(4097, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, weights = allocate(large, plan, 2872)
    small_counts, small_weights = allocate(small, plan, 2872)
    assert counts == small_counts
    assert weights == tuple(np.ldexp(small_weights, 600).tolist())


@pytest.mark.parametrize("exponent", [-540, -1000])
def test_allocation_of_data_whose_variances_underflow(exponent):
    # from 2^-540 the weights underflow to 0, which read as all strata constant
    rng = np.random.default_rng(5)
    channels = [Channel(id=f"A/c{i}", set_label="A", samples=rng.normal(0.0, 1.0 + i, 4097))
                for i in range(4)]
    small = [Channel(id=ch.id, set_label="A", samples=np.ldexp(ch.samples, exponent))
             for ch in channels]
    plan = stratify(4097, 4)
    counts, weights = allocate(channels, plan, 2872)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small_counts, small_weights = allocate(small, plan, 2872)
    assert small_counts == counts
    assert small_weights == tuple(np.ldexp(weights, exponent).tolist())


def test_allocation_of_a_nearly_constant_class_does_not_depend_on_units():
    # values one or two ulps above 2^-20: scaled by 2^-1000 the weights are
    # subnormal, so shares taken from them scaled back would lose bits and
    # move counts; the class is weighed on one scale instead
    up = np.nextafter(2.0 ** -20, 1.0)
    samples = np.full(80, 2.0 ** -20)
    samples[[3, 50, 51]] = up
    samples[[5, 60]] = np.nextafter(up, 1.0)
    for n_bar in range(81):
        counts, _ = allocate([Channel(id="A/c", set_label="A", samples=samples)], (40, 40), n_bar)
        small = Channel(id="A/c", set_label="A", samples=np.ldexp(samples, -1000))
        assert allocate([small], (40, 40), n_bar)[0] == counts, n_bar


def test_allocation_weights_match_direct_formula():
    rng = np.random.default_rng(2)
    chans = _channels(rng, 3, 100)
    _, weights = allocate(chans, (25, 25, 25, 25), 60)
    for i, (start, end) in enumerate(((0, 25), (25, 50), (50, 75), (75, 100))):
        var_sum = sum(ch.samples[start:end].var(ddof=1) for ch in chans)
        expected = (end - start) * np.sqrt(var_sum)
        assert weights[i] == pytest.approx(expected, rel=1e-12)


def test_allocation_conserves_total_and_caps():
    rng = np.random.default_rng(7)
    for _ in range(200):
        length = int(rng.integers(40, 400))
        k = int(rng.integers(2, 6))
        n_ch = int(rng.integers(1, 5))
        sizes = stratify(length, k)
        n_bar = int(rng.integers(k, length + 1))
        counts, _ = allocate(_channels(rng, n_ch, length), sizes, n_bar)
        assert sum(counts) == n_bar
        for n_i, size in zip(counts, sizes):
            assert 0 <= n_i <= size


def test_allocation_duplicating_channels_is_invariant():
    rng = np.random.default_rng(11)
    chans = _channels(rng, 2, 200)
    sizes = stratify(200, 4)
    once = allocate(chans, sizes, 120)
    twice = allocate(chans + chans, sizes, 120)
    assert once[0] == twice[0]


def test_allocation_tracks_dispersion():
    # one stratum much noisier than the rest draws more samples
    rng = np.random.default_rng(13)
    samples = rng.standard_normal(400)
    samples[100:200] *= 10.0
    ch = Channel(id="A/c", set_label="A", samples=samples)
    counts, _ = allocate([ch], stratify(400, 4), 200)
    assert counts[1] == max(counts)


def test_allocation_fractional_leftover_rule():
    # weights force raw shares with distinct fractional parts
    base = np.concatenate([np.zeros(10), np.ones(10)])
    ch = Channel(id="A/c", set_label="A", samples=np.tile(base, 5))
    counts, _ = allocate([ch], stratify(100, 4), 99)
    # equal weights: raw share 24.75 each, floor 24, leftover 3 to lowest indices
    assert counts == (25, 25, 25, 24)


def test_allocation_degenerate_and_errors():
    flat = Channel(id="A/c", set_label="A", samples=np.full(80, 2.5))
    sizes = stratify(80, 4)
    with pytest.raises(DegenerateDataError):
        allocate([flat], sizes, 40)
    with pytest.raises(DataError):
        allocate([], sizes, 40)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        allocate(_channels(rng, 1, 80), sizes, 81)
    with pytest.raises(DataError, match="channel 'A/c0' has length 60, but its strata cover 80"):
        allocate(_channels(rng, 1, 60), sizes, 40)


def test_reduce_preserves_order_and_membership():
    # strictly increasing samples make positions recoverable from values
    ch = Channel(id="A/c", set_label="A", samples=np.arange(300, dtype=float))
    sizes = stratify(300, 4)
    counts, _ = allocate([Channel(id="A/r", set_label="A",
                                  samples=np.random.default_rng(1).standard_normal(300))],
                         sizes, 120)
    red = reduce_channel(ch, sizes, counts, seed=5)
    assert len(red) == 120
    positions = red.samples.astype(int)
    assert np.all(np.diff(positions) > 0)
    assert red.id == ch.id and red.set_label == ch.set_label


def test_reduce_is_seed_deterministic():
    rng = np.random.default_rng(3)
    ch = _channels(rng, 1, 200)[0]
    sizes = stratify(200, 4)
    counts, _ = allocate([ch], sizes, 90)
    a = reduce_channel(ch, sizes, counts, seed=42)
    b = reduce_channel(ch, sizes, counts, seed=42)
    c = reduce_channel(ch, sizes, counts, seed=43)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_reduce_systematic_spacing():
    ch = Channel(id="A/c", set_label="A", samples=np.arange(100, dtype=float))
    counts, _ = allocate([Channel(id="A/r", set_label="A",
                                  samples=np.random.default_rng(2).standard_normal(100))],
                         (50, 50), 20)
    red = reduce_channel(ch, (50, 50), counts, seed=0, policy="systematic")
    n0, n1 = counts
    expected = np.concatenate([(np.arange(n0) * 50) // n0,
                               50 + (np.arange(n1) * 50) // n1])
    np.testing.assert_array_equal(red.samples.astype(int), expected)


def test_reduce_variance_sanity():
    rng = np.random.default_rng(17)
    ch = Channel(id="A/c", set_label="A", samples=rng.standard_normal(2000) * 3.0)
    sizes = stratify(2000, 4)
    counts, _ = allocate([ch], sizes, 800)
    red = reduce_channel(ch, sizes, counts, seed=9)
    full_edges = np.cumsum(sizes)[:-1]
    sub_edges = np.cumsum(counts)[:-1]
    for full, sub in zip(np.split(ch.samples, full_edges), np.split(red.samples, sub_edges)):
        assert 0.5 * full.var(ddof=1) < sub.var(ddof=1) < 1.5 * full.var(ddof=1)


def test_reduce_policy_validation():
    ch = Channel(id="A/c", set_label="A", samples=np.arange(40, dtype=float))
    with pytest.raises(ConfigError, match="policy"):
        reduce_channel(ch, (20, 20), (5, 5), seed=0, policy="weird")
    with pytest.raises(ConfigError, match="3 counts for 2 strata"):
        reduce_channel(ch, (20, 20), (5, 5, 5), seed=0)
    for policy in ("random", "systematic"):
        with pytest.raises(ConfigError, match="allocated -1 samples to a stratum of size 20"):
            reduce_channel(ch, (20, 20), (-1, 5), seed=0, policy=policy)
        with pytest.raises(ConfigError, match="allocated 21 samples to a stratum of size 20"):
            reduce_channel(ch, (20, 20), (5, 21), seed=0, policy=policy)
    with pytest.raises(DataError, match="channel 'A/c' has length 40, but its strata cover 50"):
        reduce_channel(ch, (25, 25), (5, 5), seed=0)
    # a count is an int, not a float or a bool, whatever its value
    for counts, named in [((5.0, 5), "stratum 0 count must be an integer, got 5.0"),
                          ((5, True), "stratum 1 count must be an integer, got True")]:
        for policy in ("random", "systematic"):
            with pytest.raises(ConfigError, match=named):
                reduce_channel(ch, (20, 20), counts, seed=0, policy=policy)
    assert np.array_equal(reduce_channel(ch, (20, 20), (np.int64(5), 5), seed=3).samples,
                          reduce_channel(ch, (20, 20), (5, 5), seed=3).samples)
