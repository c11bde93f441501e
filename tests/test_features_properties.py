"""Property tests for the feature functions: sample entropy against the
all-pairs reference loop, extract_vector and the one-signal functions
against the per-signal references, each function over a block against the
same function over its rows, and moments and the IQR against scipy."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from eegstrata import (FEATURE_ORDER, Channel, DataError, extract_vector,  # noqa: E402
                       features, fluctuation_index, hurst_exponent, sample_entropy, shannon_entropy,
                       stratum_features)
from eegstrata.features import basic_stats, quartiles  # noqa: E402


@st.composite
def _strata(draw):
    """(samples, r_factor): Gaussian or small-integer samples, optionally
    rounded, scaled and overwritten by constant runs; samples near the
    float64 limit; or samples whose r is a distance many pairs have."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integers", "near-max", "exact-r"]))
    n = draw(st.integers(4, 800))
    if kind == "near-max":
        # the direct std overflows to inf or, when signs mix, often to NaN
        signs = draw(st.sampled_from([1.0, -1.0, None]))
        signs = rng.choice([-1.0, 1.0], n) if signs is None else signs
        return rng.uniform(1.6e308, 1.7976e308, n) * signs, 0.2
    if kind == "exact-r":
        # blocks [5, -5] and [1, 7, -1, -7] have mean 0 and mean square 25,
        # so std is exactly 5 * 2**e and r = 0.4 * std exactly 2 * 2**e
        blocks = rng.integers(0, 2, n // 3)
        x = np.concatenate([[1.0, 7.0, -1.0, -7.0]] +
                           [[5.0, -5.0] if c else [1.0, 7.0, -1.0, -7.0] for c in blocks])
        scale = 2.0 ** draw(st.integers(-500, 490))  # squares stay normal
        x = rng.permutation(x) * scale
        assert 0.4 * x.std() == 2.0 * scale
        return x, 0.4
    if kind == "normal":
        x = rng.standard_normal(n)
        decimals = draw(st.sampled_from([None, 0, 1, 2]))
        if decimals is not None:
            x = np.round(x, decimals)
    else:
        x = rng.integers(-3, 4, n).astype(np.float64)
    for _ in range(draw(st.integers(0, 3))):
        start = int(rng.integers(0, n))
        x[start:start + int(rng.integers(1, n // 2 + 2))] = x[start]
    return x * draw(st.sampled_from([1.0, -1.0, 2.0**-40, 1e150, 1e300, -1e300])), 0.2


@settings(max_examples=200, deadline=None, database=None)
@given(stratum=_strata())
@example(stratum=(np.full(5, 3.0), 0.2))
@example(stratum=(np.arange(800.0) % 7, 0.2))  # 7 values, so about 45k candidate pairs
def test_sample_entropy_equals_reference_loop(stratum):
    x, r_factor = stratum
    with np.errstate(all="ignore"):
        assert sample_entropy(x, r_factor=r_factor) == \
            oracles.sample_entropy_reference(x, r_factor=r_factor)


SCALES = (1.0, -1.0, 2.0**-40, 2.0**-351, 1e-3, 1e150, -1e150, 2.0**520, -2.0**1000, 2.0**1021,
          -2.0**1021)


def _signal(rng, n, scales=SCALES):
    """Gaussian, small-integer, rounded Gaussian or constant samples, with
    up to three constant runs long enough to cover whole dyadic windows,
    at one of the scales: 2**-40 rounds every value to -0.0 or 0.0 for the
    mode, 2**-351 makes m3 subnormal and m4 underflow, 1e150 overflows the
    third and fourth moments, 2**520 and 2**1000 the std, Hurst's window
    stds and sample entropy's r too, and 2**1021 the mode's values times
    10**6 and the sums behind the mean and the fluctuation index."""
    kind = rng.integers(4)
    if kind == 0:
        x = rng.standard_normal(n)
    elif kind == 1:
        x = rng.integers(-3, 4, n).astype(np.float64)
    elif kind == 2:
        x = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
    else:
        x = np.full(n, rng.standard_normal())
    for _ in range(rng.integers(0, 4)):
        start = int(rng.integers(0, n))
        x[start:start + int(rng.integers(1, 64))] = x[start]
    return x * rng.choice(scales)


@st.composite
def _groups(draw):
    """(channels, sizes): 1-12 channels cut into 1-4 strata of 64-800
    samples, each stratum of each channel drawn on its own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = tuple(draw(st.lists(st.integers(64, 800), min_size=1, max_size=4)))
    channels = [Channel(id=f"A/c{i}", set_label="A",
                        samples=np.concatenate([_signal(rng, n) for n in sizes]))
                for i in range(draw(st.integers(1, 12)))]
    return channels, sizes


def _stratum_tag(x):
    """A cheap stand-in for sample entropy, which has its own reference test
    above: it tells the strata apart, so it shows each row's sample entropy
    is taken on that row's own stratum."""
    return float(x[0]) + 1e-3 * len(x) + float(x[-1])


FEATURE_FUNCTIONS = (basic_stats, quartiles, shannon_entropy, hurst_exponent, fluctuation_index,
                     stratum_features)


def _by_name(values):
    return values if isinstance(values, dict) else {"value": values}


@settings(max_examples=40, deadline=None, database=None)
@given(group=_groups())
# small integers at 2**1021: the span, 2**1024, overflows, which np.histogram refuses
@example(group=([Channel(id="A/c0", set_label="A",
                         samples=np.ldexp(np.arange(1.0, 65.0) % 9 - 4, 1021))], (64,)))
def test_extract_vector_equals_the_per_signal_references(group):
    channels, sizes = group
    strata = [np.split(ch.samples, np.cumsum(sizes[:-1])) for ch in channels]
    with np.errstate(all="ignore"), mock.patch.object(features, "sample_entropy", _stratum_tag):
        got = extract_vector(channels, sizes)
        expected = np.array([[oracles.stratum_features_reference(stratum, _stratum_tag)[feature]
                              for stratum in row for feature in FEATURE_ORDER]
                             for row in strata])
        assert (got == expected).all(), np.argwhere(got != expected)[:5]
        # each function gives a block's rows, as float64, what it gives each row alone
        for block in map(np.stack, zip(*strata)):
            for f in FEATURE_FUNCTIONS:
                whole = _by_name(f(block))
                for values in whole.values():
                    assert values.dtype == np.float64 and values.shape == (len(block),)
                for i, row in enumerate(block):
                    assert {k: v[i] for k, v in whole.items()} == _by_name(f(row)), (f.__name__, i)
                with pytest.raises(DataError):
                    f(block[None])


@st.composite
def _strata_64_800(draw, scales=SCALES):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _signal(rng, draw(st.integers(64, 800)), scales)


@settings(max_examples=100, deadline=None, database=None)
@given(x=_strata_64_800())
@example(x=np.full(64, -0.0))
def test_one_signal_functions_equal_their_references(x):
    # each function takes what overflows at a rescale, as the stratum reference does
    with np.errstate(all="ignore"):
        ref = oracles.stratum_features_reference(x, sample_entropy)
        assert stratum_features(x) == ref
        got = basic_stats(x)
        assert got == {key: ref[key] for key in got}
        assert quartiles(x) == {key: ref[key] for key in ("q1", "q3", "iqr")}
        assert shannon_entropy(x) == ref["shannon_entropy"]
        assert hurst_exponent(x) == ref["hurst"]
        assert fluctuation_index(x) == ref["fluctuation_index"]


@settings(max_examples=100, deadline=None, database=None)
@given(x=_strata_64_800(scales=(1.0, -1.0, 1e-3, 1e3)))
def test_moments_and_iqr_agree_with_scipy(x):
    stats = pytest.importorskip("scipy.stats")
    got = basic_stats(x)
    assert quartiles(x)["iqr"] == pytest.approx(stats.iqr(x), rel=1e-9)
    if np.ptp(x) == 0.0:
        # scipy gives NaN here; the documented value is 0
        assert got["skewness"] == 0.0 and got["kurtosis"] == 0.0
        return
    assert got["kurtosis"] == pytest.approx(stats.kurtosis(x, fisher=False), rel=1e-9)
    # a skewness near 0 is a difference of nearly equal sums, so the absolute
    # term covers what its relative error cannot
    assert got["skewness"] == pytest.approx(stats.skew(x), rel=1e-9, abs=1e-12)
