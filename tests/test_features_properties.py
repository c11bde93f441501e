"""Property tests for sample entropy against the all-pairs reference loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from eegstrata import sample_entropy  # noqa: E402


@st.composite
def _strata(draw):
    """(samples, r_factor): Gaussian or small-integer samples, optionally
    rounded, scaled and overwritten by constant runs; samples near the
    float64 limit; or samples whose r is a distance many pairs have."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integers", "near-max", "exact-r"]))
    n = draw(st.integers(4, 800))
    if kind == "near-max":
        # the std overflows to inf or, when signs mix, often to NaN
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
