"""Sample-size calculation, stratification, and optimum allocation.

The reduction pipeline is: pick a total sample size n_bar from a confidence
level (with finite-population correction), cut each signal into near-equal
contiguous strata, split n_bar across strata proportionally to stratum
size times pooled within-stratum dispersion, then draw that many points
from each stratum while preserving temporal order. A plan is its stratum
sizes, a tuple of positive integers in signal order that sum to the signal
length; an allocation is one count per stratum, returned by ``allocate``
with the dispersion weight each count came from.
"""

from __future__ import annotations

import numpy as np

from .corpus import Channel
from .errors import ConfigError, DataError, DegenerateDataError

# confidence level (%) -> standard normal variate
CONFIDENCE_Z = {70: 1.04, 85: 1.44, 95: 1.96, 99: 2.58}

SELECTION_POLICIES = ("random", "systematic")


def required_sample_size(z: float, population_size: int, p: float = 0.5,
                         e: float = 0.01) -> int:
    """Total sample size for a confidence level, with finite-population
    correction, truncated to an integer: z is the standard normal variate
    for the level, p the estimated proportion, e the margin of error and
    population_size the per-signal point count.

    Truncation (not rounding) is deliberate: it reproduces the standard
    reference values for N=4097 at the 70/85/95/99% presets exactly.
    """
    if not z > 0:
        raise ConfigError(f"z must be positive, got {z}")
    if not 0 < p < 1:
        raise ConfigError(f"p must be in (0, 1), got {p}")
    if not 0 < e < 1:
        raise ConfigError(f"e must be in (0, 1), got {e}")
    try:
        n = z ** 2 * p * (1.0 - p) / e ** 2
        return int(n / (1.0 + (n - 1.0) / population_size))
    except (OverflowError, ValueError, ZeroDivisionError):  # a huge z or a tiny e
        raise ConfigError(f"z={z:g} and e={e:g} give no finite sample size") from None


def stratify(length: int, n_strata: int) -> tuple:
    """Sizes of n_strata contiguous strata covering a signal of this length,
    differing by at most one; the longer strata go last (4097/4 -> 1024,
    1024, 1024, 1025)."""
    if n_strata < 1:
        raise ConfigError(f"n_strata must be at least 1, got {n_strata}")
    if length < n_strata:
        raise ConfigError(f"length {length} is smaller than n_strata {n_strata}")
    base, extra = divmod(length, n_strata)
    return (base,) * (n_strata - extra) + (base + 1,) * extra


def _is_int(value) -> bool:
    """An int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_plan(channels, sizes) -> None:
    """Refuse stratum sizes that are not positive integers summing to every
    channel's length."""
    if not sizes or not all(_is_int(n) and n > 0 for n in sizes):
        raise ConfigError(f"stratum sizes must be positive integers, got {list(sizes)}")
    length = sum(sizes)
    for ch in channels:
        if len(ch) != length:
            raise DataError(f"channel {ch.id!r} has length {len(ch)}, but its strata cover {length}")


def _strata(channels, sizes) -> list:
    """The channels' samples, one row each, cut along the last axis into
    consecutive strata of the given sizes, checked by _check_plan."""
    _check_plan(channels, sizes)
    return np.split(np.stack([ch.samples for ch in channels]), np.cumsum(sizes[:-1]), axis=-1)


# squares below 2^-1022 lose bits; from a norm of 2^-460 on, what they lose is
# below 2^-53 of its square for up to 2^40 terms
UNIT_FLOOR = 2.0 ** -460


def _unit_scale(x, axis=None) -> tuple:
    """The one scale rule: x scaled by the power of two that brings its largest
    magnitude along axis (all of x by default, each value alone for ()) into
    [0.5, 1), and the exponent, 0 for a zero slice, that scales it back, shaped
    to broadcast against x. Scaling by a power of two is exact barring
    underflow, so a value taken again on the scaled x and scaled back is x's own."""
    _, exponent = np.frexp(np.abs(x).max(axis=axis, keepdims=axis is not None))
    return np.ldexp(x, -exponent), exponent


def _weight(rows) -> float:
    """N_i * sqrt(sum of the rows' sample variances) for a stratum's rows, 0 for
    a stratum of one sample; the mean of a constant row can round, so its
    variance is set to 0, not computed."""
    if rows.shape[1] < 2:
        return 0.0
    var = np.where(np.ptp(rows, axis=1) > 0, rows.var(axis=1, ddof=1), 0.0)
    return rows.shape[1] * np.sqrt(var.sum())


def allocate(class_channels, sizes, n_bar: int) -> tuple:
    """Optimum allocation of n_bar across strata of the given sizes for one
    class of channels, as the pair (counts, weights): a tuple of ints and a
    tuple of floats, one each per stratum.

    The weight of stratum i is N_i * sqrt(sum over channels of the sample
    variance of that channel restricted to stratum i); counts are the
    weight-proportional shares of n_bar. Shares are floored, then the
    leftover is handed out as if one by one to the stratum with room whose
    share exceeds its count the most (ties to the lower stratum index),
    keeping the total exactly n_bar while staying within the stratum sizes.
    """
    channels = list(class_channels)
    if not channels:
        raise DataError("allocation needs at least one channel")
    strata = _strata(channels, sizes)
    if not 0 <= n_bar <= sum(sizes):
        raise ConfigError(f"n_bar {n_bar} must lie in [0, {sum(sizes)}]")

    caps = np.array(sizes, dtype=np.int64)
    # a weight that passes float64 (inf, or nan where sums of opposite sign
    # overflow), or that is below UNIT_FLOOR, where its squares may have lost
    # bits, is taken again with every stratum on the class under one
    # _unit_scale, so the shares do not depend on the data's units; one whose
    # true size passes float64 is refused below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        w, exponent = np.array([_weight(rows) for rows in strata]), 0
        if not ((UNIT_FLOOR <= w) & (w < np.inf) | (caps == 1)).all():
            scaled, exponent = _unit_scale(np.concatenate(strata, axis=1))
            w = np.array([_weight(rows) for rows in np.split(scaled, np.cumsum(sizes[:-1]), axis=1)])
        weights = np.ldexp(w, exponent)
    if not np.isfinite(weights).all():
        i = int(np.argmin(np.isfinite(weights)))
        raise DegenerateDataError(f"stratum {i} weight overflows float64; rescale the data")
    # shares are taken from the weights scaled by a power of two to at most 1,
    # which is exact unless two weights differ by more than 2**1022, so that
    # neither their sum nor n_bar times one overflows
    weights_unit, _ = _unit_scale(w)
    total_weight = weights_unit.sum()
    if total_weight <= 0.0:
        raise DegenerateDataError("all strata are constant in every channel; allocation undefined")

    raw = n_bar * weights_unit / total_weight
    counts = np.minimum(np.floor(raw).astype(np.int64), caps)
    leftover = n_bar - int(counts.sum())
    if leftover > 0:
        # One sample at a time, the leftover would go to the stratum with
        # room whose raw - count is largest, ties to the lower index. A
        # stratum's raw - count falls as its count grows, so those picks are
        # the first `leftover` (stratum, count) pairs still in reach, ordered
        # by raw - count descending, then by stratum, then by count.
        take = np.minimum(caps - counts, leftover)
        stratum = np.repeat(np.arange(caps.size), take)
        count = counts[stratum] + np.arange(stratum.size) - np.repeat(np.cumsum(take) - take, take)
        order = np.lexsort((stratum, -(raw[stratum] - count)))
        counts += np.bincount(stratum[order[:leftover]], minlength=caps.size)

    return tuple(int(c) for c in counts), tuple(float(v) for v in weights)


def reduce_channel(channel: Channel, sizes, counts, seed: int,
                   policy: str = "random") -> Channel:
    """Draw counts[i] points from stratum i of the given sizes and concatenate.

    Within a stratum the selected positions are kept in temporal order, so
    the reduced signal is an order-preserving subsequence of the input.
    ``random`` draws without replacement from the seeded generator;
    ``systematic`` takes evenly spaced points and ignores the seed.
    """
    if policy not in SELECTION_POLICIES:
        raise ConfigError(f"unknown selection policy {policy!r}; expected one of {SELECTION_POLICIES}")
    if len(counts) != len(sizes):
        raise ConfigError(f"{len(counts)} counts for {len(sizes)} strata")

    _check_plan([channel], sizes)
    rng = np.random.default_rng(seed)
    positions = []
    start = 0
    for i, (size, n_i) in enumerate(zip(sizes, counts)):
        if not _is_int(n_i):
            raise ConfigError(f"stratum {i} count must be an integer, got {n_i!r}")
        if not 0 <= n_i <= size:
            raise ConfigError(f"allocated {n_i} samples to a stratum of size {size}")
        if n_i > 0:
            if policy == "random":
                idx = np.sort(rng.choice(size, size=n_i, replace=False))
            else:
                idx = (np.arange(n_i, dtype=np.int64) * size) // n_i
            positions.append(start + idx)
        start += size

    if not positions:
        raise ConfigError("allocation selects zero samples overall")
    return Channel(id=channel.id, set_label=channel.set_label,
                   samples=channel.samples[np.concatenate(positions)])
