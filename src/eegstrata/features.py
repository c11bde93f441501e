"""Per-stratum statistical features and feature-row assembly.

Fifteen features are computed per stratum in a fixed order; a channel cut
into k strata yields a row of 15*k values, named by feature_names(k)
("s1_min" .. "s4_kurtosis" for k=4). Degenerate inputs (constant strata)
map to finite documented values instead of NaN so downstream selection
never sees missing data.

Each feature is one function over a signal or a (rows, samples) block:
given one signal it returns Python floats, given a block one float64 value
per row. Sample entropy alone takes one signal, and stratum_features calls
it row by row; extract_vector hands stratum_features each stratum of its
channels as one block.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .sampler import _strata

FEATURE_ORDER = (
    "min", "max", "skewness", "mean", "std", "mode", "iqr", "q1", "q3",
    "shannon_entropy", "hurst", "fluctuation_index", "sample_entropy",
    "median", "kurtosis",
)

ENTROPY_BINS = 64
MODE_DECIMALS = 6
# strata must be long enough for the rescaled-range estimator
MIN_STRATUM_LENGTH = 64
# candidate template pairs sample_entropy tests at once: 64 KB per int64 or
# float64 temporary, whatever the stratum (a constant one admits every pair)
SAMPEN_BLOCK = 8192
# extract_vector hands stratum_features at most this many samples of a stratum
# at once, (channels, samples), so each of their temporaries stays near
# 512 KB whatever the number of channels
_BLOCK_ELEMENTS = 1 << 16


# features that do not change when a row is scaled
SCALE_FREE = frozenset({"skewness", "kurtosis", "shannon_entropy", "hurst", "sample_entropy"})


def _per_row(min_len: int, name: str = "", rescale: bool = True):
    """Turn a kernel over the rows of a (rows, samples) block x into the
    feature function of a signal or a block, with at least min_len samples
    a row: for a block it returns the kernel's float64 values, one per row,
    and for a signal those of its one-row block as Python floats. The kernel
    returns a dict of features by name or the values of the one feature
    name, and numpy does not warn while it runs.

    With rescale, a value that comes out inf or NaN, as a direct form that
    overflows does, is taken again on its row scaled by a power of two into
    (-1, 1) and scaled back, unless its feature is in SCALE_FREE. Scaling by
    a power of two is exact, so the value is the row's own, and every value
    that came out finite stays as it is. A value whose true size exceeds
    float64 stays inf."""
    def wrap(kernel):
        def run(block, *args, **kwargs):
            out = kernel(block, *args, **kwargs)
            return out if isinstance(out, dict) else {name: out}

        @functools.wraps(kernel)
        def feature(x, *args, **kwargs):
            arr = np.asarray(x, dtype=np.float64)
            if arr.ndim not in (1, 2) or arr.shape[-1] < min_len or not arr.size:
                raise DataError(f"{kernel.__name__} needs a signal of at least {min_len} samples "
                                f"or a (rows, samples) block of such rows, got shape {arr.shape}")
            block = np.atleast_2d(arr)
            with np.errstate(all="ignore"):
                out = run(block, *args, **kwargs)
                bad = np.flatnonzero(~np.isfinite(list(out.values())).all(axis=0))
                if rescale and bad.size:
                    scaled, exponent = _unit_scale(block[bad])
                    for key, again in run(scaled, *args, **kwargs).items():
                        redo = ~np.isfinite(out[key][bad])
                        out[key][bad[redo]] = (again[redo] if key in SCALE_FREE
                                               else np.ldexp(again[redo], exponent[redo]))
            if arr.ndim == 1:
                out = {key: float(v[0]) for key, v in out.items()}
            return out[name] if name else out
        return feature
    return wrap


def _row_sums(values, keep) -> np.ndarray:
    """Sum of each row's kept values, as numpy sums those values alone in a
    1-d array: zeros in place of the others would regroup numpy's pairwise
    sum, so rows keeping equally many are summed together as one 2-d array.
    A row that keeps nothing sums to 0."""
    if keep.all():
        return values.sum(axis=1)
    kept = keep.sum(axis=1)
    sums = np.zeros(len(values))
    for k in np.unique(kept[kept > 0]):
        rows = kept == k
        sums[rows] = values[rows][keep[rows]].reshape(-1, k).sum(axis=1)
    return sums


def _unit_scale(rows) -> tuple:
    """Each row of a block scaled by the power of two that brings its largest
    magnitude into [0.5, 1), with the exponents that scale it back. Scaling
    by a power of two is exact, barring underflow of the smallest values."""
    _, exponent = np.frexp(np.abs(rows).max(axis=1))
    return np.ldexp(rows, -exponent[:, None]), exponent


def _mode(block) -> np.ndarray:
    """Most frequent value of each row after rounding, ties to the smallest:
    the first longest run of the sorted row, as np.unique counts it."""
    ranked = np.sort(np.round(block, MODE_DECIMALS), axis=1)
    starts = np.ones(ranked.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    at = np.flatnonzero(starts)
    runs = np.zeros(ranked.size, dtype=np.int64)
    runs[at] = np.diff(at, append=ranked.size)  # every row starts a run at its column 0
    best = runs.reshape(ranked.shape).argmax(axis=1)
    return ranked[np.arange(len(ranked)), best]


@_per_row(2)
def basic_stats(x) -> dict:
    """Min, max, mean, median, mode, std (n-1), skewness, kurtosis.

    Skewness is g1 = m3 / m2^1.5 and kurtosis is m4 / m2^2 (Pearson, so a
    normal distribution sits near 3), both from population moments. The std
    and both ratios are 0 for a constant input, even where its mean rounds.
    Where either ratio of a varying input comes out inf or NaN, as where
    its moments overflow or its m2 underflows to 0, both are NaN, so both
    are taken at a rescale (see _per_row).
    The mode is the most frequent value after rounding to 6 decimals,
    ties broken toward the smallest value.
    """
    # a constant row whose mean rounds has a std and m2 above 0: judge it by its span
    varies = np.ptp(x, axis=1) > 0.0
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    m2 = np.mean(centered ** 2, axis=1)
    m3 = np.mean(centered ** 3, axis=1)
    m4 = np.mean(centered ** 4, axis=1)
    skewness = np.zeros(len(x))
    kurtosis = np.zeros(len(x))
    for i in np.flatnonzero(varies):
        # scalar powers: the array ** rounds some m2 ** 1.5 differently
        skewness[i] = m3[i] / m2[i] ** 1.5
        kurtosis[i] = m4[i] / m2[i] ** 2
    lost = ~np.isfinite(skewness + kurtosis)
    skewness[lost] = kurtosis[lost] = np.nan
    return {
        "min": x.min(axis=1),
        "max": x.max(axis=1),
        "mean": mean,
        "median": np.median(x, axis=1),
        "mode": _mode(x),
        "std": np.where(varies, x.std(axis=1, ddof=1), 0.0),
        "skewness": skewness,
        "kurtosis": kurtosis,
    }


@_per_row(4)
def quartiles(x) -> dict:
    """First and third quartile by linear interpolation at position (n-1)*q,
    plus their difference."""
    q1, q3 = np.quantile(x, [0.25, 0.75], axis=1)
    return {"q1": q1, "q3": q3, "iqr": q3 - q1}


@_per_row(2, "shannon_entropy")
def shannon_entropy(x, bins: int = ENTROPY_BINS) -> float | np.ndarray:
    """Entropy in bits of the equal-width histogram over [min, max].

    Bounded by log2(bins); a constant signal has no spread and returns 0,
    and one whose span overflows NaN, which is then taken at a rescale (see
    _per_row). Samples are binned by np.histogram's rule for uniform bins:
    the index from the span, the top bin taking the maximum, then one bin
    down or up where the index disagrees with the np.linspace edges.
    """
    lo, hi = x.min(axis=1), x.max(axis=1)
    span = hi - lo
    out = np.where(lo == hi, 0.0, np.nan)
    live = np.flatnonzero(np.isfinite(span) & (span > 0.0))
    x, lo, hi, span = x[live], lo[live, None], hi[live], span[live, None]
    edges = np.arange(bins + 1.0) * (span / bins) + lo
    edges[:, -1] = hi
    index = (((x - lo) / span) * bins).astype(np.intp)
    index[index == bins] -= 1
    index -= x < np.take_along_axis(edges, index, axis=1)
    index += (x >= np.take_along_axis(edges, index + 1, axis=1)) & (index != bins - 1)
    index += bins * np.arange(live.size)[:, None]
    counts = np.bincount(index.ravel(), minlength=bins * live.size).reshape(-1, bins)
    occupied = counts > 0
    p = np.where(occupied, counts, 1) / x.shape[1]
    out[live] = -_row_sums(p * np.log2(p), occupied)
    return out


def sample_entropy(x, m: int = 2, r_factor: float = 0.2) -> float:
    """Sample entropy: -ln(A/B) where B counts ordered template pairs of
    length m within Chebyshev distance r = r_factor * std(x) (self-matches
    excluded) and A counts the same pairs extended to length m+1.

    Both template sets are indexed over [0, n-m) so A and B draw from the
    same pairs. Caps keep the value finite: A = 0 maps to ln(B*(n-m-1)),
    and B = 0 maps to ln((n-m)*(n-m-1)). The std behind r is taken on the
    signal scaled by a power of two where its squares overflow, which is
    exact, so r is finite and every pair is tested against the signal's own
    tolerance.

    Only pairs whose first coordinates lie within r can match, so templates
    are sorted by their first coordinate and each is tested against the
    later-sorted templates of its window (Manis et al. 2018). Every such
    pair is tested with the same float comparisons as an all-pairs loop,
    so A and B are the same integers.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < m + 2:
        raise DataError(f"sample_entropy needs a signal of at least {m + 2} samples, "
                        f"got shape {arr.shape}")
    n = arr.size
    with np.errstate(over="ignore", invalid="ignore"):
        std = arr.std()
    if not np.isfinite(std):
        scaled, exponent = _unit_scale(arr[None])
        std = np.ldexp(scaled.std(), exponent[0])
    r = r_factor * std
    n_m = n - m
    order = np.argsort(arr[:n_m], kind="stable")
    keys = arr[order]
    # The window of sorted position p ends at the first key above
    # keys[p] + fl(r * c), c = fl(1 + 1e-12); it must hold every later key
    # keys[q] with fl(keys[q] - keys[p]) <= r. The exact difference is
    # d = keys[q] - keys[p]. If fl(d) is normal, d <= r / (1 - 2**-53)
    # < r * c * (1 - 2**-53) <= fl(r * c). If fl(d) is subnormal or zero, d
    # is exact (gradual underflow), so d <= r <= fl(r * c). Either way
    # keys[p] + fl(r * c) >= keys[p] + d = keys[q], and rounding is
    # monotonic and keys[q] a float, so the rounded sum is >= keys[q] too. A
    # sum that overflows to inf, or an r that is inf or NaN, only widens the
    # window, and a window too wide costs time, never a count.
    after = np.arange(1, n_m + 1)
    ends = np.searchsorted(keys, keys + r * (1 + 1e-12), side="right")
    counts = np.maximum(ends - after, 0)
    # candidate pairs numbered in sorted-row order; row p holds pair numbers
    # [stops[p] - counts[p], stops[p]), its k-th pair being (p, p + 1 + k)
    stops = np.cumsum(counts)
    firsts = stops - counts
    total = int(stops[-1])
    a = 0
    b = 0
    for lo in range(0, total, SAMPEN_BLOCK):
        hi = min(lo + SAMPEN_BLOCK, total)
        p0 = int(np.searchsorted(stops, lo, side="right"))
        p1 = int(np.searchsorted(stops, hi - 1, side="right")) + 1
        rows = np.repeat(np.arange(p0, p1),
                         np.minimum(stops[p0:p1], hi) - np.maximum(firsts[p0:p1], lo))
        i = order[rows]
        j = order[np.arange(lo, hi) - firsts[rows] + after[rows]]
        # |arr[i] - arr[j]| is the loop's value whichever index is smaller; a
        # difference that overflows to inf exceeds r either way
        with np.errstate(over="ignore"):
            d = np.abs(arr[i] - arr[j])
            for k in range(1, m):
                np.maximum(d, np.abs(arr[i + k] - arr[j + k]), out=d)
            b += int(np.count_nonzero(d <= r))
            np.maximum(d, np.abs(arr[i + m] - arr[j + m]), out=d)
        a += int(np.count_nonzero(d <= r))
    # counts above cover each unordered pair once; ordered pairs double both
    a *= 2
    b *= 2
    if b == 0:
        return float(np.log(n_m * (n_m - 1)))
    if a == 0:
        return float(np.log(b * (n_m - 1)))
    return float(-np.log(a / b) + 0.0)


@_per_row(MIN_STRATUM_LENGTH, "hurst")
def hurst_exponent(x) -> float | np.ndarray:
    """Rescaled-range estimate of the Hurst exponent.

    The signal is split into non-overlapping windows of dyadic sizes
    8..n/2; each window contributes R/S where R is the range of the
    cumulative mean-adjusted sum and S the window's standard deviation
    (constant windows, whose max equals their min, are skipped). The slope
    of log(R/S) against log(size) is clamped to [0, 1]; if no window size
    yields a valid average the neutral 0.5 is returned, and a fit through an
    inf or NaN log(R/S) is NaN, as is a row with a window whose std
    overflows, which is then taken at a rescale (see _per_row). A block's
    rows have their windows of one size taken at once, then one
    least-squares fit for all rows with the same usable sizes.
    """
    rows, n = x.shape
    log_sizes, log_rs, usable = [], [], []
    overflow = np.zeros(rows, dtype=bool)
    w = 8
    while w <= n // 2:
        windows = x[:, : (n // w) * w].reshape(rows, -1, w)
        centered = windows - windows.mean(axis=2, keepdims=True)
        z = np.cumsum(centered, axis=2)
        stds = np.sqrt(np.mean(centered * centered, axis=2))  # windows.std(axis=2)
        overflow |= ~np.isfinite(stds).all(axis=1)
        # a constant window whose mean rounds has a std above 0: skip it by its span
        valid = (np.ptp(windows, axis=2) > 0.0) & (stds > 0.0)
        ratios = (z.max(axis=2) - z.min(axis=2)) / np.where(valid, stds, 1.0)
        kept = valid.sum(axis=1)
        log_sizes.append(np.log(w))
        log_rs.append(np.log(_row_sums(ratios, valid) / np.maximum(kept, 1),
                             out=np.zeros(rows), where=kept > 0))
        usable.append(kept > 0)
        w *= 2
    log_sizes, log_rs, usable = np.array(log_sizes), np.array(log_rs), np.array(usable)
    out = np.full(rows, 0.5)
    fitted = usable.sum(axis=0) >= 2
    # a fit through an inf or NaN log(R/S) is NaN, and in a shared fit it
    # would spoil the other rows' slopes too
    spoilt = overflow | (fitted & ~np.where(usable, np.isfinite(log_rs), True).all(axis=0))
    out[spoilt] = np.nan
    fitted = np.flatnonzero(fitted & ~spoilt)
    sets = (1 << np.arange(len(log_sizes))) @ usable  # each row's usable sizes as bits
    for bits in np.unique(sets[fitted]):
        members = fitted[sets[fitted] == bits]
        sizes = usable[:, members[0]]
        slope = np.polyfit(log_sizes[sizes], log_rs[sizes][:, members], 1)[0]
        # min(max(slope, 0.0), 1.0), which keeps a NaN or -0.0 slope
        slope = np.where(slope < 0.0, 0.0, slope)
        out[members] = np.where(slope > 1.0, 1.0, slope)
    return out


@_per_row(2, "fluctuation_index")
def fluctuation_index(x) -> float | np.ndarray:
    """Mean absolute first difference."""
    return np.mean(np.abs(np.diff(x, axis=1)), axis=1)


@_per_row(MIN_STRATUM_LENGTH, rescale=False)
def stratum_features(x) -> dict:
    """All 15 features of a stratum keyed by feature name. Each feature's
    function takes the whole block, but sample_entropy one row at a time;
    each is looked up on the module at every call, and each takes its own
    values that overflow at a rescale."""
    out = basic_stats(x)
    out.update(quartiles(x))
    out["shannon_entropy"] = shannon_entropy(x)
    out["hurst"] = hurst_exponent(x)
    out["fluctuation_index"] = fluctuation_index(x)
    out["sample_entropy"] = np.array([sample_entropy(row) for row in x])
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Channels as rows, features as named columns, one label per row."""

    names: tuple
    values: np.ndarray
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        if values.ndim != 2 or values.shape[1] != len(self.names):
            raise DataError(
                f"values of shape {values.shape} do not match {len(self.names)} feature names"
            )
        if labels.shape != (values.shape[0],):
            raise DataError("one label per row is required")
        if len(set(self.names)) != len(self.names):
            raise DataError("feature names must be unique")
        if not np.all(np.isfinite(values)):
            raise DataError("feature values must be finite")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]

    def select(self, names) -> "FeatureMatrix":
        idx = [self.names.index(n) for n in names]
        return FeatureMatrix(names=tuple(names), values=self.values[:, idx], labels=self.labels)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(self.names) + ["label"])
            for row, label in zip(self.values, self.labels):
                writer.writerow([format(v, ".12g") for v in row] + [int(label)])

    @classmethod
    def from_csv(cls, path) -> "FeatureMatrix":
        """Read what to_csv wrote; faults name the file and line. Labels are 0 or 1, both occur."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not header or header[-1] != "label":
                raise DataError(f"{path}: the first line must be a header ending in 'label'")
            names = tuple(header[:-1])
            if len(set(names)) != len(names):
                raise DataError(f"{path}: feature names must be unique")
            values = []
            labels = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                try:
                    values.append([float(v) for v in row[:-1]])
                    labels.append(int(row[-1]))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if labels[-1] not in (0, 1):
                    raise DataError(f"{path}:{lineno}: label {labels[-1]} is not 0 or 1")
                if not all(map(math.isfinite, values[-1])):
                    col = next(i for i, v in enumerate(values[-1]) if not math.isfinite(v))
                    raise DataError(f"{path}:{lineno}: {names[col]} is {values[-1][col]}; "
                                    "feature values must be finite")
        if set(labels) != {0, 1}:
            raise DataError(f"{path}: rows of label 0 and of label 1 are needed, "
                            f"got labels {sorted(set(labels))}")
        return cls(names=names, values=np.array(values), labels=np.array(labels))


def feature_names(n_strata: int) -> tuple:
    """Names of the values of a feature row over n_strata strata, in row
    order: stratum by stratum from 1, FEATURE_ORDER within each."""
    return tuple(f"s{i}_{feature}" for i in range(1, n_strata + 1) for feature in FEATURE_ORDER)


def extract_vector(channels, sizes) -> np.ndarray:
    """Feature rows of channels that share a cut into strata of the given
    sizes, one row per channel: 15 float64 values per stratum, named by
    feature_names(len(sizes)). Each stratum of all channels is one
    (channels, samples) block, handed to stratum_features in row chunks of
    at most _BLOCK_ELEMENTS samples."""
    channels = list(channels)
    if not channels:
        raise DataError("feature extraction needs at least one channel")
    width = len(FEATURE_ORDER)
    rows = np.empty((len(channels), width * len(sizes)))
    for i, block in enumerate(_strata(channels, sizes)):
        if block.shape[1] < MIN_STRATUM_LENGTH:
            raise ConfigError(
                f"stratum {i} of {block.shape[1]} samples is shorter than {MIN_STRATUM_LENGTH} "
                "samples; lower n_strata or raise the confidence level"
            )
        step = max(1, _BLOCK_ELEMENTS // block.shape[1])
        for lo in range(0, len(channels), step):
            feats = stratum_features(block[lo:lo + step])
            rows[lo:lo + step, i * width:(i + 1) * width] = np.column_stack(
                [feats[feature] for feature in FEATURE_ORDER])
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"channel {channels[r].id!r}: feature {feature_names(len(sizes))[c]} "
                        f"is {rows[r, c]}; feature values must be finite")
    return rows
