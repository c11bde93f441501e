"""Per-stratum statistical features and feature-row assembly.

Fifteen features are computed per stratum in a fixed order; a channel cut
into k strata yields a row of 15*k values, named by feature_names(k)
("s1_min" .. "s4_kurtosis" for k=4). Degenerate inputs (constant strata)
map to finite documented values instead of NaN so downstream selection
never sees missing data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Channel
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


def _as_floats(x, min_len: int, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{what} expects a 1-d sequence, got shape {arr.shape}")
    if arr.size < min_len:
        raise DataError(f"{what} needs at least {min_len} samples, got {arr.size}")
    return arr


def basic_stats(x) -> dict:
    """Min, max, mean, median, mode, std (n-1), skewness, kurtosis.

    Skewness is g1 = m3 / m2^1.5 and kurtosis is m4 / m2^2 (Pearson, so a
    normal distribution sits near 3), both from population moments. A
    constant input has m2 = 0; both ratios are defined as 0 in that case.
    The mode is the most frequent value after rounding to 6 decimals,
    ties broken toward the smallest value.
    """
    arr = _as_floats(x, 2, "basic_stats")
    centered = arr - arr.mean()
    m2 = np.mean(centered ** 2)
    if m2 > 0.0:
        skewness = np.mean(centered ** 3) / m2 ** 1.5
        kurtosis = np.mean(centered ** 4) / m2 ** 2
    else:
        skewness = 0.0
        kurtosis = 0.0
    rounded = np.round(arr, MODE_DECIMALS)
    uniq, counts = np.unique(rounded, return_counts=True)
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "mode": float(uniq[np.argmax(counts)]),
        "std": float(arr.std(ddof=1)),
        "skewness": float(skewness),
        "kurtosis": float(kurtosis),
    }


def quartiles(x) -> dict:
    """First and third quartile by linear interpolation at position (n-1)*q,
    plus their difference."""
    arr = _as_floats(x, 4, "quartiles")
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    return {"q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def shannon_entropy(x, bins: int = ENTROPY_BINS) -> float:
    """Entropy in bits of the equal-width histogram over [min, max].

    Bounded by log2(bins); a constant signal has no spread and returns 0.
    """
    arr = _as_floats(x, 2, "shannon_entropy")
    lo, hi = arr.min(), arr.max()
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(arr, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / arr.size
    return float(-(p * np.log2(p)).sum())


def sample_entropy(x, m: int = 2, r_factor: float = 0.2) -> float:
    """Sample entropy: -ln(A/B) where B counts ordered template pairs of
    length m within Chebyshev distance r = r_factor * std(x) (self-matches
    excluded) and A counts the same pairs extended to length m+1.

    Both template sets are indexed over [0, n-m) so A and B draw from the
    same pairs. Caps keep the value finite: A = 0 maps to ln(B*(n-m-1)),
    and B = 0 maps to ln((n-m)*(n-m-1)).

    Only pairs whose first coordinates lie within r can match, so templates
    are sorted by their first coordinate and each is tested against the
    later-sorted templates of its window (Manis et al. 2018). Every such
    pair is tested with the same float comparisons as an all-pairs loop,
    so A and B are the same integers.
    """
    arr = _as_floats(x, m + 2, "sample_entropy")
    n = arr.size
    r = r_factor * arr.std()
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
        # |arr[i] - arr[j]| is the loop's value whichever index is smaller
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


def hurst_exponent(x) -> float:
    """Rescaled-range estimate of the Hurst exponent.

    The signal is split into non-overlapping windows of dyadic sizes
    8..n/2; each window contributes R/S where R is the range of the
    cumulative mean-adjusted sum and S the window's standard deviation
    (constant windows are skipped). The slope of log(R/S) against
    log(size) is clamped to [0, 1]; if no window size yields a valid
    average the neutral 0.5 is returned.
    """
    arr = _as_floats(x, MIN_STRATUM_LENGTH, "hurst_exponent")
    n = arr.size
    log_sizes = []
    log_rs = []
    w = 8
    while w <= n // 2:
        chunks = arr[: (n // w) * w].reshape(-1, w)
        means = chunks.mean(axis=1, keepdims=True)
        z = np.cumsum(chunks - means, axis=1)
        ranges = z.max(axis=1) - z.min(axis=1)
        stds = chunks.std(axis=1)
        valid = stds > 0.0
        if np.any(valid):
            log_sizes.append(np.log(w))
            log_rs.append(np.log(np.mean(ranges[valid] / stds[valid])))
        w *= 2
    if len(log_sizes) < 2:
        return 0.5
    slope = np.polyfit(log_sizes, log_rs, 1)[0]
    return float(min(max(slope, 0.0), 1.0))


def fluctuation_index(x) -> float:
    """Mean absolute first difference."""
    arr = _as_floats(x, 2, "fluctuation_index")
    return float(np.mean(np.abs(np.diff(arr))))


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


def stratum_features(x) -> dict:
    """All 15 features of one stratum keyed by feature name."""
    out = basic_stats(x)
    out.update(quartiles(x))
    out["shannon_entropy"] = shannon_entropy(x)
    out["hurst"] = hurst_exponent(x)
    out["fluctuation_index"] = fluctuation_index(x)
    out["sample_entropy"] = sample_entropy(x)
    return out


def feature_names(n_strata: int) -> tuple:
    """Names of the values of a feature row over n_strata strata, in row
    order: stratum by stratum from 1, FEATURE_ORDER within each."""
    return tuple(f"s{i}_{feature}" for i in range(1, n_strata + 1) for feature in FEATURE_ORDER)


def extract_vector(channel: Channel, sizes) -> np.ndarray:
    """Feature row of one channel cut into strata of the given sizes: 15
    float64 values per stratum, named by feature_names(len(sizes))."""
    values = []
    for i, (stratum,) in enumerate(_strata([channel], sizes)):
        if stratum.size < MIN_STRATUM_LENGTH:
            raise ConfigError(
                f"stratum {i} of {stratum.size} samples is shorter than {MIN_STRATUM_LENGTH} "
                "samples; lower n_strata or raise the confidence level"
            )
        # finite samples can still overflow the moments; the check below
        # names the feature that came out inf or NaN, so numpy need not warn
        with np.errstate(all="ignore"):
            feats = stratum_features(stratum)
        values.extend(feats[feature] for feature in FEATURE_ORDER)
    row = np.array(values, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(row))
    if bad.size:
        raise DataError(f"channel {channel.id!r}: feature {feature_names(len(sizes))[bad[0]]} "
                        f"is {row[bad[0]]}; feature values must be finite")
    return row
