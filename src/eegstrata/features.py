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
from .sampler import UNIT_FLOOR, _strata, _unit_scale

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
# most cells on a side of sample_entropy's grid, whatever the span over r
SAMPEN_CELLS = 1 << 20
# extract_vector hands stratum_features at most this many samples of a stratum
# at once, (channels, samples), so each of their temporaries stays near
# 512 KB whatever the number of channels
_BLOCK_ELEMENTS = 1 << 16


# features that do not change when a row is scaled
SCALE_FREE = frozenset({"skewness", "kurtosis", "shannon_entropy", "hurst", "sample_entropy"})


def _per_row(min_len: int, name: str = ""):
    """Turn a kernel over the rows of a (rows, samples) block x into the
    feature function of a signal or a block, with at least min_len samples
    a row: for a block it returns the kernel's float64 values, one per row,
    and for a signal those of its one-row block as Python floats. The kernel
    returns a dict of features by name or the values of the one feature
    name, and numpy does not warn while it runs.

    A value that comes out inf or NaN, as a direct form that overflows does,
    is taken again on its row under sampler._unit_scale and scaled back,
    unless its feature is in SCALE_FREE; every value that came out finite
    stays as it is. A value whose true size exceeds float64 stays inf."""
    def wrap(kernel):
        def run(block):
            out = kernel(block)
            return out if isinstance(out, dict) else {name: out}

        @functools.wraps(kernel)
        def feature(x):
            arr = np.asarray(x, dtype=np.float64)
            if arr.ndim not in (1, 2) or arr.shape[-1] < min_len or not arr.size:
                raise DataError(f"{kernel.__name__} needs a signal of at least {min_len} samples "
                                f"or a (rows, samples) block of such rows, got shape {arr.shape}")
            block = np.atleast_2d(arr)
            with np.errstate(all="ignore"):
                out = run(block)
                bad = np.flatnonzero(~np.isfinite(list(out.values())).all(axis=0))
                if bad.size:
                    scaled, exponent = _unit_scale(block[bad], axis=1)
                    for key, again in run(scaled).items():
                        redo = ~np.isfinite(out[key][bad])
                        out[key][bad[redo]] = (again[redo] if key in SCALE_FREE
                                               else np.ldexp(again[redo], exponent[redo, 0]))
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
def shannon_entropy(x) -> float | np.ndarray:
    """Entropy in bits of the equal-width ENTROPY_BINS-bin histogram over [min, max].

    Bounded by log2(ENTROPY_BINS); a constant signal returns 0, and one
    whose span overflows NaN, which is then taken at a rescale (see
    _per_row). Samples are binned by np.histogram's rule for uniform bins:
    the index from the span, the top bin taking the maximum, then one bin
    down or up where the index disagrees with the np.linspace edges.
    """
    bins = ENTROPY_BINS
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


def sample_entropy(x, *, r_factor: float = 0.2) -> float:
    """Sample entropy: -ln(A/B) where B counts ordered template pairs of
    length 2 within Chebyshev distance r = r_factor * std(x) (self-matches
    excluded) and A counts the same pairs extended to length 3.

    Both template sets are indexed over [0, n-2) so A and B draw from the
    same pairs. Caps keep the value finite: A = 0 maps to ln(B*(n-3)),
    and B = 0 maps to ln((n-2)*(n-3)). The std behind r is taken again
    under sampler._unit_scale where its squares overflow or it is below
    UNIT_FLOOR, so every pair is tested against the signal's own tolerance.

    Only templates in neighbouring cells of a grid of side w >= r over
    their two values can match (Bentley, Stanat & Williams 1977): each is
    tested against the later-sorted ones of its cell and the four cells
    after it, with the same float comparisons as an all-pairs loop, so A
    and B are the same integers.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 4 or not np.isfinite(arr).all():
        raise DataError(f"sample_entropy needs 4 or more finite samples, got shape {arr.shape}")
    n_m = arr.size - 2
    scaled, exponent = _unit_scale(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        std = arr.std()
    if not UNIT_FLOOR <= std < np.inf:
        std = np.ldexp(scaled.std(), exponent)
    r = r_factor * std
    low = scaled.min()
    span = scaled.max() - low
    # A pair with fl(|d|) <= r, d = x[i] - x[j], has cells at most 1 apart on
    # each axis. Let u = 2**-53, s = x * 2**-e scaled, r' = r * 2**-e,
    # t = fl(s - low) and K = SAMPEN_CELLS.
    # - |d| <= r / (1 - u), as a normal fl(d) is within u|d| of d and a
    #   subnormal d is exact. Scaling is exact, but a value or r' that
    #   underflows moves by 2**-1075 at most: |s[i] - s[j]| <= r' / (1 - u)
    #   + 2**-1073. That is below (1 - 2**-31) w, by w's factor 1 + 1e-6
    #   where r' >= 2**-1040, else by w >= span / K >= 2**-74, as a span
    #   above 0 is at least the gap 2**-54 next to the largest |s| >= 1/2.
    # - t is within u * span of s - low, and fl(t / w) within u * K of t / w
    #   as t <= span <= K * w, so two quotients differ by at most
    #   |s[i] - s[j]| / w + 2**-31 <= 1, and floor(a) - floor(b) < a - b + 1 <= 2.
    # One cell where r' overflows (w = inf) or the signal is constant; max() skips a NaN r'.
    with np.errstate(over="ignore"):
        w = max(span / SAMPEN_CELLS, np.ldexp(r, -exponent) * (1 + 1e-6)) or 1.0
    cells = np.floor((scaled[:-1] - low) / w).astype(np.int64)
    # column cells.max() + 1 stays empty, so the neighbours (c1, c2 + 1) and (c1 + 1,
    # c2 - 1..c2 + 1) of key c1 * width + c2 are keys key + 1 and key + width - 1..key + width + 1
    width = int(cells.max()) + 2
    keys = cells[:-1] * width + cells[1:]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    c0, c1, c2 = arr[order], arr[order + 1], arr[order + 2]
    # sorted position p is tested against the runs of sorted positions
    # [starts[g], ends[g]) for g = p and g = p + n_m; run g holds candidate
    # pair numbers [firsts[g], stops[g]), pair number k being (g % n_m, k + shifts[g])
    starts = np.concatenate([np.arange(1, n_m + 1), np.searchsorted(keys, keys + (width - 1))])
    ends = np.searchsorted(keys, np.concatenate([keys + 1, keys + (width + 1)]), side="right")
    counts = ends - starts
    stops = np.cumsum(counts)
    firsts = stops - counts
    shifts = starts - firsts
    total = int(stops[-1])
    a = b = 0
    for lo in range(0, total, SAMPEN_BLOCK):
        hi = min(lo + SAMPEN_BLOCK, total)
        g0 = int(np.searchsorted(stops, lo, side="right"))
        g1 = int(np.searchsorted(stops, hi - 1, side="right")) + 1
        lens = np.minimum(stops[g0:g1], hi) - np.maximum(firsts[g0:g1], lo)
        p = np.repeat(np.arange(g0, g1) % n_m, lens)
        q = np.arange(lo, hi) + np.repeat(shifts[g0:g1], lens)
        # |x[i] - x[j]| is the loop's value whichever index is smaller; a
        # difference that overflows to inf exceeds r either way
        with np.errstate(over="ignore"):
            d = np.abs(c0[p] - c0[q])
            np.maximum(d, np.abs(c1[p] - c1[q]), out=d)
            b += int(np.count_nonzero(d <= r))
            np.maximum(d, np.abs(c2[p] - c2[q]), out=d)
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


def stratum_features(x) -> dict:
    """All 15 features of a signal or block keyed by feature name. Each
    feature's function takes the whole input, but sample_entropy one row at
    a time; each is looked up on the module at every call, checks the input
    and takes its own values that overflow at a rescale."""
    out = basic_stats(x)
    out.update(quartiles(x))
    out["shannon_entropy"] = shannon_entropy(x)
    out["hurst"] = hurst_exponent(x)
    out["fluctuation_index"] = fluctuation_index(x)
    out["sample_entropy"] = (sample_entropy(x) if np.ndim(x) == 1
                             else np.array([sample_entropy(row) for row in x]))
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
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not a UTF-8 CSV file ({exc})") from None
        header = rows[0] if rows else []
        if not header or header[-1] != "label":
            raise DataError(f"{path}: the first line must be a header ending in 'label'")
        names = tuple(header[:-1])
        if len(set(names)) != len(names):
            raise DataError(f"{path}: feature names must be unique")
        values, labels = [], []
        for lineno, row in enumerate(rows[1:], start=2):
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
