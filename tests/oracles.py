"""Independent reference implementations used to cross-check the library.

Everything here is written from the textbook definition with plain loops,
no code shared with the package, except former package bodies kept as
references for their faster forms: best_first_search_reference, the search
with from-scratch merit, best_first_search_heap, the running-sum search
that pushes every child onto one heap, load_channel_reference, the per-line channel
parse, sample_entropy_reference, the all-pairs sample entropy loop,
stratum_features_reference and the *_reference feature bodies it calls,
one signal at a time where the package takes a block of channels,
grow_reference and tree_predict_reference, the recursive one-tree-at-a-time
forest grower and its predictor, and allocate_reference, the leftover of an
allocation handed out one sample per pass. raw_halves, bounded_reference and
choice_reference read a bit generator's words as numpy's Generator does for
integers and choice, one 32-bit half at a time, and
seed_sequence_state_reference, pcg64_seed_reference and pcg64_words_reference
make a spawned SeedSequence's state and a PCG64's words one step at a time.
Slow on purpose; only tests import this.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np


def moment_stats(x):
    """Mean, sample std, population-moment skewness g1 and kurtosis m4/m2^2."""
    x = [float(v) for v in x]
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    var_sample = sum((v - mean) ** 2 for v in x) / (n - 1)
    skew = m3 / m2 ** 1.5 if m2 > 0 else 0.0
    kurt = m4 / m2 ** 2 if m2 > 0 else 0.0
    return {"mean": mean, "std": math.sqrt(var_sample), "skewness": skew, "kurtosis": kurt}


def quantile_linear(x, q):
    """Linear interpolation at position (n-1)*q of the sorted values."""
    s = sorted(float(v) for v in x)
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def shannon_entropy_direct(x, bins=64):
    x = [float(v) for v in x]
    lo, hi = min(x), max(x)
    if lo == hi:
        return 0.0
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in x:
        k = int((v - lo) / width)
        if k == bins:  # rightmost edge belongs to the last bin
            k = bins - 1
        counts[k] += 1
    h = 0.0
    for c in counts:
        if c:
            p = c / len(x)
            h -= p * math.log2(p)
    return h


def sample_entropy_slow(x, m=2, r_factor=0.2):
    """Triple-loop sample entropy, ordered template pairs over [0, n-m),
    Chebyshev distance, with the same documented caps as the library."""
    x = [float(v) for v in x]
    n = len(x)
    mean = sum(x) / n
    r = r_factor * math.sqrt(sum((v - mean) ** 2 for v in x) / n)
    n_m = n - m
    a = 0
    b = 0
    for i in range(n_m):
        for j in range(n_m):
            if i == j:
                continue
            dm = max(abs(x[i + k] - x[j + k]) for k in range(m))
            if dm <= r:
                b += 1
                if max(dm, abs(x[i + m] - x[j + m])) <= r:
                    a += 1
    if b == 0:
        return math.log(n_m * (n_m - 1))
    if a == 0:
        return math.log(b * (n_m - 1))
    return -math.log(a / b)


def _std_at_rescale(arr):
    """arr.std(), or where that is not finite, the std of arr scaled by a
    power of two into (-1, 1), scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        std = arr.std()
        if not np.isfinite(std):
            _, exponent = np.frexp(np.abs(arr).max())
            std = np.ldexp(np.ldexp(arr, -exponent).std(), exponent)
    return std


def sample_entropy_reference(x, m=2, r_factor=0.2):
    """The package's sample entropy before its candidate-pair kernels (a
    sort window, then a grid of cells): every template pair i < j over
    [0, n-m), compared with the same float expressions, so both must give
    the same counts and value; with one later rule: a std that overflows is
    taken at a power-of-two rescale."""
    arr = np.asarray(x, dtype=np.float64)
    n = arr.size
    r = r_factor * _std_at_rescale(arr)
    n_m = n - m
    a = 0
    b = 0
    for i in range(n_m - 1):
        d = np.abs(arr[i] - arr[i + 1:n_m])
        for k in range(1, m):
            np.maximum(d, np.abs(arr[i + k] - arr[i + 1 + k:n_m + k]), out=d)
        b += int(np.count_nonzero(d <= r))
        np.maximum(d, np.abs(arr[i + m] - arr[i + 1 + m:n_m + m]), out=d)
        a += int(np.count_nonzero(d <= r))
    # counts above cover j > i only; ordered pairs double both, ratio intact
    a *= 2
    b *= 2
    if b == 0:
        return float(np.log(n_m * (n_m - 1)))
    if a == 0:
        return float(np.log(b * (n_m - 1)))
    return float(-np.log(a / b) + 0.0)


def basic_stats_reference(x):
    """The package's basic_stats on one signal before its array kernels,
    with two later rules: a constant signal (max equal to min) has std,
    skewness and kurtosis 0 even where its mean rounds, and where either
    ratio of a varying signal comes out inf or NaN, as where its m2 is 0,
    both are NaN."""
    arr = np.asarray(x, dtype=np.float64)
    centered = arr - arr.mean()
    m2 = np.mean(centered ** 2)
    if np.ptp(arr) == 0.0:
        skewness = kurtosis = 0.0
    else:
        skewness = np.mean(centered ** 3) / m2 ** 1.5
        kurtosis = np.mean(centered ** 4) / m2 ** 2
        if not np.isfinite(skewness + kurtosis):
            skewness = kurtosis = np.nan
    rounded = np.round(arr, 6)
    uniq, counts = np.unique(rounded, return_counts=True)
    return {
        "min": float(arr.min()),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "mode": float(uniq[np.argmax(counts)]),
        "std": float(arr.std(ddof=1)) if np.ptp(arr) > 0.0 else 0.0,
        "skewness": float(skewness),
        "kurtosis": float(kurtosis),
    }


def quartiles_reference(x):
    arr = np.asarray(x, dtype=np.float64)
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    return {"q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def shannon_entropy_reference(x, bins=64):
    arr = np.asarray(x, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    if lo == hi:
        return 0.0
    with np.errstate(over="ignore"):
        if np.isinf(hi - lo):  # np.histogram refuses a span that overflows; it is NaN
            return np.nan
    counts, _ = np.histogram(arr, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / arr.size
    return float(-(p * np.log2(p)).sum())


def hurst_reference(x):
    """The package's hurst_exponent on one signal before its array kernel,
    with two later rules: a constant window (max equal to min) is skipped
    even where its mean rounds and its std comes out above 0, and a signal
    with a window whose std overflows is NaN."""
    arr = np.asarray(x, dtype=np.float64)
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
        if not np.isfinite(stds).all():
            return np.nan
        valid = (np.ptp(chunks, axis=1) > 0.0) & (stds > 0.0)
        if np.any(valid):
            log_sizes.append(np.log(w))
            log_rs.append(np.log(np.mean(ranges[valid] / stds[valid])))
        w *= 2
    if len(log_sizes) < 2:
        return 0.5
    slope = np.polyfit(log_sizes, log_rs, 1)[0]
    return float(min(max(slope, 0.0), 1.0))


def fluctuation_index_reference(x):
    arr = np.asarray(x, dtype=np.float64)
    return float(np.mean(np.abs(np.diff(arr))))


# the features that do not change when a signal is scaled
SCALE_FREE = {"skewness", "kurtosis", "shannon_entropy", "hurst"}


def _reference_features(arr):
    out = basic_stats_reference(arr)
    out.update(quartiles_reference(arr))
    out["shannon_entropy"] = shannon_entropy_reference(arr)
    out["hurst"] = hurst_reference(arr)
    out["fluctuation_index"] = fluctuation_index_reference(arr)
    return out


def stratum_features_reference(x, sample_entropy):
    """All 15 features of one stratum from the per-signal references, with
    the given sample entropy, which has its own reference above; with one
    later rule: a reference feature that comes out inf or NaN is taken again
    on the stratum scaled by a power of two into (-1, 1) and, unless it is
    in SCALE_FREE, scaled back."""
    arr = np.asarray(x, dtype=np.float64)
    out = _reference_features(arr)
    if not np.isfinite(list(out.values())).all():
        _, exponent = np.frexp(np.abs(arr).max())
        again = _reference_features(np.ldexp(arr, -exponent))
        for key, value in out.items():
            if not np.isfinite(value):
                out[key] = (again[key] if key in SCALE_FREE
                            else float(np.ldexp(again[key], exponent)))
    out["sample_entropy"] = sample_entropy(x)
    return out


def fluctuation_index_direct(x):
    x = [float(v) for v in x]
    return sum(abs(x[i + 1] - x[i]) for i in range(len(x) - 1)) / (len(x) - 1)


def pearson_direct(a, b):
    """Textbook n*Sxy form of the sample correlation."""
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    n = len(a)
    sx, sy = sum(a), sum(b)
    sxy = sum(u * v for u, v in zip(a, b))
    sxx = sum(u * u for u in a)
    syy = sum(v * v for v in b)
    return (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))


def merit_direct(indices, feature_class, feature_feature):
    """CFS merit from raw correlation tables."""
    k = len(indices)
    r_cf = sum(abs(feature_class[i]) for i in indices) / k
    if k == 1:
        r_ff = 0.0
    else:
        pairs = list(itertools.combinations(indices, 2))
        r_ff = sum(abs(feature_feature[i][j]) for i, j in pairs) / len(pairs)
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def exhaustive_best_subset(feature_class, feature_feature):
    """Argmax of merit over every non-empty subset; merit ties resolve to
    the lexicographically smallest index tuple."""
    d = len(feature_class)
    best = None
    best_merit = -1.0
    for size in range(1, d + 1):
        for combo in itertools.combinations(range(d), size):
            merit = merit_direct(combo, feature_class, feature_feature)
            if merit > best_merit or (merit == best_merit and combo < best):
                best = combo
                best_merit = merit
    return best, best_merit


def _merit_by_indices_reference(idx, ff, fc):
    """CFS merit of a non-empty index subset, rebuilt from scratch."""
    idx = list(idx)
    k = len(idx)
    r_cf = np.abs(fc[idx]).mean()
    if k == 1:
        r_ff = 0.0
    else:
        sub = np.abs(ff[np.ix_(idx, idx)])
        r_ff = (sub.sum() - k) / (k * (k - 1))
    return float(k * r_cf / np.sqrt(k + k * (k - 1) * r_ff))


def best_first_search_reference(ff, fc, stall_limit=5):
    """Best-first search with every child subset's merit rebuilt with np.ix_:
    the reference for selection.best_first_search, with the same heap order,
    tie rule, stall rule and empty-set fallback, and no argument checks;
    returns the chosen column indices."""
    d = len(fc)
    best_idx = ()
    best_merit = 0.0
    open_heap = [(-0.0, ())]
    seen = {()}
    stall = 0
    while open_heap:
        _, current = heapq.heappop(open_heap)
        improved = False
        for f in range(d):
            if f in current:
                continue
            child = tuple(sorted(current + (f,)))
            if child in seen:
                continue
            seen.add(child)
            merit = _merit_by_indices_reference(child, ff, fc)
            heapq.heappush(open_heap, (-merit, child))
            if merit > best_merit or (merit == best_merit and child < best_idx):
                best_idx = child
                best_merit = merit
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall_limit is not None and stall >= stall_limit:
                break

    if not best_idx:
        best_idx = (int(np.argmax(np.abs(fc))),)
    return best_idx


def best_first_search_heap(ff, fc, stall_limit=5):
    """Best-first search with running-sum merit that pushes every new child
    onto one heap, as a sorted tuple kept in a set of seen subsets: the
    reference for selection.best_first_search, which must return the same
    subset, with no argument checks; returns the chosen column indices."""
    d = len(fc)
    abs_fc = np.abs(fc)
    abs_ff = np.abs(ff)
    best_idx = ()
    best_merit = 0.0
    open_heap = [(-0.0, (), 0.0, 0.0)]  # (-merit, subset, s_cf, s_ff)
    seen = {()}
    stall = 0
    while open_heap:
        _, current, s_cf, s_ff = heapq.heappop(open_heap)
        child_cf = s_cf + abs_fc
        child_ff = s_ff + 2.0 * abs_ff[list(current)].sum(axis=0)
        merits = (child_cf / np.sqrt(len(current) + 1 + child_ff)).tolist()
        child_cf, child_ff = child_cf.tolist(), child_ff.tolist()
        improved = False
        for f in range(d):
            if f in current:
                continue
            child = tuple(sorted(current + (f,)))
            if child in seen:
                continue
            seen.add(child)
            merit = merits[f]
            heapq.heappush(open_heap, (-merit, child, child_cf[f], child_ff[f]))
            if merit > best_merit or (merit == best_merit and child < best_idx):
                best_idx = child
                best_merit = merit
                improved = True
        if improved:
            stall = 0
        else:
            stall += 1
            if stall_limit is not None and stall >= stall_limit:
                break

    if not best_idx:
        best_idx = (int(np.argmax(abs_fc)),)
    return best_idx


def load_channel_reference(path):
    """Parse a channel file one line at a time with float(): the reference for
    corpus.load_channel. Returns the values, or raises ValueError holding the
    message load_channel's DataError must carry."""
    lines = path.read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError(f"channel file is empty: {path}")
    values = np.empty(len(lines), dtype=np.float64)
    for i, line in enumerate(lines):
        try:
            values[i] = float(line)
        except ValueError:
            raise ValueError(f"{path}: non-numeric value at line {i + 1}: {line.strip()!r}") from None
        if not np.isfinite(values[i]):
            raise ValueError(f"{path}: non-finite value at line {i + 1}: {line.strip()!r}")
    return values


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None  # leaf class votes

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(counts):
    total = counts.sum()
    p = counts / total
    return float(1.0 - (p ** 2).sum())


def _best_split(values, labels, feature_order):
    """Best (feature, threshold) by Gini decrease over the given features.

    Candidate thresholds are midpoints of consecutive distinct sorted
    values. Ties keep the first candidate in feature order, then in
    ascending threshold order. Returns None when no feature varies.
    """
    n = labels.size
    best = None
    best_gain = -1.0
    parent = _gini(np.bincount(labels, minlength=2))
    for f in feature_order:
        col = values[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        sorted_lab = labels[order]
        distinct = np.nonzero(np.diff(sorted_col))[0]
        if distinct.size == 0:
            continue
        ones = np.cumsum(sorted_lab == 1)
        left_n = distinct + 1
        left_ones = ones[distinct]
        left_zeros = left_n - left_ones
        right_n = n - left_n
        right_ones = ones[-1] - left_ones
        right_zeros = right_n - right_ones
        gini_l = 1.0 - ((left_zeros / left_n) ** 2 + (left_ones / left_n) ** 2)
        gini_r = 1.0 - ((right_zeros / right_n) ** 2 + (right_ones / right_n) ** 2)
        gain = parent - (left_n * gini_l + right_n * gini_r) / n
        pos = int(np.argmax(gain))
        if gain[pos] > best_gain:
            best_gain = float(gain[pos])
            cut = distinct[pos]
            best = (int(f), float((sorted_col[cut] + sorted_col[cut + 1]) / 2.0))
    return best


def grow_reference(values, labels, rng, max_features):
    """One forest tree grown recursively, node by node in preorder: the
    reference for the forest's batched grower. max_features is the number
    of candidate features drawn per node, or None for all of them in order."""
    counts = np.bincount(labels, minlength=2)
    if labels.size < 2 or counts.min() == 0:
        return TreeNode(counts=counts)
    d = values.shape[1]
    if max_features is None:
        feature_order = np.arange(d)
    else:
        feature_order = rng.choice(d, size=min(max_features, d), replace=False)
    split = _best_split(values, labels, feature_order)
    if split is None:
        return TreeNode(counts=counts)
    f, t = split
    mask = values[:, f] <= t
    return TreeNode(feature=f, threshold=t,
                    left=grow_reference(values[mask], labels[mask], rng, max_features),
                    right=grow_reference(values[~mask], labels[~mask], rng, max_features))


def raw_halves(bit_generator):
    """The 32-bit halves of a bit generator's raw 64-bit words, low half
    first, one word fetched at a time."""
    while True:
        word = int(bit_generator.random_raw())
        yield word % 2**32
        yield word // 2**32


def bounded_reference(halves, bound):
    """One integer in [0, bound) from the iterator of 32-bit halves, by
    Lemire's multiply-shift: take the high half of half * bound, and draw
    again while its low half falls below 2^32 mod bound. A bound of 1
    reads nothing."""
    if bound == 1:
        return 0
    while True:
        product = next(halves) * bound
        if product % 2**32 >= 2**32 % bound:
            return product // 2**32


def choice_reference(halves, d, k):
    """k of range(d) without replacement, as Generator.choice(d, k,
    replace=False) picks them for small k: Floyd's sample, where the draw
    for j = d - k, ..., d - 1 picks a value in [0, j], or j itself if that
    value is already picked, then a Fisher-Yates shuffle from the last
    position down."""
    picks = []
    for j in range(d - k, d):
        value = bounded_reference(halves, j + 1)
        picks.append(j if value in picks else value)
    for i in range(k - 1, 0, -1):
        j = bounded_reference(halves, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def seed_sequence_state_reference(entropy_words, spawn_key):
    """The pool of numpy's SeedSequence with the given 32-bit entropy words,
    low word first, and spawn key (spawn_key,), and its generate_state(4,
    np.uint64), one hash step at a time as numpy's bit_generator.pyx takes
    them."""
    hash_const = [0x43B0D7E5]

    def hashmix(value):
        value ^= hash_const[0]
        hash_const[0] = hash_const[0] * 0x931E8875 % 2**32
        value = value * hash_const[0] % 2**32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) % 2**32
        return result ^ (result >> 16)

    # a spawned sequence pads short entropy to the pool's 4 words
    entropy = list(entropy_words) + [0] * (4 - len(entropy_words)) + [spawn_key]
    pool = [hashmix(entropy[i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, len(entropy)):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))
    halves, const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED % 2**32
        value = value * const % 2**32
        halves.append(value ^ (value >> 16))
    return pool, [halves[i] + halves[i + 1] * 2**32 for i in range(0, 8, 2)]


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_seed_reference(state_words):
    """(state, increment) of PCG64 seeded with the four 64-bit words of a
    SeedSequence's generate_state: PCG's srandom_r with the first two
    words, high first, as initstate and the last two as initseq."""
    initstate = state_words[0] * 2**64 + state_words[1]
    inc = ((state_words[2] * 2**64 + state_words[3]) * 2 + 1) % 2**128
    state = inc  # one step from state 0
    state = (state + initstate) % 2**128
    return (state * _PCG64_MULTIPLIER + inc) % 2**128, inc


def pcg64_words_reference(state_words, start, count):
    """Raw words start to start + count of PCG64 seeded as
    pcg64_seed_reference does: each word steps the LCG, then takes the
    XSL-RR output of the new state, its two 64-bit halves xored and
    rotated right by the state's top 6 bits."""
    state, inc = pcg64_seed_reference(state_words)
    words = []
    for i in range(start + count):
        state = (state * _PCG64_MULTIPLIER + inc) % 2**128
        if i >= start:
            value, rotate = (state // 2**64) ^ (state % 2**64), state // 2**122
            words.append((value >> rotate | value << (64 - rotate)) % 2**64)
    return words


def tree_predict_reference(node, rows):
    """One tree's class votes for each row: the majority of its leaf."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    idx = np.arange(rows.shape[0])
    stack = [(node, idx)]
    while stack:
        nd, sel = stack.pop()
        if sel.size == 0:
            continue
        if nd.is_leaf:
            out[sel] = int(nd.counts[1] > nd.counts[0])
            continue
        mask = rows[sel, nd.feature] <= nd.threshold
        stack.append((nd.left, sel[mask]))
        stack.append((nd.right, sel[~mask]))
    return out


def allocate_reference(raw, caps, n_bar):
    """Floored shares of n_bar, capped, then the leftover handed out one
    sample per pass to the stratum with room whose raw share exceeds its
    count the most, ties to the lower index: the reference for the
    leftover step of sampler.allocate."""
    counts = np.minimum(np.floor(raw).astype(np.int64), caps)
    leftover = n_bar - int(counts.sum())
    while leftover > 0:
        room = counts < caps
        frac = np.where(room, raw - counts, -np.inf)
        pick = int(np.argmax(frac))
        counts[pick] += 1
        leftover -= 1
    return tuple(int(c) for c in counts)


def in_range_fraction_direct(values, lo, hi):
    values = [float(v) for v in values]
    return sum(1 for v in values if lo <= v <= hi) / len(values)


def knn_brute(train_x, train_y, query, k):
    """All-pairs distances, sorted by (distance, train index), majority vote
    with ties to the smaller label."""
    dists = []
    for i, row in enumerate(train_x):
        d = math.sqrt(sum((float(u) - float(v)) ** 2 for u, v in zip(row, query)))
        dists.append((d, i))
    dists.sort()
    votes = [train_y[i] for _, i in dists[:k]]
    ones = sum(votes)
    return 1 if ones > k - ones else 0


def nb_log_scores(train_x, train_y, query, var_floor=1e-9):
    """Direct Gaussian density log-scores per class."""
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y)
    scores = []
    for c in (0, 1):
        rows = train_x[train_y == c]
        prior = math.log(rows.shape[0] / train_x.shape[0])
        total = prior
        for j in range(train_x.shape[1]):
            col = rows[:, j]
            mu = col.mean()
            var = max(col.var(), var_floor)
            v = float(query[j])
            total += -0.5 * math.log(2 * math.pi * var) - (v - mu) ** 2 / (2 * var)
        scores.append(total)
    return scores


class RefNode:
    def __init__(self, feature=None, threshold=None, left=None, right=None, label=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.label = label


def _gini_counts(labels):
    n = len(labels)
    ones = sum(labels)
    p1 = ones / n
    p0 = 1 - p1
    return 1 - p0 * p0 - p1 * p1


def reference_tree(x, y):
    """Plain decision tree by exhaustive split search over all features.

    Same conventions as the library tree with subsampling and bootstrap
    off: midpoint thresholds, best Gini decrease, first candidate wins
    ties (features in natural order, thresholds ascending), leaves when
    pure or below two rows or no feature varies.
    """
    x = [[float(v) for v in row] for row in x]
    y = [int(v) for v in y]
    n = len(y)
    if n < 2 or len(set(y)) == 1:
        return RefNode(label=1 if sum(y) > n - sum(y) else 0)
    parent = _gini_counts(y)
    best = None
    best_gain = -1.0
    for f in range(len(x[0])):
        values = sorted(set(row[f] for row in x))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2
            left = [y[i] for i in range(n) if x[i][f] <= t]
            right = [y[i] for i in range(n) if x[i][f] > t]
            gain = parent - (len(left) * _gini_counts(left) + len(right) * _gini_counts(right)) / n
            if gain > best_gain:
                best_gain = gain
                best = (f, t)
    if best is None:
        return RefNode(label=1 if sum(y) > n - sum(y) else 0)
    f, t = best
    left_idx = [i for i in range(n) if x[i][f] <= t]
    right_idx = [i for i in range(n) if x[i][f] > t]
    return RefNode(feature=f, threshold=t,
                   left=reference_tree([x[i] for i in left_idx], [y[i] for i in left_idx]),
                   right=reference_tree([x[i] for i in right_idx], [y[i] for i in right_idx]))


def reference_tree_predict(node, row):
    while node.label is None:
        node = node.left if float(row[node.feature]) <= node.threshold else node.right
    return node.label


def weighted_mean_direct(values, weights):
    num = sum(v * w for v, w in zip(values, weights))
    return num / sum(weights)
