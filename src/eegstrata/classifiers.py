"""Binary classifiers behind a shared fit/predict interface.

All three are self-contained numpy implementations with pinned
tie-breaking so results are reproducible bit for bit: distance ties go to
the lower training-row index, vote and posterior ties to the smaller
class label. Labels are 0/1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DataError, DegenerateDataError
from .features import FeatureMatrix
from .sampler import _is_int, _unit_scale

NB_VAR_FLOOR = 1e-9
KNN_K = 3
RF_TREES = 100


def _check_matrix(train: FeatureMatrix) -> None:
    if train.n_rows == 0:
        raise DataError("training set is empty")
    present = set(np.unique(train.labels).tolist())
    if not present <= {0, 1}:
        raise DataError(f"labels must be 0/1, got {sorted(present)}")
    if len(present) < 2:
        raise DataError("training data must contain both classes")


def _moments(rows: np.ndarray, names: tuple, scale: float = 1.0) -> tuple:
    """Column means and variances of rows; a feature column whose spread, or
    its variance times scale, overflows float64 is refused rather than
    scored at chance."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, var = rows.mean(axis=0), rows.var(axis=0)
        bad = ~np.isfinite(scale * var)  # an overflowing mean makes the variance inf or NaN too
    if bad.any():
        raise DegenerateDataError(f"feature {names[int(np.argmax(bad))]}: its variance "
                                  "overflows float64; rescale the data")
    return mean, var


def _check_rows(rows, n_features: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_features:
        raise DataError(f"expected rows with {n_features} features, got shape {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(f"row {row}, column {col} is not finite: {arr[row, col]}")
    return arr


class KNNClassifier:
    """k nearest neighbours by Euclidean distance on z-scored features.

    Standardization uses training mean and std, and leaves out a constant
    feature, which has no spread to measure a query by; it can be switched
    off to measure raw distances. Either way the features are first put
    under _unit_scale, each column alone when standardizing and the matrix
    as a whole when not, so no distance depends on the data's units.
    """

    def __init__(self, k: int = KNN_K, standardize: bool = True):
        if not (_is_int(k) and k >= 1):
            raise ConfigError(f"k must be an int >= 1, got {k!r}")
        if not isinstance(standardize, bool):
            raise ConfigError(f"standardize must be True or False, got {standardize!r}")
        self.k = int(k)
        self.standardize = standardize
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "KNNClassifier":
        _check_matrix(train)
        if self.k > train.n_rows:
            raise ConfigError(f"k={self.k} exceeds the {train.n_rows} training rows")
        self.feature_names = train.names
        _moments(train.values, train.names)  # refuses a column whose variance overflows
        scaled, self._exponent = _unit_scale(train.values, axis=0 if self.standardize else None)
        if self.standardize:
            self._columns = np.ptp(scaled, axis=0) > 0.0
            scaled, self._exponent = scaled[:, self._columns], self._exponent[:, self._columns]
            self._mean, self._std = scaled.mean(axis=0), scaled.std(axis=0)
        else:
            self._columns, self._mean, self._std = slice(None), 0.0, 1.0
        self._train = self._transform(train.values)
        self._labels = train.labels.copy()
        return self

    def _transform(self, rows: np.ndarray, k=0) -> np.ndarray:
        """rows scaled as the training rows were, standardized, and scaled by 2^-k."""
        rows = rows[:, self._columns]
        return (np.ldexp(rows, -(self._exponent + k)) - np.ldexp(self._mean, -k)) / self._std

    def predict(self, rows) -> np.ndarray:
        q = _check_rows(rows, len(self.feature_names))
        with np.errstate(over="ignore"):
            x = self._transform(q)
            d2 = ((x[:, None, :] - self._train[None, :, :]) ** 2).sum(axis=2)
        far = np.flatnonzero(~np.isfinite(d2).all(axis=1))
        if far.size:
            # rank by |t|^2 2^-k - 2 x.t, the squared distance less |x|^2, times 2^-k, where
            # k bounds x's power of two: for a, b and s of binary exponents e_a, e_b and e_s,
            # |a - b| / s < 2^(max(e_a, e_b) - e_s + 2). x is standardized at that scale, as it
            # may pass float64; t is not scaled, so no t is lost beside x
            _, e_q = _unit_scale(q[far][:, self._columns], axis=())
            _, e_mean = _unit_scale(self._mean, axis=())
            _, e_std = _unit_scale(self._std, axis=())
            k = (np.maximum(e_q - self._exponent, e_mean) - e_std + 2).max(axis=1, keepdims=True)
            t, x = self._train, self._transform(q[far], k)
            d2[far] = (t * (np.ldexp(t, -k[..., None]) - 2.0 * x[:, None, :])).sum(axis=2)
        # stable sort: equal distances resolve to the lower training index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        votes = self._labels[nearest]
        ones = votes.sum(axis=1)
        zeros = self.k - ones
        # strict majority for class 1, ties to the smaller label
        return (ones > zeros).astype(np.int64)


class NaiveBayesClassifier:
    """Gaussian naive Bayes with a variance floor against zero-variance
    features."""

    def __init__(self, var_floor: float = NB_VAR_FLOOR):
        # each class density takes log(2 pi var), so 2 pi var must stay finite: 2 pi
        # times the limit is float64's max, and one step above it overflows
        limit = float(np.finfo(np.float64).max) / (2.0 * math.pi)
        if not ((_is_int(var_floor) or isinstance(var_floor, float)) and 0.0 < var_floor <= limit):
            raise ConfigError(f"var_floor must be positive and finite, at most {limit:g}, "
                              f"got {var_floor!r}")
        self.var_floor = var_floor
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "NaiveBayesClassifier":
        _check_matrix(train)
        self.feature_names = train.names
        self._means = np.empty((2, train.n_features))
        self._vars = np.empty((2, train.n_features))
        self._log_priors = np.empty(2)
        for c in (0, 1):
            rows = train.values[train.labels == c]
            # 2 pi var_floor is finite, so 2 pi times the floored variance is when 2 pi var is
            self._means[c], var = _moments(rows, train.names, scale=2.0 * np.pi)
            self._vars[c] = np.maximum(var, self.var_floor)
            self._log_priors[c] = math.log(rows.shape[0] / train.n_rows)
        return self

    def log_posterior(self, rows) -> np.ndarray:
        """Unnormalized log posterior per class, shape (n_rows, 2)."""
        x = _check_rows(rows, len(self.feature_names))
        out = np.empty((x.shape[0], 2))
        for c in (0, 1):
            with np.errstate(over="ignore"):
                ll = -0.5 * (np.log(2.0 * np.pi * self._vars[c])
                             + (x - self._means[c]) ** 2 / self._vars[c])
            out[:, c] = self._log_priors[c] + ll.sum(axis=1)
        return out

    def predict(self, rows) -> np.ndarray:
        x = _check_rows(rows, len(self.feature_names))
        scores = self.log_posterior(x)
        # where a class's quadratic sum overflows, the classes are ranked by
        # those sums on x and the means under one _unit_scale
        far = np.flatnonzero(np.isinf(scores).any(axis=1))
        if far.size:
            means = np.broadcast_to(self._means, (far.size, 2, x.shape[1]))
            scaled, _ = _unit_scale(np.concatenate([x[far][:, None], means], axis=1), axis=(1, 2))
            scores[far] = -((scaled[:, :1] - scaled[:, 1:]) ** 2 / self._vars).sum(axis=2)
        # argmax ties resolve to the smaller label
        return (scores[:, 1] > scores[:, 0]).astype(np.int64)


# a step's (tree, candidate feature, row) arrays hold at most this many
# elements; the trees of a step are grown in chunks below it
_STEP_ELEMENTS = 1 << 15
_LOW = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(const, mult):
    """SeedSequence's hash constant before and after each of its updates."""
    while True:
        old, const = const, const * mult & _LOW
        yield old, const


def _hashmix(value, consts):
    """SeedSequence's hash of 32-bit values, a Python int or a uint64 array,
    under the next pair of consts."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _LOW
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _LOW
    return value ^ value >> 16


def _mul128(a, b):
    """a * b mod 2^128 for (high, low) pairs of uint64 arrays or Python ints
    below 2^64; the low words' full product is taken in 32-bit halves."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _LOW, a_lo >> 32, b_lo & _LOW, b_lo >> 32
    cross_a, cross_b = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> 32) + (cross_a & _LOW) + (cross_b & _LOW)) >> 32
    high = a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + carry + a_hi * b_lo + a_lo * b_hi
    return high, a_lo * b_lo


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _lcg_jump(steps):
    """(M^steps, sum of M^i for i < steps) mod 2^128 for PCG64's multiplier
    M, as Python ints: steps LCG steps take state s with increment c to
    M^steps s + (sum) c (Brown, 1994)."""
    mult, plus, power, power_sum = 1, 0, _PCG64_MULT, 1
    while steps:
        if steps & 1:
            mult, plus = mult * power & _MASK128, (plus * power + power_sum) & _MASK128
        power, power_sum = power * power & _MASK128, power_sum * (power + 1) & _MASK128
        steps >>= 1
    return mult, plus


def _split128(values):
    """(high, low) uint64 arrays of the 128-bit Python ints in values."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v % (1 << 64) for v in values], dtype=np.uint64))


class _PCG64Words:
    """The raw 64-bit words of PCG64(child) for each child of
    SeedSequence(seed).spawn(trees), computed for all trees at once as
    numpy computes them for one.

    Each child's entropy is the seed's 32-bit words, low word first and
    padded with zeros to four, then its spawn key t. All but the key are
    the same for every child, so they are mixed into the pool once, in
    Python ints; the key, then generate_state(4, uint64), run as arrays
    over the trees. PCG64 takes the first two of those words as its
    initial state and the last two as its stream, and seeds as PCG's
    srandom_r does. Word j of a stream is the XSL-RR output of its state
    after j + 1 steps, M^(j+1) s + (sum of M^i, i <= j) c for seeded state
    s and increment c, so a block of words is one multiply-add per word
    with constants built in Python ints; a block that starts later jumps
    the states first.
    """

    def __init__(self, seed, trees):
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        words = [seed >> shift & _LOW for shift in range(0, max(seed.bit_length(), 1), 32)]
        words += [0] * (4 - len(words))
        consts = _hash_consts(_INIT_A, _MULT_A)
        pool = [_hashmix(word, consts) for word in words[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
        for word in words[4:]:
            pool = [_mix(p, _hashmix(word, consts)) for p in pool]
        key = np.arange(trees, dtype=np.uint64)
        self.pool = [_mix(p, _hashmix(key, consts)) for p in pool]
        consts = _hash_consts(_INIT_B, _MULT_B)
        halves = [_hashmix(self.pool[i % 4], consts) for i in range(8)]
        state_words = [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]
        init_state, init_seq = state_words[:2], state_words[2:]
        self.inc = (init_seq[0] << 1 | init_seq[1] >> 63, init_seq[1] << 1 | 1)
        self.state = _add128(_mul128(_add128(self.inc, init_state), divmod(_PCG64_MULT, 1 << 64)),
                             self.inc)
        self._steps = _split128([]), _split128([])

    def __call__(self, trees, start, count):
        """Words start to start + count of each stream in trees, as a (trees,
        count) array."""
        if count > self._steps[0][0].size:
            mults, pluses = [_PCG64_MULT], [1]
            while len(mults) < count:
                mults.append(mults[-1] * _PCG64_MULT & _MASK128)
                pluses.append((pluses[-1] * _PCG64_MULT + 1) & _MASK128)
            self._steps = _split128(mults), _split128(pluses)
        state = tuple(part[trees] for part in self.state)
        inc = tuple(part[trees] for part in self.inc)
        if start:
            mult, plus = _lcg_jump(start)
            state = _add128(_mul128(state, divmod(mult, 1 << 64)),
                            _mul128(inc, divmod(plus, 1 << 64)))
        mults, pluses = (tuple(part[:count] for part in steps) for steps in self._steps)
        high, low = _add128(_mul128([part[:, None] for part in state], mults),
                            _mul128([part[:, None] for part in inc], pluses))
        value, rotate = high ^ low, high >> 58
        return value >> rotate | value << (64 - rotate & 63)


class _Streams:
    """Each tree's PCG64 stream, read as numpy's Generator reads it in
    integers and choice: the 32-bit halves of its raw 64-bit words, low
    half first, each bounded integer from one half by Lemire's
    multiply-shift, drawing again while the product's low half falls below
    2^32 mod bound.

    The words come from source(trees, start, count), which gives words
    start to start + count of each stream in trees. Tree t's words are
    buffered in row t of _words, and _pos[t] is its first unread half. A
    row that a draw would run past is refilled with the stream's next
    words, so every stream may run on without end.
    """

    def __init__(self, source, trees, words):
        self._source = source
        self._words = np.asarray(source(np.arange(trees), 0, words), dtype="<u8")
        self._halves = self._words.view("<u4")
        self._pos = np.zeros(trees, dtype=np.int64)
        self._taken = [words] * trees

    def _refill(self, t):
        """Move tree t's unread words to the front of its row and fill the
        rest from its stream."""
        row, read = self._words[t], int(self._pos[t]) // 2
        row[:row.size - read] = row[read:]
        row[row.size - read:] = self._source(np.array([t]), self._taken[t], read)[0]
        self._taken[t] += read
        self._pos[t] -= 2 * read

    def _bounded(self, t, bound):
        """Tree t's next integer in [0, bound), one half at a time."""
        threshold = (1 << 32) % bound
        while True:
            if self._pos[t] == self._halves.shape[1]:
                self._refill(t)
            product = int(self._halves[t, self._pos[t]]) * bound
            self._pos[t] += 1
            if product & _LOW >= threshold:
                return product >> 32

    def draw(self, trees, bounds):
        """The next integers of each tree in trees, column i in [0,
        bounds[i]), for bounds from 2 to 2^32. The draws of all trees are
        taken from one block of halves; a tree with a draw that rejects
        takes its row again on the scalar path."""
        # after a refill at least 2 * words - 1 halves are unread
        assert bounds.size < self._halves.shape[1]
        for t in trees[self._pos[trees] + bounds.size > self._halves.shape[1]].tolist():
            self._refill(t)
        pos = self._pos[trees]
        bound = bounds.astype(np.uint64)
        product = self._halves[trees[:, None], pos[:, None] + np.arange(bounds.size)] * bound
        out = (product >> 32).astype(np.int64)
        self._pos[trees] = pos + bounds.size
        for i in np.flatnonzero(((product & _LOW) < (1 << 32) % bound).any(axis=1)).tolist():
            self._pos[trees[i]] = pos[i]
            out[i] = [self._bounded(trees[i], b) for b in bounds.tolist()]
        return out


def _sample_features(streams, trees, d, k):
    """Each tree's next Generator.choice(d, k, replace=False): Floyd's
    sample, in which the draw for j in [d - k, d) takes a value in [0, j]
    or, if that value is taken, j itself, then a Fisher-Yates shuffle of
    the k picks from the last position down. numpy takes this path for
    every k = ceil(sqrt(d)); its tail shuffle serves only d > 10000 with
    k > d // 50."""
    # j = 0, where d = k, draws from [0, 0] and reads nothing: its pick is 0
    floyd, shuffle = np.arange(max(d - k, 1), d), np.arange(k - 1, 0, -1)
    draws = streams.draw(trees, np.concatenate([floyd, shuffle]) + 1)
    picks = np.zeros((trees.size, k), dtype=np.int64)
    skip = k - floyd.size
    for c, j in enumerate(floyd.tolist()):
        taken = (picks[:, :skip + c] == draws[:, c, None]).any(axis=1)
        picks[:, skip + c] = np.where(taken, j, draws[:, c])
    rows = np.arange(trees.size)
    for c, i in enumerate(shuffle.tolist(), start=floyd.size):
        swap = picks[rows, draws[:, c]]
        picks[rows, draws[:, c]] = picks[:, i]
        picks[:, i] = swap
    return picks


def _best_splits(x, y, rows, sizes, feats):
    """Best (feature, threshold) by Gini decrease for one node of each tree.

    Row i of rows holds node i's sizes[i] training rows, then padding rows
    (x and y end in a padding row of +inf and label 0); feats[i] holds its
    candidate features in draw order. Candidate thresholds are midpoints
    of consecutive distinct sorted values. Ties keep the first candidate
    in feature order, then in ascending threshold order. Returns per node
    the feature (-1 where no split separates the rows), the threshold, the
    rows sorted by that feature (the padding last), and how many of them,
    and of their ones, go left.
    """
    width = rows.shape[1]
    vals = x[rows[:, None, :], feats[:, :, None]]
    order = np.argsort(vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    rows = np.take_along_axis(rows[:, None, :], order, axis=-1)
    ones = np.cumsum(y[rows], axis=-1)
    total_ones = ones[:, 0, -1]
    p = np.stack([sizes - total_ones, total_ones], axis=1) / sizes[:, None]
    parent = 1.0 - (p ** 2).sum(axis=1)
    n = sizes[:, None, None]
    left_n = np.arange(1, width)
    left_ones = ones[..., :-1]
    left_zeros = left_n - left_ones
    right_n = n - left_n
    right_ones = total_ones[:, None, None] - left_ones
    right_zeros = right_n - right_ones
    # past a node's last row right_n is 0 or less; those cuts are masked below
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - ((left_zeros / left_n) ** 2 + (left_ones / left_n) ** 2)
        gini_r = 1.0 - ((right_zeros / right_n) ** 2 + (right_ones / right_n) ** 2)
        gain = parent[:, None, None] - (left_n * gini_l + right_n * gini_r) / n
    cuts = (left_n < n) & (vals[..., 1:] != vals[..., :-1])
    gain = np.where(cuts, gain, -np.inf).reshape(len(sizes), -1)
    best = np.argmax(gain, axis=1)
    node = np.arange(len(sizes))
    slot, cut = np.divmod(best, width - 1)
    with np.errstate(over="ignore"):
        threshold = (vals[node, slot, cut] + vals[node, slot, cut + 1]) / 2.0
    go_left = np.minimum((vals[node, slot] <= threshold[:, None]).sum(axis=1), sizes)
    # a midpoint that rounds onto a value, or overflows, can leave one side empty
    found = (gain[node, best] > -1.0) & (go_left > 0) & (go_left < sizes)
    ones_left = ones[node, slot, np.maximum(go_left - 1, 0)]
    return (np.where(found, feats[node, slot], -1), threshold, rows[node, slot], go_left,
            ones_left)


def _grow_forest(values, labels, samples, streams, per_node):
    """Grow one tree per row of samples (its training rows), all side by
    side.

    Tree t's rows sit in pool[t*n:(t+1)*n], and every node's rows are a
    run of them, from start for size rows: a node that splits writes its
    run back sorted on the split feature, so its left child holds the
    run's head and its right child the rest. Each tree keeps a stack of
    its nodes still to split, in preorder. A step pops the next one of
    every tree, draws its candidate features from the tree's stream in
    streams (all d in order when per_node is None), splits all of them
    with one batched search and pushes the children of every split, right
    first, with whole-array operations. Nodes that hold one class only are
    leaves when made and draw nothing; nodes where no candidate split
    separates the rows become leaves after their draw. So each tree reads
    its stream in its own preorder, as one tree grown alone would. Returns
    flat node arrays feature (-1 at leaves), threshold, left, right and
    vote; node t is the root of tree t, and a step's splits number their
    children right then left, in tree order.
    """
    n_trees, n = samples.shape
    d = values.shape[1]
    x = np.vstack([values, np.full(d, np.inf)])
    y = np.append(labels, 0)
    pool = samples.ravel().copy()
    trees = np.arange(n_trees)
    # per node: its feature (-1 at a leaf), its left and right child, and its
    # run's start, size and ones; the columns double when a step's children
    # would not fit
    nodes = np.full((6, 4 * n_trees), -1)
    threshold = np.zeros(4 * n_trees)
    feature, left, right, start, size, ones = nodes
    start[:n_trees], size[:n_trees], ones[:n_trees] = trees * n, n, labels[samples].sum(axis=1)
    stack = np.zeros((n_trees, 8), dtype=np.int64)
    stack[:, 0] = trees
    top = ((0 < ones[:n_trees]) & (ones[:n_trees] < n)).astype(np.int64)
    n_nodes = n_trees
    while True:
        active = np.flatnonzero(top)
        if not active.size:
            break
        top[active] -= 1
        node = stack[active, top[active]]
        feats = (np.broadcast_to(np.arange(d), (active.size, d)) if per_node is None
                 else _sample_features(streams, active, d, per_node))
        offset = np.arange(size[node].max())
        real = offset < size[node, None]
        at = np.where(real, start[node, None] + offset, 0)
        rows = np.where(real, pool[at], n)  # row n of x is the padding row
        chunk = max(1, _STEP_ELEMENTS // (feats.shape[1] * offset.size))
        f, thr, ordered, k, k_ones = (np.concatenate(part) for part in zip(*(
            _best_splits(x, y, rows[lo:lo + chunk], size[node[lo:lo + chunk]],
                         feats[lo:lo + chunk])
            for lo in range(0, active.size, chunk))))
        s = np.flatnonzero(f >= 0)
        if not s.size:
            continue
        pool[at[s][real[s]]] = ordered[s][real[s]]
        split = node[s]
        if n_nodes + 2 * s.size > threshold.size:
            nodes = np.concatenate([nodes, np.full_like(nodes, -1)], axis=1)
            threshold = np.concatenate([threshold, np.zeros_like(threshold)])
            feature, left, right, start, size, ones = nodes
        feature[split], threshold[split] = f[s], thr[s]
        right[split] = n_nodes + 2 * np.arange(s.size)
        left[split] = right[split] + 1
        n_nodes += 2 * s.size
        start[right[split]], start[left[split]] = start[split] + k[s], start[split]
        size[right[split]], size[left[split]] = size[split] - k[s], k[s]
        ones[right[split]], ones[left[split]] = ones[split] - k_ones[s], k_ones[s]
        t = active[s]
        if top[t].max() + 2 > stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        for child in (right[split], left[split]):
            stack[t, top[t]] = child
            top[t] += (0 < ones[child]) & (ones[child] < size[child])
    vote = (2 * ones[:n_nodes] > size[:n_nodes]).astype(np.int64)
    return (feature[:n_nodes].copy(), threshold[:n_nodes].copy(), left[:n_nodes].copy(),
            right[:n_nodes].copy(), vote)


class RandomForestClassifier:
    """Bagged Gini decision trees with per-node feature subsampling.

    Defaults: 100 trees, ceil(sqrt(d)) candidate features per node,
    bootstrap resampling, unlimited depth. Turning bootstrap off and
    max_features to "all" reduces a 1-tree forest to a plain decision
    tree, which is how the implementation is cross-checked.

    Tree t draws from PCG64 seeded by child t of SeedSequence(seed): its
    bootstrap rows as Generator.integers(0, n, size=n) would, then each
    node's candidate features as Generator.choice(d, k, replace=False)
    would, in the tree's preorder. No bit generator is made: _PCG64Words
    computes every tree's raw words at once, equal to numpy's, and the
    draws are read from them. seed is any int >= 0 and trees at most
    2^32 - 1.
    """

    def __init__(self, trees: int = RF_TREES, seed: int = 0,
                 max_features: str = "sqrt", bootstrap: bool = True):
        # a tree's spawn key is one 32-bit word; a negative seed is refused at fit, so a
        # pipeline whose run seed is negative still builds its forests from derived seeds
        if not (_is_int(trees) and 1 <= trees < 1 << 32):
            raise ConfigError(f"trees must be an int from 1 to 2^32 - 1, got {trees!r}")
        if not _is_int(seed):
            raise ConfigError(f"seed must be an int, got {seed!r}")
        if max_features not in ("sqrt", "all"):
            raise ConfigError(f"max_features must be 'sqrt' or 'all', got {max_features!r}")
        if not isinstance(bootstrap, bool):
            raise ConfigError(f"bootstrap must be True or False, got {bootstrap!r}")
        self.n_trees = int(trees)  # the name bench/tracing.py reads for classifiers.rf.trees
        self.seed = int(seed)
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.feature_names: tuple = ()

    def fit(self, train: FeatureMatrix) -> "RandomForestClassifier":
        _check_matrix(train)
        self.feature_names = train.names
        n, d = train.values.shape
        per_node = math.ceil(math.sqrt(d)) if self.max_features == "sqrt" else None
        streams = _Streams(_PCG64Words(self.seed, self.n_trees), self.n_trees,
                           max(n, per_node or n))
        samples = (streams.draw(np.arange(self.n_trees), np.full(n, n)) if self.bootstrap
                   else np.broadcast_to(np.arange(n), (self.n_trees, n)))
        self._nodes = _grow_forest(train.values, train.labels, samples, streams, per_node)
        return self

    def predict(self, rows) -> np.ndarray:
        x = _check_rows(rows, len(self.feature_names))
        feature, threshold, left, right, vote = self._nodes
        # every tree's node for every row, walked down one level per pass
        node = np.repeat(np.arange(self.n_trees)[:, None], x.shape[0], axis=1)
        row = np.arange(x.shape[0])
        while True:
            f = feature[node]
            inner = f >= 0
            if not inner.any():
                break
            go_left = x[row, f] <= threshold[node]
            node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        votes = vote[node].sum(axis=0)
        # majority over trees, ties to the smaller label
        return (2 * votes > self.n_trees).astype(np.int64)


# classifier name -> class; the CLI's --classifier choices, in this order
CLASSIFIER_KINDS = {"rf": RandomForestClassifier, "nb": NaiveBayesClassifier,
                    "knn": KNNClassifier}


def make_classifier(kind: str, **params):
    """Factory keyed by classifier name; unknown keys are rejected by the
    constructors so config typos surface early."""
    if kind not in CLASSIFIER_KINDS:
        raise ConfigError(f"unknown classifier {kind!r}; expected one of {tuple(CLASSIFIER_KINDS)}")
    try:
        return CLASSIFIER_KINDS[kind](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {kind}: {exc}") from None
