"""Correlation-driven feature selection with a range-based second pass.

Stage one scores candidate subsets by the classic correlation-based merit
(high feature-class correlation, low feature-feature redundancy) explored
with a best-first search. Stage two drops selected features whose values
rarely fall inside a band derived from their own min and max.

The correlations are the float64 pair (ff, fc) in a FeatureMatrix's column
order, and the merit and the search work on column indices; range_filter
and select_features map between the column names and those indices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureMatrix
from .sampler import UNIT_FLOOR, _unit_scale

RANGE_THRESHOLD = 0.8
STALL_LIMIT = 5


def _centered(x: np.ndarray) -> tuple:
    """x's columns less their means, with their spreads (max - min) and norms."""
    centered = x - x.mean(axis=0)
    return centered, np.ptp(x, axis=0), np.sqrt((centered ** 2).sum(axis=0))


def correlation_matrix(fm: FeatureMatrix) -> tuple:
    """Feature-feature and feature-class Pearson correlations, as the float64
    pair (ff, fc) of shapes (d, d) and (d,) in fm's column order.

    The class enters as numeric 0/1 (point-biserial). Constant columns
    have no defined correlation and get 0 against everything, which
    removes them from selection without erroring the pipeline.
    """
    if fm.n_rows < 2:
        raise DataError("correlations need at least 2 rows")
    classes = np.unique(fm.labels)
    if classes.size < 2:
        raise DataError("correlation against a single-class label is undefined")

    x = fm.values
    with np.errstate(over="ignore", invalid="ignore"):
        centered, spread, norms = _centered(x)
    # A column's sum, spread or squares can pass float64 on finite values,
    # and squares below 2^-1022 lose bits: each column whose spread or norm
    # is not finite, or whose norm is below UNIT_FLOOR, is taken again under
    # _unit_scale. z = centered / norm does not change under such a scale,
    # and every other column keeps its bits.
    redo = ~(np.isfinite(spread) & np.isfinite(norms) & (norms >= UNIT_FLOOR))
    if redo.any():
        centered[:, redo], spread[redo], norms[redo] = _centered(_unit_scale(x[:, redo], axis=0)[0])
    # the mean of a constant column can round, leaving it a tiny nonzero norm
    constant = spread == 0.0
    safe = np.where(constant, 1.0, norms)
    z = centered / safe
    ff = z.T @ z
    ff = np.clip((ff + ff.T) / 2.0, -1.0, 1.0)
    ff[constant, :] = 0.0
    ff[:, constant] = 0.0
    np.fill_diagonal(ff, 1.0)

    y = fm.labels.astype(np.float64)
    yc = y - y.mean()
    ynorm = np.sqrt((yc ** 2).sum())
    fc = np.clip(z.T @ (yc / ynorm), -1.0, 1.0)
    fc[constant] = 0.0

    return ff, fc


def cfs_merit(idx, ff: np.ndarray, fc: np.ndarray) -> float:
    """Merit of the feature subset with these column indices:
    k * mean|r_cf| / sqrt(k + k(k-1) * mean|r_ff|), where the feature-feature
    mean runs over distinct pairs and is 0 for k=1. This is the reference
    form; best_first_search scores the same formula from running sums."""
    idx = list(idx)
    if not idx:
        raise ConfigError("merit of the empty subset is undefined")
    k = len(idx)
    r_cf = np.abs(fc[idx]).mean()
    if k == 1:
        r_ff = 0.0
    else:
        sub = np.abs(ff[np.ix_(idx, idx)])
        r_ff = (sub.sum() - k) / (k * (k - 1))
    return float(k * r_cf / np.sqrt(k + k * (k - 1) * r_ff))


def best_first_search(ff: np.ndarray, fc: np.ndarray,
                      stall_limit: int | None = STALL_LIMIT) -> tuple:
    """Best-first search over feature subsets under the merit score; returns
    the chosen column indices in ascending order.

    Starts from the empty set; each expansion pops the most promising open
    subset (highest merit, ties to the lexicographically smaller index
    tuple) and evaluates all one-feature extensions not made before. The
    best subset seen so far is returned once stall_limit consecutive
    expansions fail to improve it (stall_limit=None exhausts the whole
    lattice). If nothing beats the empty set, the single feature with the
    highest class correlation is returned instead.

    Merit is scored incrementally (Hall 1999): with s_cf = sum|r_cf| and
    s_ff = sum|r_ff| over ordered distinct pairs, merit = s_cf / sqrt(k + s_ff).
    Each open subset carries its two sums, so one row-sum of |r_ff| scores
    all of its extensions at once.

    An expansion's new children form one run, sorted once by (-merit,
    feature index); for children of one parent, index order is the order of
    their index tuples. The heap holds only each run's first child not yet
    popped, so popping it merges the runs in the order one heap of every
    child would pop them, and a child's tuple is built only when it heads
    its run. The best-so-far can change only to a run's head. A child
    current + f was made before exactly when a sibling current - g + f
    (g in current) was expanded, so each expanded subset is indexed under
    its one-smaller subsets, and the repeats of an expansion are found by
    len(current) lookups.
    """
    d = len(fc)
    if d < 1:
        raise ConfigError("search needs at least one feature")
    if stall_limit is not None and stall_limit < 1:
        raise ConfigError(f"stall_limit must be positive or None, got {stall_limit}")

    abs_fc = np.abs(fc)
    abs_ff = np.abs(ff)
    best_idx: tuple = ()
    best_merit = 0.0
    # per run: parent, its bitmask, new features in pop order, and the
    # children's merit, s_cf and s_ff indexed by feature
    runs = []
    heads = []  # (-merit, child, run, position in the run)
    expanded = {}  # bitmask of a subset -> features f whose subset + f was expanded
    current, mask, s_cf, s_ff = (), 0, 0.0, 0.0
    everything = np.ones(d, dtype=bool)
    stall = 0
    while True:
        made = list(current)
        for g in current:
            siblings = expanded.setdefault(mask ^ (1 << g), [])
            made += siblings
            siblings.append(g)
        new = everything.copy()
        new[made] = False
        feats = new.nonzero()[0]
        improved = False
        if feats.size:
            child_cf = s_cf + abs_fc
            child_ff = s_ff + 2.0 * abs_ff[list(current)].sum(axis=0)
            merits = child_cf / np.sqrt(len(current) + 1 + child_ff)
            feats = feats[(-merits[feats]).argsort(kind="stable")]
            runs.append((current, mask, feats, merits, child_cf, child_ff))
            merit, child = _push_head(heads, runs, len(runs) - 1, 0)
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
        if not heads:
            break
        _, current, r, pos = heapq.heappop(heads)
        _, parent_mask, feats, _, run_cf, run_ff = runs[r]
        f = int(feats[pos])
        mask, s_cf, s_ff = parent_mask | (1 << f), float(run_cf[f]), float(run_ff[f])
        if pos + 1 < feats.size:
            _push_head(heads, runs, r, pos + 1)

    if not best_idx:
        best_idx = (int(np.argmax(abs_fc)),)
    return best_idx


def _push_head(heads, runs, r, pos) -> tuple:
    """Push child pos of run r onto the heap of run heads; returns its merit
    and index tuple."""
    parent, _, feats, merits = runs[r][:4]
    f = int(feats[pos])
    merit = float(merits[f])
    child = tuple(sorted(parent + (f,)))
    heapq.heappush(heads, (-merit, child, r, pos))
    return merit, child


def _bands(columns: np.ndarray) -> tuple:
    """Band (lo, hi) of each column of a 2-d array, as two arrays: centered
    at (max+min)/2 with half-width (max+min)/4, swapped where the half-width
    is negative.

    Where max + min passes float64, the band is taken again on max and min
    under _unit_scale and scaled back: exactly the band, or inf where its
    bound passes float64. Every other band keeps its bits."""
    top, bottom = columns.max(axis=0), columns.min(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        total = top + bottom
        lo, hi = total / 2.0 - total / 4.0, total / 2.0 + total / 4.0
    swap = lo > hi
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    far = ~np.isfinite(total)
    if far.any():
        scaled, exponent = _unit_scale(np.stack([top[far], bottom[far]]), axis=0)
        with np.errstate(over="ignore"):
            lo[far], hi[far] = np.ldexp(_bands(scaled), exponent)
    return lo, hi


@dataclass(frozen=True)
class FeatureSubset:
    """Outcome of selection: the kept features plus everything needed to
    audit the range filter (bounds, in-range fractions, casualties) and
    the pre-filter subset for comparison."""

    names: tuple
    merit: float
    range_bounds: dict
    eliminated_by_range: tuple
    in_range_fraction: dict
    prefilter_names: tuple
    prefilter_merit: float

    def to_dict(self) -> dict:
        return {
            "selected": list(self.names),
            "merit": self.merit,
            "prefilter_selected": list(self.prefilter_names),
            "prefilter_merit": self.prefilter_merit,
            "eliminated_by_range": list(self.eliminated_by_range),
            "range_bounds": {n: list(b) for n, b in self.range_bounds.items()},
            "in_range_fraction": dict(self.in_range_fraction),
        }


def range_filter(fm: FeatureMatrix, subset, corr: tuple,
                 threshold: float = RANGE_THRESHOLD) -> FeatureSubset:
    """Drop features whose in-band fraction falls below 1 - threshold.

    ``subset`` names columns of fm, and ``corr`` is correlation_matrix(fm),
    the (ff, fc) pair the merits are scored with. Bounds come from each
    feature's pooled values over all instances, endpoints inclusive. Should
    every feature fail the test, the one with the highest class correlation
    is kept so the subset stays usable.
    """
    subset = tuple(subset)
    if not subset:
        raise ConfigError("range filter needs a non-empty subset")
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    for n in subset:
        if n not in fm.names:
            raise ConfigError(f"unknown feature {n!r}")
    ff, fc = corr
    index = {n: fm.names.index(n) for n in subset}

    columns = fm.values[:, [index[n] for n in subset]]
    lo, hi = _bands(columns)
    inside = np.mean((columns >= lo) & (columns <= hi), axis=0)
    bounds = dict(zip(subset, zip(lo.tolist(), hi.tolist())))
    fractions = dict(zip(subset, inside.tolist()))
    eliminated = [n for n in subset if fractions[n] < 1.0 - threshold]
    kept = [n for n in subset if n not in eliminated]

    if not kept:
        # nothing survived; keep the most class-correlated candidate
        ranked = max(subset, key=lambda n: (abs(fc[index[n]]), -index[n]))
        kept = [ranked]
        eliminated = [n for n in subset if n != ranked]

    return FeatureSubset(
        names=tuple(kept),
        merit=cfs_merit([index[n] for n in kept], ff, fc),
        range_bounds=bounds,
        eliminated_by_range=tuple(eliminated),
        in_range_fraction=fractions,
        prefilter_names=subset,
        prefilter_merit=cfs_merit([index[n] for n in subset], ff, fc),
    )


def select_features(fm: FeatureMatrix, stall_limit: int | None = STALL_LIMIT,
                    threshold: float = RANGE_THRESHOLD) -> FeatureSubset:
    """Full selection: correlations, best-first merit search, range filter."""
    corr = correlation_matrix(fm)
    prefilter = best_first_search(*corr, stall_limit=stall_limit)
    return range_filter(fm, [fm.names[i] for i in prefilter], corr, threshold=threshold)
