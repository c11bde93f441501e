import warnings

import numpy as np
import pytest

import oracles
from eegstrata import (ConfigError, DataError, FeatureMatrix, PipelineConfig,
                       best_first_search, cfs_merit, correlation_matrix,
                       range_filter, select_features)
from eegstrata.evaluation import kfold_split
from eegstrata.pipeline import stage_extract, stage_ingest, stage_sample
from eegstrata.selection import _bands


def _matrix(values, labels, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(names=names, values=values, labels=np.asarray(labels))


def test_correlation_matrix_known_entries():
    labels = np.array([0, 1, 0, 1, 0, 1])
    values = np.column_stack([
        labels.astype(float),          # identical to the class
        np.arange(6, dtype=float),     # generic trend
        np.arange(6, dtype=float),     # duplicate column
        np.full(6, 3.0),               # constant
    ])
    ff, fc = correlation_matrix(_matrix(values, labels))
    assert fc[0] == pytest.approx(1.0)
    assert ff[1, 2] == pytest.approx(1.0)
    assert fc[3] == 0.0
    assert np.all(ff[3, :3] == 0.0)
    assert ff[3, 3] == 1.0


def test_correlation_matrix_properties():
    """fc is the textbook Pearson correlation with the label; and over finite
    matrices with constant and duplicated columns, ff is symmetric with a
    unit diagonal, every correlation lies in [-1, 1], a constant column is 0
    against everything and a duplicated pair has |r| = 1."""
    rng = np.random.default_rng(1)
    fm = _matrix(rng.standard_normal((50, 5)), rng.integers(0, 2, 50))
    _, fc = correlation_matrix(fm)
    for i in range(5):
        expected = oracles.pearson_direct(fm.values[:, i], fm.labels)
        assert fc[i] == pytest.approx(expected, abs=1e-10)

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(-1e100, 1e100)  # squared deviations summed over 30 rows stay finite

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(data=st.data())
    # a constant 0.1 over 3 rows has a mean that rounds away from 0.1
    @hypothesis.example(data=None)
    def check(data):
        if data is None:
            labels, cols = [0, 1, 0], [[0.0, 1.0, 3.0], [0.1] * 3, [0.0, 1.0, 3.0]]
        else:
            n = data.draw(st.integers(2, 30), label="n")
            labels = [0, 1] + data.draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                                 max_size=n - 2), label="labels")
            cols = data.draw(st.lists(st.lists(finite, min_size=n, max_size=n),
                                      min_size=1, max_size=5), label="columns")
            cols += [[v] * n for v in data.draw(st.lists(finite, max_size=2), label="constants")]
            cols += [cols[i] for i in data.draw(st.lists(st.integers(0, len(cols) - 1),
                                                         max_size=2), label="duplicated")]
            cols = data.draw(st.permutations(cols), label="order")
        values = np.array(cols, dtype=np.float64).T
        ff, fc = correlation_matrix(_matrix(values, labels))
        assert ff.dtype == fc.dtype == np.float64
        assert np.array_equal(ff, ff.T)
        assert np.all(np.diag(ff) == 1.0)
        assert np.all(np.abs(ff) <= 1.0) and np.all(np.abs(fc) <= 1.0)
        d = values.shape[1]
        for j in range(d):
            if np.ptp(values[:, j]) == 0.0:
                assert fc[j] == 0.0
                assert np.all(np.delete(ff[j], j) == 0.0)
            for k in range(j + 1, d):
                # a spread whose squares do not underflow has a nonzero norm
                if np.array_equal(values[:, j], values[:, k]) and np.ptp(values[:, j]) > 1e-150:
                    assert abs(ff[j, k]) == pytest.approx(1.0, abs=1e-12)

    check()


_LABELS = np.repeat([0, 1], 20)


@pytest.mark.parametrize("column, scale", [
    # a spread of 1e160 overflows the direct sum of squares
    (1e160 * (np.random.default_rng(0).standard_normal(40) + _LABELS), 1e160),
    # the sum, the mean and max + min overflow; the column separates the classes
    (np.where(_LABELS == 0, 0.9e308, 1e308), 1e308),
    # the spread and the norm pass float64
    (np.tile([1.5e308, -1.5e308], 20), 1e308),
], ids=["square", "sum", "spread"])
def test_correlation_matrix_of_a_column_whose_square_overflows(recwarn, column, scale):
    """A column whose sum, spread or squares pass float64 is taken on a
    scaled copy, so it gets the correlations, the selection and the bounds
    an unscaled copy gets, and no warning is raised."""
    rng = np.random.default_rng(1)
    names = ("a", "b", "c")
    values = np.column_stack([rng.standard_normal(40), column, rng.standard_normal(40)])
    unscaled = values / [1.0, scale, 1.0]
    ff, fc = correlation_matrix(_matrix(values, _LABELS, names))
    want_ff, want_fc = correlation_matrix(_matrix(unscaled, _LABELS, names))
    assert fc == pytest.approx(want_fc, rel=1e-12, abs=1e-15)
    assert ff == pytest.approx(want_ff, rel=1e-12, abs=1e-15)
    got, want = (select_features(_matrix(v, _LABELS, names)) for v in (values, unscaled))
    assert got.names == want.names and got.merit == pytest.approx(want.merit, rel=1e-12)
    assert np.isfinite(list(got.range_bounds.values())).all()
    if "b" in got.range_bounds:
        assert np.divide(got.range_bounds["b"], scale) == pytest.approx(want.range_bounds["b"],
                                                                         rel=1e-12)
    assert len(recwarn) == 0


def test_selection_is_invariant_to_a_power_of_two_column_scale():
    """Scaling one column by 2^k, for any k that keeps its values finite and
    normal and its bounds normal, leaves the selection as it was but for
    that column's bounds, which are scaled by 2^k, and warns nothing."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    labels = np.tile([0, 1], 12)
    names = tuple(f"f{i}" for i in range(5))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2 ** 16), position=st.floats(0.0, 1.0))
    @hypothesis.example(seed=0, position=1.0)
    @hypothesis.example(seed=0, position=0.0)
    def check(seed, position):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((24, 5)) + labels[:, None] * rng.uniform(0.0, 2.0, 5)
        j = seed % 5
        _, e_values = np.frexp(np.abs(values[:, j][values[:, j] != 0.0]))
        _, e_bounds = np.frexp(np.abs(np.ravel(_bands(values[:, [j]]))))
        # 2^(e - 1) <= m < 2^e for m of exponent e: m 2^k is normal from
        # k = -1021 - e on, and finite up to k = 1024 - e
        k = int(np.round(np.interp(position, [0.0, 1.0], [
            -1021 - min(e_values.min(), e_bounds.min()), 1024 - e_values.max()])))
        scaled = values.copy()
        scaled[:, j] = np.ldexp(values[:, j], k)
        want = select_features(_matrix(values, labels, names))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = select_features(_matrix(scaled, labels, names))
        assert got.names == want.names
        assert got.eliminated_by_range == want.eliminated_by_range
        assert got.in_range_fraction == want.in_range_fraction
        assert got.merit == pytest.approx(want.merit, rel=1e-12)
        assert got.prefilter_merit == pytest.approx(want.prefilter_merit, rel=1e-12)
        for name, bounds in want.range_bounds.items():
            with np.errstate(over="ignore"):  # a bound may pass float64 where no value does
                expected = np.ldexp(bounds, k) if name == names[j] else bounds
            assert got.range_bounds[name] == tuple(expected)

    check()


def test_correlation_matrix_single_class_raises():
    rng = np.random.default_rng(2)
    with pytest.raises(DataError):
        correlation_matrix(_matrix(rng.standard_normal((10, 3)), np.zeros(10, dtype=int)))


def _toy_cm(fc, ff):
    """The (ff, fc) pair of the given feature-class and feature-feature correlations."""
    return np.asarray(ff, dtype=float), np.asarray(fc, dtype=float)


def test_merit_reference_values():
    ff, fc = _toy_cm([0.8, 0.5, 0.5], np.eye(3))
    assert cfs_merit([0], ff, fc) == pytest.approx(0.8)
    assert cfs_merit([1, 2], ff, fc) == pytest.approx(2 * 0.5 / np.sqrt(2))


def test_merit_redundant_feature_never_helps():
    rng = np.random.default_rng(3)
    for _ in range(30):
        values = rng.standard_normal((40, 4))
        values = np.column_stack([values, values[:, 0]])  # exact duplicate of f0
        labels = rng.integers(0, 2, 40)
        if labels.min() == labels.max():
            continue
        corr = correlation_matrix(_matrix(values, labels))
        with_dup = cfs_merit([0, 4], *corr)
        without = cfs_merit([0], *corr)
        assert with_dup <= without + 1e-12


def test_merit_matches_direct_oracle():
    rng = np.random.default_rng(4)
    fm = _matrix(rng.standard_normal((60, 6)), rng.integers(0, 2, 60))
    ff, fc = correlation_matrix(fm)
    for idx in ([0], [1, 3], [0, 2, 4, 5]):
        ref = oracles.merit_direct(idx, fc, ff)
        assert cfs_merit(idx, ff, fc) == pytest.approx(ref, abs=1e-12)


def test_merit_affine_rescale_invariance():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((50, 4))
    labels = rng.integers(0, 2, 50)
    before = cfs_merit([0, 1, 2], *correlation_matrix(_matrix(values, labels)))
    values[:, 1] = 3.0 * values[:, 1] + 7.0
    after = cfs_merit([0, 1, 2], *correlation_matrix(_matrix(values, labels)))
    assert after == pytest.approx(before, abs=1e-9)


def test_merit_errors():
    with pytest.raises(ConfigError):
        cfs_merit([], *_toy_cm([0.5], [[1.0]]))


def test_best_first_finds_the_label_feature():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 2, 80)
    values = rng.standard_normal((80, 6)) * 0.5
    values[:, 3] = labels.astype(float)
    assert best_first_search(*correlation_matrix(_matrix(values, labels))) == (3,)


def test_best_first_stall_limit_behavior():
    rng = np.random.default_rng(7)
    labels = np.tile([0, 1], 40)
    corr = correlation_matrix(_matrix(rng.standard_normal((80, 8)), labels))
    eager = best_first_search(*corr, stall_limit=1)
    patient = best_first_search(*corr, stall_limit=None)
    assert cfs_merit(patient, *corr) >= cfs_merit(eager, *corr) - 1e-12
    with pytest.raises(ConfigError):
        best_first_search(*corr, stall_limit=0)


def test_best_first_beats_every_singleton():
    rng = np.random.default_rng(8)
    fm = _matrix(rng.standard_normal((60, 7)), rng.integers(0, 2, 60))
    corr = correlation_matrix(fm)
    best = cfs_merit(best_first_search(*corr), *corr)
    for i in range(len(fm.names)):
        assert best >= cfs_merit([i], *corr) - 1e-12


def test_best_first_equals_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        labels = rng.integers(0, 2, 40)
        if labels.min() == labels.max():
            continue
        ff, fc = correlation_matrix(_matrix(rng.standard_normal((40, 7)), labels))
        ref_idx, _ = oracles.exhaustive_best_subset(fc, ff)
        assert best_first_search(ff, fc, stall_limit=None) == ref_idx


def _fold_training_matrices(out_dir, seed):
    """Per-fold training matrices (5-fold x 2) of a 14+7 channel extract."""
    cfg = PipelineConfig(synthetic=True, synthetic_n0=14, synthetic_n1=7,
                         synthetic_length=512, cv_folds=5, cv_repeats=2, seed=seed,
                         out_dir=str(out_dir))
    stage_ingest(cfg)
    stage_sample(cfg, "95", 1.96)
    fm = stage_extract(cfg, "95")["Case1"]
    return [_matrix(fm.values[train], fm.labels[train], names=fm.names)
            for r in range(cfg.cv_repeats)
            for train, _ in kfold_split(fm.labels, cfg, repeat=r)]


def _random_matrices(n_matrices, seed):
    """Random matrices; every third has a duplicated column, every third
    (offset by one) a constant column, every fifth a column equal to the label."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_matrices):
        n, d = int(rng.integers(20, 60)), int(rng.integers(3, 30))
        labels = np.tile([0, 1], n)[:n]
        values = rng.standard_normal((n, d))
        if i % 3 == 0:
            values[:, rng.integers(d)] = values[:, rng.integers(d)]
        if i % 3 == 1:
            values[:, rng.integers(d)] = 2.5
        if i % 5 == 0:
            values[:, rng.integers(d)] = labels
        out.append(_matrix(values, labels))
    return out


def _tie_between_duplicates(got, ref, ff, fc):
    """got and ref differ only by exchanging duplicated columns (|r_ff| = 1),
    so their merits tie in exact arithmetic and rounding picks the winner."""
    gi, ri = set(got), set(ref)
    swapped = len(gi - ri) == len(ri - gi) and all(
        any(abs(ff[a, b]) == 1.0 for b in ri - gi) for a in gi - ri)
    return swapped and cfs_merit(got, ff, fc) == pytest.approx(cfs_merit(ref, ff, fc), abs=1e-12)


# f2 and f5 are duplicates; here the two searches break the {f0, f2|f5, f4}
# tie differently, by the last bit of their sums
_DUPLICATE_TIE = _toy_cm(
    [-0.2520394332539116, -0.1434396163805544, 0.24081673880372764,
     -0.08867285830067162, 0.2776149558187878, 0.24081673880372764],
    [[1.0, 0.3111972452492063, 0.020757893171716054, -0.17772125897938076,
      -0.22498744074627958, 0.020757893171716054],
     [0.3111972452492063, 1.0, 0.41068511778571587, -0.2893424680029309,
      -0.007489840018335755, 0.41068511778571587],
     [0.020757893171716054, 0.41068511778571587, 1.0, 0.19389562775529992,
      0.2592706542521469, 1.0],
     [-0.17772125897938076, -0.2893424680029309, 0.19389562775529992, 1.0,
      0.10333837239027419, 0.19389562775529992],
     [-0.22498744074627958, -0.007489840018335755, 0.2592706542521469,
      0.10333837239027419, 1.0, 0.2592706542521469],
     [0.020757893171716054, 0.41068511778571587, 1.0, 0.19389562775529992,
      0.2592706542521469, 1.0]])


def test_best_first_matches_reference_search(tmp_path):
    """The running-sum search picks the subset the rebuilt-merit search picked,
    except where duplicated columns make two subsets tie exactly."""
    fms = (_fold_training_matrices(tmp_path / "s0", 0)
           + _fold_training_matrices(tmp_path / "s1", 1)
           + _random_matrices(100, seed=16))
    for ff, fc in [correlation_matrix(fm) for fm in fms] + [_DUPLICATE_TIE]:
        for stall_limit in (1, 2, 5):
            got = best_first_search(ff, fc, stall_limit=stall_limit)
            ref = oracles.best_first_search_reference(ff, fc, stall_limit=stall_limit)
            assert got == ref or _tie_between_duplicates(got, ref, ff, fc), (stall_limit, got, ref)


# a later run's head ties the best so far in merit with a smaller index
# tuple: only the tie rule makes the stall-limit-2 search return (0, 2, 3, 5)
_LATE_TIE = _toy_cm(
    [-1.0, 0.0, 1.0, -1.0, 1.0, -1.0],
    [[1.0, 1.0, -1.0, 1.0, -1.0, 0.0], [1.0, 1.0, -1.0, 1.0, 0.0, 1.0],
     [-1.0, -1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0, 1.0, 0.0],
     [-1.0, 0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0, 1.0]])


def test_best_first_equals_the_heap_search():
    """Merging one sorted run per expansion pops the subsets that one heap of
    every child pops, so the search returns the heap search's subset: with
    merit ties from rounded correlations, duplicated and constant columns,
    each stall limit, and the whole lattice for up to 12 features."""
    assert best_first_search(*_LATE_TIE, stall_limit=2) == (0, 2, 3, 5)
    assert oracles.best_first_search_heap(*_LATE_TIE, stall_limit=2) == (0, 2, 3, 5)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200)
    @hypothesis.given(data=st.data())
    @hypothesis.example(data=None)  # an exhaustive search of 12 features
    def check(data):
        if data is None:
            rng = np.random.default_rng(0)
            ff, fc = correlation_matrix(_matrix(rng.standard_normal((40, 12)), np.tile([0, 1], 20)))
            stall_limit = None
        else:
            d = data.draw(st.integers(1, 24), label="d")
            # a coarse grid makes merits tie; None draws unrounded correlations
            grid = data.draw(st.sampled_from([1, 2, 4, 10, None]), label="grid")
            r = (st.floats(-1.0, 1.0) if grid is None
                 else st.integers(-grid, grid).map(lambda v: v / grid))
            fc = np.array(data.draw(st.lists(r, min_size=d, max_size=d), label="fc"))
            ff = np.eye(d)
            upper = np.triu_indices(d, 1)
            ff[upper] = data.draw(st.lists(r, min_size=len(upper[0]), max_size=len(upper[0])),
                                  label="ff")
            ff.T[upper] = ff[upper]
            column = st.integers(0, d - 1)
            for i, j in data.draw(st.lists(st.tuples(column, column), max_size=3), label="dups"):
                ff[j], fc[j] = ff[i], fc[i]
                ff[:, j] = ff[:, i]
            for j in data.draw(st.lists(column, max_size=2), label="constants"):
                ff[j], ff[:, j], fc[j] = 0.0, 0.0, 0.0
                ff[j, j] = 1.0
            stall_limit = data.draw(st.integers(1, 6) | st.none() if d <= 10
                                    else st.integers(1, 6), label="stall_limit")
        got = best_first_search(ff, fc, stall_limit=stall_limit)
        assert got == oracles.best_first_search_heap(ff, fc, stall_limit=stall_limit)

    check()


def test_range_bounds_reference_points():
    def band(values):
        lo, hi = _bands(np.array(values)[:, None])
        return float(lo[0]), float(hi[0])

    assert band([2.0, 4.0, 6.0]) == (2.0, 6.0)
    assert band([0.0, 5.0, 10.0]) == (2.5, 7.5)
    assert band([0.0]) == (0.0, 0.0)
    # negative sum flips the half-width; bounds must still be ordered
    lo, hi = band([-10.0, 2.0])
    assert lo == -6.0 and hi == -2.0
    # each column of a block gets its own band
    lo, hi = _bands(np.array([[2.0, 0.0, -10.0], [4.0, 5.0, 2.0], [6.0, 10.0, 2.0]]))
    assert lo.tolist() == [2.0, 2.5, -6.0] and hi.tolist() == [6.0, 7.5, -2.0]


def test_range_filter_keeps_and_drops():
    rng = np.random.default_rng(10)
    labels = np.tile([0, 1], 30)
    inside = rng.uniform(0.4, 0.6, 60) + labels * 0.05
    # bimodal at the extremes: bounds are [0.25, 0.75], mass sits outside
    outlier = np.where(rng.uniform(size=60) < 0.5, 0.01, 0.99)
    outlier[:3] = 0.5  # a little mass inside, below the 20% cutoff
    fm = _matrix(np.column_stack([inside, outlier]), labels, names=("good", "spread"))
    subset = range_filter(fm, ("good", "spread"), correlation_matrix(fm))
    assert subset.names == ("good",)
    assert subset.eliminated_by_range == ("spread",)
    lo, hi = subset.range_bounds["spread"]
    ref = oracles.in_range_fraction_direct(outlier, lo, hi)
    assert subset.in_range_fraction["spread"] == pytest.approx(ref)
    assert ref < 0.2


def test_range_filter_threshold_one_keeps_everything():
    rng = np.random.default_rng(11)
    labels = np.tile([0, 1], 20)
    fm = _matrix(rng.uniform(size=(40, 3)), labels)
    subset = range_filter(fm, ("f0", "f1", "f2"), correlation_matrix(fm), threshold=1.0)
    assert subset.names == ("f0", "f1", "f2")
    assert subset.eliminated_by_range == ()


def test_range_filter_fallback_keeps_most_correlated():
    labels = np.tile([0, 1], 20)
    # both features bimodal at extremes (always eliminated); f1 tracks the class
    f0 = np.where(np.random.default_rng(12).uniform(size=40) < 0.5, 0.0, 1.0)
    f1 = labels * 1000.0 - 500.0
    fm = _matrix(np.column_stack([f0, f1]), labels)
    subset = range_filter(fm, ("f0", "f1"), correlation_matrix(fm))
    assert subset.names == ("f1",)
    assert set(subset.eliminated_by_range) == {"f0"}


def test_range_filter_row_order_invariant():
    rng = np.random.default_rng(13)
    labels = np.tile([0, 1], 25)
    values = rng.uniform(size=(50, 4))
    fm = _matrix(values, labels)
    perm = rng.permutation(50)
    shuffled = _matrix(values[perm], labels[perm])
    a = range_filter(fm, fm.names, correlation_matrix(fm))
    b = range_filter(shuffled, shuffled.names, correlation_matrix(shuffled))
    assert a.names == b.names
    assert a.range_bounds == b.range_bounds


def test_select_features_recovers_informative_subset():
    rng = np.random.default_rng(14)
    n = 120
    labels = np.tile([0, 1], n // 2)
    noise = rng.normal(0.5, 0.1, size=(n, 57))
    informative = np.column_stack([
        np.where(labels == 0, rng.normal(0.35, 0.03, n), rng.normal(0.65, 0.03, n)),
        np.where(labels == 0, rng.normal(0.40, 0.04, n), rng.normal(0.62, 0.04, n)),
        np.where(labels == 0, rng.normal(0.30, 0.05, n), rng.normal(0.68, 0.05, n)),
    ])
    names = tuple(f"inf{i}" for i in range(3)) + tuple(f"noise{i}" for i in range(57))
    fm = _matrix(np.column_stack([informative, noise]), labels, names=names)
    subset = select_features(fm)
    assert set(subset.names) <= {"inf0", "inf1", "inf2"}
    assert len(subset.names) <= len(subset.prefilter_names)


def test_select_features_deterministic():
    rng = np.random.default_rng(15)
    values = rng.standard_normal((60, 8))
    labels = np.tile([0, 1], 30)
    a = select_features(_matrix(values, labels))
    b = select_features(_matrix(values.copy(), labels.copy()))
    assert a.names == b.names
    assert a.merit == b.merit
