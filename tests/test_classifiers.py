import dataclasses
import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from eegstrata import (ConfigError, DataError, DegenerateDataError, FeatureMatrix,
                       KNNClassifier, NaiveBayesClassifier, PipelineConfig,
                       RandomForestClassifier, make_classifier)
from eegstrata.classifiers import CLASSIFIER_KINDS


def _fm(values, labels):
    values = np.asarray(values, dtype=float)
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(names=names, values=values, labels=np.asarray(labels))


def _blobs(seed, n_per_class=20, d=3, separation=6.0, scale=1.0):
    rng = np.random.default_rng(seed)
    c0 = rng.normal(0.0, scale, size=(n_per_class, d))
    c1 = rng.normal(separation, scale, size=(n_per_class, d))
    values = np.vstack([c0, c1])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return _fm(values, labels)


def test_knn_exact_match_wins_at_k1():
    fm = _blobs(1)
    model = KNNClassifier(k=1).fit(fm)
    pred = model.predict(fm.values)
    assert np.array_equal(pred, fm.labels)


def test_knn_k_equals_n_returns_majority():
    values = np.arange(10, dtype=float)[:, None]
    labels = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    fm = _fm(values, labels)
    pred = KNNClassifier(k=10).fit(fm).predict([[100.0], [-5.0]])
    assert np.array_equal(pred, [1, 1])


def test_knn_agrees_with_brute_force():
    rng = np.random.default_rng(2)
    fm = _blobs(2, n_per_class=15, separation=2.0)
    queries = rng.normal(1.0, 2.0, size=(25, 3))
    for k in (1, 3, 5):
        model = KNNClassifier(k=k, standardize=False).fit(fm)
        got = model.predict(queries)
        ref = [oracles.knn_brute(fm.values, fm.labels, q, k) for q in queries]
        assert np.array_equal(got, ref)


def test_knn_distance_tie_prefers_lower_train_index():
    values = np.array([[0.0, 5.0], [0.0, 5.0], [9.0, 5.0]])
    fm = _fm(values, [1, 0, 0])
    pred = KNNClassifier(k=1, standardize=False).fit(fm).predict([[0.0, 5.0]])
    assert pred[0] == 1


def test_knn_vote_tie_prefers_label_zero():
    fm = _fm([[0.0], [1.0]], [1, 0])
    pred = KNNClassifier(k=2).fit(fm).predict([[0.5]])
    assert pred[0] == 0


def test_knn_standardization_changes_the_answer():
    # f0 carries a huge, misleading scale; z-scoring restores the tie and
    # the tie rule then prefers the class-0 training row
    fm = _fm([[0.0, 0.0], [100.0, 1.0]], [0, 1])
    raw = KNNClassifier(k=1, standardize=False).fit(fm).predict([[100.0, 0.0]])
    scaled = KNNClassifier(k=1, standardize=True).fit(fm).predict([[100.0, 0.0]])
    assert raw[0] == 1
    assert scaled[0] == 0


def test_knn_validation():
    fm = _blobs(3)
    with pytest.raises(ConfigError):
        KNNClassifier(k=0)
    with pytest.raises(ConfigError):
        KNNClassifier(k=fm.n_rows + 1).fit(fm)
    with pytest.raises(DataError):
        KNNClassifier().fit(_fm([[1.0], [2.0]], [0, 0]))


def test_nb_separable_blobs():
    fm = _blobs(4, n_per_class=30)
    model = NaiveBayesClassifier().fit(fm)
    assert np.array_equal(model.predict(fm.values), fm.labels)


def test_nb_prior_dominates_uninformative_features():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((100, 4))
    labels = np.array([0] * 90 + [1] * 10)
    model = NaiveBayesClassifier().fit(_fm(values, labels))
    pred = model.predict(rng.standard_normal((200, 4)))
    assert pred.mean() < 0.2


def test_nb_log_posterior_matches_oracle():
    rng = np.random.default_rng(6)
    fm = _blobs(6, n_per_class=12, d=4, separation=1.5)
    model = NaiveBayesClassifier().fit(fm)
    queries = rng.standard_normal((8, 4))
    got = model.log_posterior(queries)
    for i, q in enumerate(queries):
        ref = oracles.nb_log_scores(fm.values, fm.labels, q)
        assert got[i, 0] == pytest.approx(ref[0], abs=1e-9)
        assert got[i, 1] == pytest.approx(ref[1], abs=1e-9)


def test_nb_validation():
    with pytest.raises(ConfigError):
        NaiveBayesClassifier(var_floor=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="var_floor must be positive and finite"):
            NaiveBayesClassifier(var_floor=bad)
    with pytest.raises(DataError):
        NaiveBayesClassifier().fit(_fm([[1.0], [2.0]], [1, 1]))
    # each class density takes log(2 pi var_floor), which overflows above float64 max / 2 pi
    for bad in (3e307, 1e308):
        with pytest.raises(ConfigError, match="^var_floor must be positive and finite, "
                                              r"at most 2\.86112e\+307, got "):
            NaiveBayesClassifier(var_floor=bad)
    assert NaiveBayesClassifier(var_floor=2.8e307).var_floor == 2.8e307


def test_nb_refuses_a_class_variance_whose_density_overflows():
    """A column of +-6.5e153 has a class variance of 4.2e307, finite, but
    2 pi times it is not: nb used to warn and predict class 0 for every row."""
    values = np.column_stack([np.tile([6.5e153, -6.5e153], 4), np.arange(8.0)])
    labels = np.repeat([0, 1], 4)
    assert np.isfinite(values[:4, 0].var()) and values[:4, 0].var() > 4e307
    with np.errstate(all="raise"):
        with pytest.raises(DegenerateDataError,
                           match="^feature f0: its variance overflows float64; rescale the data$"):
            NaiveBayesClassifier().fit(_fm(values, labels))
        # halved, the column's 2 pi multiple stays finite: the second feature decides
        values[:, 0] /= 2.0
        model = NaiveBayesClassifier().fit(_fm(values, labels))
        assert np.array_equal(model.predict(values), labels)


@pytest.mark.parametrize("scale, query", [(1.0, 1e200), (0.1, 1.7e308)])
@pytest.mark.parametrize("seed", range(5))
def test_nb_and_knn_rank_a_query_far_outside_the_training_data(seed, scale, query):
    """Squares of a query row at +-1e200 overflow, and at +-1.7e308 so does
    its standardized value: nb and kNN used to warn and predict class 0. nb
    picks the class of the wider fitted density, class 1 but at seed 3;
    kNN's nearest rows are the largest training values for +query and the
    smallest for -query."""
    rng = np.random.default_rng(seed)
    values = scale * np.concatenate([rng.normal(0.0, 1.0, 10), rng.normal(3.0, 2.0, 10)])
    labels = np.repeat([0, 1], 10)
    fm = _fm(values[:, None], labels)
    ranked = labels[np.argsort(values)]
    expected = [int(ranked[-3:].sum() >= 2), int(ranked[:3].sum() >= 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wider = int(values[10:].var() > values[:10].var())
        assert wider == (seed != 3)
        assert NaiveBayesClassifier().fit(fm).predict([[query], [-query]]).tolist() == [wider] * 2
        for standardize in (True, False):
            model = KNNClassifier(standardize=standardize).fit(fm)
            assert model.predict([[query], [-query]]).tolist() == expected


@pytest.mark.parametrize("exponent", [-540, -1000])
@pytest.mark.parametrize("standardize", [True, False])
def test_knn_predictions_do_not_depend_on_small_units(standardize, exponent):
    # variances and squared distances of such values underflow, which used to
    # change most predictions
    rng = np.random.default_rng(1)
    train = _fm(rng.standard_normal((30, 4)), np.arange(30) % 2)
    queries = rng.standard_normal((25, 4))
    small = _fm(np.ldexp(train.values, exponent), train.labels)
    expected = KNNClassifier(standardize=standardize).fit(train).predict(queries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = KNNClassifier(standardize=standardize).fit(small)
        assert model.predict(np.ldexp(queries, exponent)).tolist() == expected.tolist()


@pytest.mark.parametrize("seed", range(5))
def test_knn_ranks_a_query_far_beyond_tiny_training_values(seed):
    """The far-query test's values times 1e-310, queried at +-1e300: the
    training rows, scaled by the query's power of two, used to underflow to
    0 and tie, so the lowest-index rows voted."""
    rng = np.random.default_rng(seed)
    values = 1e-310 * np.concatenate([rng.normal(0.0, 1.0, 10), rng.normal(3.0, 2.0, 10)])
    labels = np.repeat([0, 1], 10)
    ranked = labels[np.argsort(values)]
    expected = [int(ranked[-3:].sum() >= 2), int(ranked[:3].sum() >= 2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for standardize in (True, False):
            model = KNNClassifier(standardize=standardize).fit(_fm(values[:, None], labels))
            assert model.predict([[1e300], [-1e300]]).tolist() == expected


def test_single_tree_matches_reference_tree():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(20, 3))
    labels = (values[:, 0] + 0.5 * values[:, 2] > 0).astype(int)
    if labels.min() == labels.max():  # pragma: no cover - seed is fixed
        pytest.fail("fixture must contain both classes")
    fm = _fm(values, labels)
    model = RandomForestClassifier(trees=1, seed=0, max_features="all",
                                   bootstrap=False).fit(fm)
    ref = oracles.reference_tree(values, labels)
    queries = np.vstack([values, rng.normal(size=(40, 3))])
    got = model.predict(queries)
    expected = [oracles.reference_tree_predict(ref, q) for q in queries]
    assert np.array_equal(got, expected)


def test_rf_fits_separable_training_data():
    fm = _blobs(8, n_per_class=25)
    model = RandomForestClassifier(seed=1).fit(fm)
    assert np.array_equal(model.predict(fm.values), fm.labels)


def test_rf_same_seed_same_predictions():
    fm = _blobs(9, separation=1.0)
    queries = np.random.default_rng(9).normal(0.5, 1.0, size=(30, 3))
    a = RandomForestClassifier(trees=15, seed=4).fit(fm).predict(queries)
    b = RandomForestClassifier(trees=15, seed=4).fit(fm).predict(queries)
    assert np.array_equal(a, b)


def test_rf_label_flip_equivariance():
    fm = _blobs(10, n_per_class=15)
    flipped = FeatureMatrix(names=fm.names, values=fm.values, labels=1 - fm.labels)
    queries = np.random.default_rng(10).normal(3.0, 2.0, size=(20, 3))
    pred = RandomForestClassifier(trees=5, seed=2).fit(fm).predict(queries)
    pred_flipped = RandomForestClassifier(trees=5, seed=2).fit(flipped).predict(queries)
    assert np.array_equal(pred_flipped, 1 - pred)


def test_tree_invariant_to_monotone_feature_transforms():
    # order statistics drive every split, so cubing the inputs must not
    # change predictions on the training rows themselves
    rng = np.random.default_rng(11)
    values = rng.normal(size=(30, 2))
    labels = (values.sum(axis=1) > 0).astype(int)
    cubed = values ** 3
    a = RandomForestClassifier(trees=1, seed=0, max_features="all",
                               bootstrap=False).fit(_fm(values, labels)).predict(values)
    b = RandomForestClassifier(trees=1, seed=0, max_features="all",
                               bootstrap=False).fit(_fm(cubed, labels)).predict(cubed)
    assert np.array_equal(a, b)


def test_rf_validation():
    with pytest.raises(ConfigError):
        RandomForestClassifier(trees=0)
    # each parameter is checked when the forest is made, naming the value
    for params, named in [({"seed": None}, "seed must be an int, got None"),
                          ({"seed": 1.5}, "seed must be an int, got 1.5"),
                          ({"seed": "3"}, "seed must be an int, got '3'"),
                          ({"seed": True}, "seed must be an int, got True"),
                          ({"trees": True}, "trees must be an int from 1 to 2^32 - 1, got True"),
                          ({"trees": 2.0}, "got 2.0"),
                          ({"trees": 2**32}, "got 4294967296"),
                          ({"bootstrap": "false"}, "bootstrap must be True or False, got 'false'"),
                          ({"bootstrap": 0}, "got 0")]:
        with pytest.raises(ConfigError, match=re.escape(named)):
            RandomForestClassifier(**params)
    assert RandomForestClassifier(seed=np.int64(7)).seed == 7
    # numpy refused a negative seed when the forest was seeded; so does fit
    model = RandomForestClassifier(trees=2, seed=-1)
    with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
        model.fit(_blobs(3))
    with pytest.raises(ConfigError):
        RandomForestClassifier(max_features="log2")
    with pytest.raises(DataError):
        RandomForestClassifier().fit(_fm([[1.0], [2.0], [3.0]], [0, 1, 2]))


def test_rf_step_memory_is_bounded():
    # the first step searches 100 roots over all 60 features of 135 rows; one
    # unchunked (100, 60, 135) float array of it would be 6.2 MiB, and a step
    # makes about a dozen
    rng = np.random.default_rng(13)
    values = rng.normal(size=(135, 60))
    labels = (values[:, 0] + rng.normal(size=135) > 0).astype(int)
    train = _fm(values, labels)
    tracemalloc.start()
    try:
        RandomForestClassifier(trees=100, max_features="all").fit(train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("a, b", [(1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),  # midpoint rounds to b
                                  (1.6e308, 1.7e308)])  # midpoint overflows to inf
def test_rf_midpoint_that_separates_nothing_makes_a_leaf(a, b):
    # the recursive grower recursed without end here: every row went left
    model = RandomForestClassifier(trees=1, max_features="all",
                                   bootstrap=False).fit(_fm([[a], [b]], [0, 1]))
    assert model._nodes[0].tolist() == [-1]
    assert model.predict([[a], [b]]).tolist() == [0, 0]


@pytest.mark.parametrize("model", [RandomForestClassifier(trees=3), KNNClassifier(k=1),
                                   NaiveBayesClassifier()], ids=["rf", "knn", "nb"])
def test_non_finite_query_rows_are_refused(model):
    model.fit(_fm([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]], [0, 1, 1]))
    with pytest.raises(DataError, match=r"row 1, column 0 is not finite: inf"):
        model.predict([[0.0, 1.0], [np.inf, -np.inf]])
    with pytest.raises(DataError, match=r"row 0, column 1 is not finite: nan"):
        model.predict([0.0, np.nan])


def test_functional_wrappers():
    fm = _blobs(12)
    for model in (KNNClassifier(k=1), NaiveBayesClassifier(),
                  RandomForestClassifier(trees=5, seed=0)):
        assert np.array_equal(model.fit(fm).predict(fm.values), fm.labels)


def test_make_classifier():
    assert make_classifier("knn", k=5).k == 5
    assert isinstance(make_classifier("nb"), NaiveBayesClassifier)
    assert make_classifier("rf", trees=7).n_trees == 7
    with pytest.raises(ConfigError):
        make_classifier("svm")
    with pytest.raises(ConfigError):
        make_classifier("knn", trees=5)


@pytest.mark.parametrize("kind", sorted(CLASSIFIER_KINDS))
def test_config_fields_are_the_constructor_parameters(kind):
    # PipelineConfig.classifier_spec passes the fields <kind>_<param> as the
    # parameters, so a setting without a parameter, or one with another name,
    # would be dropped or refused
    prefix = kind + "_"
    fields = {f.name[len(prefix):] for f in dataclasses.fields(PipelineConfig)
              if f.name.startswith(prefix)}
    assert fields == set(inspect.signature(CLASSIFIER_KINDS[kind]).parameters)


@pytest.mark.parametrize("columns, name", [(slice(None), "f0"), (slice(1, 2), "f1")],
                         ids=["every-column", "one-column"])
@pytest.mark.parametrize("model", [KNNClassifier(), NaiveBayesClassifier()], ids=["knn", "nb"])
def test_a_column_whose_spread_overflows_is_refused(model, columns, name):
    # at 1e160 the squares overflow: both fits used to score chance (0.50)
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 20)
    values = rng.standard_normal((40, 3)) + 2.0 * labels[:, None]
    assert (model.fit(_fm(values, labels)).predict(values) == labels).mean() > 0.9
    values[:, columns] *= 1e160
    with pytest.raises(DegenerateDataError,
                       match=f"^feature {name}: its variance overflows float64; rescale the data$"):
        model.fit(_fm(values, labels))
    forest = RandomForestClassifier().fit(_fm(values, labels))
    assert np.array_equal(forest.predict(values), labels)
