import numpy as np
import pytest

import oracles
from eegstrata import (ConfigError, CVConfig, CVResult, DataError,
                       EvaluationReport, FeatureMatrix, kfold_split, run_cv,
                       weighted_accuracy)


def _fm(values, labels):
    values = np.asarray(values, dtype=float)
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(names=names, values=values, labels=np.asarray(labels))


def _separable(seed, n_per_class=30, d=4):
    rng = np.random.default_rng(seed)
    values = np.vstack([
        rng.normal(0.0, 1.0, size=(n_per_class, d)),
        rng.normal(8.0, 1.0, size=(n_per_class, d)),
    ])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return _fm(values, labels)


def test_cv_config_validation():
    with pytest.raises(ConfigError):
        CVConfig(n_folds=1)
    with pytest.raises(ConfigError):
        CVConfig(n_repeats=0)
    cfg = CVConfig()
    assert cfg.n_folds == 10 and cfg.n_repeats == 20


def test_kfold_partitions_every_index_once():
    labels = np.tile([0, 1], 150)
    cfg = CVConfig(n_folds=10, seed=3)
    splits = kfold_split(300, labels, cfg)
    assert len(splits) == 10
    all_test = np.concatenate([test for _, test in splits])
    assert sorted(all_test.tolist()) == list(range(300))
    for train, test in splits:
        assert test.size == 30
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == 300
        # indices come back sorted so downstream slicing is reproducible
        assert np.all(np.diff(test) > 0)
        assert np.all(np.diff(train) > 0)


def test_kfold_stratification_preserves_class_ratio():
    labels = np.array([0] * 200 + [1] * 100)
    cfg = CVConfig(n_folds=10, seed=4)
    for _, test in kfold_split(300, labels, cfg):
        counts = np.bincount(labels[test], minlength=2)
        assert counts[0] == 20
        assert counts[1] == 10


def test_kfold_unstratified_still_partitions():
    labels = np.array([0] * 5 + [1] * 15)
    cfg = CVConfig(n_folds=10, seed=5, stratified=False)
    splits = kfold_split(20, labels, cfg)
    all_test = np.concatenate([test for _, test in splits])
    assert sorted(all_test.tolist()) == list(range(20))


def test_kfold_class_smaller_than_folds_raises():
    labels = np.array([0] * 17 + [1] * 3)
    with pytest.raises(ConfigError):
        kfold_split(20, labels, CVConfig(n_folds=5))


def test_kfold_deterministic_per_seed_and_repeat():
    labels = np.tile([0, 1], 25)
    cfg = CVConfig(n_folds=5, seed=6)
    a = kfold_split(50, labels, cfg, repeat=2)
    b = kfold_split(50, labels, cfg, repeat=2)
    c = kfold_split(50, labels, cfg, repeat=3)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    assert any(not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c))


def test_run_cv_separable_data_scores_high():
    fm = _separable(7)
    cfg = CVConfig(n_folds=5, n_repeats=2, seed=0)
    result = run_cv(fm, ("rf", {"n_trees": 20}), cfg, select="off")
    assert result.mean >= 99.0
    assert result.n_repeats == 2


def test_run_cv_shuffled_labels_score_near_chance():
    rng = np.random.default_rng(8)
    fm = _fm(rng.standard_normal((80, 4)), np.tile([0, 1], 40))
    cfg = CVConfig(n_folds=5, n_repeats=3, seed=1)
    result = run_cv(fm, ("rf", {"n_trees": 20}), cfg, select="off")
    assert 30.0 <= result.mean <= 70.0


def test_run_cv_single_repeat_has_zero_std():
    fm = _separable(9, n_per_class=15)
    result = run_cv(fm, "nb", CVConfig(n_folds=3, n_repeats=1), select="off")
    assert result.std == 0.0
    assert len(result.per_repeat) == 1
    assert result.mean == result.per_repeat[0]


def test_run_cv_mean_and_std_match_per_repeat():
    fm = _separable(10, n_per_class=10, d=2)
    result = run_cv(fm, ("knn", {"k": 3}), CVConfig(n_folds=4, n_repeats=5), select="off")
    arr = np.array(result.per_repeat)
    assert result.mean == pytest.approx(arr.mean(), abs=1e-12)
    assert result.std == pytest.approx(arr.std(), abs=1e-12)


def test_run_cv_deterministic():
    fm = _separable(11, n_per_class=12)
    cfg = CVConfig(n_folds=4, n_repeats=2, seed=5)
    a = run_cv(fm, ("rf", {"n_trees": 10}), cfg, select="per-fold")
    b = run_cv(fm, ("rf", {"n_trees": 10}), cfg, select="per-fold")
    assert a == b


def test_run_cv_selection_modes_all_work():
    fm = _separable(12, n_per_class=15)
    cfg = CVConfig(n_folds=3, n_repeats=1, seed=2)
    for mode in ("per-fold", "global", "off"):
        result = run_cv(fm, ("rf", {"n_trees": 10}), cfg, select=mode)
        assert result.mean >= 90.0
    with pytest.raises(ConfigError):
        run_cv(fm, "rf", cfg, select="leave-one-out")


def test_weighted_accuracy_reference_rows():
    assert weighted_accuracy([98.73, 96.20, 97.40], [300, 300, 500]) == pytest.approx(97.44, abs=0.005)
    assert weighted_accuracy([98.60, 96.20, 96.96], [300, 300, 500]) == pytest.approx(97.20, abs=0.005)


def test_weighted_accuracy_properties():
    rng = np.random.default_rng(13)
    values = rng.uniform(80, 100, 6)
    weights = rng.uniform(1, 10, 6)
    ref = oracles.weighted_mean_direct(values, weights)
    assert weighted_accuracy(values, weights) == pytest.approx(ref, abs=1e-12)
    # equal weights reduce to the plain mean; rescaling weights changes nothing
    assert weighted_accuracy(values, np.ones(6)) == pytest.approx(values.mean(), abs=1e-12)
    assert weighted_accuracy(values, 17.0 * weights) == pytest.approx(ref, abs=1e-12)


def test_weighted_accuracy_validation():
    with pytest.raises(ConfigError):
        weighted_accuracy([1.0, 2.0], [1.0])
    with pytest.raises(ConfigError):
        weighted_accuracy([], [])
    with pytest.raises(ConfigError):
        weighted_accuracy([1.0], [0.0])
    with pytest.raises(ConfigError):
        weighted_accuracy([1.0, 2.0], [1.0, -1.0])


def test_evaluation_report_round_trip():
    results = {
        "Case1": CVResult(mean=98.0, std=0.5, per_repeat=(98.0,)),
        "Case2": CVResult(mean=96.0, std=0.25, per_repeat=(96.0,)),
    }
    report = EvaluationReport.from_cases(results, {"Case1": 300, "Case2": 500},
                                         selected={"Case1": {"selected": ["s1_std"]}})
    assert report.weighted_average == pytest.approx(
        oracles.weighted_mean_direct([98.0, 96.0], [300, 500]), abs=1e-12)
    d = report.to_dict()
    assert d["per_case"]["Case1"] == {"mean": 98.0, "std": 0.5}
    assert d["weights"] == {"Case1": 300, "Case2": 500}
    assert d["selected"]["Case1"]["selected"] == ["s1_std"]


def test_evaluation_report_validation():
    with pytest.raises(ConfigError):
        EvaluationReport(per_case={"a": (90.0, 1.0)}, weights={"b": 1})
    with pytest.raises(DataError):
        EvaluationReport(per_case={"a": (101.0, 1.0)}, weights={"a": 1})
