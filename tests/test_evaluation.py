import dataclasses

import numpy as np
import pytest

import oracles
from eegstrata import (ConfigError, FeatureMatrix, PipelineConfig, kfold_split,
                       run_cv, weighted_accuracy)


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
    with pytest.raises(ConfigError, match="^n_folds must be at least 2, got 1$"):
        PipelineConfig(cv_folds=1)
    with pytest.raises(ConfigError, match="^n_repeats must be at least 1, got 0$"):
        PipelineConfig(cv_repeats=0)
    with pytest.raises(ConfigError, match="unknown selection mode 'leave-one-out'"):
        PipelineConfig(selection_mode="leave-one-out")
    cfg = PipelineConfig()
    assert cfg.cv_folds == 10 and cfg.cv_repeats == 20


def test_kfold_unstratified_still_partitions():
    labels = np.array([0] * 5 + [1] * 15)
    cfg = PipelineConfig(cv_folds=10, seed=5, cv_stratified=False)
    splits = kfold_split(labels, cfg)
    all_test = np.concatenate([test for _, test in splits])
    assert sorted(all_test.tolist()) == list(range(20))


def test_kfold_class_smaller_than_folds_raises():
    labels = np.array([0] * 17 + [1] * 3)
    with pytest.raises(ConfigError):
        kfold_split(labels, PipelineConfig(cv_folds=5))


def test_kfold_deterministic_per_seed_and_repeat():
    labels = np.tile([0, 1], 25)
    cfg = PipelineConfig(cv_folds=5, seed=6)
    a = kfold_split(labels, cfg, repeat=2)
    b = kfold_split(labels, cfg, repeat=2)
    c = kfold_split(labels, cfg, repeat=3)
    for (ta, sa), (tb, sb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(sa, sb)
    assert any(not np.array_equal(sa, sc) for (_, sa), (_, sc) in zip(a, c))


def test_run_cv_separable_data_scores_high():
    fm = _separable(7)
    cfg = PipelineConfig(cv_folds=5, cv_repeats=2, seed=0, rf_trees=20, selection_mode="off")
    result = run_cv(fm, cfg)
    assert result.mean >= 99.0
    assert len(result.per_repeat) == 2


def test_run_cv_shuffled_labels_score_near_chance():
    rng = np.random.default_rng(8)
    fm = _fm(rng.standard_normal((80, 4)), np.tile([0, 1], 40))
    cfg = PipelineConfig(cv_folds=5, cv_repeats=3, seed=1, rf_trees=20, selection_mode="off")
    result = run_cv(fm, cfg)
    assert 30.0 <= result.mean <= 70.0


def test_run_cv_single_repeat_has_zero_std():
    fm = _separable(9, n_per_class=15)
    result = run_cv(fm, PipelineConfig(classifier="nb", cv_folds=3, cv_repeats=1,
                                       selection_mode="off"))
    assert result.std == 0.0
    assert len(result.per_repeat) == 1
    assert result.mean == result.per_repeat[0]


def test_run_cv_mean_and_std_match_per_repeat():
    fm = _separable(10, n_per_class=10, d=2)
    result = run_cv(fm, PipelineConfig(classifier="knn", knn_k=3, cv_folds=4, cv_repeats=5,
                                       selection_mode="off"))
    arr = np.array(result.per_repeat)
    assert result.mean == pytest.approx(arr.mean(), abs=1e-12)
    assert result.std == pytest.approx(arr.std(), abs=1e-12)


def test_run_cv_deterministic():
    fm = _separable(11, n_per_class=12)
    cfg = PipelineConfig(cv_folds=4, cv_repeats=2, seed=5, rf_trees=10, selection_mode="per-fold")
    a = run_cv(fm, cfg)
    b = run_cv(fm, cfg)
    assert a == b


def test_run_cv_selection_modes_all_work():
    fm = _separable(12, n_per_class=15)
    cfg = PipelineConfig(cv_folds=3, cv_repeats=1, seed=2, rf_trees=10)
    for mode in ("per-fold", "global", "off"):
        result = run_cv(fm, dataclasses.replace(cfg, selection_mode=mode))
        assert result.mean >= 90.0
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, selection_mode="leave-one-out")


# a value other than the base config's for every field classify must not read
# for some classifier: every field outside classify_settings() and classifier
_OTHER_VALUES = {
    "data_dir": "elsewhere", "synthetic": True, "synthetic_n0": 7, "synthetic_n1": 3,
    "synthetic_length": 1024, "synthetic_burst_amplitude": 0.5, "cases": ("Case2", "Case3"),
    "confidence_levels": (70, 99), "z": 2.5, "p": 0.3, "e": 0.05, "n_strata": 2,
    "policy": "systematic", "knn_k": 5, "knn_standardize": False, "rf_trees": 7,
    "rf_seed": 11, "rf_max_features": "all", "rf_bootstrap": False, "nb_var_floor": 1e-3,
    "out_dir": "elsewhere",
}


@pytest.mark.parametrize("kind", ["rf", "nb", "knn"])
def test_run_cv_reads_only_the_classify_settings(kind):
    """run_cv's result depends on the config only through the classifier and
    the fields classify_settings() names, which evaluation_<case>.json records."""
    rng = np.random.default_rng(13)
    labels = np.repeat([0, 1], 15)
    fm = _fm(rng.standard_normal((30, 5)) + 0.8 * labels[:, None], labels)
    cfg = PipelineConfig(classifier=kind, rf_trees=10, cv_folds=3, cv_repeats=2, seed=3)
    unread = set(dataclasses.asdict(cfg)) - set(cfg.classify_settings()) - {"classifier"}
    assert unread <= set(_OTHER_VALUES), unread - set(_OTHER_VALUES)
    want = run_cv(fm, cfg)
    # the classes overlap, so the folds, which the seed sets, move the result
    assert run_cv(fm, dataclasses.replace(cfg, seed=4)) != want
    for name in sorted(unread):
        assert _OTHER_VALUES[name] != getattr(cfg, name), name
        assert run_cv(fm, dataclasses.replace(cfg, **{name: _OTHER_VALUES[name]})) == want, name


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

