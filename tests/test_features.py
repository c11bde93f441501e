import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from eegstrata import (FEATURE_ORDER, Channel, ConfigError, DataError,
                       FeatureMatrix, extract_vector, feature_names,
                       fluctuation_index, hurst_exponent, sample_entropy,
                       shannon_entropy, stratify)
from eegstrata import features
from eegstrata.features import basic_stats, quartiles, stratum_features
from eegstrata.sampler import _unit_scale


def test_basic_stats_trivial():
    got = basic_stats([1, 2, 3])
    assert got["mean"] == 2 and got["median"] == 2
    assert got["min"] == 1 and got["max"] == 3


def test_basic_stats_constant_degenerate():
    got = basic_stats([5.0, 5.0, 5.0, 5.0])
    assert got["std"] == 0.0
    assert got["skewness"] == 0.0 and got["kurtosis"] == 0.0
    assert got["mode"] == 5.0
    # the mean of 64 copies of 0.1 rounds, so every deviation is the same
    # tiny number, whose std would be 1.4e-17 and skewness and kurtosis 1 and 1
    got = basic_stats(np.full(64, 0.1))
    assert got["std"] == 0.0
    assert got["skewness"] == 0.0 and got["kurtosis"] == 0.0


@pytest.mark.parametrize("exponent", [266, 500])
def test_moments_that_overflow_are_taken_at_an_exact_rescale(exponent):
    # at 2**266 the fourth moment of a Gaussian stratum overflows float64,
    # at 2**500 the third too; scaling by a power of two is exact, and only
    # m2 ** 1.5 may round differently
    x = np.random.default_rng(15).standard_normal(1024)
    big = np.ldexp(x, exponent)
    with np.errstate(all="ignore"):
        assert np.mean((big - big.mean()) ** 4) == np.inf
        got = basic_stats(big)
    base = basic_stats(x)
    assert got["kurtosis"] == base["kurtosis"]
    assert abs(got["skewness"] - base["skewness"]) <= 4 * np.spacing(abs(base["skewness"]))
    row = extract_vector([Channel(id="E/x", set_label="E", samples=big)], (512, 512))[0]
    assert np.isfinite(row).all()


@pytest.mark.parametrize("exponent", [300, 520, 1000])
def test_large_finite_input_keeps_every_feature_quietly(exponent):
    # at 2**300 the direct moments overflow, and from 2**520 the std's sum of
    # squares, Hurst's window stds and sample entropy's r = 0.2 * std too;
    # each is taken at an exact power-of-two rescale, and without a warning
    x = np.random.default_rng(18).standard_normal(1024)
    base = stratum_features(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stratum_features(np.ldexp(x, exponent))
    assert got["std"] == base["std"] * 2.0 ** exponent
    for key in ("skewness", "kurtosis", "hurst", "sample_entropy"):
        assert got[key] == pytest.approx(base[key], rel=1e-12), key


def test_every_feature_is_finite_at_the_top_of_the_range():
    # largest magnitude in [2**1023, 2**1024): the sums behind the mean and
    # fluctuation index overflow, and the mode's values times 10**6 do from
    # a scale of 1e302; each value that is not finite is taken again on the
    # row scaled by a power of two, which is exact
    x = np.random.default_rng(19).standard_normal(1024)
    shift = 1024 - np.frexp(np.abs(x).max())[1]
    big = np.ldexp(x, shift)
    with np.errstate(all="ignore"):
        assert not np.isfinite([big.mean(), np.abs(np.diff(big)).mean(), big.std()]).any()
        assert np.isinf(np.round(x * 1e302, 6)).any()
    base = stratum_features(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stratum_features(big)
        near = stratum_features(x * 1e302)
    for feats, signal in ((got, big), (near, x * 1e302)):
        assert np.isfinite(list(feats.values())).all()
        scaled, exponent = _unit_scale(signal)
        assert feats["mode"] == np.ldexp(basic_stats(scaled)["mode"], exponent)
    for key in ("std", "mean", "min", "max", "median", "q1", "q3", "iqr", "fluctuation_index"):
        assert got[key] == np.ldexp(base[key], shift), key
    for key in ("skewness", "kurtosis", "hurst", "sample_entropy"):
        assert got[key] == pytest.approx(base[key], rel=1e-12), key


def test_a_nan_hurst_fit_is_named_on_its_own_channel():
    # one sample in eight is 1 + 2**-52 and the rest 1.0: every window's
    # mean rounds to 1.0, so R is 0 while S is not, log(R/S) is -inf and
    # the fit is NaN; the other channels' shared fit must not see that row
    rng = np.random.default_rng(17)
    spiky = np.ones(256)
    spiky[::8] += 2.0 ** -52
    channels = [Channel(id=f"A/c{i}", set_label="A", samples=rng.standard_normal(256))
                for i in range(2)]
    channels.append(Channel(id="A/spiky", set_label="A", samples=spiky))
    with pytest.raises(DataError, match="channel 'A/spiky': feature s1_hurst is nan"):
        extract_vector(channels, (256,))


def test_extract_memory_is_bounded():
    # 400 channels of one 512-sample stratum: the stacked block is 1.6 MiB,
    # and the kernels' temporaries of all 400 rows at once take the peak to
    # 9.6 MiB; in chunks of _BLOCK_ELEMENTS samples it stays near 4.2 MiB
    rng = np.random.default_rng(16)
    channels = [Channel(id=f"A/c{i}", set_label="A", samples=rng.standard_normal(512))
                for i in range(400)]
    tracemalloc.start()
    try:
        rows = extract_vector(channels, (512,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (400, 15)
    assert peak < 6 * 2**20


def test_basic_stats_against_moment_oracle():
    got = basic_stats([1, 1, 2, 9])
    ref = oracles.moment_stats([1, 1, 2, 9])
    assert got["mean"] == pytest.approx(3.25)
    for key in ("mean", "std", "skewness", "kurtosis"):
        assert got[key] == pytest.approx(ref[key], abs=1e-9)


def test_moment_oracle_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(50) * rng.uniform(0.1, 10) + rng.uniform(-5, 5)
        got = basic_stats(x)
        ref = oracles.moment_stats(x)
        for key in ("mean", "std", "skewness", "kurtosis"):
            assert got[key] == pytest.approx(ref[key], abs=1e-9)


def test_mode_rounding_and_tie():
    # 1.0000001 and 1.0000004 collapse into the same 6-decimal bucket
    got = basic_stats([1.0000001, 1.0000004, 7.0, 7.0, 3.0])
    assert got["mode"] == 1.0
    # tie between 2.0 and 4.0 resolves to the smaller value
    assert basic_stats([2.0, 2.0, 4.0, 4.0, 9.0])["mode"] == 2.0


def test_quartiles_reference_and_oracle():
    got = quartiles([1, 2, 3, 4, 5])
    assert got == {"q1": 2.0, "q3": 4.0, "iqr": 2.0}
    rng = np.random.default_rng(1)
    x = rng.standard_normal(37)
    got = quartiles(x)
    assert got["q1"] == pytest.approx(oracles.quantile_linear(x, 0.25), abs=1e-12)
    assert got["q3"] == pytest.approx(oracles.quantile_linear(x, 0.75), abs=1e-12)


def test_quartiles_permutation_invariant():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(40)
    assert quartiles(x) == quartiles(rng.permutation(x))
    assert quartiles(np.full(8, 3.3))["iqr"] == 0.0


def test_shannon_entropy_cases():
    assert shannon_entropy(np.full(100, 1.0)) == 0.0
    # two equally filled bins -> exactly 1 bit
    x = np.concatenate([np.zeros(32), np.ones(32)])
    assert shannon_entropy(x) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = shannon_entropy(rng.uniform(size=500))
        assert 0.0 <= h <= 6.0
    x = rng.standard_normal(300)
    assert shannon_entropy(x) == pytest.approx(oracles.shannon_entropy_direct(x), abs=1e-9)


def test_sample_entropy_constant_is_zero():
    assert sample_entropy(np.full(50, 2.0)) == 0.0


def test_sample_entropy_matches_slow_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(size=120)
        assert sample_entropy(x) == pytest.approx(oracles.sample_entropy_slow(x), abs=0.05)


def test_sample_entropy_memory_is_bounded_on_a_constant_stratum():
    # all 4095 * 4094 / 2 template pairs are candidates; held at once they
    # would take hundreds of MB
    tracemalloc.start()
    try:
        value = sample_entropy(np.full(4097, 1.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert peak < 2 * 2**20


def test_sample_entropy_sine_below_noise():
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(600)
    sine = np.sin(np.linspace(0, 12 * np.pi, 600))
    assert sample_entropy(sine) < sample_entropy(noise)


def test_sample_entropy_too_short():
    with pytest.raises(DataError):
        sample_entropy([1.0, 2.0, 3.0])


def test_sample_entropy_refuses_a_signal_that_is_not_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DataError, match="finite"):
            sample_entropy([1.0, bad, 2.0, 3.0, 4.0])


def test_hurst_white_noise_band():
    vals = [hurst_exponent(np.random.default_rng(s).standard_normal(4096))
            for s in range(20)]
    assert 0.4 <= np.mean(vals) <= 0.6


def test_hurst_trend_and_bounds():
    assert hurst_exponent(np.cumsum(np.full(2048, 1.0))) >= 0.9
    rng = np.random.default_rng(6)
    # heavy alternation drives the raw slope negative; output stays clamped
    x = np.tile([1.0, -1.0], 512) + 0.01 * rng.standard_normal(1024)
    assert 0.0 <= hurst_exponent(x) <= 1.0
    with pytest.raises(DataError):
        hurst_exponent(np.arange(32.0))


def test_sample_entropy_is_quiet_at_the_top_of_the_range():
    # template differences of samples near the float64 maximum overflow to
    # inf, which is above r either way, so the counts are those of the
    # unscaled signal; a library call used to warn "overflow in subtract"
    x = np.random.default_rng(0).standard_normal(1024)
    top = np.ldexp(x, 1024 - np.frexp(np.abs(x).max())[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_entropy(top) == sample_entropy(x)


def test_sample_entropy_window_end_is_quiet_near_the_float64_maximum():
    # templates near the maximum get their grid cells on the signal scaled
    # into (-1, 1), where nothing overflows, so the counts are those of the
    # signal scaled down exactly by 16
    y = np.random.default_rng(0).standard_normal(256)
    x = y * (1.79e308 / np.abs(y).max())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_entropy(x) == sample_entropy(np.ldexp(x, -4))


@pytest.mark.parametrize("exponent", [-600, -1000])
def test_sample_entropy_does_not_depend_on_small_units(exponent):
    # the squares behind r underflow: r read 0, so only exact matches counted
    x = np.random.default_rng(0).standard_normal(512)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_entropy(np.ldexp(x, exponent)) == sample_entropy(x)


@pytest.mark.parametrize("value", [0.0, 0.1, 0.7])
def test_hurst_of_a_constant_signal_is_neutral_and_quiet(value):
    # windows of copies of 0.1 or 0.7 whose mean rounds have a std above 0,
    # which made the fit 1.0; all-zero windows left no size usable, and the
    # log of their empty average warned outside extract's errstate
    x = np.full(256, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hurst_exponent(x) == 0.5
        feats = stratum_features(x)
    assert feats["hurst"] == 0.5 and feats["std"] == 0.0
    # constant windows drop out of a signal that also varies
    y = np.r_[x, np.random.default_rng(3).standard_normal(256)]
    assert hurst_exponent(y) == oracles.hurst_reference(y)


def test_fluctuation_index_cases():
    assert fluctuation_index([1, 2, 3, 4]) == 1.0
    assert fluctuation_index(np.full(10, 7.0)) == 0.0
    rng = np.random.default_rng(7)
    x = rng.standard_normal(64)
    assert fluctuation_index(x) == pytest.approx(
        oracles.fluctuation_index_direct(x), abs=1e-12)


SHIFT_INVARIANT = ("std", "iqr", "skewness", "kurtosis", "fluctuation_index",
                   "sample_entropy")
SCALE_COVARIANT = ("min", "max", "mean", "median", "std", "q1", "q3", "iqr")


def test_shift_invariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(256)
    base = stratum_features(x)
    shifted = stratum_features(x + 123.456)
    for key in SHIFT_INVARIANT:
        assert shifted[key] == pytest.approx(base[key], abs=1e-9), key


def test_scale_covariance():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(256)
    base = stratum_features(x)
    scaled = stratum_features(2.5 * x)
    for key in SCALE_COVARIANT:
        assert scaled[key] == pytest.approx(2.5 * base[key], abs=1e-9), key


def test_extract_vector_names_and_shape():
    names = feature_names(4)
    assert len(names) == 60 and len(set(names)) == 60
    assert names[0] == "s1_min"
    assert names[-1] == "s4_kurtosis"
    assert names[:15] == tuple(f"s1_{f}" for f in FEATURE_ORDER)

    rng = np.random.default_rng(10)
    ch = Channel(id="A/c", set_label="A", samples=rng.standard_normal(4097))
    row = extract_vector([ch], stratify(4097, 4))[0]
    assert row.dtype == np.float64 and row.shape == (60,)
    # the row follows feature_names: stratum 2's std is the std of samples [1024, 2048)
    assert row[names.index("s2_std")] == np.std(ch.samples[1024:2048], ddof=1)

    single = extract_vector([ch], (4097,))
    assert single.shape == (1, 15) and feature_names(1) == names[:15]


def test_extract_vector_calls_sample_entropy_through_the_module(monkeypatch):
    """The benchmark times sample entropy by replacing the module attribute,
    so stratum_features must look it up there on every call."""
    calls = []
    monkeypatch.setattr(features, "sample_entropy",
                        lambda x: calls.append(len(x)) or sample_entropy(x))
    ch = Channel(id="A/c", set_label="A", samples=np.random.default_rng(13).standard_normal(512))
    extract_vector([ch], stratify(512, 4))
    assert calls == [128, 128, 128, 128]


def test_extract_vector_deterministic():
    rng = np.random.default_rng(11)
    samples = rng.standard_normal(512)
    sizes = stratify(512, 4)
    a = extract_vector([Channel(id="A/x", set_label="A", samples=samples)], sizes)
    b = extract_vector([Channel(id="A/y", set_label="A", samples=samples.copy())], sizes)
    np.testing.assert_array_equal(a, b)


def test_extract_vector_rejects_short_strata():
    rng = np.random.default_rng(12)
    ch = Channel(id="A/c", set_label="A", samples=rng.standard_normal(100))
    with pytest.raises(ConfigError, match="stratum 0 of 25 samples is shorter than 64 samples"):
        extract_vector([ch], stratify(100, 4))
    with pytest.raises(DataError, match="channel 'A/c' has length 100, but its strata cover 128"):
        extract_vector([ch], (64, 64))


def test_feature_matrix_validation():
    with pytest.raises(DataError, match="do not match 2 feature names"):
        FeatureMatrix(names=("a", "b"), values=np.array([[1.0]]), labels=[0])
    with pytest.raises(DataError, match="unique"):
        FeatureMatrix(names=("a", "a"), values=np.array([[1.0, 2.0]]), labels=[0])
    with pytest.raises(DataError, match="finite"):
        FeatureMatrix(names=("a",), values=np.array([[np.nan]]), labels=[0])


def test_feature_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    rows = [rng.standard_normal(3) for _ in range(6)]
    fm = FeatureMatrix(("f1", "f2", "f3"), np.stack(rows), [i % 2 for i in range(6)])
    path = tmp_path / "features.csv"
    fm.to_csv(path)
    back = FeatureMatrix.from_csv(path)
    assert back.names == fm.names
    np.testing.assert_array_equal(back.labels, fm.labels)
    # 12 significant digits survive the text round trip
    np.testing.assert_allclose(back.values, fm.values, rtol=1e-11)


def test_feature_matrix_select_and_column():
    fm = FeatureMatrix(names=("a", "b", "c"),
                       values=np.arange(12, dtype=float).reshape(4, 3),
                       labels=np.array([0, 0, 1, 1]))
    np.testing.assert_array_equal(fm.values[:, fm.names.index("b")], [1, 4, 7, 10])
    sub = fm.select(("c", "a"))
    assert sub.names == ("c", "a")
    np.testing.assert_array_equal(sub.values[:, 0], fm.values[:, fm.names.index("c")])


@pytest.mark.parametrize("text, message", [
    ("f1,f2\n1.0,2.0\n", ": the first line must be a header ending in 'label'"),
    ("", ": the first line must be a header ending in 'label'"),
    ("f1,label\nx,0\n", ":2: could not convert"),
    ("f1,f2,label\n1.0,2.0,0\n\n3.0,nan,1\n", ":4: f2 is nan; feature values must be finite"),
    ("f1,f2,label\n1.0,2.0,0\n3.0,-inf,1\n", ":3: f2 is -inf; feature values must be finite"),
    ("f1,f1,label\n1.0,2.0,0\n3.0,4.0,1\n", ": feature names must be unique"),
    ("f1,label\n1.0,0\n2.0,2\n", ":3: label 2 is not 0 or 1"),
    ("f1,label\n1.0,0\n2.0,0\n", ": rows of label 0 and of label 1 are needed, got labels [0]"),
    ("f1,label\n", ": rows of label 0 and of label 1 are needed, got labels []"),
], ids=["no-label", "empty", "not-a-number", "nan", "inf", "duplicate-name", "label-2", "one-class",
        "no-rows"])
def test_feature_matrix_csv_errors(tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(DataError) as exc:
        FeatureMatrix.from_csv(bad)
    assert str(exc.value).startswith(f"{bad}{message}")
