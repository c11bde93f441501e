import warnings

import numpy as np
import pytest

from eegstrata import (Channel, ConfigError, DataError, case_channels,
                       generate_synthetic_case, load_channel, load_set,
                       save_channel)
from eegstrata.corpus import MAX_BURST_AMPLITUDE


def test_load_save_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ch = Channel(id="A/x", set_label="A", samples=rng.standard_normal(257))
    path = tmp_path / "A" / "x.txt"
    save_channel(ch, path)
    back = load_channel(path, "A")
    np.testing.assert_array_equal(back.samples, ch.samples)
    assert back.id == "A/x"
    assert back.set_label == "A"


def test_samples_are_read_only_and_the_callers_array_stays_writable():
    values = np.arange(4.0)
    ch = Channel(id="A/x", set_label="A", samples=values)
    with pytest.raises(ValueError, match="read-only"):
        ch.samples[0] = 9.0
    values[0] = 9.0
    assert values.flags.writeable


def test_save_writes_one_repr_line_per_value(tmp_path):
    """The joined write has the bytes of one f"{v!r}\\n" per value."""
    rng = np.random.default_rng(14)
    values = np.concatenate([
        [-0.0, 0.0, np.inf, -np.inf, np.nan, 1e16, 5e-324, 1.7976931348623157e308, -3.0, 2872.0],
        rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300),
        rng.integers(-200, 200, 300)])
    path = tmp_path / "x.txt"
    save_channel(Channel(id="A/x", set_label="A", samples=values), path)
    assert path.read_bytes() == "".join(f"{v!r}\n" for v in values.tolist()).encode()


def test_load_tolerates_trailing_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1.5\n-2\n3e1\n\n\n")
    ch = load_channel(path, "B")
    np.testing.assert_array_equal(ch.samples, [1.5, -2.0, 30.0])


def test_load_accepts_whitespace_around_values(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(" 1.5\n\t-2 \n  3e1\t\t\n")
    np.testing.assert_array_equal(load_channel(path, "A").samples, [1.5, -2.0, 30.0])


@pytest.mark.parametrize("text, line", [
    ("1\n2\noops\n4\n", 3),
    ("1\n\n3\n", 2),  # blank line mid-file
    ("1\n2\n3\n1 2\n", 4),  # two values on one line
])
def test_load_reports_bad_line_number(tmp_path, text, line):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"non-numeric value at line {line}:"):
        load_channel(path, "A")


@pytest.mark.parametrize("text, line", [
    ("1\nnan\n", 2),
    ("1\n2\ninf\n4\n", 3),
    ("1e400\n2\n", 1),  # overflows to inf
])
def test_load_rejects_non_finite(tmp_path, text, line):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"non-finite value at line {line}:"):
        load_channel(path, "A")


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"1\n\xff\n3\n")
    with pytest.raises(DataError, match="not UTF-8") as exc:
        load_channel(path, "A")
    assert str(path) in str(exc.value)


def test_load_missing_and_empty(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_channel(tmp_path / "missing.txt", "A")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        load_channel(empty, "A")


def _write_set(root, label, stems, length=32, seed=0):
    rng = np.random.default_rng(seed)
    for stem in stems:
        save_channel(Channel(id=f"{label}/{stem}", set_label=label,
                             samples=rng.standard_normal(length)),
                     root / label / f"{stem}.txt")


def test_case_channels_orders_and_labels(tmp_path):
    _write_set(tmp_path, "A", ["b", "a"])
    _write_set(tmp_path, "B", ["z"])
    _write_set(tmp_path, "E", ["s2", "s1"])
    channels = case_channels("Case1", lambda s: load_set(tmp_path / s, s))
    ids = [ch.id for ch, _ in channels]
    # lexicographic within each set, category-1 sets before category-2
    assert ids == ["A/a", "A/b", "B/z", "E/s1", "E/s2"]
    assert [label for _, label in channels] == [0, 0, 0, 1, 1]


def test_load_set_reads_in_the_order_of_the_written_names(tmp_path):
    """Z001.TXT is written back as Z001.txt, which sorts after Z001.U.txt."""
    _write_set(tmp_path, "A", ["Z001.U", "Z001"])
    (tmp_path / "A" / "Z001.txt").rename(tmp_path / "A" / "Z001.TXT")
    assert [ch.id for ch in load_set(tmp_path / "A", "A")] == ["A/Z001.U", "A/Z001"]


def test_load_set_missing_or_empty_dir(tmp_path):
    with pytest.raises(DataError, match="set E directory not found"):
        load_set(tmp_path / "E", "E")
    (tmp_path / "E").mkdir()
    with pytest.raises(DataError, match="set E directory has no channel files"):
        load_set(tmp_path / "E", "E")


def test_case_channels_unknown_case():
    with pytest.raises(ConfigError, match="unknown case"):
        case_channels("Case9", load_set)


def test_synthetic_case_shape_and_determinism():
    """Sets A, B and E, A holding the odd class-0 channel, each in the order
    of its file names, as load_set reads a set: syn1000 before syn101."""
    sets = generate_synthetic_case((7, 1001), 64, seed=9)
    assert {s: len(chans) for s, chans in sets.items()} == {"A": 4, "B": 3, "E": 1001}
    assert all(ch.set_label == s and len(ch) == 64 for s, chans in sets.items() for ch in chans)
    ids = [ch.id for ch in sets["E"]]
    assert ids == sorted(ids)
    assert ids.index("E/syn1000") == ids.index("E/syn101") - 1
    assert [ch.id for ch in sets["B"]] == ["B/syn004", "B/syn005", "B/syn006"]
    again = generate_synthetic_case((7, 1001), 64, seed=9)
    for s, chans in sets.items():
        for a, b in zip(chans, again[s], strict=True):
            assert a.id == b.id
            np.testing.assert_array_equal(a.samples, b.samples)


def test_synthetic_classes_differ_in_power():
    sets = generate_synthetic_case((8, 8), 512, seed=1, burst_amplitude=5.0)
    var0 = np.mean([ch.samples.var() for ch in sets["A"] + sets["B"]])
    var1 = np.mean([ch.samples.var() for ch in sets["E"]])
    assert var1 > 2 * var0


def test_synthetic_validation():
    for args, message in [
        (((1, 4), 128, 0), "n0 must be an integer >= 2, got 1"),  # set B would be empty
        (((4, 0), 128, 0), "n1 must be an integer >= 1, got 0"),
        (((4, 4), 16, 0), "length must be an integer >= 64, got 16"),
        (((4, 4), 128, 0, float("nan")),
         "burst_amplitude must be a number of magnitude at most 2.24712e+307, got nan"),
    ]:
        with pytest.raises(ConfigError) as info:
            generate_synthetic_case(*args)
        assert str(info.value) == message


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_synthetic_burst_amplitude_is_bounded_so_samples_stay_finite(sign):
    """An amplitude whose overlapping bursts would overflow float64 is refused
    before any arithmetic; the largest one allowed gives finite samples."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="burst_amplitude must be a number of magnitude "
                                              "at most 2.24712e"):
            generate_synthetic_case((2, 20), 4097, 0, burst_amplitude=sign * 1e308)
        sets = generate_synthetic_case((2, 20), 4097, 0,
                                       burst_amplitude=sign * MAX_BURST_AMPLITUDE)
    assert all(np.isfinite(ch.samples).all() for chans in sets.values() for ch in chans)
