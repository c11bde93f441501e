import numpy as np
import pytest

from eegstrata import (Channel, ConfigError, DataError, case_channels,
                       generate_synthetic_case, load_channel, load_set,
                       save_channel)


def test_load_save_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    ch = Channel(id="A/x", set_label="A", samples=rng.standard_normal(257))
    path = tmp_path / "A" / "x.txt"
    save_channel(ch, path)
    back = load_channel(path, "A")
    np.testing.assert_array_equal(back.samples, ch.samples)
    assert back.id == "A/x"
    assert back.set_label == "A"


def test_load_tolerates_trailing_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("1.5\n-2\n3e1\n\n\n")
    ch = load_channel(path, "B")
    np.testing.assert_array_equal(ch.samples, [1.5, -2.0, 30.0])


def test_load_accepts_whitespace_around_values(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(" 1.5\n\t-2 \n  3e1\t\t\n")
    np.testing.assert_array_equal(load_channel(path).samples, [1.5, -2.0, 30.0])


@pytest.mark.parametrize("text, line", [
    ("1\n2\noops\n4\n", 3),
    ("1\n\n3\n", 2),  # blank line mid-file
    ("1\n2\n3\n1 2\n", 4),  # two values on one line
])
def test_load_reports_bad_line_number(tmp_path, text, line):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"non-numeric value at line {line}:"):
        load_channel(path)


@pytest.mark.parametrize("text, line", [
    ("1\nnan\n", 2),
    ("1\n2\ninf\n4\n", 3),
    ("1e400\n2\n", 1),  # overflows to inf
])
def test_load_rejects_non_finite(tmp_path, text, line):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"non-finite value at line {line}:"):
        load_channel(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"1\n\xff\n3\n")
    with pytest.raises(DataError, match="not UTF-8") as exc:
        load_channel(path)
    assert str(path) in str(exc.value)


def test_load_missing_and_empty(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_channel(tmp_path / "missing.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        load_channel(empty)


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
    channels = generate_synthetic_case((6, 4), 128, seed=9)
    assert len(channels) == 10
    assert sum(label for _, label in channels) == 4
    lengths = {len(ch) for ch, _ in channels}
    assert lengths == {128}
    again = generate_synthetic_case((6, 4), 128, seed=9)
    for (a, _), (b, _) in zip(channels, again):
        assert a.id == b.id
        np.testing.assert_array_equal(a.samples, b.samples)


def test_synthetic_classes_differ_in_power():
    channels = generate_synthetic_case(8, 512, seed=1, burst_amplitude=5.0)
    var0 = np.mean([ch.samples.var() for ch, lab in channels if lab == 0])
    var1 = np.mean([ch.samples.var() for ch, lab in channels if lab == 1])
    assert var1 > 2 * var0


def test_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic_case(0, 128, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic_case(4, 16, seed=0)
