"""Property tests for channel file I/O against the per-line reference parse,
and for the array paths, corpus._integer_text and corpus._decimal_values,
against the grammars they take and the repr and float() they match."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import oracles  # noqa: E402
from eegstrata import Channel, DataError, corpus, load_channel, save_channel  # noqa: E402

# characters str.splitlines breaks a line at, besides newline and CR; none ends a line in a channel file
_SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "infinity", "1e400", "-1e400", "5e-324", "-0",
                     "1_0", "1__0", "_1", "1e", ".5", "+.5e-3", "1 2", "", "x", "\x00", "١٢"]),
    # the edges of the array parser's grammar
    st.sampled_from(["5.", "-.5", "007", "-", ".", "--1", "1-", "1.2.3", "-0.0", "0.",
                     "123456789012345", "-123456789012345", "1234567890123456",
                     "0.00000000000001", "0.000000000000001", "9007199254740993", "1\r", "\r"]),
    st.sampled_from(_SEPARATORS).map(lambda sep: f"1{sep}2"),
    st.sampled_from(_SEPARATORS),
    st.text(alphabet="0123456789.eE+-_ ", max_size=6),
)
_PADDING = st.sampled_from(["", " ", "\t", "  ", " \t"])
_LINE = st.builds(lambda pre, token, post: pre + token + post, _PADDING, _TOKENS, _PADDING)
# lines of the array parser's alphabet, most of them in its grammar
_DECIMAL = st.from_regex(r"-?[0-9]{1,17}(\.[0-9]{0,5})?", fullmatch=True)


def _assert_load_matches_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = oracles.load_channel_reference(path)
        except ValueError as exc:
            with pytest.raises(DataError) as raised:
                load_channel(path, "A")
            assert str(raised.value) == str(exc)
        else:
            got = load_channel(path, "A").samples
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(lines=st.lists(_LINE, max_size=12), trailing=st.sampled_from(["", "\n", "\n\n", "\n \n"]))
@example(lines=["1", "", "3"], trailing="\n")
@example(lines=["1", "1 2"], trailing="\n")
@example(lines=["1", "nan"], trailing="")
@example(lines=["1\f2", "3"], trailing="\n")
@example(lines=["1\u20282"], trailing="\n")
@example(lines=["1\r", "-2\r"], trailing="\n")
def test_load_matches_reference_parse(lines, trailing):
    _assert_load_matches_reference("\n".join(lines) + trailing)


@given(lines=st.lists(_DECIMAL, min_size=1, max_size=12), trailing=st.sampled_from(["", "\n"]))
@example(lines=["-0", "5.", "-.5", "007"], trailing="")
@example(lines=["123456789012345", "-99999999999999.9", "0.00000000000001"], trailing="\n")
@example(lines=["1234567890123456"], trailing="\n")
def test_load_of_decimal_lines_matches_reference_parse(lines, trailing):
    _assert_load_matches_reference("\n".join(lines) + trailing)


def _in_decimal_grammar(data: bytes) -> bool:
    """The array parser's grammar, line by line: an optional leading '-', then
    1 to 15 digits with at most one '.' among them; the last newline may be left out."""
    if not data:
        return False
    for line in data.removesuffix(b"\n").split(b"\n"):
        match = re.fullmatch(rb"-?([0-9]*)\.?([0-9]*)", line)
        if not match or not 1 <= len(match[1]) + len(match[2]) <= 15:
            return False
    return True


@given(st.text(alphabet="0123456789-.\n \re+", max_size=40).map(str.encode)
       | st.lists(_DECIMAL, min_size=1, max_size=6).map(lambda lines: "\n".join(lines).encode()))
@example(b"")
@example(b"\n")
@example(b"-0\n")
@example(b"1\n\n")
@example(b"123456789012345\n")
@example(b"1234567890123456\n")
@example(b"-12345678901234.5")
@example(b"1.2.3\n")
@example(b"1-\n")
def test_decimal_values_is_none_exactly_off_its_grammar(data):
    values = corpus._decimal_values(data)
    assert (values is not None) == _in_decimal_grammar(data)
    if values is not None:
        lines = data.decode().removesuffix("\n").split("\n")
        expected = np.array([float(line) for line in lines])
        np.testing.assert_array_equal(values.view(np.uint64), expected.view(np.uint64))


_BIG = 2**53 - 1
_INTEGERS = arrays(np.int64, st.integers(1, 64), elements=st.integers(-_BIG, _BIG)).map(
    lambda a: a.astype(np.float64))


@given(arrays(np.float64, st.integers(1, 64), elements=st.floats())
       | _INTEGERS
       | _INTEGERS.map(lambda a: a / 4.0)
       | st.lists(st.sampled_from([0.0, -0.0, 1.0, -7.0, float(_BIG), float(2**53), 1e16, 0.5,
                                   np.nan, np.inf, -np.inf]), min_size=1, max_size=8)
       .map(np.array))
@example(np.array([2.0**53 - 1, -0.0]))
@example(np.array([-(2.0**53 - 1), 2.0**53]))
@example(np.array([3.0, np.nan]))
def test_integer_text_is_none_exactly_off_its_grammar(samples):
    text = corpus._integer_text(samples)
    in_grammar = bool(np.isfinite(samples).all() and (np.abs(samples) < 2.0**53).all()
                      and (samples == np.trunc(samples)).all())
    assert (text is not None) == in_grammar
    if text is not None:
        assert text == "".join(f"{v!r}\n" for v in samples.tolist()).encode()


@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)) | _INTEGERS)
@example(np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                   np.finfo(np.float64).max, -np.finfo(np.float64).max]))
@example(np.array([-0.0, 9.0, 10.0, 99.0, 100.0]))
@example(np.array([2.0**53 - 1, -(2.0**53 - 1)]))
@example(np.array([2.0**53, -7.0]))  # off the array path: 2^53 is not below it
@example(np.array([1e16, 12.0]))  # off the array path, and '1e+16' in repr
@example(np.array([4.0, np.nan]))
@example(np.array([-np.inf, 4.0]))
def test_save_load_round_trip_is_bit_exact(samples):
    """The file holds one f"{v!r}\\n" per sample, and loads back bit for bit
    when every sample is finite; a non-finite one is refused on load."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A" / "x.txt"
        save_channel(Channel(id="A/x", set_label="A", samples=samples), path)
        assert path.read_bytes() == "".join(f"{v!r}\n" for v in samples.tolist()).encode()
        if not np.isfinite(samples).all():
            with pytest.raises(DataError, match="non-finite value"):
                load_channel(path, "A")
            return
        back = load_channel(path, "A").samples
    np.testing.assert_array_equal(back.view(np.uint64), samples.view(np.uint64))
