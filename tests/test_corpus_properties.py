"""Property tests for channel file I/O against the per-line reference parse."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

import oracles  # noqa: E402
from eegstrata import Channel, DataError, load_channel, save_channel  # noqa: E402

_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "infinity", "1e400", "-1e400", "5e-324", "-0",
                     "1_0", "1__0", "_1", "1e", ".5", "+.5e-3", "1 2", "", "x", "\x00", "١٢"]),
    st.text(alphabet="0123456789.eE+-_ ", max_size=6),
)
_PADDING = st.sampled_from(["", " ", "\t", "  ", " \t"])
_LINE = st.builds(lambda pre, token, post: pre + token + post, _PADDING, _TOKENS, _PADDING)


@given(lines=st.lists(_LINE, max_size=12), trailing=st.sampled_from(["", "\n", "\n\n", "\n \n"]))
@example(lines=["1", "", "3"], trailing="\n")
@example(lines=["1", "1 2"], trailing="\n")
@example(lines=["1", "nan"], trailing="")
def test_load_matches_reference_parse(lines, trailing):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_text("\n".join(lines) + trailing, encoding="utf-8")
        try:
            expected = oracles.load_channel_reference(path)
        except ValueError as exc:
            with pytest.raises(DataError) as raised:
                load_channel(path, "A")
            assert str(raised.value) == str(exc)
        else:
            got = load_channel(path, "A").samples
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                   np.finfo(np.float64).max, -np.finfo(np.float64).max]))
def test_save_load_round_trip_is_bit_exact(samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "A" / "x.txt"
        save_channel(Channel(id="A/x", set_label="A", samples=samples), path)
        back = load_channel(path, "A").samples
    np.testing.assert_array_equal(back.view(np.uint64), samples.view(np.uint64))
