"""A property of the config reader and the checks behind it: a config file of
known keys with any values makes `eegstrata ingest` exit 0, 2, 3 or 4, with
no exception, no warning and at most one short line on stderr."""

import contextlib
import io
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from eegstrata.cli import _CONFIG_KEYS, main  # noqa: E402

# an 8 + 6 channel synthetic run that ingest accepts; a drawn key replaces its value
_BASE = {"synthetic": "true", "synthetic.n0": "8", "synthetic.n1": "6",
         "synthetic.length": "1024", "classifier": "nb", "cv.folds": "2", "cv.repeats": "1"}
# values of every type the schema reads, and of none: integers small, huge,
# negative and past int()'s digit limit; floats that are nan, infinite,
# subnormal or overflow; booleans and the names the schema knows; text that
# is empty, non-ASCII or made of separators
_VALUES = (
    "0", "1", "-1", "2", "64", "-7", "2147483648", "9" * 30, "-" + "9" * 30, "1" * 5000,
    "0.5", "-0.0", "1e-320", "1e308", "1e999", "nan", "inf", "-inf",
    "true", "no", "none", "unbounded", "Case2", "Case1, Case3", "70, 99", "nb", "knn",
    "systematic", "global", "all",
    "", "é", "１２", "٣", " ", ",", ", ,", "=", "==", ";", "#", "0x10", "1_000",
)
# the longest error line: a message and the start of the value it refuses
MAX_STDERR = 300


@given(st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), st.sampled_from(_VALUES),
                       max_size=4))
@example({"strata": "9" * 30})
@example({"seed": "1" * 5000})
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_config_exits_cleanly(tmp_path, monkeypatch, drawn):
    monkeypatch.chdir(tmp_path)  # a drawn out or data.dir is relative to it
    Path("run.conf").write_text("".join(f"{key} = {value}\n"
                                        for key, value in {**_BASE, **drawn}.items()),
                                encoding="utf-8")
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", "--config", "run.conf"])
    assert code in (0, 2, 3, 4)
    text = err.getvalue()
    assert (text == "") == (code == 0), text
    assert text.count("\n") <= 1 and len(text) <= MAX_STDERR, text[:MAX_STDERR]
