"""Channel recordings and labeled classification cases.

A channel is one recorded signal: an ordered sequence of samples plus a set
label (A..E, Bonn convention: A/B healthy, C/D interictal, E seizure).
A classification case is its two classes, two lists of channels drawn
from its sets: class 1 is set E, class 0 the case's other sets. A
synthetic corpus of sets A, B and E, each in the order load_set reads a
set in, is generated for tests and demos.

Channel files are plain text, one numeric value per line. Set label comes
from configuration, never from the filename: the Bonn distribution uses
Z/O/N/F/S directory prefixes, mapped here as Z->A, O->B, N->C, F->D, S->E.
The files this program meets most, integer-valued recordings like Bonn's
and the reduced channels made from them, are formatted and parsed as whole
arrays; every other file takes the per-value path, with the same bytes and
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .seeding import derive_seed

SET_LABELS = ("A", "B", "C", "D", "E")
BONN_PREFIX_TO_SET = {"Z": "A", "O": "B", "N": "C", "F": "D", "S": "E"}

# at most 7 bursts overlap and noise is added on top, so a burst amplitude
# up to this magnitude keeps every synthetic sample finite; a Python float,
# so an int of any size compares with it exactly
MAX_BURST_AMPLITUDE = float(np.finfo(np.float64).max) / 8

# Every integer of magnitude below _EXACT_INT is a float64, and a decimal of
# at most _MAX_DIGITS digits is such an integer over a power of ten that
# float64 also holds exactly (up to 10^22 it does).
_EXACT_INT = 2 ** 53
_MAX_DIGITS = 15
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)
_NEWLINE, _MINUS, _DOT, _ZERO = b"\n-.0"

# case id -> (category-1 sets, category-2 sets); category 2 is the seizure side
CASE_SETS = {
    "Case1": (("A", "B"), ("E",)),
    "Case2": (("C", "D"), ("E",)),
    "Case3": (("A", "B", "C", "D"), ("E",)),
}


@dataclass(frozen=True)
class Channel:
    """One recorded signal: samples are stored as float64 regardless of the
    on-disk representation so all downstream math shares one numeric type.
    They are a read-only view, so no holder of the channel can change them,
    and its text, once made, matches them."""

    id: str
    set_label: str
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64).view()
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError(f"channel {self.id!r}: samples must be a non-empty 1-D sequence")
        if self.set_label not in SET_LABELS:
            raise ConfigError(f"channel {self.id!r}: unknown set label {self.set_label!r}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @cached_property
    def text(self) -> bytes:
        """The channel file's bytes: one repr line per sample, made once and
        kept until drop_text. An integer-valued channel, every sample below
        2^53 in magnitude, is formatted as one array (_integer_text);
        every other channel one repr at a time."""
        text = _integer_text(self.samples)
        return _repr_text(self.samples) if text is None else text

    def drop_text(self) -> None:
        """Release the text, if made; it is made again when next asked for."""
        vars(self).pop("text", None)


def _repr_text(samples: np.ndarray) -> bytes:
    """One repr line per sample, for any channel."""
    return ("\n".join(map(repr, samples.tolist())) + "\n").encode("ascii")


def _integer_text(samples: np.ndarray) -> bytes | None:
    """The bytes of one repr line per sample, or None unless every sample is
    an integer of magnitude below _EXACT_INT. The repr of such a float is its
    integer's digits, after a '-' if its sign bit is set (so -0.0 is
    '-0.0'), then '.0'. Each line is laid out from its end, one scatter per
    decimal place from the highest: a shorter line's excess places, all '0',
    land in the padding in front, on a '0', or on bytes that a lower place
    or the '-', '.' and newline written after them overwrite."""
    magnitude = np.abs(samples)
    if not (magnitude < _EXACT_INT).all():  # also false for nan and inf
        return None
    q = magnitude.astype(np.int64)
    if not (q == magnitude).all():
        return None
    # quotients[p] = q // 10^p for each place p of the longest integer, then 0
    quotients = [q]
    digits = np.ones(q.size, dtype=np.int64)
    for _ in range(len(str(q.max())) - 1):
        quotients.append(quotients[-1] // 10)
        digits += quotients[-1] > 0
    width = len(quotients)
    quotients.append(0)
    negative = np.signbit(samples)
    ends = np.cumsum(digits + negative + 3) + width
    out = np.full(ends[-1], _ZERO, dtype=np.uint8)
    units = ends - 4
    for place in reversed(range(width)):
        digit = quotients[place] - 10 * quotients[place + 1]
        out[units - place] = digit.astype(np.uint8) + _ZERO
    out[(units - digits)[negative]] = _MINUS
    out[ends - 3] = _DOT
    out[ends - 1] = _NEWLINE
    return out[width:].tobytes()


def _decimal_values(data: bytes) -> np.ndarray | None:
    """float() of each line of data, or None unless every line is an
    optional leading '-' and 1 to _MAX_DIGITS digits with at most one '.'
    among them, each line ended by a newline (the last may lack it). Such a
    line's value is its digits' integer m, below 2^53, over 10^f for its f
    digits after the '.': both are exact in float64, so their quotient is
    float()'s correctly rounded value (Clinger's fast path), and the '-'
    negates it, so '-0' is -0.0. m is summed one decimal place at a time
    over all lines, each place read from its line's end."""
    if not data:
        return None
    # a newline before the first line, and after the last if data lacks one
    buf = np.empty(len(data) + 2, dtype=np.uint8)
    buf[0] = _NEWLINE
    buf[1:-1] = np.frombuffer(data, dtype=np.uint8)
    buf[-1] = _NEWLINE
    if data[-1] == _NEWLINE:
        buf = buf[:-1]
    newline = np.flatnonzero(buf == _NEWLINE)
    is_dot = buf == _DOT
    n_dot = np.count_nonzero(is_dot)
    n_minus = np.count_nonzero(buf == _MINUS)
    digit = buf - _ZERO
    is_digit = digit < 10
    if newline.size + n_dot + n_minus + np.count_nonzero(is_digit) != buf.size:
        return None
    starts, ends = newline[:-1], newline[1:]  # the newlines around each line
    negative = buf[starts + 1] == _MINUS
    if np.count_nonzero(negative) != n_minus:  # a '-' that does not start its line
        return None
    counts = np.diff(newline) - 1 - negative
    if n_dot:
        dot = np.flatnonzero(is_dot)
        line = np.searchsorted(ends, dot)
        if (np.diff(line) == 0).any():
            return None
        counts[line] -= 1
        after = ends[line] - dot - 1
        # the place at which a line's '.' is passed; _MAX_DIGITS, never reached, for none
        point = np.full(ends.size, _MAX_DIGITS)
        point[line] = after
    if counts.min() < 1 or counts.max() > _MAX_DIGITS:
        return None
    digit *= is_digit  # '-', '.' and newline read as 0
    m = np.zeros(ends.size)
    units = ends - 1  # units[i] - place: line i's digit at place, once past its '.'
    for place in range(int(counts.max())):
        if n_dot:
            units = units - (point == place)
        # a line's places past its digits read its '-' or the newline before it
        m += digit[np.maximum(units - place, starts)] * float(_POW10[place])
    if n_dot:
        m[line] /= _POW10[after]
    return np.where(negative, -m, m)


def load_channel(path, set_label: str) -> Channel:
    """Read one channel file (UTF-8 text, one finite value per line, trailing
    blank lines ignored) as a channel of the caller's set label. The file is
    read once. A file of plain decimal lines, as Bonn's integer recordings
    and the reduced files made from them are, is parsed as one array
    (_decimal_values), bit-equal to float() of each line; every other file
    takes _parse_text, one float() per line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"channel file not found: {path}")
    data = path.read_bytes()
    values = _decimal_values(data)
    if values is None:
        values = _parse_text(path, data)
    return Channel(id=f"{set_label}/{path.stem}", set_label=set_label, samples=values)


def _parse_text(path: Path, data: bytes) -> np.ndarray:
    """The values of a channel file's bytes, one float() per line, where a
    line ends at a newline, CRLF or CR only, as in reading text with
    universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError(f"channel file is empty: {path}")
    # numpy's str -> float64 cast calls float() on each line, so values and
    # accepted inputs match the per-line loop below, which runs only to name
    # the first bad line.
    try:
        values = np.array(lines, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        _raise_first_bad_line(path, lines)
    return values


def _raise_first_bad_line(path: Path, lines: list) -> None:
    for i, line in enumerate(lines, 1):
        try:
            value = float(line)
        except ValueError:
            raise DataError(f"{path}: non-numeric value at line {i}: {line.strip()!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite value at line {i}: {line.strip()!r}")


def save_channel(channel: Channel, path) -> None:
    """Write a channel's text, one value per line in the format load_channel
    reads. Values are written with repr precision so a load/save round trip
    is numerically exact, and the bytes do not depend on the locale. The
    text is channel.text, so a channel written again is not formatted again
    until its drop_text; an integer-valued channel's text is formatted as
    one array. Directories are made only when the write finds them missing."""
    path = Path(path)
    try:
        path.write_bytes(channel.text)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(channel.text)


def _file_name(channel) -> str:
    """The name of a channel's file, <stem>.txt; a set is read in the order of these names."""
    return f"{channel.id.rsplit('/', 1)[-1]}.txt"


def _set_channel_files(directory: Path) -> list[Path]:
    """directory's channel files, sorted by the <stem>.txt names they are written back as."""
    files = {p.name: p for p in directory.glob("*.txt")}
    for p in directory.glob("*.TXT"):
        # both would be channel <set>/<stem>, written back to one <stem>.txt
        if p.stem + ".txt" in files:
            raise DataError(f"{directory}: {p.name} and {p.stem}.txt are the same channel")
        files[p.stem + ".txt"] = p
    return [files[name] for name in sorted(files)]


def load_set(directory, set_label: str) -> list:
    """A set's channels, one per channel file of directory, in the order of
    their _file_name names, the order a set is written back in."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataError(f"set {set_label} directory not found: {directory}")
    files = _set_channel_files(directory)
    if not files:
        raise DataError(f"set {set_label} directory has no channel files: {directory}")
    return [load_channel(path, set_label) for path in files]


def case_channels(case_id: str, load) -> tuple:
    """A case's classes (class_0, class_1): its category-1 sets' channels,
    then its category-2 sets', each set's from load(set_label)."""
    if case_id not in CASE_SETS:
        raise ConfigError(f"unknown case id {case_id!r}")
    return tuple([ch for set_label in sets for ch in load(set_label)]
                 for sets in CASE_SETS[case_id])


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


# The synthetic generator's one set of rules: each setting's (test, what it
# must be). n0 >= 2 gives sets A and B a channel each; 64 samples leave
# downstream strata room.
SYNTHETIC_RULES = {
    "n0": (lambda v: _is_count(v, 2), "an integer >= 2"),
    "n1": (lambda v: _is_count(v, 1), "an integer >= 1"),
    "length": (lambda v: _is_count(v, 64), "an integer >= 64"),
    "burst_amplitude": (lambda v: _is_number(v) and abs(v) <= MAX_BURST_AMPLITUDE,
                        f"a number of magnitude at most {MAX_BURST_AMPLITUDE:g}"),
}
# and their one budget, the same (test, what it must be) over the settings
# that pass those rules: at most 2^27 samples, 1 GiB of float64, so no corpus
# too large to hold is begun
SYNTHETIC_BUDGET = (lambda s: (s["n0"] + s["n1"]) * s["length"] <= 1 << 27,
                    "settings whose (n0 + n1) * length is at most 2^27 samples")


def _check_synthetic(settings: dict, prefix: str = "") -> None:
    """Refuse settings that break a SYNTHETIC_RULES rule or SYNTHETIC_BUDGET,
    naming the settings prefix + key."""
    for key, (test, what) in SYNTHETIC_RULES.items():
        if not test(settings[key]):
            raise ConfigError(f"{prefix}{key} must be {what}, got {settings[key]}")
    test, what = SYNTHETIC_BUDGET
    if not test(settings):
        raise ConfigError(f"{prefix}n0, {prefix}n1 and {prefix}length must be {what}")


def _burst_signal(rng: np.random.Generator, length: int, amplitude: float) -> np.ndarray:
    """Gaussian noise plus sinusoidal bursts on random windows."""
    x = rng.standard_normal(length)
    n_bursts = int(rng.integers(4, 8))
    min_w = max(8, length // 16)
    max_w = max(min_w + 1, length // 8)
    for _ in range(n_bursts):
        width = int(rng.integers(min_w, max_w + 1))
        start = int(rng.integers(0, max(1, length - width)))
        freq = rng.uniform(0.02, 0.08)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(width)
        x[start:start + width] += amplitude * np.sin(2.0 * np.pi * freq * t + phase)
    return x


def generate_synthetic_case(n_per_class, length: int, seed: int,
                            burst_amplitude: float = 5.0) -> dict:
    """Deterministic synthetic stand-in for a Case-1 style corpus, as each
    set's channels in _file_name order, the shape load_set gives.

    Class 0 channels are i.i.d. standard Gaussian noise (sets A/B); class 1
    channels add amplitude-``burst_amplitude`` sinusoidal bursts on random
    windows (set E), so variance/amplitude features separate the classes.
    ``n_per_class`` is the (n0, n1) pair of class sizes; every setting must
    pass SYNTHETIC_RULES. Lowering ``burst_amplitude`` grades the class overlap.
    """
    n0, n1 = n_per_class
    _check_synthetic({"n0": n0, "n1": n1, "length": length, "burst_amplitude": burst_amplitude})
    n_set_a = math.ceil(n0 / 2)
    sets = {"A": [], "B": [], "E": []}
    for set_label, i in [("A" if i < n_set_a else "B", i) for i in range(n0)] + [
            ("E", i) for i in range(n1)]:
        cid = f"{set_label}/syn{i:03d}"
        rng = np.random.default_rng(derive_seed(seed, cid))
        samples = (_burst_signal(rng, length, burst_amplitude) if set_label == "E"
                   else rng.standard_normal(length))
        sets[set_label].append(Channel(id=cid, set_label=set_label, samples=samples))
    return {s: sorted(channels, key=_file_name) for s, channels in sets.items()}
