"""Channel recordings and labeled classification cases.

A channel is one recorded signal: an ordered sequence of samples plus a set
label (A..E, Bonn convention: A/B healthy, C/D interictal, E seizure).
Classification cases pair channels with binary labels; only set E carries
label 1. Synthetic cases with the same shape are generated for tests and
demos.

Channel files are plain text, one numeric value per line. Set label comes
from configuration, never from the filename: the Bonn distribution uses
Z/O/N/F/S directory prefixes, mapped here as Z->A, O->B, N->C, F->D, S->E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .seeding import derive_seed

SET_LABELS = ("A", "B", "C", "D", "E")
SEIZURE_SET = "E"
BONN_SAMPLING_RATE_HZ = 173.61
BONN_PREFIX_TO_SET = {"Z": "A", "O": "B", "N": "C", "F": "D", "S": "E"}

# case id -> (category-1 sets, category-2 sets); category 2 is the seizure side
CASE_SETS = {
    "Case1": (("A", "B"), ("E",)),
    "Case2": (("C", "D"), ("E",)),
    "Case3": (("A", "B", "C", "D"), ("E",)),
}


@dataclass(frozen=True)
class Channel:
    """One recorded signal: samples are stored as float64 regardless of the
    on-disk representation so all downstream math shares one numeric type."""

    id: str
    set_label: str
    samples: np.ndarray
    sampling_rate_hz: float = BONN_SAMPLING_RATE_HZ

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError(f"channel {self.id!r}: samples must be a non-empty 1-D sequence")
        if self.set_label not in SET_LABELS:
            raise ConfigError(f"channel {self.id!r}: unknown set label {self.set_label!r}")
        if not self.sampling_rate_hz > 0:
            raise ConfigError(f"channel {self.id!r}: sampling rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ClassificationCase:
    """A binary classification problem: category-1 channels labeled 0,
    category-2 (seizure) channels labeled 1."""

    case_id: str
    category1_sets: tuple[str, ...]
    category2_sets: tuple[str, ...]
    channels: tuple = field(repr=False)  # (Channel, label) pairs

    def __post_init__(self):
        if self.case_id not in CASE_SETS:
            raise ConfigError(f"unknown case id {self.case_id!r}")
        for ch, label in self.channels:
            if label not in (0, 1):
                raise ConfigError(f"channel {ch.id!r}: label must be 0 or 1, got {label!r}")
            if label == 1 and ch.set_label not in self.category2_sets:
                raise ConfigError(
                    f"channel {ch.id!r}: label 1 is reserved for sets {self.category2_sets}"
                )

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.channels], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.channels)


def load_channel(path, set_label: str = "A", sampling_rate_hz: float = BONN_SAMPLING_RATE_HZ) -> Channel:
    """Read one channel file (UTF-8 text, one finite value per line, trailing
    blank lines ignored). The caller supplies the set label; standalone loads
    default to A.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"channel file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
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
    return Channel(id=f"{set_label}/{path.stem}", set_label=set_label,
                   samples=values, sampling_rate_hz=sampling_rate_hz)


def _raise_first_bad_line(path: Path, lines: list) -> None:
    for i, line in enumerate(lines, 1):
        try:
            value = float(line)
        except ValueError:
            raise DataError(f"{path}: non-numeric value at line {i}: {line.strip()!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{path}: non-finite value at line {i}: {line.strip()!r}")


def save_channel(channel: Channel, path) -> None:
    """Write a channel in the same one-value-per-line format. Values are
    written with repr precision so a load/save round trip is numerically exact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{v!r}\n" for v in channel.samples.tolist()))


def _set_channel_files(directory: Path) -> list[Path]:
    files = {p.name: p for p in directory.glob("*.txt")}
    files.update({p.name: p for p in directory.glob("*.TXT")})
    return [files[name] for name in sorted(files)]


def build_case(case_id: str, set_dirs: dict, sampling_rate_hz: float = BONN_SAMPLING_RATE_HZ) -> ClassificationCase:
    """Assemble a labeled case from per-set directories of channel files.

    ``set_dirs`` maps set labels (A..E) to directories. Files are taken in
    lexicographic name order for deterministic channel ordering.
    """
    if case_id not in CASE_SETS:
        raise ConfigError(f"unknown case id {case_id!r}")
    cat1, cat2 = CASE_SETS[case_id]
    channels = []
    for label, sets in ((0, cat1), (1, cat2)):
        for set_label in sets:
            if set_label not in set_dirs:
                raise DataError(f"{case_id}: no directory configured for set {set_label}")
            directory = Path(set_dirs[set_label])
            if not directory.is_dir():
                raise DataError(f"{case_id}: set {set_label} directory not found: {directory}")
            files = _set_channel_files(directory)
            if not files:
                raise DataError(f"{case_id}: set {set_label} directory has no channel files: {directory}")
            for path in files:
                channels.append((load_channel(path, set_label, sampling_rate_hz), label))
    return ClassificationCase(case_id=case_id, category1_sets=cat1, category2_sets=cat2,
                              channels=tuple(channels))


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
                            burst_amplitude: float = 5.0) -> ClassificationCase:
    """Deterministic synthetic stand-in for a Case-1 style corpus.

    Class 0 channels are i.i.d. standard Gaussian noise (sets A/B); class 1
    channels add amplitude-``burst_amplitude`` sinusoidal bursts on random
    windows (set E), so variance/amplitude features separate the classes.
    ``n_per_class`` is either one count for both classes or a (n0, n1) pair.
    Lowering ``burst_amplitude`` grades the class overlap.
    """
    if isinstance(n_per_class, (int, np.integer)):
        n0 = n1 = int(n_per_class)
    else:
        n0, n1 = (int(v) for v in n_per_class)
    if n0 < 1 or n1 < 1:
        raise ConfigError("n_per_class must be at least 1 for each class")
    if length < 64:
        raise ConfigError(f"length {length} is too small for downstream strata (need >= 64)")

    channels = []
    n_set_a = math.ceil(n0 / 2)
    for i in range(n0):
        set_label = "A" if i < n_set_a else "B"
        cid = f"{set_label}/syn{i:03d}"
        rng = np.random.default_rng(derive_seed(seed, cid))
        channels.append((Channel(id=cid, set_label=set_label, samples=rng.standard_normal(length)), 0))
    for i in range(n1):
        cid = f"E/syn{i:03d}"
        rng = np.random.default_rng(derive_seed(seed, cid))
        channels.append((Channel(id=cid, set_label="E",
                                 samples=_burst_signal(rng, length, burst_amplitude)), 1))
    return ClassificationCase(case_id="Case1", category1_sets=("A", "B"), category2_sets=("E",),
                              channels=tuple(channels))
