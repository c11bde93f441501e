"""Sample-size calculation, stratification, and optimum allocation.

The reduction pipeline is: pick a total sample size from a confidence level
(with finite-population correction), cut each signal into near-equal
contiguous strata, split the total across strata proportionally to
stratum size times pooled within-stratum dispersion, then draw that many
points from each stratum while preserving temporal order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Channel
from .errors import ConfigError, DataError, DegenerateDataError

# confidence level (%) -> standard normal variate
CONFIDENCE_Z = {70: 1.04, 85: 1.44, 95: 1.96, 99: 2.58}

SELECTION_POLICIES = ("random", "systematic")


@dataclass(frozen=True)
class SamplingConfig:
    """Inputs of the sample-size formula: z is the standard normal variate
    for the chosen confidence level, p the estimated proportion, e the
    margin of error, and population_size the per-signal point count."""

    z: float
    population_size: int
    p: float = 0.5
    e: float = 0.01
    n_strata: int = 4

    def __post_init__(self):
        if not self.z > 0:
            raise ConfigError(f"z must be positive, got {self.z}")
        if not 0 < self.p < 1:
            raise ConfigError(f"p must be in (0, 1), got {self.p}")
        if not 0 < self.e < 1:
            raise ConfigError(f"e must be in (0, 1), got {self.e}")
        if self.n_strata < 1:
            raise ConfigError(f"n_strata must be at least 1, got {self.n_strata}")
        if self.population_size < self.n_strata:
            raise ConfigError(
                f"population size {self.population_size} is smaller than n_strata {self.n_strata}"
            )


@dataclass(frozen=True)
class StratificationPlan:
    """Contiguous half-open [start, end) intervals covering [0, length)."""

    boundaries: tuple

    def __post_init__(self):
        if not self.boundaries:
            raise ConfigError("a stratification plan needs at least one stratum")
        expected_start = 0
        for start, end in self.boundaries:
            if start != expected_start or end <= start:
                raise ConfigError(f"strata must be contiguous and non-empty, got {self.boundaries}")
            expected_start = end
        object.__setattr__(self, "boundaries", tuple((int(s), int(e)) for s, e in self.boundaries))

    @classmethod
    def from_sizes(cls, sizes) -> "StratificationPlan":
        edges = np.concatenate([[0], np.cumsum(sizes)])
        return cls(tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])))

    @property
    def sizes(self) -> tuple:
        return tuple(end - start for start, end in self.boundaries)

    @property
    def length(self) -> int:
        return self.boundaries[-1][1]

    @property
    def n_strata(self) -> int:
        return len(self.boundaries)


@dataclass(frozen=True)
class AllocationResult:
    """Per-stratum sample counts plus the dispersion weights they came from."""

    n_bar: int
    per_stratum: tuple
    per_stratum_weight: tuple

    @property
    def total(self) -> int:
        return int(sum(self.per_stratum))


def required_sample_size(cfg: SamplingConfig) -> int:
    """Total sample size for a confidence level, with finite-population
    correction, truncated to an integer.

    Truncation (not rounding) is deliberate: it reproduces the standard
    reference values for N=4097 at the 70/85/95/99% presets exactly.
    """
    n = cfg.z ** 2 * cfg.p * (1.0 - cfg.p) / cfg.e ** 2
    n_bar = n / (1.0 + (n - 1.0) / cfg.population_size)
    return int(n_bar)


def stratify(length: int, n_strata: int) -> StratificationPlan:
    """Cut [0, length) into n_strata contiguous intervals whose sizes differ
    by at most one; the longer strata go last (4097/4 -> 1024,1024,1024,1025)."""
    if n_strata < 1:
        raise ConfigError(f"n_strata must be at least 1, got {n_strata}")
    if length < n_strata:
        raise ConfigError(f"length {length} is smaller than n_strata {n_strata}")
    base, extra = divmod(length, n_strata)
    sizes = [base] * (n_strata - extra) + [base + 1] * extra
    return StratificationPlan.from_sizes(sizes)


def allocate(class_channels, plan: StratificationPlan, n_bar: int) -> AllocationResult:
    """Optimum allocation of n_bar across strata for one class of channels.

    The weight of stratum i is N_i * sqrt(sum over channels of the sample
    variance of that channel restricted to stratum i); counts are the
    weight-proportional shares of n_bar. Shares are floored, then the
    leftover is handed out one by one to the strata with the largest
    remaining fractional part (ties to the lower stratum index), keeping
    the total exactly n_bar while staying within the stratum sizes.
    """
    channels = list(class_channels)
    if not channels:
        raise DataError("allocation needs at least one channel")
    length = plan.length
    for ch in channels:
        if len(ch) != length:
            raise DataError(
                f"channel {ch.id!r} has length {len(ch)}, but the plan covers {length}"
            )
    if not 0 <= n_bar <= length:
        raise ConfigError(f"n_bar {n_bar} must lie in [0, {length}]")

    data = np.stack([ch.samples for ch in channels])
    sizes = np.array(plan.sizes, dtype=np.int64)
    weights = np.empty(plan.n_strata, dtype=np.float64)
    for i, (start, end) in enumerate(plan.boundaries):
        seg = data[:, start:end]
        var_sum = seg.var(axis=1, ddof=1).sum() if end - start > 1 else 0.0
        weights[i] = sizes[i] * np.sqrt(var_sum)

    if not np.isfinite(weights).all():
        i = int(np.argmin(np.isfinite(weights)))
        raise DegenerateDataError(f"stratum {i} weight is not finite: its variance overflows "
                                  "float64; rescale the data")
    total_weight = weights.sum()
    if total_weight <= 0.0:
        raise DegenerateDataError("all strata are constant in every channel; allocation undefined")

    raw = n_bar * weights / total_weight
    counts = np.minimum(np.floor(raw).astype(np.int64), sizes)
    leftover = n_bar - int(counts.sum())
    while leftover > 0:
        room = counts < sizes
        # largest remaining fractional share first, ties to lower index
        frac = np.where(room, raw - counts, -np.inf)
        pick = int(np.argmax(frac))
        counts[pick] += 1
        leftover -= 1

    return AllocationResult(n_bar=int(n_bar), per_stratum=tuple(int(c) for c in counts),
                            per_stratum_weight=tuple(float(w) for w in weights))


def reduce_channel(channel: Channel, plan: StratificationPlan, alloc: AllocationResult,
                   seed: int, policy: str = "random") -> Channel:
    """Draw the allocated number of points from each stratum and concatenate.

    Within a stratum the selected positions are kept in temporal order, so
    the reduced signal is an order-preserving subsequence of the input.
    ``random`` draws without replacement from the seeded generator;
    ``systematic`` takes evenly spaced points and ignores the seed.
    """
    if policy not in SELECTION_POLICIES:
        raise ConfigError(f"unknown selection policy {policy!r}; expected one of {SELECTION_POLICIES}")
    if len(alloc.per_stratum) != plan.n_strata:
        raise ConfigError("allocation and plan disagree on the number of strata")
    if len(channel) != plan.length:
        raise DataError(f"channel {channel.id!r} does not match the plan length {plan.length}")

    rng = np.random.default_rng(seed)
    pieces = []
    for (start, end), n_i in zip(plan.boundaries, alloc.per_stratum):
        size = end - start
        if n_i > size:
            raise ConfigError(f"allocated {n_i} samples to a stratum of size {size}")
        if n_i == 0:
            continue
        if policy == "random":
            idx = np.sort(rng.choice(size, size=n_i, replace=False))
        else:
            idx = (np.arange(n_i, dtype=np.int64) * size) // n_i
        pieces.append(channel.samples[start + idx])

    if not pieces:
        raise ConfigError("allocation selects zero samples overall")
    return Channel(id=channel.id, set_label=channel.set_label, samples=np.concatenate(pieces))
