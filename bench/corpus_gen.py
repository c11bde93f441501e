"""Seeded five-set corpus in the Bonn layout, the input of reduce-sweep.

Sets A..E go into the Bonn directory names Z, O, N, F and S, one file per
channel (``Z001.txt`` ...), one integer sample per line. Each set has its
own dispersion profile over the four quarters of the signal, so the
per-class optimum allocations differ between Case1, Case2 and Case3:
A and B are calm, C and D sit between them and E, and E adds
high-amplitude sinusoidal bursts on top of the loudest background.

The generator uses numpy only, never the package under test, and the same
seed always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LENGTH = 4097
N_PER_SET = 4
# Bonn directory name -> background standard deviation in each quarter
PROFILES = {
    "Z": (40.0, 42.0, 45.0, 44.0),      # set A
    "O": (55.0, 50.0, 52.0, 58.0),      # set B
    "N": (80.0, 95.0, 85.0, 90.0),      # set C
    "F": (110.0, 100.0, 95.0, 120.0),   # set D
    "S": (150.0, 150.0, 150.0, 150.0),  # set E, plus bursts
}
BURST_SET = "S"
BURST_AMPLITUDE = 450.0


def channel_samples(seed: int, prefix: str, index: int, length: int = LENGTH) -> np.ndarray:
    """Integer samples of one channel, determined by (seed, set, index)."""
    set_index = list(PROFILES).index(prefix)
    rng = np.random.default_rng([seed, set_index, index])
    edges = (np.arange(5) * length) // 4
    x = np.empty(length)
    for q, scale in enumerate(PROFILES[prefix]):
        x[edges[q]:edges[q + 1]] = scale * rng.standard_normal(edges[q + 1] - edges[q])
    if prefix == BURST_SET:
        for _ in range(int(rng.integers(3, 7))):
            width = int(rng.integers(length // 32, length // 12 + 1))
            start = int(rng.integers(0, length - width))
            t = np.arange(width)
            x[start:start + width] += BURST_AMPLITUDE * np.sin(
                2.0 * np.pi * rng.uniform(0.02, 0.08) * t + rng.uniform(0.0, 2.0 * np.pi))
    return np.rint(x).astype(np.int64)


def write_corpus(root, seed: int, n_per_set: int = N_PER_SET, length: int = LENGTH) -> list:
    """Write every set under ``root`` and return the written paths in order."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    root = Path(root)
    paths = []
    for prefix in PROFILES:
        directory = root / prefix
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(n_per_set):
            path = directory / f"{prefix}{i + 1:03d}.txt"
            values = channel_samples(seed, prefix, i, length)
            path.write_text("".join(f"{v}\n" for v in values.tolist()))
            paths.append(path)
    return paths
