"""
Shrinking a long signal with stratified sampling
================================================

A 4097-point channel is cut into four contiguous strata, a statistically
justified sample size is computed from a confidence level, and the sample
is allocated across strata in proportion to size times dispersion.
"""

import numpy as np

from eegstrata import (CONFIDENCE_Z, Channel, allocate, reduce_channel,
                       required_sample_size, stratify)

# the preset confidence levels and their standard-normal variates
print("confidence presets:", CONFIDENCE_Z)

# how many samples a 4097-point population needs at each level
for level, z in sorted(CONFIDENCE_Z.items()):
    print(f"  {level}% (z={z}): n_bar = {required_sample_size(z, 4097)}")

# four contiguous strata, given by their sizes; the remainder goes to the last stratum
plan = stratify(4097, 4)
print("stratum sizes:", plan)

# a toy channel: quiet first half, noisy second half
rng = np.random.default_rng(0)
samples = np.concatenate([
    0.3 * rng.standard_normal(2048),
    2.0 * rng.standard_normal(2049),
])
channel = Channel(id="A/demo", set_label="A", samples=samples)

# optimum allocation hands the noisy strata a larger share of the budget:
# one count per stratum, and the dispersion weight each count came from
n_bar = required_sample_size(1.96, 4097)
counts, weights = allocate([channel], plan, n_bar)
print(f"allocating n_bar={n_bar}:")
for i, (n_i, w) in enumerate(zip(counts, weights), start=1):
    print(f"  stratum {i}: {n_i:4d} samples (weight {w:8.1f})")
print("total drawn:", sum(counts))

# the reduced channel is an order-preserving subsequence of the original
reduced = reduce_channel(channel, plan, counts, seed=42)
print("reduced length:", len(reduced), "of", len(channel))

# a systematic (evenly spaced) draw is available as well and ignores the seed
systematic = reduce_channel(channel, plan, counts, seed=0, policy="systematic")
print("systematic draw, first 5 values:", np.round(systematic.samples[:5], 3))
