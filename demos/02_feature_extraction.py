"""
Fifteen statistics per stratum
==============================

Each reduced channel becomes a fixed-length row of numbers: the channel is
walked stratum by stratum and every stratum contributes the same 15
statistics, in the order feature_names(n_strata) names them.
"""

import numpy as np

from eegstrata import (FEATURE_ORDER, Channel, extract_vector, feature_names,
                       hurst_exponent, sample_entropy, shannon_entropy, stratify)

print("the 15 per-stratum features:")
print(" ", ", ".join(FEATURE_ORDER))

# a channel whose character changes along its length
rng = np.random.default_rng(7)
t = np.arange(1024)
samples = np.concatenate([
    rng.standard_normal(512),                      # irregular half
    np.sin(t[:512] / 6.0) + 0.05 * rng.standard_normal(512),  # rhythmic half
])
channel = Channel(id="E/demo", set_label="E", samples=samples)

plan = stratify(len(channel), 4)  # stratum sizes (256, 256, 256, 256)
row = extract_vector([channel], plan)[0]  # one row per channel given
names = feature_names(len(plan))
print(f"row length: {row.size} ({len(plan)} strata x {len(FEATURE_ORDER)})")

# regularity measures tell the two halves apart: the rhythmic strata have
# lower sample entropy and higher autocorrelation structure
for name in ("s1_sample_entropy", "s4_sample_entropy", "s1_std", "s4_std"):
    value = row[names.index(name)]
    print(f"  {name:20s} = {value: .4f}")

# the standalone functions accept any 1-d sequence of at least 64 points
noise = rng.standard_normal(1024)
print("white noise:")
print("  hurst          ", round(hurst_exponent(noise), 3), "(~0.5 expected)")
print("  sample entropy ", round(sample_entropy(noise), 3))
print("  shannon entropy", round(shannon_entropy(noise), 3), "bits")

trend = np.cumsum(noise)
print("random walk (persistent):")
print("  hurst          ", round(hurst_exponent(trend), 3), "(-> 1 expected)")
