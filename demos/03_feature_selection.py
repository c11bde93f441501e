"""
Finding the few features that matter
====================================

Selection runs in two passes. A best-first search over the correlation
structure finds a subset with high feature-class correlation and low
redundancy; a range filter then drops features whose values rarely fall
inside a band derived from their own min and max.
"""

import numpy as np

from eegstrata import (FeatureMatrix, cfs_merit, correlation_matrix,
                       range_filter, select_features)

# 60 channels described by 8 features: two informative, six noise
rng = np.random.default_rng(3)
n = 60
labels = np.tile([0, 1], n // 2)
informative_a = np.where(labels == 0, rng.normal(0.35, 0.05, n), rng.normal(0.65, 0.05, n))
informative_b = np.where(labels == 0, rng.normal(0.40, 0.06, n), rng.normal(0.60, 0.06, n))
noise = rng.normal(0.5, 0.1, size=(n, 6))
values = np.column_stack([informative_a, informative_b, noise])
names = ("amplitude", "irregularity", "n0", "n1", "n2", "n3", "n4", "n5")
fm = FeatureMatrix(names=names, values=values, labels=labels)

# the feature-feature and feature-class correlations drive everything
# downstream; both follow the matrix's column order
ff, fc = correlation_matrix(fm)
print("feature-class correlations:")
for name, r in zip(fm.names, fc):
    print(f"  {name:14s} {r: .3f}")

# merit rewards class correlation and punishes redundancy; it takes column indices
print("merit of singletons vs the informative pair:")
print("  [amplitude]               ", round(cfs_merit([0], ff, fc), 4))
print("  [irregularity]            ", round(cfs_merit([1], ff, fc), 4))
print("  [amplitude, irregularity] ", round(cfs_merit([0, 1], ff, fc), 4))

# the full two-pass selection
subset = select_features(fm)
print("search picked:   ", subset.prefilter_names, f"(merit {subset.prefilter_merit:.4f})")
print("after range pass:", subset.names, f"(merit {subset.merit:.4f})")
if subset.eliminated_by_range:
    print("eliminated:      ", subset.eliminated_by_range)

# the band the filter applies to one column, and the share of its values inside
amplitude = range_filter(fm, ["amplitude"], (ff, fc))
lo, hi = amplitude.range_bounds["amplitude"]
inside = amplitude.in_range_fraction["amplitude"]
print(f"amplitude band [{lo:.3f}, {hi:.3f}] holds {100 * inside:.0f}% of the values")
