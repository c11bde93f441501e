"""eegstrata: seizure classification from stratified-sampled EEG signals.

Long signals are reduced by stratified sampling with optimum allocation,
summarized with 15 per-stratum statistical features, pruned to a minimal
feature subset by a correlation search with a range-based filter, and
classified with cross-validated RF / naive Bayes / kNN models.
"""

from .corpus import (CASE_SETS, SET_LABELS, Channel, case_channels,
                     generate_synthetic_case, load_channel, load_set,
                     save_channel)
from .errors import (ConfigError, DataError, DegenerateDataError,
                     EegStrataError)
from .evaluation import CVResult, kfold_split, run_cv, weighted_accuracy
from .features import (FEATURE_ORDER, FeatureMatrix, extract_vector,
                       feature_names, fluctuation_index, hurst_exponent,
                       sample_entropy, shannon_entropy, stratum_features)
from .pipeline import (PipelineConfig, assemble_report, emit_report,
                       run_pipeline)
from .sampler import (CONFIDENCE_Z, AllocationResult, allocate, reduce_channel,
                      required_sample_size, stratify)
from .seeding import derive_seed
from .selection import (CorrelationMatrix, FeatureSubset, best_first_search,
                        cfs_merit, correlation_matrix, range_bounds,
                        range_filter, select_features)
from .classifiers import (KNNClassifier, NaiveBayesClassifier,
                          RandomForestClassifier, make_classifier)

__version__ = "0.1.0"

__all__ = [
    "CASE_SETS", "CONFIDENCE_Z", "FEATURE_ORDER", "SET_LABELS",
    "AllocationResult", "CVResult", "Channel", "ConfigError",
    "CorrelationMatrix", "DataError", "DegenerateDataError", "EegStrataError",
    "FeatureMatrix", "FeatureSubset", "KNNClassifier", "NaiveBayesClassifier",
    "PipelineConfig", "RandomForestClassifier", "allocate", "assemble_report",
    "best_first_search", "case_channels", "cfs_merit", "correlation_matrix",
    "derive_seed", "emit_report", "extract_vector", "feature_names",
    "fluctuation_index", "generate_synthetic_case", "hurst_exponent",
    "kfold_split", "load_channel", "load_set", "make_classifier",
    "range_bounds", "range_filter", "reduce_channel", "required_sample_size",
    "run_cv", "run_pipeline", "sample_entropy", "save_channel",
    "select_features", "shannon_entropy", "stratify", "stratum_features",
    "weighted_accuracy",
]
