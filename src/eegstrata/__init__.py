"""eegstrata: seizure classification from stratified-sampled EEG signals.

Long signals are reduced by stratified sampling with optimum allocation,
summarized with 15 per-stratum statistical features, pruned to a minimal
feature subset by a correlation search with a range-based filter, and
classified with cross-validated RF / naive Bayes / kNN models.
"""

from .corpus import (BONN_SAMPLING_RATE_HZ, CASE_SETS, SET_LABELS, Channel,
                     ClassificationCase, build_case, generate_synthetic_case,
                     load_channel, save_channel)
from .errors import (ConfigError, DataError, DegenerateDataError,
                     EegStrataError)
from .evaluation import (CVConfig, CVResult, EvaluationReport, kfold_split,
                         run_cv, weighted_accuracy)
from .features import (FEATURE_ORDER, FeatureMatrix, FeatureVector,
                       extract_vector, fluctuation_index, hurst_exponent,
                       sample_entropy, shannon_entropy, stratum_features)
from .pipeline import (PipelineConfig, PipelineReport, assemble_report,
                       emit_report, run_pipeline)
from .sampler import (CONFIDENCE_Z, AllocationResult, SamplingConfig,
                      StratificationPlan, allocate, reduce_channel,
                      required_sample_size, stratify)
from .seeding import derive_seed
from .selection import (CorrelationMatrix, FeatureSubset, best_first_search,
                        cfs_merit, correlation_matrix, pearson, range_bounds,
                        range_filter, select_features)
from .classifiers import (KNNClassifier, NaiveBayesClassifier,
                          RandomForestClassifier, make_classifier)

__version__ = "0.1.0"

__all__ = [
    "BONN_SAMPLING_RATE_HZ", "CASE_SETS", "CONFIDENCE_Z", "FEATURE_ORDER",
    "SET_LABELS", "AllocationResult", "CVConfig", "CVResult", "Channel",
    "ClassificationCase", "ConfigError", "CorrelationMatrix", "DataError",
    "DegenerateDataError", "EegStrataError", "EvaluationReport",
    "FeatureMatrix", "FeatureSubset", "FeatureVector", "KNNClassifier",
    "NaiveBayesClassifier", "PipelineConfig", "PipelineReport",
    "RandomForestClassifier", "SamplingConfig", "StratificationPlan",
    "allocate", "assemble_report", "best_first_search", "build_case",
    "cfs_merit", "correlation_matrix", "derive_seed", "emit_report",
    "extract_vector", "fluctuation_index", "generate_synthetic_case",
    "hurst_exponent", "kfold_split", "load_channel", "make_classifier",
    "pearson", "range_bounds", "range_filter", "reduce_channel",
    "required_sample_size", "run_cv", "run_pipeline", "sample_entropy",
    "save_channel", "select_features", "shannon_entropy", "stratify",
    "stratum_features", "weighted_accuracy",
]
