"""Kernel estimation of time-varying coefficient models for longitudinal
data observed until a terminal event.

Estimates beta(t, s) in Y_i(t) = X_i(t)' beta(t, T_i - t) + eps_i(t) by
local weighted least squares over complete cases, with moment-based
sandwich variances, cross-validated bandwidths, a simulation generator,
and a replication-study harness.
"""

from .bandwidth import (CVResult, FoldAssignment, cv_score, default_h_grid,
                        make_folds, select_bandwidth, undersmoothing_factor)
from .config import (dump_sim_config, load_kv_file, load_sim_config,
                     load_study_config, parse_kv_text, sim_config_from_mapping,
                     study_config_from_mapping)
from .data import Dataset, Subject
from .errors import DataError, NumericalError, UsageError, VctermError
from .experiments import (CvSettings, GridSpec, HeatmapTable, SliceTable,
                          StudyConfig, StudyResult, aggregate_records,
                          coverage_heatmap, replication_seed_sequences,
                          run_study, slice_summary, study_fingerprint,
                          truth_matrix, write_study_artifacts)
from .fit import (FitError, FitPoint, ResidualTable, STATUS_EMPTY, STATUS_OK,
                  STATUS_SINGULAR, confidence_interval, fit_grid, local_fit,
                  residuals, sandwich_variance, slice_fit, standard_errors)
from .io import (IngestionReport, TransformSpec, load_csv, parse_transform,
                 read_table, write_dataset_csv, write_truth_csv)
from .kernel import (DEFAULT_KERNEL, DEFAULT_RADIUS, Kernel, KernelMoments,
                     kernel_eval, kernel_moments)
from .simulate import (SimConfig, TruthRecord, beta_interarrival_params,
                       beta_value, covariate_covariance, error_covariance,
                       gen_covariates, gen_dataset, gen_errors, gen_event_times,
                       gen_visit_times, spawn_stateless, true_beta,
                       trunc_exp_inverse)

__version__ = "0.1.0"

__all__ = [
    "CVResult", "CvSettings", "DEFAULT_KERNEL", "DEFAULT_RADIUS", "DataError",
    "Dataset", "FitError", "FitPoint", "FoldAssignment", "GridSpec",
    "HeatmapTable", "IngestionReport", "Kernel", "KernelMoments",
    "NumericalError", "ResidualTable", "STATUS_EMPTY", "STATUS_OK",
    "STATUS_SINGULAR", "SimConfig", "SliceTable", "StudyConfig",
    "StudyResult", "Subject", "TransformSpec", "TruthRecord", "UsageError",
    "VctermError", "aggregate_records", "beta_interarrival_params",
    "beta_value", "confidence_interval", "covariate_covariance",
    "coverage_heatmap", "cv_score", "default_h_grid", "dump_sim_config",
    "error_covariance", "fit_grid", "gen_covariates", "gen_dataset",
    "gen_errors", "gen_event_times", "gen_visit_times", "kernel_eval",
    "kernel_moments", "load_csv", "load_kv_file", "load_sim_config",
    "load_study_config", "local_fit", "make_folds", "parse_kv_text",
    "parse_transform", "read_table", "replication_seed_sequences",
    "residuals", "run_study", "sandwich_variance", "select_bandwidth",
    "sim_config_from_mapping", "slice_fit", "slice_summary",
    "spawn_stateless", "standard_errors", "study_config_from_mapping",
    "study_fingerprint", "true_beta", "trunc_exp_inverse", "truth_matrix",
    "undersmoothing_factor", "write_dataset_csv", "write_study_artifacts",
    "write_truth_csv", "__version__",
]
