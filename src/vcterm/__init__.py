"""Kernel estimation of time-varying coefficient models for longitudinal
data observed until a terminal event.

Estimates beta(t, s) in Y_i(t) = X_i(t)' beta(t, T_i - t) + eps_i(t) by
local weighted least squares over complete cases, with moment-based
sandwich variances, cross-validated bandwidths, a simulation generator,
and a replication-study harness. The rest of the API lives in the
submodules (vcterm.io, vcterm.config, vcterm.simulate, ...).
"""

from .bandwidth import CVResult, select_bandwidth, undersmoothing_factor
from .data import Dataset
from .errors import DataError, NumericalError, UsageError, VctermError
from .experiments import (GridSpec, SliceTable, StudyConfig, StudyResult, run_study,
                          slice_summary)
from .fit import (FitError, FitPoint, ResidualTable, confidence_interval, fit_grid,
                  local_fit, residuals, sandwich_variance)
from .kernel import DEFAULT_KERNEL, Kernel, KernelMoments, kernel_eval, kernel_moments
from .simulate import SimConfig, gen_dataset

__version__ = "0.1.0"

__all__ = [
    "CVResult", "DEFAULT_KERNEL", "DataError", "Dataset", "FitError", "FitPoint",
    "GridSpec", "Kernel", "KernelMoments", "NumericalError", "ResidualTable",
    "SimConfig", "SliceTable", "StudyConfig", "StudyResult", "UsageError",
    "VctermError", "confidence_interval", "fit_grid", "gen_dataset", "kernel_eval",
    "kernel_moments", "local_fit", "residuals", "run_study", "sandwich_variance",
    "select_bandwidth", "slice_summary", "undersmoothing_factor",
]
