"""Spectral simulation and drift estimation for a rotating hydrostatic model.

The submodules layer bottom-up: `params` and `modes` define the model
constants and the truncated cosine basis, `linear` the per-mode forcing
and its exact Ornstein-Uhlenbeck factors, `solver` the
time stepping, `estimators` the viscosity functionals, and `harness`
the reproducible experiment runs behind the command line tool.
"""
from .estimators import (
    EstimateResult,
    EstimatorConfig,
    confidence_interval,
    estimate_nu_h,
    estimate_nu_z,
    estimate_nu_z_hat,
    theoretical_covariance,
)
from .harness import (
    ExperimentConfig,
    finite_n_covariance,
    linear_moment_check,
    load_config,
    number_theory_checks,
    run_consistency,
    run_linear_validation,
    run_normality,
)
from .linear import noise_direction_array, strand_noise_chol
from .modes import (
    ModeSelector,
    SpectralField,
    inner_product,
    random_field,
)
from .params import ModelParams
from .solver import (
    BlowUpError,
    SolverConfig,
    Trajectory,
    nonlinear_B,
    simulate_path,
    trajectory_from_text,
    trajectory_to_text,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ModelParams",
    "ModeSelector",
    "SpectralField",
    "inner_product",
    "random_field",
    "noise_direction_array",
    "strand_noise_chol",
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "simulate_path",
    "nonlinear_B",
    "trajectory_to_text",
    "trajectory_from_text",
    "EstimatorConfig",
    "EstimateResult",
    "estimate_nu_h",
    "estimate_nu_z",
    "estimate_nu_z_hat",
    "theoretical_covariance",
    "confidence_interval",
    "ExperimentConfig",
    "finite_n_covariance",
    "load_config",
    "run_consistency",
    "run_normality",
    "run_linear_validation",
    "linear_moment_check",
    "number_theory_checks",
]
