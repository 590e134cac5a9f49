"""Critical branching particle systems with stable migration.

Simulation engines, renewal and stable-density numerics, exact moment
formulas, and regime-gated statistical experiments for occupation-time
laws of large numbers.
"""

from .errors import ConfigError, QuadratureError, RegimeError, StableBranchError
from .experiments import (
    CheckRow,
    ExperimentConfig,
    ResultRow,
    run_experiment,
    run_validation_suite,
    write_table,
)
from .fastsim import BatchResult, field_batch, obs_grid, replicate_stream, tree_batch
from .lifetimes import Exponential, Gamma, ParetoTail, make_pareto_tail
from .moments import (
    decay_exponent_prediction,
    field_covariance,
    occupation_variance,
    pair_correlation,
    tree_second_moment,
)
from .occupation import TestFunction, lebesgue_integral
from .renewal import RenewalTable, build_renewal
from .stable_motion import (
    StableKernel,
    radial_fourier_inverse,
    sample_increments,
    semigroup_apply,
    transition_density_radial,
)

__all__ = [
    "BatchResult",
    "CheckRow",
    "ConfigError",
    "ExperimentConfig",
    "Exponential",
    "Gamma",
    "ParetoTail",
    "QuadratureError",
    "RegimeError",
    "RenewalTable",
    "ResultRow",
    "StableBranchError",
    "StableKernel",
    "TestFunction",
    "build_renewal",
    "decay_exponent_prediction",
    "field_batch",
    "field_covariance",
    "lebesgue_integral",
    "make_pareto_tail",
    "obs_grid",
    "occupation_variance",
    "pair_correlation",
    "radial_fourier_inverse",
    "replicate_stream",
    "run_experiment",
    "run_validation_suite",
    "sample_increments",
    "semigroup_apply",
    "transition_density_radial",
    "tree_batch",
    "tree_second_moment",
    "write_table",
]
