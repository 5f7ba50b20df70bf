"""Simulation and estimation toolkit for linear parabolic random fields on
the unit square driven by damped space-time noise."""

from .contrast import (ContrastConfig, MinimumContrastFit, contrast_gradient,
                       contrast_value, minimize_contrast, profile_scale)
from .errors import (ConfigError, GridMismatchError, MemoryBudgetError,
                     ThinningError)
from .harness import (CrossSection, ExperimentConfig, Exponents,
                      ReplicationRecord, SummaryTable, ThinningConfig,
                      cross_section_dump, default_config, estimate_field,
                      load_config, run_monte_carlo, run_replication)
from .increments import (SpaceThinning, SquaredIncrementField,
                         asymptotic_mean, build_space_thinning,
                         expected_squared_increment_oracle,
                         expected_squared_increment_total,
                         squared_increment_field)
from .kernels import BACKEND
from .model import (DerivedRatios, Mode, ModelParams, NoiseKind,
                    contrast_coefficient, damping_base, damping_factor,
                    eigenfunction, eigenvalue, mode_volatility, mu_value)
from .plugins import (CovarianceMatrix, PluginEstimates, covariance_J,
                      covariance_K, covariance_L, q1_plugin, q2_known_plugin,
                      q2_unknown_plugin)
from .reconstruct import approx_coordinate, build_time_thinning, realized_qv
from .simulate import (InitialCondition, Observation, RngSeed, SpaceTimeGrid,
                       TruncationSpec, simulate_coordinate_paths,
                       simulate_field, simulate_point_values)

__version__ = "0.1.0"
