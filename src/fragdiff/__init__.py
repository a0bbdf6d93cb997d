"""Conservative solver and verification suite for fragmentation with size diffusion.

Particles of size x > 0 break at rate a(x) into fragments distributed by
b(x, y) while the size itself diffuses; the boundary condition at size zero
removes nothing, so total mass int x phi dx is conserved.  The package
discretizes the dynamics with a finite-volume scheme whose mass defect is
exactly the truncation-boundary flux, solves for steady profiles, and
verifies the structural properties of the model (positivity, moment bounds,
spectral gap, exponential relaxation) numerically.
"""

__version__ = "0.1.0"

from .checks import heat_apply_exact, heat_growth_bound, image_kernel_value, kernel_value
from .coefficients import (ConstantRate, CustomKernel, MassConditionReport,
                           MomentCeiling, PowerLawKernel, PowerRate, RateModel,
                           RegularizedRate, ShiftedPowerRate, TableRate,
                           delta_m, moment_ceiling, verify_mass_condition)
from .errors import ConfigError, NumericsError, PropertyViolation
from .evolution import IntegratorConfig, Stepper, Trajectory, default_dt, evolve
from .mesh import (Mesh, State, build_mesh, mass, moment, tail_mass_fraction,
                   weighted_norm, x1_distance)
from .operators import OperatorBundle, assemble_birth, assemble_bundle, assemble_diffusion
from .spectral import (DecayFit, decay_rate, dominant_eigenpair, spectral_gap,
                       subdominant_spectrum)
from .stationary import (RegularizedResult, SteadyResult, solve_steady,
                         solve_steady_regularized)

__all__ = [
    "__version__",
    "build_mesh", "Mesh", "State", "moment", "mass", "weighted_norm",
    "x1_distance", "tail_mass_fraction",
    "RateModel", "ConstantRate", "PowerRate", "ShiftedPowerRate", "TableRate",
    "RegularizedRate", "PowerLawKernel", "CustomKernel",
    "delta_m", "verify_mass_condition", "moment_ceiling", "MomentCeiling",
    "MassConditionReport",
    "assemble_diffusion", "assemble_birth", "assemble_bundle", "OperatorBundle",
    "kernel_value", "image_kernel_value", "heat_apply_exact", "heat_growth_bound",
    "IntegratorConfig", "Stepper", "Trajectory", "evolve", "default_dt",
    "SteadyResult", "solve_steady", "RegularizedResult",
    "solve_steady_regularized",
    "dominant_eigenpair", "subdominant_spectrum", "spectral_gap", "decay_rate",
    "DecayFit",
    "ConfigError", "NumericsError", "PropertyViolation",
]
