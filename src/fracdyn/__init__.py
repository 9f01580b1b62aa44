"""Tools for simulating dynamics constrained through fractional derivatives."""

import logging

from .constrained_dynamics import (
    ConstraintSpec,
    SystemSpec,
    hamilton_rhs,
    lambda_general,
    rhs_general,
    rhs_linear,
    rhs_nonlinear_frac_oscillator,
    variational_residual,
)
from .fode_solver import (
    RHS,
    History,
    IntegratorConfig,
    SimulationResult,
    convergence_study,
    integrate_fractional_abm,
    integrate_hamilton,
    integrate_second_order,
)
from .frac_ops import (
    caputo_left,
    caputo_right,
    fractional_integral,
    prop1_shift,
    riemann_liouville_left,
    riemann_liouville_right,
)
from .mittag_leffler import MLParams, ml, ml_decomp_f, ml_decomp_g, ml_grid
from .oscillator_exact import OscillatorSpec, decomposed_solution, exact_solution, forcing
from .series import FracOrder, Grid, SampleSeries

__all__ = [
    "FracOrder",
    "Grid",
    "SampleSeries",
    "fractional_integral",
    "caputo_left",
    "caputo_right",
    "riemann_liouville_left",
    "riemann_liouville_right",
    "prop1_shift",
    "MLParams",
    "ml",
    "ml_decomp_f",
    "ml_decomp_g",
    "ml_grid",
    "OscillatorSpec",
    "forcing",
    "exact_solution",
    "decomposed_solution",
    "ConstraintSpec",
    "SystemSpec",
    "lambda_general",
    "rhs_linear",
    "rhs_general",
    "rhs_nonlinear_frac_oscillator",
    "hamilton_rhs",
    "variational_residual",
    "RHS",
    "History",
    "IntegratorConfig",
    "SimulationResult",
    "integrate_second_order",
    "integrate_hamilton",
    "integrate_fractional_abm",
    "convergence_study",
]

__version__ = "0.1.0"

# library code logs to "fracdyn" at debug level; the application decides
# where records go
logging.getLogger(__name__).addHandler(logging.NullHandler())
