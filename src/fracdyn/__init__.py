"""Tools for simulating dynamics constrained through fractional derivatives.

The collector is paused while the package imports.  Nothing that numpy and
the modules below build while loading is ever freed, so a collection then
only inspects objects that all survive.  Before it resumes, those objects
move to the oldest generation, which only a full collection walks; left
young, all of them would be walked by the first collection after the
pause.  ``fracdyn.cli.main`` later freezes them, so that no collection,
the one at exit included, walks them again.

The Mittag-Leffler names load their module on first use (PEP 562): only
the oscillator oracle and the checks call it, and a run that does not need
it does not compile it.
"""

import gc

_gc_was_enabled = gc.isenabled()
gc.disable()
try:
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
    from .oscillator_exact import OscillatorSpec, decomposed_solution, exact_solution, forcing
    from .series import FracOrder, Grid, SampleSeries
finally:
    if _gc_was_enabled:
        # freeze then unfreeze: every tracked object to the oldest
        # generation, with no collection; skipped when the caller keeps
        # objects frozen, which the unfreeze would release
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()

# the exports that __getattr__ takes from fracdyn.mittag_leffler
_MITTAG_LEFFLER = frozenset({"MLParams", "ml", "ml_decomp_f", "ml_decomp_g", "ml_grid"})

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


def __getattr__(name: str):
    if name in _MITTAG_LEFFLER:
        from . import mittag_leffler

        return getattr(mittag_leffler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
