"""Back-and-forth error compensated schemes for Maxwell's equations.

Colocated first-order schemes (centered, neighbor-averaged, blended and
their least-squares analogs on deformed grids) wrapped by the two-extra-
substep error compensation that lifts them to second order, plus the
symbol-analysis, absorbing-layer and experiment tooling around them.
"""

from .analysis import (ScanResult, accuracy_order, bfecc_symbol, bfecc_symbol_for,
                       cfl_bound, exact_propagator, measured_phase_speed, phase_speed,
                       stability_scan, symbol, theta_cfl_constant)
from .bfecc import BfeccStep, bfecc_program, bfecc_step
from .diagnostics import (component_rms, convergence_orders, h_divergence, l2_error,
                          restrict_to_coarse, rms, write_error_table, write_snapshot)
from .grid import (Circle, Grid2, GridError, ImplicitCurve, Intersection, StarCurve,
                   build_uniform, curve_grid_intersections, dump_grid, point_shift,
                   smooth_shift)
from .harness import (EXPERIMENTS, ExperimentConfig, InstabilityError,
                      build_scatter_grid, build_variant_grid, parse_config,
                      refine_experiment, run_experiment, run_periodic1d,
                      run_periodic2d, run_scatter)
from .lsq import RankDeficientStencilError, batched_fit_weights
from .pml import PmlRunner, PmlState, TfsfInjector, TfsfSource, build_pml
from .schemes import (SCHEME_KINDS, FieldState1, FieldState2, SchemeSpec,
                      StencilGeometry, lincomb1, lincomb2, step_1d, step_2d)

__version__ = "0.1.0"

__all__ = [
    "BfeccStep", "Circle", "EXPERIMENTS", "ExperimentConfig",
    "FieldState1", "FieldState2", "Grid2", "GridError", "ImplicitCurve",
    "InstabilityError", "Intersection", "PmlRunner", "PmlState",
    "RankDeficientStencilError", "SCHEME_KINDS", "ScanResult", "SchemeSpec",
    "StarCurve", "StencilGeometry", "TfsfInjector", "TfsfSource", "accuracy_order",
    "batched_fit_weights", "bfecc_program", "bfecc_step", "bfecc_symbol",
    "bfecc_symbol_for", "build_pml", "build_scatter_grid", "build_uniform",
    "build_variant_grid", "cfl_bound", "component_rms", "convergence_orders",
    "curve_grid_intersections", "dump_grid", "exact_propagator", "h_divergence",
    "l2_error", "measured_phase_speed", "parse_config", "phase_speed",
    "point_shift", "refine_experiment", "restrict_to_coarse", "rms",
    "run_experiment", "run_periodic1d", "run_periodic2d", "run_scatter",
    "smooth_shift", "stability_scan", "step_1d", "step_2d", "symbol",
    "theta_cfl_constant", "write_error_table", "write_snapshot",
]
