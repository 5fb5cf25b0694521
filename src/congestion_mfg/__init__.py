"""Mean-field-game solver with congestion on the periodic torus.

Backward viscous Hamilton-Jacobi-Bellman equation coupled to a forward
Kolmogorov equation, discretized with a monotone upwind finite-difference
scheme whose transport operators are exact discrete adjoints of each other,
plus the structural checkers and energy/uniqueness diagnostics that certify
a computed equilibrium.
"""

from .bundles import load_solution, save_solution
from .coupler import (
    ContinuationSchedule,
    FixedPointOptions,
    MFGSolution,
    solve_mfg,
    solve_with_continuation,
)
from .diagnostics import (
    DiagnosticsReport,
    apriori_report,
    crossed_energy_gap,
    energy_identity_residual,
    uniqueness_gap,
)
from .fpk import fpk_step, solve_fpk_forward
from .grid import GridSpec
from .hjb import HJBOptions, hjb_step, solve_hjb_backward
from .model import (
    CouplingSpec,
    ModelParams,
    StructureReport,
    check_structure,
    eval_H,
    eval_Hp,
    uniqueness_integrand,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuationSchedule",
    "CouplingSpec",
    "DiagnosticsReport",
    "FixedPointOptions",
    "GridSpec",
    "HJBOptions",
    "MFGSolution",
    "ModelParams",
    "StructureReport",
    "apriori_report",
    "check_structure",
    "crossed_energy_gap",
    "energy_identity_residual",
    "eval_H",
    "eval_Hp",
    "fpk_step",
    "hjb_step",
    "load_solution",
    "save_solution",
    "solve_fpk_forward",
    "solve_hjb_backward",
    "solve_mfg",
    "solve_with_continuation",
    "uniqueness_gap",
    "uniqueness_integrand",
]
