"""Mean-field-game solver with congestion on the periodic torus.

Backward viscous Hamilton-Jacobi-Bellman equation coupled to a forward
Kolmogorov equation, discretized with a monotone upwind finite-difference
scheme whose transport operators are exact discrete adjoints of each other,
plus the structural checkers and energy/uniqueness diagnostics that certify
a computed equilibrium.

Public names resolve on first use (PEP 562): importing the package runs no
submodule, and reading a name imports its home module.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides
_EXPORTS = {
    "bundles": ("load_solution", "save_solution"),
    "coupler": (
        "ContinuationSchedule", "FixedPointOptions", "MFGSolution", "solve_mfg",
        "solve_with_continuation",
    ),
    "diagnostics": (
        "DiagnosticsReport", "apriori_report", "crossed_energy_gap",
        "energy_identity_residual", "uniqueness_gap",
    ),
    "fpk": ("fpk_step", "solve_fpk_forward"),
    "grid": ("GridSpec",),
    "hjb": ("HJBOptions", "hjb_step", "solve_hjb_backward"),
    "model": (
        "CouplingSpec", "ModelParams", "StructureReport", "check_structure", "eval_H",
        "eval_Hp", "uniqueness_integrand",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name from its home module, or a submodule; cached once read."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    try:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
