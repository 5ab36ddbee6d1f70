"""Equilibrium bundles of parametric ODE systems with first integrals.

The public names resolve on first use (PEP 562): ``import eqbundle``
imports no submodule, and ``eqbundle.<name>`` imports only the module that
defines it, so a run loads the modules it needs and no others.
"""

import importlib

__version__ = "0.1.0"

# home module: the public names it defines
_EXPORTS = {
    "audit": (
        "AuditReport", "CheckResult", "audit_point",
    ),
    "errors": (
        "BranchPointError", "ConvergenceError", "DegeneracyError", "EqBundleError",
        "EvaluationError", "ExprDomainError", "ExprError", "HolonomyError", "InputError",
        "ResolutionError", "TrackingError", "TransportError", "UnsupportedDimensionError",
    ),
    "expr": ("build_system_from_config", "eval_ast", "parse", "to_source"),
    "finder": (
        "EquilibriumPoint", "FiberTrace", "enumerate_level_points", "newton_on_level_set",
        "trace_fiber",
    ),
    "linalg": ("RankReport", "eigen_dense", "kernel_basis", "numeric_rank", "solve_least_squares"),
    "monodromy": (
        "EigenLoopReport", "SpectrumSplit", "eigen_along_fiber_loop", "split_spectrum",
        "track_matrix_loop",
    ),
    "systems": (
        "Domain", "Evaluation", "PointState", "SystemSpec", "builtin",
        "check_first_integral_identity", "evaluate",
    ),
    "tolerances": ("DEFAULT_TOLERANCES", "Tolerances"),
    "transport": (
        "ConnectionFrame", "HolonomyReport", "TransportResult", "check_cocycle",
        "connection_frame", "holonomy_loop", "lift_curve", "metric_g", "vertical_projector",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, imported from its home module and kept here; or a
    home module itself, imported."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
