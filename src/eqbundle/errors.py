"""Exception hierarchy.

Everything raised on purpose derives from EqBundleError.  InputError marks
bad user input (configs, malformed expressions, dimension mismatches,
violated preconditions) and maps to CLI exit code 1.  All other subclasses
describe numerical or structural failures discovered while computing and
map to CLI exit code 2.  positive_int and non_negative_int are the checks
of a count given by a caller (a budget, an iteration cap, a config size, a
seed), positive_float that of a step or a tolerance.
"""

from __future__ import annotations

import math
import operator


class EqBundleError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EqBundleError):
    """Bad input: config, expression, dimensions, or violated precondition."""


class UnsupportedDimensionError(InputError):
    """Operation defined only for a specific fiber dimension (e.g. k = 1)."""


class ExprError(InputError):
    """Expression parse error. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvaluationError(EqBundleError):
    """Evaluator produced a non-finite value or hit a domain violation."""

    def __init__(self, message: str, where=None):
        if where is not None:
            message = f"{message} at {where}"
        super().__init__(message)
        self.where = where


class ExprDomainError(EvaluationError):
    """Domain violation inside an expression (division by zero, log(<=0), ...)."""

    def __init__(self, message: str, offset: int, where=None):
        super().__init__(f"{message} (offset {offset})", where)
        self.offset = offset


class DegeneracyError(EqBundleError):
    """A rank or non-degeneracy condition failed.  Carries the evidence."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class BranchPointError(DegeneracyError):
    """Kernel dimension jumped while tracing a fiber. Carries the location."""

    def __init__(self, message: str, location=None, report=None):
        super().__init__(message, report)
        self.location = location


class TransportError(DegeneracyError):
    """Parallel transport failed. Carries the curve parameter t."""

    def __init__(self, message: str, t=None, report=None):
        if t is not None:
            message = f"{message} (t = {t})"
        super().__init__(message, report)
        self.t = t


class HolonomyError(DegeneracyError):
    """Transported points could not be matched back to the enumerated set."""


class TrackingError(DegeneracyError):
    """Eigenvalue path tracking failed (e.g. a tracked path leaves C*)."""

    def __init__(self, message: str, segment=None, report=None):
        if segment is not None:
            message = f"{message} (between samples {segment[0]} and {segment[1]})"
        super().__init__(message, report)
        self.segment = segment


class ResolutionError(TrackingError):
    """Refinement budget exhausted before tracking invariants were met."""


class ConvergenceError(EqBundleError):
    """An iterative solve diverged or ran out of iterations."""


def _as_int(value, what: str) -> int:
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or isinstance(value, bool):
        raise InputError(f"{what} must be an integer")
    return out


def positive_int(value, what: str) -> int:
    """value as an int: a positive Python or numpy integer, not a bool.
    InputError for anything else, floats with integral values included."""
    out = _as_int(value, what)
    if out <= 0:
        raise InputError(f"{what} must be positive")
    return out


def non_negative_int(value, what: str) -> int:
    """value as an int: a Python or numpy integer >= 0, not a bool.
    InputError for anything else, as for positive_int."""
    out = _as_int(value, what)
    if out < 0:
        raise InputError(f"{what} must be non-negative")
    return out


def positive_float(value, what: str) -> float:
    """value as a float: a finite number > 0.  InputError for anything
    else."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be a number") from None
    if not math.isfinite(out) or out <= 0.0:
        raise InputError(f"{what} must be positive and finite")
    return out
