"""Exception hierarchy.

Everything raised on purpose derives from EqBundleError.  InputError marks
bad user input (configs, malformed expressions, dimension mismatches,
violated preconditions) and maps to CLI exit code 1.  All other subclasses
describe numerical or structural failures discovered while computing and
map to CLI exit code 2.  The functions after the classes are the one
check of each kind of caller input (a mapping's keys, a count, a step, an
array, a box, a path, a loop), shared by the config and the library entry
points, and the norm that the loop and start checks take without overflow.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Optional

import numpy as np


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


def known_keys(keys, allowed, what: str) -> None:
    """InputError "unknown {what}: [...]", the keys sorted by their text,
    unless every key is in allowed."""
    unknown = sorted(set(keys) - set(allowed), key=str)
    if unknown:
        raise InputError(f"unknown {what}: {unknown}")


def _as_int(value, what: str) -> int:
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or isinstance(value, bool):
        raise InputError(f"{what} must be an integer")
    return out


# upper bounds of the size fields, far above what a run needs, so that no
# size reaches numpy's array size limit: a dimension (n, m or k), and a
# count of starts, fiber points or identity samples.  The multistart's
# unit sample (finder._unit_starts) is budget * n floats, built with no
# larger table, which stack_count caps at about 4.8 MB (n = 6 with 10^5
# starts).
DIMENSION_LIMIT, COUNT_LIMIT = 100, 10**5
# the most entries of a stack of n x n matrices, one per start of a
# multistart (its Jacobians) or per identity sample: 2^22 float64
# entries, 32 MiB a stack
STACK_LIMIT = 2**22


def positive_int(value, what: str, most: Optional[int] = None) -> int:
    """value as an int: a positive Python or numpy integer, not a bool, and
    not above most when most is given.  InputError for anything else,
    floats with integral values included."""
    out = _as_int(value, what)
    if out <= 0:
        raise InputError(f"{what} must be positive")
    if most is not None and out > most:
        raise InputError(f"{what} must be at most {most}")
    return out


def stack_count(value, what: str, n: int) -> int:
    """value as positive_int, a count of stacked n x n matrices: at most
    COUNT_LIMIT, and at most STACK_LIMIT // n**2 so that one stack of them
    stays within STACK_LIMIT entries."""
    return positive_int(value, what, min(COUNT_LIMIT, STACK_LIMIT // (n * n)))


def non_negative_int(value, what: str) -> int:
    """value as an int: a Python or numpy integer >= 0, not a bool.
    InputError for anything else, as for positive_int."""
    out = _as_int(value, what)
    if out < 0:
        raise InputError(f"{what} must be non-negative")
    return out


def as_float(value) -> float:
    """float(value), with an int past the float range read as +-inf, so
    that the checks after it refuse it as they refuse inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_real(value) -> float:
    """as_float of a number: a numbers.Real that is not a bool.  TypeError
    for anything else, a numeric string included.  The one rule of every
    float that a config or a caller gives."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    return as_float(value)


def positive_float(value, what: str) -> float:
    """value as a float: a finite number > 0 (_as_real).  InputError for
    anything else."""
    try:
        out = _as_real(value)
    except TypeError:
        raise InputError(f"{what} must be a number") from None
    if not math.isfinite(out) or out <= 0.0:
        raise InputError(f"{what} must be positive and finite")
    return out


def unit_sign(value, what: str) -> int:
    """value as an int, 1 or -1, with positive_int's integer rule."""
    out = _as_int(value, what)
    if out not in (1, -1):
        raise InputError(f"{what} must be 1 or -1")
    return out


def step_bounds(low, initial, high, unit: str) -> tuple:
    """The min_, initial_ and max_ bounds of the step named unit as floats
    (_as_real) with 0 < low <= initial <= high < inf."""
    rule = f"0 < min_{unit} <= initial_{unit} <= max_{unit}"
    try:
        low, initial, high = _as_real(low), _as_real(initial), _as_real(high)
    except TypeError:
        raise InputError(f"step bounds must be numbers with {rule}") from None
    if not 0.0 < low <= initial <= high < math.inf:
        raise InputError(
            f"step bounds must be finite with {rule}, got {low}, {initial}, {high}"
        )
    return low, initial, high


def finite_array(value, what: str) -> np.ndarray:
    """value as a float array of finite numbers; a string, a mapping, None,
    a bool, a ragged nesting, NaN or inf is an InputError."""
    try:
        out = np.asarray(value)
    except ValueError:          # a ragged nesting
        out = None
    if out is None or out.dtype.kind not in "iuf" or not np.all(np.isfinite(out)):
        raise InputError(f"{what} must be an array of finite numbers")
    return out.astype(float, copy=False)


def finite_vector(value, length: int, what: str, dim_name: str) -> np.ndarray:
    """value as a finite_array of shape (length,), length being dim_name."""
    out = finite_array(value, what)
    if out.shape != (length,):
        got = f"length {out.size}" if out.ndim == 1 else f"shape {out.shape}"
        raise InputError(
            f"dimension mismatch: {what} has {got}, "
            f"expected a vector of length {dim_name} = {length}"
        )
    return out


def box(value, rows, what: str) -> np.ndarray:
    """value as a finite_array of shape (rows, 2), any row count when rows
    is None, with lo <= hi in each row [lo, hi] and a diameter, the norm of
    the widths hi - lo, within the float range."""
    out = finite_array(value, what)
    if out.ndim != 2 or out.shape[1] != 2 or rows not in (None, out.shape[0]):
        expected = "(rows, 2)" if rows is None else f"({rows}, 2)"
        raise InputError(f"{what} must have shape {expected}, got {out.shape}")
    if np.any(out[:, 0] > out[:, 1]):
        raise InputError(f"{what} has lo > hi")
    # a width past the float range reads inf, and so does the diameter
    with np.errstate(over="ignore"):
        width = out[:, 1] - out[:, 0]
    if _scaled_norm(width) == math.inf:
        raise InputError(f"{what} has a diameter past the float range")
    return out


def _entries(value, what: str, kind: str):
    """The entries of a list, tuple or array of at least two, as given: an
    array is kept as it is, its rows the entries, and not restacked."""
    array = isinstance(value, np.ndarray) and value.ndim
    if not (array or isinstance(value, (list, tuple))) or len(value) < 2:
        raise InputError(f"{what} needs at least two {kind}")
    return value


def waypoint_path(value, length: int, what: str, dim_name: str) -> np.ndarray:
    """value as a (W, length) array of W >= 2 waypoints, each a finite_vector."""
    return np.array([
        finite_vector(row, length, f"{what} waypoint {i}", dim_name)
        for i, row in enumerate(_entries(value, what, "waypoints"))
    ])


def cocycle_paths(value) -> list:
    """The entries of a cocycle's paths: a list, tuple or array of exactly
    three, each still to be checked as a waypoint_path."""
    if isinstance(value, np.ndarray) and value.ndim:
        value = list(value)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise InputError(
            "paths must hold exactly three parameter paths (1 -> 2, 2 -> 3, 1 -> 3)"
        )
    return list(value)


# below this largest |entry|, no sum of fewer than 2^64 squares overflows
_NORM_SAFE = 2.0**480


def _scale_of(largest: float) -> float:
    """1.0, or once largest passes _NORM_SAFE, largest rounded down to a
    power of two: dividing by it is exact (bar entries that fall below the
    normal range, far too small to move a norm) and leaves every entry
    below 2 in magnitude, so that no norm or difference of the divided
    entries overflows."""
    return 2.0 ** (math.frexp(largest)[1] - 1) if _NORM_SAFE < largest < math.inf else 1.0


def _norm_scale(*arrays) -> float:
    """_scale_of the largest |entry| of the arrays."""
    return _scale_of(max(float(np.max(np.abs(a))) for a in arrays))


def _scaled_norm(v) -> float:
    """np.linalg.norm(v) as a float, without numpy's overflow warning: the
    norm of v / _scale_of(max |v_i|) times that scale, a Python float
    product that reads inf past the float range.  While no |v_i| passes
    _NORM_SAFE the scale is 1 and the norm is np.linalg.norm(v) itself."""
    v = np.asarray(v, dtype=float)
    scale = _scale_of(float(np.abs(v).max()))
    if scale == 1.0:
        return float(np.linalg.norm(v))
    return float(np.linalg.norm(v / scale)) * scale


def closed_loop(points, what: str, rel: float = 1e-9) -> None:
    """InputError unless the first and last of points (vectors or matrices)
    agree within rel relative to the first's norm.  Both are first divided
    by _norm_scale of the two, so no norm or difference overflows; while
    no entry passes _NORM_SAFE the scale is 1 and the test is the unscaled
    one."""
    first, last = np.asarray(points[0], dtype=float), np.asarray(points[-1], dtype=float)
    scale = _norm_scale(first, last)
    first, last = first / scale, last / scale
    gap = float(np.linalg.norm(first - last))
    if gap > rel * (1.0 / scale + float(np.linalg.norm(first))):
        # a Python float product: a gap past the float range reads inf
        raise InputError(f"loop must close: first and last {what} differ by {gap * scale:.3e}")


def matrix_loop(value, k) -> tuple:
    """(matrices, k): a float stack (W, n, n) of W >= 2 finite matrices,
    the first and last within 1e-12 relative (closed_loop), and k with
    0 <= k <= n.  The loop is checked as one array; a loop that fails that
    check is checked matrix by matrix, which names the first bad one."""
    entries = _entries(value, "a matrix loop", "matrices")
    try:
        mats = finite_array(entries, "a matrix loop")
    except InputError:
        mats = None
    stacked = (
        mats is not None and mats.ndim == 3 and mats.shape[1] == mats.shape[2]
        and not _boolean_entry(entries, mats)
    )
    if not stacked:
        mats = [finite_array(entry, f"matrix {i}") for i, entry in enumerate(entries)]
        n = len(mats[0]) if mats[0].ndim == 2 else -1
        if any(mat.shape != (n, n) for mat in mats):
            raise InputError("all loop matrices must be square with equal shape")
        mats = np.array(mats)
    n = mats.shape[1]
    closed_loop(mats, "matrices", 1e-12)
    k = non_negative_int(k, "k")
    if k > n:
        raise InputError(f"k = {k} is out of range for {n} x {n} matrices")
    return mats, k


def _boolean_entry(entries: list, stack: np.ndarray) -> bool:
    """Whether an entry that finite_array rejects alone, as a boolean array,
    hides in the numeric stack of the loop: only a matrix of zeros and ones
    can be one."""
    binary = ((stack == 0.0) | (stack == 1.0)).all(axis=(1, 2))
    return any(np.asarray(entries[i]).dtype.kind == "b" for i in np.flatnonzero(binary))
