"""Parametric ODE systems with first integrals.

A system is xdot = f(lam, x) on a compact state domain V, lam ranging over a
parameter box, together with k parameter-independent first integrals
h_1..h_k (f . grad h_l = 0 identically).  Everything downstream (audits,
equilibrium finding, transport, eigenvalue tracking) consumes the uniform
Evaluation record produced here.  Every system carries its derivative
callables; a declared system's come from its expressions (expr).

Built-in families
-----------------
planar      n=2, m=1, k=1: f = (-x + lam*(y^2 - 1), 0), h = y, V the closed
            unit disk.  The fiber over lam is the parabola arc
            x = lam*(y^2 - 1), a segment with endpoints on the unit circle.
example2    n=3, m=1, k=2: f = (-lam*y*(z - x), lam*x*(z - x), 0) with
            h1 = x^2 + y^2 + z^2 and h2 = 4x^2 + 4y^2 + z^2/4.  Equilibria
            inside V form the plane {x = z}.  V keeps the two level bands
            h1 in [1, 3], h2 in [5, 15] only: an additional constraint
            h2 >= 5*h1 would make the domain empty, since
            h2 - 5*h1 = -(x^2 + y^2 + 4.75 z^2) < 0 away from the origin.
rfmr        ring transport chain, n >= 3 sites, m = n rates, k = 1:
            xdot_i = lam_{i-1} x_{i-1} (1 - x_i) - lam_i x_i (1 - x_{i+1})
            with cyclic indices, h = sum(x), V = [0, 1]^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DIMENSION_LIMIT, EqBundleError, EvaluationError, InputError, _scaled_norm, as_float, box,
    finite_vector, known_keys, non_negative_int, positive_int, stack_count,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_NO_LAMBDA = np.zeros(0)                              # lam of the h callables


def _diameter(box: np.ndarray) -> float:
    return _scaled_norm(box[:, 1] - box[:, 0])


def _slack(diameter: float, tols: Tolerances) -> float:
    """The membership slack of a box of this diameter: domain_slack * (1 +
    diameter)."""
    return tols.domain_slack * (1.0 + diameter)


def _in_box(x: np.ndarray, box: np.ndarray, slack: float):
    """lo - slack <= x <= hi + slack in every coordinate, for a point x
    (n,) or for each row of a stack (B, n)."""
    return np.logical_and.reduce((x >= box[:, 0] - slack) & (x <= box[:, 1] + slack), axis=-1)


@dataclass(frozen=True)
class Domain:
    """Compact state domain: a box intersected with constraints g_j(x) <= 0."""

    box: np.ndarray                               # (n, 2) columns lo, hi
    constraints: tuple = ()                       # callables R^n -> float

    def __post_init__(self):
        object.__setattr__(self, "box", box(self.box, None, "domain_box"))
        # every membership test reads the slack, so the diameter is kept
        object.__setattr__(self, "_diameter", _diameter(self.box))

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def diameter(self) -> float:
        return self._diameter

    def contains(self, x, slack: Optional[float] = None):
        """Whether x is in the box within slack, lo - slack <= x <= hi +
        slack, with g(x) <= slack for every constraint g: a bool for a point
        (n,), or one bool per row for a stack (B, n), no constraint called
        on a point or row once a test fails.  slack None is
        _in_domain_rows' domain_slack * (1 + diameter) at the defaults.
        A row with a NaN is not inside.  Raises InputError when x is not an
        array of numbers (text, a mapping, a ragged nesting) or its last
        axis is not of length n; the test reads only x's dtype and shape."""
        if slack is None:
            slack = _slack(self._diameter, DEFAULT_TOLERANCES)
        try:
            x = np.asarray(x)
        except ValueError:          # a ragged nesting
            x = None
        if x is None or x.dtype.kind not in "iuf":
            raise InputError("x must be an array of numbers")
        if x.shape[-1:] != (self.dim,):
            raise InputError(
                f"dimension mismatch: x has shape {x.shape}, "
                f"expected a point or rows of length n = {self.dim}"
            )
        x = x.astype(float, copy=False)
        inside = _in_box(x, self.box, slack)
        if x.ndim == 1:
            return bool(inside) and all(g(x) <= slack for g in self.constraints)
        # a constraint tests only the rows still inside, as it tests a
        # point: a huge row outside the box could overflow it
        for g in self.constraints:
            if inside.any():
                inside[inside] = g(x[inside]) <= slack
        return inside

    def margin(self, x: np.ndarray) -> float:
        """The signed margin of a point x (n,) of floats, min(x - lo, hi -
        x, -g(x)) over its coordinates and constraints: margin(x) >= 0
        exactly when contains(x, slack=0.0), and NaN when x has a NaN.  As
        in contains, no constraint is called on a point outside the box,
        which could overflow it: there the margin is the box's alone."""
        margin = np.min(np.minimum(x - self.box[:, 0], self.box[:, 1] - x))
        if margin >= 0.0:
            for g in self.constraints:
                margin = np.minimum(margin, -g(x))
        return float(margin)

    def boundary_distance(self, x) -> float:
        """Distance to the nearest box face or constraint surface.

        Implicit constraints use the first-order estimate |g| / |grad g|,
        grad g by central differences with steps cbrt(eps) max(1, |x_j|).
        Raises InputError unless x is a finite vector of length n.
        """
        x = finite_vector(x, self.dim, "x", "n")
        dist = float(np.min(np.minimum(x - self.box[:, 0], self.box[:, 1] - x)))
        steps = np.cbrt(np.finfo(float).eps) * np.fmax(1.0, np.abs(x))
        axial = np.eye(self.dim, dtype=bool)
        up, down = np.where(axial, x + steps, x), np.where(axial, x - steps, x)
        for g in self.constraints:
            val = g(x)
            moved = np.array([g(y) for pair in zip(up, down) for y in pair], float).reshape(-1, 2)
            grad = (moved[:, 0] - moved[:, 1]) / (2 * steps)
            scale = max(float(np.linalg.norm(grad)), 1e-12)
            dist = min(dist, abs(float(val)) / scale)
        return dist


def _float_row(value) -> np.ndarray:
    """value as a flat float array, an int past the float range read as
    +-inf (as_float), for the entry points' finiteness check to refuse."""
    try:
        return np.asarray(value, dtype=float).reshape(-1)
    except OverflowError:
        return np.array([as_float(v) for v in np.asarray(value, dtype=object).reshape(-1)])


@dataclass(frozen=True)
class PointState:
    """A point (lam, x) of the trivial bundle over the parameter box."""

    lam: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        # only converted: a point is built for every evaluation, and the
        # entry points check finiteness and lengths
        try:
            lam, x = _float_row(self.lam), _float_row(self.x)
        except (TypeError, ValueError):
            raise InputError("a point's lambda and x must be arrays of numbers") from None
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "x", x)


class Evaluation(NamedTuple):
    """All local data of a system at one point."""

    point: PointState
    f_value: np.ndarray            # (n,)
    h_value: np.ndarray            # (k,)
    jac_x: np.ndarray              # (n, n)
    jac_lambda: np.ndarray         # (n, m)
    jac_h: np.ndarray              # (k, n)
    hess_h: np.ndarray             # (k, n, n)


@dataclass(frozen=True)
class SystemSpec:
    """Definition of a parametric system with first integrals.

    f maps (lam, x) to an n-vector and h maps x to a k-vector.  The four
    derivative callables are required.
    """

    name: str
    n: int
    m: int
    k: int
    f: Callable
    h: Callable
    domain: Domain
    parameter_box: np.ndarray                     # (m, 2)
    jac_x_fn: Callable                            # (lam, x) -> df/dx (n, n)
    jac_lambda_fn: Callable                       # (lam, x) -> df/dlambda (n, m)
    jac_h_fn: Callable                            # x -> dh/dx (k, n)
    hess_h_fn: Callable                           # x -> Hessians of h (k, n, n)
    # f, h, the derivative callables and the domain constraints all accept
    # a stack x of shape (..., n) and map over its leading axes; lam is
    # then one vector (m,) or a stack (..., m) that broadcasts against x.
    # A stacked call need not raise: a row it cannot evaluate may come back
    # non-finite, and that row alone, as one point, raises the error.  Set
    # by the builtin constructors and for declared systems.
    batched: bool = False

    def __post_init__(self):
        for key in "nmk":
            object.__setattr__(self, key, positive_int(getattr(self, key), key))
        if self.k >= self.n:
            raise InputError(f"need 1 <= k < n; got n={self.n}, k={self.k}")
        if self.domain.dim != self.n:
            raise InputError(
                f"domain dimension {self.domain.dim} does not match n = {self.n}"
            )
        object.__setattr__(
            self, "parameter_box", box(self.parameter_box, self.m, "parameter_box")
        )
        # every lambda a command admits reads the slack, as in Domain
        object.__setattr__(self, "_parameter_diameter", _diameter(self.parameter_box))
        for key in ("jac_x_fn", "jac_lambda_fn", "jac_h_fn", "hess_h_fn"):
            if not callable(getattr(self, key)):
                raise InputError(f"{key} must be callable")

    # Values and derivative blocks.  Each takes one point x (n,) or a stack
    # (B, n) and returns the block, or the stack of blocks.  Without
    # `errors` the first EqBundleError is raised; with a dict the error of
    # row i is stored under i, the row is left NaN, and a row already in
    # the dict is not evaluated again.

    def f_rows(self, lam, x, errors=None) -> np.ndarray:
        """f at every row of a stack x: (B, n)."""
        return _rows(self.f, np.asarray(lam, dtype=float), x, (self.n,), self.batched, errors)

    def h_rows(self, x, errors=None) -> np.ndarray:
        """h at every row of a stack x: (B, k)."""
        return _rows(lambda _, y: self.h(y), _NO_LAMBDA, x, (self.k,), self.batched, errors)

    def jac_x(self, lam, x, errors=None) -> np.ndarray:
        """df/dx: (n, n) per point."""
        return self._block(self.jac_x_fn, lam, x, (self.n, self.n), errors)

    def jac_lambda(self, lam, x, errors=None) -> np.ndarray:
        """df/dlambda: (n, m) per point."""
        return self._block(self.jac_lambda_fn, lam, x, (self.n, self.m), errors)

    def jac_h(self, x, errors=None) -> np.ndarray:
        """dh/dx: (k, n) per point."""
        return self._block(lambda _, y: self.jac_h_fn(y), _NO_LAMBDA, x, (self.k, self.n), errors)

    def hess_h(self, x, errors=None) -> np.ndarray:
        """Hessians of h_1..h_k: (k, n, n) per point."""
        shape = (self.k, self.n, self.n)
        return self._block(lambda _, y: self.hess_h_fn(y), _NO_LAMBDA, x, shape, errors)

    def _block(self, fn, lam, x, shape, errors):
        x = np.asarray(x, dtype=float)
        rows = _rows(fn, np.asarray(lam, dtype=float), np.atleast_2d(x), shape, self.batched, errors)
        return rows[0] if x.ndim == 1 else rows


def _finite_rows(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values).all(axis=tuple(range(1, values.ndim)))


def _rows(fn, lam, x: np.ndarray, shape: tuple, batched: bool, errors=None):
    """fn(lam, x) at every row of the stack x, as an array (len(x),) + shape.

    lam is one vector shared by every row or a stack with one row per row
    of x.  A batched fn answers a stack of two or more rows in one call,
    and each row that comes back non-finite is called again alone, as one
    point, so a callable that raises only on a lone point (a declared
    system) raises there.  Any other fn, or a stack of one row, is called
    row by row: one point is the same value, and the builtins compute it
    faster than a stack of one.  A row's EqBundleError leaves the row NaN
    and is stored under the row in errors, or raised when errors is None.
    Rows already in errors are skipped.
    """
    count = len(x)
    raising = errors is None
    errors = {} if raising else errors
    if count == 1 and not errors:
        try:
            value = fn(lam[0] if lam.ndim == 2 else lam, x[0])
        except EqBundleError as err:
            if raising:
                raise
            errors[0] = err
            return np.full((1,) + shape, np.nan)
        return np.asarray(value, dtype=float).reshape((1,) + shape)
    if batched and count > 1:
        out = np.asarray(fn(lam, x), dtype=float).reshape((count,) + shape)
        if not errors and np.isfinite(out).all():
            return out
        out = out.copy()
        rerun = np.flatnonzero(~_finite_rows(out))
    else:
        out = np.full((count,) + shape, np.nan)
        rerun = range(count)
    stacked = np.ndim(lam) == 2
    for row in rerun:
        if row in errors:
            continue
        try:
            out[row] = np.asarray(
                fn(lam[row] if stacked else lam, x[row]), dtype=float
            ).reshape(shape)
        except EqBundleError as err:
            if raising:
                raise
            errors[row] = err
    for failed in errors:
        out[failed] = np.nan
    return out


def _in_domain_rows(sys: SystemSpec, x: np.ndarray, tols: Tolerances):
    """sys.domain.contains(x, slack) at every row of x, as (inside, errors
    {row: EqBundleError}): one stacked call on a batched spec, and row by
    row otherwise, where a constraint may raise.  slack is tols.domain_slack
    * (1 + domain diameter), the one slack of every point a command takes
    or makes (Newton's starts and converged points, the starts of a fiber
    trace or a lift, lift steps and eigen-loop midpoints) and of evaluate."""
    domain = sys.domain
    slack = _slack(domain.diameter(), tols)
    if sys.batched:
        return domain.contains(x, slack), {}
    errors: dict = {}
    inside = _rows(lambda _, y: domain.contains(y, slack), _NO_LAMBDA, x, (), False, errors)
    return inside == 1.0, errors


# the blocks of an Evaluation, in field order, which is the order of computation
_BLOCKS = ("f", "h", "jac_x", "jac_lambda", "jac_h", "hess_h")


def evaluate(
    sys: SystemSpec,
    u: PointState,
    tols: Tolerances = DEFAULT_TOLERANCES,
    check_domain: bool = True,
) -> Evaluation:
    """Evaluate f, h and all derivative blocks at u = (lam, x).

    Raises InputError when lam or x is not a finite vector of length m or
    n, or u falls outside the parameter box or the domain by more than
    tols.domain_slack * (1 + its diameter), the slack of every point a
    command at tols takes or makes (the lambda test is _admit_lambda's,
    which the config applies to every lambda a command takes), and
    EvaluationError when any evaluator returns a non-finite value.
    Pointwise diagnostics that only need evaluability (not domain
    membership) pass check_domain=False to skip the domain and parameter
    box tests.
    """
    lam = finite_vector(u.lam, sys.m, "lambda", "m")
    x = finite_vector(u.x, sys.n, "x", "n")
    if check_domain:
        _admit_lambda(sys, lam, tols, "lambda")
        inside, errors = _in_domain_rows(sys, x[None], tols)
        if not inside[0]:
            raise errors.get(0, InputError(f"x {x.tolist()} outside domain"))
    return Evaluation(u, *(block[0] for block in _evaluate_rows(sys, lam, x[None], _BLOCKS)))


def _admit_lambda(sys: SystemSpec, lam: np.ndarray, tols: Tolerances, what: str) -> None:
    """The one rule of a lambda that a command takes: raises InputError
    "{what} {lambda} outside parameter box" unless lam lies in the
    parameter box within tols.domain_slack * (1 + box diameter), the slack
    _in_domain_rows gives x.  lam is a checked finite vector of length m."""
    if not _in_box(lam, sys.parameter_box, _slack(sys._parameter_diameter, tols)):
        raise InputError(f"{what} {lam.tolist()} outside parameter box")


def _evaluate_rows(
    sys: SystemSpec, lam: np.ndarray, x: np.ndarray, names: tuple, errors=None
) -> tuple:
    """The blocks named in `names`, a subsequence of _BLOCKS, at every row of
    the stack x, one stacked call per block; lam is shared or has a row per
    row of x.  Blocks not named are not computed.  A row fails with the
    error evaluate raises there: the first failing named block, in block
    order, fails with its own error or as non-finite.  Each failed row's
    error is stored under the row in errors, or, when errors is None, the
    first row's is raised."""
    raising = errors is None
    errors = {} if raising else errors

    def checked(label, values):
        for row in np.flatnonzero(~_finite_rows(values)):
            if row not in errors:
                at = lam[row] if lam.ndim == 2 else lam
                errors[row] = EvaluationError(
                    f"{label} evaluated to a non-finite value",
                    where=(at.tolist(), x[row].tolist()),
                )
        return values

    compute = {
        "f": lambda: sys.f_rows(lam, x, errors),
        "h": lambda: sys.h_rows(x, errors),
        "jac_x": lambda: sys.jac_x(lam, x, errors),
        "jac_lambda": lambda: sys.jac_lambda(lam, x, errors),
        "jac_h": lambda: sys.jac_h(x, errors),
        "hess_h": lambda: sys.hess_h(x, errors),
    }
    blocks = tuple(checked(name, compute[name]()) for name in names)
    if raising and errors:
        raise errors[min(errors)]
    return blocks


class FirstIntegralViolation(NamedTuple):
    max_residual: float
    lam: np.ndarray
    x: np.ndarray
    integral_index: int


# the sample of first_integral_violation and check_first_integral_identity:
# its size and its seed
IDENTITY_SAMPLES = 200
IDENTITY_SEED = 0


def first_integral_violation(
    sys: SystemSpec, samples: int = IDENTITY_SAMPLES, seed: int = IDENTITY_SEED
) -> FirstIntegralViolation:
    """Worst |f . grad h_l| over seeded random domain points.

    Samples lam uniformly in the parameter box and x uniformly in the
    domain (rejection sampling against the constraints).
    """
    rng = np.random.default_rng(seed)
    pb = sys.parameter_box
    lo, hi = sys.domain.box[:, 0], sys.domain.box[:, 1]
    lams, xs = [], []
    attempts = 0
    max_attempts = max(1000 * samples, 10000)
    while len(xs) < samples and attempts < max_attempts:
        # a block of attempts, each row the m lambda draws and then the n x
        # draws of one attempt, so the stream is that of one attempt at a
        # time.  A domain tested row by row gets no more rows than samples
        # still needed, so each of its calls is one that a lone attempt makes.
        needed = samples - len(xs)
        count = min(max(needed, 256) if sys.batched else needed, max_attempts - attempts)
        draws = rng.random((count, sys.m + sys.n))
        attempts += count
        x = lo + (hi - lo) * draws[:, sys.m:]
        inside, errors = _in_domain_rows(sys, x, DEFAULT_TOLERANCES)
        if errors:
            raise errors[min(errors)]
        kept = np.flatnonzero(inside)[:needed]
        lams.extend(pb[:, 0] + (pb[:, 1] - pb[:, 0]) * draws[kept, : sys.m])
        xs.extend(x[kept])
    worst = FirstIntegralViolation(0.0, pb[:, 0], sys.domain.box[:, 0], 0)
    if xs:
        f, jac_h = _evaluate_rows(sys, np.array(lams), np.array(xs), ("f", "jac_h"))
        residuals = np.abs(np.matmul(jac_h, f[:, :, None])[:, :, 0])
        # the first sample, then its first integral, at the maximum
        i, l = divmod(int(np.argmax(residuals)), sys.k)
        if residuals[i, l] > 0.0:
            worst = FirstIntegralViolation(float(residuals[i, l]), lams[i], xs[i], l)
    if len(xs) < samples:
        raise InputError(
            f"could not draw {samples} domain points after {max_attempts} attempts; "
            "domain constraints may leave (almost) no volume"
        )
    return worst


def check_first_integral_identity(
    sys: SystemSpec, samples: int = IDENTITY_SAMPLES, seed: int = IDENTITY_SEED
) -> float:
    """Max |f . grad h_l| over seeded random domain samples: samples a
    positive integer within errors.stack_count's bound at n, seed a
    non-negative one."""
    samples = stack_count(samples, "samples", sys.n)
    seed = non_negative_int(seed, "seed")
    return first_integral_violation(sys, samples, seed).max_residual


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _builtin_planar() -> SystemSpec:
    def f(lam, x):
        out = np.zeros(x.shape)
        out[..., 0] = -x[..., 0] + lam[..., 0] * (x[..., 1] ** 2 - 1.0)
        return out

    def jac_x(lam, x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 0, 1] = 2.0 * lam[..., 0] * x[..., 1]
        return J

    def jac_lambda(lam, x):
        J = np.zeros(x.shape[:-1] + (2, 1))
        J[..., 0, 0] = x[..., 1] ** 2 - 1.0
        return J

    def h(x):
        return x[..., [1]]

    def jac_h(x):
        J = np.zeros(x.shape[:-1] + (1, 2))
        J[..., 0, 1] = 1.0
        return J

    def hess_h(x):
        return np.zeros(x.shape[:-1] + (1, 2, 2))

    domain = Domain(
        box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        constraints=(lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0,),
    )
    return SystemSpec(
        name="planar", n=2, m=1, k=1,
        f=f, h=h, domain=domain,
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=jac_x, jac_lambda_fn=jac_lambda, jac_h_fn=jac_h, hess_h_fn=hess_h,
        batched=True,
    )


def _builtin_example2() -> SystemSpec:
    def f(lam, x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        w = x2 - x0
        out = np.zeros(x.shape)
        out[..., 0] = -lam[..., 0] * x1 * w
        out[..., 1] = lam[..., 0] * x0 * w
        return out

    def jac_x(lam, x):
        a = lam[..., 0]
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 0] = a * x1
        J[..., 0, 1] = -a * (x2 - x0)
        J[..., 0, 2] = -a * x1
        J[..., 1, 0] = a * x2 - 2.0 * a * x0
        J[..., 1, 2] = a * x0
        return J

    def jac_lambda(lam, x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        w = x2 - x0
        J = np.zeros(x.shape[:-1] + (3, 1))
        J[..., 0, 0] = -x1 * w
        J[..., 1, 0] = x0 * w
        return J

    def h(x):
        sq = x * x
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = sq[..., 0] + sq[..., 1] + sq[..., 2]
        out[..., 1] = 4.0 * sq[..., 0] + 4.0 * sq[..., 1] + sq[..., 2] / 4.0
        return out

    def jac_h(x):
        J = np.empty(x.shape[:-1] + (2, 3))
        J[..., 0, :] = 2.0 * x
        J[..., 1, :2] = 8.0 * x[..., :2]
        J[..., 1, 2] = x[..., 2] / 2.0
        return J

    hessians = np.array([np.diag([2.0, 2.0, 2.0]), np.diag([8.0, 8.0, 0.5])])

    def hess_h(x):
        return np.broadcast_to(hessians, x.shape[:-1] + hessians.shape).copy()

    r = float(np.sqrt(3.0))
    domain = Domain(
        box=np.array([[-r, r], [-r, r], [-r, r]]),
        constraints=(
            lambda x: 1.0 - h(x)[..., 0],
            lambda x: h(x)[..., 0] - 3.0,
            lambda x: 5.0 - h(x)[..., 1],
            lambda x: h(x)[..., 1] - 15.0,
        ),
    )
    return SystemSpec(
        name="example2", n=3, m=1, k=2,
        f=f, h=h, domain=domain,
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=jac_x, jac_lambda_fn=jac_lambda, jac_h_fn=jac_h, hess_h_fn=hess_h,
        batched=True,
    )


def _builtin_rfmr(n: int) -> SystemSpec:
    if n < 3:
        raise InputError(f"rfmr needs n >= 3 sites, got n = {n}")
    idx = np.arange(n)
    # x[..., prev] is x_{i-1} and x[..., succ] is x_{i+1}, cyclically
    prev, succ = (idx - 1) % n, (idx + 1) % n

    def f(lam, x):
        return lam[..., prev] * x[..., prev] * (1.0 - x) - lam * x * (1.0 - x[..., succ])

    def jac_x(lam, x):
        lm = lam[..., prev]
        J = np.zeros(x.shape + (n,))
        J[..., idx, prev] = lm * (1.0 - x)
        J[..., idx, idx] = -lm * x[..., prev] - lam * (1.0 - x[..., succ])
        J[..., idx, succ] = lam * x
        return J

    def jac_lambda(lam, x):
        J = np.zeros(x.shape + (n,))
        J[..., idx, prev] = x[..., prev] * (1.0 - x)
        J[..., idx, idx] += -x * (1.0 - x[..., succ])
        return J

    def h(x):
        return np.sum(x, axis=-1, keepdims=True)

    def jac_h(x):
        return np.ones(x.shape[:-1] + (1, n))

    def hess_h(x):
        return np.zeros(x.shape[:-1] + (1, n, n))

    domain = Domain(box=np.column_stack([np.zeros(n), np.ones(n)]))
    return SystemSpec(
        name=f"rfmr({n})", n=n, m=n, k=1,
        f=f, h=h, domain=domain,
        parameter_box=np.column_stack([np.full(n, 0.25), np.full(n, 4.0)]),
        jac_x_fn=jac_x, jac_lambda_fn=jac_lambda, jac_h_fn=jac_h, hess_h_fn=hess_h,
        batched=True,
    )


_BUILTINS = {
    "planar": _builtin_planar,
    "example2": _builtin_example2,
    "rfmr": _builtin_rfmr,
}


def builtin(name: str, **params) -> SystemSpec:
    """Construct a built-in system: planar, example2, or rfmr (needs n, an
    integer from 3 to DIMENSION_LIMIT)."""
    if name not in _BUILTINS:
        raise InputError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        )
    if name == "rfmr":
        known_keys(params, {"n"}, "parameters for 'rfmr'")
        if "n" not in params:
            raise InputError("builtin 'rfmr' requires the site count n")
        return _BUILTINS[name](positive_int(params["n"], "n", DIMENSION_LIMIT))
    if params:
        raise InputError(f"builtin {name!r} takes no parameters, got {sorted(params)}")
    return _BUILTINS[name]()
