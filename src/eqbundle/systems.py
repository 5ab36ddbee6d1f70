"""Parametric ODE systems with first integrals.

A system is xdot = f(lam, x) on a compact state domain V, lam ranging over a
parameter box, together with k parameter-independent first integrals
h_1..h_k (f . grad h_l = 0 identically).  Everything downstream (audits,
equilibrium finding, transport, eigenvalue tracking) consumes the uniform
Evaluation record produced here; derivative blocks fall back to central
finite differences when a system carries no analytic Jacobians.

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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EqBundleError, EvaluationError, InputError
from .linalg import _all_finite

DEFAULT_DOMAIN_SLACK = 1e-9

_FD_STEP = float(np.cbrt(np.finfo(float).eps))        # first derivatives
_FD2_STEP = float(np.finfo(float).eps ** 0.25)        # second derivatives
_NO_LAMBDA = np.zeros(0)                              # lam of the h callables


@dataclass(frozen=True)
class Domain:
    """Compact state domain: a box intersected with constraints g_j(x) <= 0."""

    box: np.ndarray                               # (n, 2) columns lo, hi
    constraints: tuple = ()                       # callables R^n -> float
    constraint_names: tuple = ()

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise InputError(f"domain box must have shape (n, 2), got {box.shape}")
        if np.any(box[:, 0] > box[:, 1]):
            raise InputError("domain box has lo > hi")
        object.__setattr__(self, "box", box)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def diameter(self) -> float:
        return float(np.linalg.norm(self.box[:, 1] - self.box[:, 0]))

    def contains(self, x, slack: float = DEFAULT_DOMAIN_SLACK) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < self.box[:, 0] - slack) or np.any(x > self.box[:, 1] + slack):
            return False
        return all(g(x) <= slack for g in self.constraints)

    def boundary_distance(self, x) -> float:
        """Distance to the nearest box face or constraint surface.

        Implicit constraints use the first-order estimate |g| / |grad g|
        with a finite-difference gradient.
        """
        x = np.asarray(x, dtype=float)
        dist = float(np.min(np.minimum(x - self.box[:, 0], self.box[:, 1] - x)))
        for g in self.constraints:
            val = g(x)
            grad = np.array([
                (g(x + h * e) - g(x - h * e)) / (2 * h)
                for h, e in zip(
                    _FD_STEP * np.maximum(1.0, np.abs(x)), np.eye(x.size)
                )
            ])
            scale = max(float(np.linalg.norm(grad)), 1e-12)
            dist = min(dist, abs(float(val)) / scale)
        return dist

    def sample_box(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + (hi - lo) * rng.random((count, self.dim))


@dataclass(frozen=True)
class PointState:
    """A point (lam, x) of the trivial bundle over the parameter box."""

    lam: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(-1))


@dataclass(frozen=True)
class Evaluation:
    """All local data of a system at one point."""

    point: PointState
    f_value: np.ndarray            # (n,)
    h_value: np.ndarray            # (k,)
    jac_x: np.ndarray              # (n, n)
    jac_lambda: np.ndarray         # (n, m)
    jac_h: np.ndarray              # (k, n)
    hess_h: np.ndarray             # (k, n, n)
    derivative_source: str         # "analytic" | "finite-difference"


@dataclass(frozen=True)
class SystemSpec:
    """Definition of a parametric system with first integrals.

    f maps (lam, x) to an n-vector, h maps x to a k-vector.  Jacobian
    callables are optional; missing blocks are filled by central finite
    differences at evaluation time.
    """

    name: str
    n: int
    m: int
    k: int
    f: Callable
    h: Callable
    domain: Domain
    parameter_box: np.ndarray                     # (m, 2)
    jac_x_fn: Optional[Callable] = None
    jac_lambda_fn: Optional[Callable] = None
    jac_h_fn: Optional[Callable] = None
    hess_h_fn: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)
    # f, h, the derivative callables and the domain constraints all accept
    # a stack x of shape (..., n) and map over its leading axes; lam is
    # then one vector (m,) or a stack (..., m) that broadcasts against x.
    # A stacked call need not raise: a row it cannot evaluate may come back
    # non-finite, and that row alone, as one point, raises the error.  Set
    # by the builtin constructors and for declared systems.
    batched: bool = False

    def __post_init__(self):
        pb = np.asarray(self.parameter_box, dtype=float)
        if pb.shape != (self.m, 2):
            raise InputError(
                f"parameter box must have shape ({self.m}, 2), got {pb.shape}"
            )
        object.__setattr__(self, "parameter_box", pb)
        if self.domain.dim != self.n:
            raise InputError(
                f"domain dimension {self.domain.dim} does not match n = {self.n}"
            )
        if not (self.n >= 1 and self.m >= 1 and 1 <= self.k < self.n):
            raise InputError(
                f"need n >= 1, m >= 1, 1 <= k < n; got n={self.n}, m={self.m}, k={self.k}"
            )

    @property
    def analytic(self) -> bool:
        return all(
            fn is not None
            for fn in (self.jac_x_fn, self.jac_lambda_fn, self.jac_h_fn, self.hess_h_fn)
        )

    def finite_difference(self, *blocks: str) -> bool:
        """Whether a matrix built from the named derivative blocks ("jac_x",
        "jac_lambda", "jac_h", "hess_h") takes the finite-difference rank
        floor: exactly when one of those blocks has no analytic callable."""
        return any(getattr(self, f"{block}_fn") is None for block in blocks)

    # Values and derivative blocks.  Each takes one point x (n,) or a stack
    # (B, n) and returns the block, or the stack of blocks.  A block with
    # no analytic callable comes from central finite differences.  Without
    # `errors` the first EqBundleError is raised; with a dict the error of
    # row i is stored under i, the row is left NaN, and a row already in
    # the dict is not evaluated again.

    def f_rows(self, lam, x, errors=None) -> np.ndarray:
        """f at every row of a stack x: (B, n)."""
        return _rows(self.f, np.asarray(lam, dtype=float), x, (self.n,), self.batched, errors)

    def h_rows(self, x, errors=None) -> np.ndarray:
        """h at every row of a stack x: (B, k)."""
        return _rows(self._h, _NO_LAMBDA, x, (self.k,), self.batched, errors)

    def jac_x(self, lam, x, errors=None) -> np.ndarray:
        """df/dx: (n, n) per point."""
        return self._block(
            self.jac_x_fn, lam, x, (self.n, self.n), errors,
            lambda lam, x, errors: _fd_jacobian(
                self.f, lam, x, False, self.n, self.batched, errors
            ),
        )

    def jac_lambda(self, lam, x, errors=None) -> np.ndarray:
        """df/dlambda: (n, m) per point."""
        return self._block(
            self.jac_lambda_fn, lam, x, (self.n, self.m), errors,
            lambda lam, x, errors: _fd_jacobian(
                self.f, lam, x, True, self.n, self.batched, errors
            ),
        )

    def jac_h(self, x, errors=None) -> np.ndarray:
        """dh/dx: (k, n) per point."""
        jac_h_fn = self.jac_h_fn
        return self._block(
            None if jac_h_fn is None else (lambda _, y: jac_h_fn(y)),
            _NO_LAMBDA, x, (self.k, self.n), errors,
            lambda lam, x, errors: _fd_jacobian(
                self._h, lam, x, False, self.k, self.batched, errors
            ),
        )

    def hess_h(self, x, errors=None) -> np.ndarray:
        """Hessians of h_1..h_k: (k, n, n) per point."""
        hess_h_fn = self.hess_h_fn
        return self._block(
            None if hess_h_fn is None else (lambda _, y: hess_h_fn(y)),
            _NO_LAMBDA, x, (self.k, self.n, self.n), errors,
            lambda lam, x, errors: _fd_hessian(self._h, x, self.k, self.batched, errors),
        )

    def _h(self, lam, x):
        return self.h(x)

    def _block(self, analytic, lam, x, shape, errors, fd):
        lam = np.asarray(lam, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            if analytic is not None and errors is None:
                return np.asarray(analytic(lam, x), dtype=float).reshape(shape)
            return self._block(analytic, lam, x[None], shape, errors, fd)[0]
        if analytic is not None:
            return _rows(analytic, lam, x, shape, self.batched, errors)
        return fd(lam, x, errors)


def _finite_rows(values: np.ndarray) -> np.ndarray:
    return np.isfinite(values).all(axis=tuple(range(1, values.ndim)))


def _rows(fn, lam, x: np.ndarray, shape: tuple, batched: bool, errors=None, group: int = 1):
    """fn(lam, x) at every row of the stack x, as an array (len(x),) + shape.

    lam is one vector shared by every row or a stack with one row per row
    of x.  A batched fn answers a stack of two or more rows in one call,
    and each row that comes back non-finite is called again alone, as one
    point, so a callable that raises only on a lone point (a declared
    system) raises there.  Any other fn, or a stack of one row, is called
    row by row: one point is the same value, and the builtins compute it
    faster than a stack of one.  The rows come in groups of
    `group` consecutive rows, the calls that one point needs in the order
    a lone evaluation makes them.  The first EqBundleError of a group ends
    that group: its rows are left NaN and the error is stored under the
    group index in errors, or raised when errors is None.  Groups already
    in errors are skipped.
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
        if not errors and _all_finite(out):
            return out
        out = out.copy()
        rerun = np.flatnonzero(~_finite_rows(out))
    else:
        out = np.full((count,) + shape, np.nan)
        rerun = range(count)
    stacked = np.ndim(lam) == 2
    for row in rerun:
        if row // group in errors:
            continue
        try:
            out[row] = np.asarray(
                fn(lam[row] if stacked else lam, x[row]), dtype=float
            ).reshape(shape)
        except EqBundleError as err:
            if raising:
                raise
            errors[row // group] = err
    for failed in errors:
        out[failed * group:(failed + 1) * group] = np.nan
    return out


def _fd_jacobian(fn, lam, x: np.ndarray, wrt_lambda: bool, width: int, batched: bool, errors=None):
    """Central differences of fn(lam, x) in x, or in lam, at every row of x.

    Returns (len(x), width, d).  All points of all rows go to fn as one
    stack, point after point in the order of a lone evaluation: column j
    moved up, then down.  The steps and the arithmetic are those of the
    column loop, so each block is bitwise the loop's.
    """
    z = np.broadcast_to(lam, (len(x), lam.shape[-1])) if wrt_lambda else x
    count, dim = z.shape
    steps = _FD_STEP * np.fmax(1.0, np.abs(z))
    cols = np.arange(dim)
    moved = np.repeat(z, 2 * dim, axis=0).reshape(count, dim, 2, dim)
    moved[:, cols, 0, cols] = z + steps
    moved[:, cols, 1, cols] = z - steps
    moved = moved.reshape(-1, dim)
    if wrt_lambda:
        lam, x = moved, np.repeat(x, 2 * dim, axis=0)
    else:
        lam = np.repeat(lam, 2 * dim, axis=0) if lam.ndim == 2 else lam
        x = moved
    values = _rows(fn, lam, x, (width,), batched, errors, 2 * dim)
    values = values.reshape(count, dim, 2, width)
    J = (values[:, :, 0] - values[:, :, 1]) / (2 * steps)[:, :, None]
    return np.ascontiguousarray(J.transpose(0, 2, 1))


def _hessian_points(n: int):
    """The points of a lone Hessian evaluation, in its call order, as moves
    ((coordinate, sign), ...): x itself, then x + h_i e_i and x - h_i e_i
    for each i, each followed by the four corners (x_i +- h_i, x_j +- h_j)
    for j > i.  Also returns the indices of the +, - and corner points."""
    moves = [()]
    plus, minus, corners = [], [], []
    for i in range(n):
        plus.append(len(moves))
        minus.append(len(moves) + 1)
        moves += [((i, 1.0),), ((i, -1.0),)]
        for j in range(i + 1, n):
            corners.append(range(len(moves), len(moves) + 4))
            moves += [
                ((i, 1.0), (j, 1.0)), ((i, 1.0), (j, -1.0)),
                ((i, -1.0), (j, 1.0)), ((i, -1.0), (j, -1.0)),
            ]
    return moves, plus, minus, np.array(corners, dtype=int).reshape(-1, 4).T


def _fd_hessian(fn, x: np.ndarray, width: int, batched: bool, errors=None):
    """Central 4-point cross differences of every component of fn(_, x) at
    every row of x: (len(x), width, n, n).  The points go to fn as one
    stack in the order of a lone evaluation; the arithmetic is the
    per-entry formula's, squares included (h**2 is libm's pow)."""
    count, n = x.shape
    steps = _FD2_STEP * np.maximum(1.0, np.abs(x))
    moves, plus, minus, corners = _hessian_points(n)
    at, coord, sign = (
        np.array(v) for v in zip(*[
            (r, c, s) for r, move in enumerate(moves) for c, s in move
        ])
    )
    points = np.repeat(x, len(moves), axis=0).reshape(count, len(moves), n)
    points[:, at, coord] = x[:, coord] + sign * steps[:, coord]
    values = _rows(
        fn, _NO_LAMBDA, points.reshape(-1, n), (width,), batched, errors, len(moves)
    ).reshape(count, len(moves), width)
    f0 = values[:, :1]
    squares = np.array([h ** 2 for h in steps.ravel().tolist()]).reshape(steps.shape)
    H = np.empty((count, width, n, n))
    diag = np.arange(n)
    H[:, :, diag, diag] = np.swapaxes(
        (values[:, plus] - 2 * f0 + values[:, minus]) / squares[:, :, None], 1, 2
    )
    ii, jj = np.triu_indices(n, 1)
    pp, pm, mp, mm = corners
    cross = np.swapaxes(
        (values[:, pp] - values[:, pm] - values[:, mp] + values[:, mm])
        / (4 * steps[:, ii] * steps[:, jj])[:, :, None],
        1, 2,
    )
    H[:, :, ii, jj] = cross
    H[:, :, jj, ii] = cross
    return H


# the blocks of an Evaluation, in field order, which is the order of computation
_BLOCKS = ("f", "h", "jac_x", "jac_lambda", "jac_h", "hess_h")


def evaluate(
    sys: SystemSpec,
    u: PointState,
    slack: float = DEFAULT_DOMAIN_SLACK,
    check_domain: bool = True,
) -> Evaluation:
    """Evaluate f, h and all derivative blocks at u = (lam, x).

    Raises InputError when u falls outside the domain or parameter box by
    more than `slack`, and EvaluationError when any evaluator returns a
    non-finite value.  Pointwise diagnostics that only need evaluability
    (not domain membership) pass check_domain=False to skip the domain
    and parameter box tests.
    """
    return Evaluation(
        u,
        *_evaluate_point(sys, u, _BLOCKS, slack if check_domain else None),
        derivative_source="analytic" if sys.analytic else "finite-difference",
    )


def _evaluate_point(sys: SystemSpec, u: PointState, names: tuple, slack=None) -> tuple:
    """The named blocks at the one point u, as _evaluate_rows computes them.
    Raises InputError when lam or x has the wrong length and, unless slack
    is None, when u falls outside the parameter box or domain by more."""
    lam, x = u.lam, u.x
    if lam.size != sys.m:
        raise InputError(f"lambda has length {lam.size}, expected m = {sys.m}")
    if x.size != sys.n:
        raise InputError(f"x has length {x.size}, expected n = {sys.n}")
    if slack is not None:
        pb = sys.parameter_box
        if np.any(lam < pb[:, 0] - slack) or np.any(lam > pb[:, 1] + slack):
            raise InputError(f"lambda {lam.tolist()} outside parameter box")
        if not sys.domain.contains(x, slack):
            raise InputError(f"x {x.tolist()} outside domain")
    return tuple(block[0] for block in _evaluate_rows(sys, lam, x[None, :], names))


def _evaluate_rows(sys: SystemSpec, lam: np.ndarray, x: np.ndarray, names: tuple) -> tuple:
    """The blocks named in `names`, a subsequence of _BLOCKS, at every row of
    the stack x, one stacked call per block; lam is shared or has a row per
    row of x.  Blocks not named are not computed.  Raises the error of the
    first row where one fails: per row, the first failing named block, in
    block order, fails with its own error or as non-finite."""
    errors: dict = {}

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
    if errors:
        raise errors[min(errors)]
    return blocks


@dataclass(frozen=True)
class FirstIntegralViolation:
    max_residual: float
    lam: np.ndarray
    x: np.ndarray
    integral_index: int


def first_integral_violation(
    sys: SystemSpec, samples: int = 200, seed: int = 0
) -> FirstIntegralViolation:
    """Worst |f . grad h_l| over seeded random domain points.

    Samples lam uniformly in the parameter box and x uniformly in the
    domain (rejection sampling against the constraints).
    """
    rng = np.random.default_rng(seed)
    pb = sys.parameter_box
    lams, xs = [], []
    attempts = 0
    max_attempts = max(1000 * samples, 10000)
    while len(xs) < samples and attempts < max_attempts:
        attempts += 1
        lam = pb[:, 0] + (pb[:, 1] - pb[:, 0]) * rng.random(sys.m)
        x = sys.domain.sample_box(rng, 1)[0]
        if sys.domain.contains(x):
            lams.append(lam)
            xs.append(x)
    worst = FirstIntegralViolation(0.0, pb[:, 0], sys.domain.box[:, 0], 0)
    if xs:
        f, jac_h = _evaluate_rows(sys, np.array(lams), np.array(xs), ("f", "jac_h"))
        for i, (lam, x) in enumerate(zip(lams, xs)):
            residuals = np.abs(jac_h[i] @ f[i])
            l = int(np.argmax(residuals))
            if residuals[l] > worst.max_residual:
                worst = FirstIntegralViolation(float(residuals[l]), lam, x, l)
    if len(xs) < samples:
        raise InputError(
            f"could not draw {samples} domain points after {max_attempts} attempts; "
            "domain constraints may leave (almost) no volume"
        )
    return worst


def check_first_integral_identity(sys: SystemSpec, samples: int = 200, seed: int = 0) -> float:
    """Max |f . grad h_l| over seeded random domain samples."""
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
        constraint_names=("unit_disk",),
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
        constraint_names=("h1_low", "h1_high", "h2_low", "h2_high"),
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
        metadata={"sites": n},
        batched=True,
    )


_BUILTINS = {
    "planar": _builtin_planar,
    "example2": _builtin_example2,
    "rfmr": _builtin_rfmr,
}


def builtin(name: str, **params) -> SystemSpec:
    """Construct a built-in system: planar, example2, or rfmr (needs n)."""
    if name not in _BUILTINS:
        raise InputError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        )
    if name == "rfmr":
        if "n" not in params:
            raise InputError("builtin 'rfmr' requires the site count n")
        extra = set(params) - {"n"}
        if extra:
            raise InputError(f"unknown parameters for 'rfmr': {sorted(extra)}")
        return _BUILTINS[name](int(params["n"]))
    if params:
        raise InputError(f"builtin {name!r} takes no parameters, got {sorted(params)}")
    return _BUILTINS[name]()
