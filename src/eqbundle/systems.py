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

from .errors import EvaluationError, InputError

DEFAULT_DOMAIN_SLACK = 1e-9

_FD_STEP = float(np.cbrt(np.finfo(float).eps))        # first derivatives
_FD2_STEP = float(np.finfo(float).eps ** 0.25)        # second derivatives


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
    jac_x: np.ndarray              # (n, n)
    jac_lambda: np.ndarray         # (n, m)
    h_value: np.ndarray            # (k,)
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
    # a stack x of shape (..., n) and map over its leading axes; set only
    # by the builtin constructors
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


def _check_finite(value: np.ndarray, label: str, point: PointState) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise EvaluationError(
            f"{label} evaluated to a non-finite value",
            where=(point.lam.tolist(), point.x.tolist()),
        )
    return value


def _fd_jacobian(func, z: np.ndarray, out_dim: int) -> np.ndarray:
    J = np.empty((out_dim, z.size))
    for j in range(z.size):
        step = _FD_STEP * max(1.0, abs(z[j]))
        zp = z.copy(); zp[j] += step
        zm = z.copy(); zm[j] -= step
        J[:, j] = (np.asarray(func(zp), dtype=float) - np.asarray(func(zm), dtype=float)) / (2 * step)
    return J


def _fd_hessian(func, z: np.ndarray) -> np.ndarray:
    """Central 4-point cross differences of a scalar function."""
    n = z.size
    H = np.empty((n, n))
    steps = _FD2_STEP * np.maximum(1.0, np.abs(z))
    f0 = float(func(z))
    for i in range(n):
        hi = steps[i]
        zp = z.copy(); zp[i] += hi
        zm = z.copy(); zm[i] -= hi
        H[i, i] = (float(func(zp)) - 2 * f0 + float(func(zm))) / hi**2
        for j in range(i + 1, n):
            hj = steps[j]
            zpp = z.copy(); zpp[i] += hi; zpp[j] += hj
            zpm = z.copy(); zpm[i] += hi; zpm[j] -= hj
            zmp = z.copy(); zmp[i] -= hi; zmp[j] += hj
            zmm = z.copy(); zmm[i] -= hi; zmm[j] -= hj
            val = (float(func(zpp)) - float(func(zpm)) - float(func(zmp)) + float(func(zmm))) / (4 * hi * hj)
            H[i, j] = H[j, i] = val
    return H


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
    lam, x = u.lam, u.x
    if lam.size != sys.m:
        raise InputError(f"lambda has length {lam.size}, expected m = {sys.m}")
    if x.size != sys.n:
        raise InputError(f"x has length {x.size}, expected n = {sys.n}")
    if check_domain:
        pb = sys.parameter_box
        if np.any(lam < pb[:, 0] - slack) or np.any(lam > pb[:, 1] + slack):
            raise InputError(f"lambda {lam.tolist()} outside parameter box")
        if not sys.domain.contains(x, slack):
            raise InputError(f"x {x.tolist()} outside domain")

    f_value = _check_finite(sys.f(lam, x), "f", u)
    h_value = _check_finite(sys.h(x), "h", u)
    analytic = True

    if sys.jac_x_fn is not None:
        jac_x = _check_finite(sys.jac_x_fn(lam, x), "jac_x", u)
    else:
        analytic = False
        jac_x = _check_finite(_fd_jacobian(lambda xx: sys.f(lam, xx), x, sys.n), "jac_x", u)

    if sys.jac_lambda_fn is not None:
        jac_lambda = _check_finite(sys.jac_lambda_fn(lam, x), "jac_lambda", u)
    else:
        analytic = False
        jac_lambda = _check_finite(
            _fd_jacobian(lambda ll: sys.f(ll, x), lam, sys.n), "jac_lambda", u
        )

    if sys.jac_h_fn is not None:
        jac_h = _check_finite(sys.jac_h_fn(x), "jac_h", u)
    else:
        analytic = False
        jac_h = _check_finite(_fd_jacobian(sys.h, x, sys.k), "jac_h", u)

    if sys.hess_h_fn is not None:
        hess_h = _check_finite(sys.hess_h_fn(x), "hess_h", u)
    else:
        analytic = False
        hess = np.empty((sys.k, sys.n, sys.n))
        for l in range(sys.k):
            hess[l] = _fd_hessian(lambda xx, l=l: np.asarray(sys.h(xx), dtype=float)[l], x)
        hess_h = _check_finite(hess, "hess_h", u)

    jac_x = jac_x.reshape(sys.n, sys.n)
    jac_lambda = jac_lambda.reshape(sys.n, sys.m)
    jac_h = jac_h.reshape(sys.k, sys.n)
    hess_h = hess_h.reshape(sys.k, sys.n, sys.n)
    return Evaluation(
        point=u,
        f_value=f_value.reshape(sys.n),
        jac_x=jac_x,
        jac_lambda=jac_lambda,
        h_value=h_value.reshape(sys.k),
        jac_h=jac_h,
        hess_h=hess_h,
        derivative_source="analytic" if analytic else "finite-difference",
    )


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
    worst = FirstIntegralViolation(0.0, pb[:, 0], sys.domain.box[:, 0], 0)
    accepted = 0
    attempts = 0
    max_attempts = max(1000 * samples, 10000)
    while accepted < samples:
        if attempts >= max_attempts:
            raise InputError(
                f"could not draw {samples} domain points after {max_attempts} attempts; "
                "domain constraints may leave (almost) no volume"
            )
        attempts += 1
        lam = pb[:, 0] + (pb[:, 1] - pb[:, 0]) * rng.random(sys.m)
        x = sys.domain.sample_box(rng, 1)[0]
        if not sys.domain.contains(x):
            continue
        accepted += 1
        ev = evaluate(sys, PointState(lam, x))
        residuals = np.abs(ev.jac_h @ ev.f_value)
        l = int(np.argmax(residuals))
        if residuals[l] > worst.max_residual:
            worst = FirstIntegralViolation(float(residuals[l]), lam, x, l)
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
        out[..., 0] = -x[..., 0] + lam[0] * (x[..., 1] ** 2 - 1.0)
        return out

    def jac_x(lam, x):
        J = np.zeros(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = -1.0
        J[..., 0, 1] = 2.0 * lam[0] * x[..., 1]
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
        out[..., 0] = -lam[0] * x1 * w
        out[..., 1] = lam[0] * x0 * w
        return out

    def jac_x(lam, x):
        a = lam[0]
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

    def f(lam, x):
        xm = np.roll(x, 1, axis=-1)     # x_{i-1}
        xp = np.roll(x, -1, axis=-1)    # x_{i+1}
        lm = np.roll(lam, 1)            # lam_{i-1}
        return lm * xm * (1.0 - x) - lam * x * (1.0 - xp)

    def jac_x(lam, x):
        xm = np.roll(x, 1, axis=-1)
        xp = np.roll(x, -1, axis=-1)
        lm = np.roll(lam, 1)
        J = np.zeros(x.shape + (n,))
        J[..., idx, (idx - 1) % n] = lm * (1.0 - x)
        J[..., idx, idx] = -lm * xm - lam * (1.0 - xp)
        J[..., idx, (idx + 1) % n] = lam * x
        return J

    def jac_lambda(lam, x):
        xm = np.roll(x, 1, axis=-1)
        xp = np.roll(x, -1, axis=-1)
        J = np.zeros(x.shape + (n,))
        J[..., idx, (idx - 1) % n] = xm * (1.0 - x)
        J[..., idx, idx] += -x * (1.0 - xp)
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
