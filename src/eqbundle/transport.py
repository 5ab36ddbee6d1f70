"""The natural connection on the equilibrium set: frames, metric, lifts,
holonomy, and the cocycle identity.

At a point u = (lambda, x) with f(lambda, x) = 0 the tangent space of the
equilibrium set is ker [df/dlambda | df/dx].  Inside it sit

  vertical   V_u = {(0, b) : (df/dx) b = 0}            (dimension k)
  horizontal H_u = {(a, b) : (df/dlambda) a + (df/dx) b = 0,
                             (dh/dx) b = 0}             (dimension m)

and T_u E = V_u + H_u is a direct sum wherever kernel and image of df/dx
intersect trivially.  Lifting a parameter curve horizontally means solving
A(t) gamma'(t) = b(t) with A = [df/dx; dh/dx] and b = [-(df/dlambda)
lambda'(t); 0]; the solver integrates that with a classical 4th-order
stepper and projects back onto {f = 0, h = h(x0)} with the fiber
tracer's corrector after every step, so errors do not compound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .audit import _audit
from .errors import (
    ConvergenceError,
    DegeneracyError,
    HolonomyError,
    InputError,
    TransportError,
)
from .finder import _correct, enumerate_level_points
from .linalg import kernel_basis, numeric_rank, solve_least_squares
from .systems import Evaluation, PointState, SystemSpec, evaluate
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class ConnectionFrame:
    """Orthonormal bases of the vertical and horizontal subspaces at u.

    Columns live in R^(m+n) with the lambda block first.  The two bases
    are each orthonormal and span T_u E together; they are generally NOT
    mutually orthogonal in the Euclidean sense (the splitting is oblique),
    so the worst mutual overlap |<v, w>| is recorded as a diagnostic.
    """

    at: PointState
    vertical_basis: np.ndarray      # (m+n, k)
    horizontal_basis: np.ndarray    # (m+n, m)
    max_mutual_overlap: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.at.lam.tolist(),
            "x": self.at.x.tolist(),
            "vertical_basis": [col.tolist() for col in self.vertical_basis.T],
            "horizontal_basis": [col.tolist() for col in self.horizontal_basis.T],
            "max_mutual_overlap": self.max_mutual_overlap,
        }


@dataclass(frozen=True)
class TransportResult:
    """A horizontal lift of a parameter path, sampled at accepted steps."""

    t: np.ndarray                   # (S,) in [0, 1]
    lambda_path: np.ndarray         # (S, m)
    gamma: np.ndarray               # (S, n)
    max_f_residual: float
    max_h_drift: float
    steps_taken: int

    def as_dict(self) -> dict:
        return {
            "t": self.t.tolist(),
            "lambda_path": [row.tolist() for row in self.lambda_path],
            "gamma": [row.tolist() for row in self.gamma],
            "max_f_residual": self.max_f_residual,
            "max_h_drift": self.max_h_drift,
            "steps_taken": self.steps_taken,
        }


@dataclass(frozen=True)
class HolonomyReport:
    """Permutation induced on E_lambda intersected with a level set by
    transporting every point around a closed parameter loop.

    permutation[i] = j means the i-th point of points_before lands on the
    j-th point (0-based indexing throughout).
    """

    base_lambda: np.ndarray
    level: np.ndarray
    points_before: np.ndarray       # (N, n), sorted lexicographically
    points_after: np.ndarray        # (N, n), transported images
    permutation: tuple
    max_roundtrip_displacement: float

    def as_dict(self) -> dict:
        return {
            "base_lambda": self.base_lambda.tolist(),
            "level": self.level.tolist(),
            "points_before": [row.tolist() for row in self.points_before],
            "points_after": [row.tolist() for row in self.points_after],
            "permutation": list(self.permutation),
            "max_roundtrip_displacement": self.max_roundtrip_displacement,
        }


def _canonical_columns(basis: np.ndarray) -> np.ndarray:
    """Deterministic presentation: dominant coordinate made positive,
    columns ordered by dominant coordinate index."""
    if basis.shape[1] == 0:
        return basis
    cols = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        lead = int(np.argmax(np.abs(v)))
        cols.append((lead, j, v if v[lead] >= 0 else -v))
    cols.sort(key=lambda item: (item[0], item[1]))
    return np.column_stack([c[2] for c in cols])


def connection_frame(
    sys: SystemSpec, u: PointState, tols: Tolerances = DEFAULT_TOLERANCES
) -> ConnectionFrame:
    """Vertical and horizontal bases at an equilibrium u.

    Requires u to be an equilibrium at which df/dx has rank n-k and
    kernel and image of df/dx are complementary; otherwise the splitting
    is not defined and a DegeneracyError carrying the audit is raised.
    """
    return _frame(sys, evaluate(sys, u, check_domain=False), tols)


def _frame(sys: SystemSpec, ev: Evaluation, tols: Tolerances) -> ConnectionFrame:
    """connection_frame on an evaluation; V_u comes from the audit's SVD."""
    report, kernel_x = _audit(sys, ev, tols)
    if not report.is_equilibrium:
        raise DegeneracyError(
            f"connection frame needs an equilibrium; ||f|| = {report.residual:.3e}",
            report=report,
        )
    if not report.cond_ii.passed:
        raise DegeneracyError(
            f"rank of df/dx is {report.cond_ii.rank}, expected {report.cond_ii.expected}",
            report=report,
        )
    if not report.cond_iii.passed:
        raise DegeneracyError(
            "kernel and image of df/dx are not complementary",
            report=report,
        )

    # the horizontal basis, and so the span, come from all three blocks
    fd = sys.finite_difference("jac_lambda", "jac_x", "jac_h")
    m, k = sys.m, sys.k

    # cond_ii passed, so the kernel of df/dx has k columns
    vertical = np.vstack([np.zeros((m, k)), kernel_x])

    stacked = np.block([
        [ev.jac_lambda, ev.jac_x],
        [np.zeros((k, m)), ev.jac_h],
    ])
    horizontal = kernel_basis(stacked, tols.rank, fd=fd)      # (m+n, m)
    if horizontal.shape[1] != m:
        raise DegeneracyError(
            f"horizontal subspace has dimension {horizontal.shape[1]}, expected {m}",
            report=report,
        )
    span = numeric_rank(np.hstack([vertical, horizontal]), tols.rank, fd=fd)
    if span.rank != m + k:
        raise DegeneracyError(
            f"vertical + horizontal spans rank {span.rank}, expected {m + k}",
            report=report,
        )

    vertical = _canonical_columns(vertical)
    horizontal = _canonical_columns(horizontal)
    return ConnectionFrame(
        at=ev.point,
        vertical_basis=vertical,
        horizontal_basis=horizontal,
        max_mutual_overlap=float(np.max(np.abs(vertical.T @ horizontal))),
    )


def vertical_projector(frame: ConnectionFrame, vector: np.ndarray) -> np.ndarray:
    """Oblique projection of a tangent vector onto V_u along H_u."""
    basis = np.hstack([frame.vertical_basis, frame.horizontal_basis])
    coeff = solve_least_squares(basis, np.asarray(vector, dtype=float).reshape(-1))
    return frame.vertical_basis @ coeff[: frame.vertical_basis.shape[1]]


def metric_g(
    sys: SystemSpec,
    u: PointState,
    X,
    Y,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """The submersion metric g(X, Y) at u for tangent vectors X, Y.

    g(X, Y) = <Phi X, Phi Y> + <dpi (I - Phi) X, dpi (I - Phi) Y> where
    Phi is the oblique projector onto the vertical space along the
    horizontal space and dpi drops the x block.
    """
    X = np.asarray(X, dtype=float).reshape(-1)
    Y = np.asarray(Y, dtype=float).reshape(-1)
    if X.size != sys.m + sys.n or Y.size != sys.m + sys.n:
        raise InputError(
            f"tangent vectors must have length m + n = {sys.m + sys.n}"
        )
    ev = evaluate(sys, u, check_domain=False)
    jac_full = np.hstack([ev.jac_lambda, ev.jac_x])
    for name, vec in (("X", X), ("Y", Y)):
        residual = float(np.linalg.norm(jac_full @ vec))
        if residual > tols.tangent * (1.0 + float(np.linalg.norm(vec))):
            raise InputError(
                f"{name} is not tangent to the equilibrium set: "
                f"||J {name}|| = {residual:.3e}"
            )
    frame = _frame(sys, ev, tols)
    phi_x = vertical_projector(frame, X)
    phi_y = vertical_projector(frame, Y)
    pi_x = (X - phi_x)[: sys.m]
    pi_y = (Y - phi_y)[: sys.m]
    return float(phi_x @ phi_y + pi_x @ pi_y)


def _as_waypoints(path, m: int, what: str) -> np.ndarray:
    arr = np.asarray(path, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != m or arr.shape[0] < 2:
        raise InputError(
            f"{what} must be a sequence of at least 2 waypoints in R^{m}, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains non-finite entries")
    return arr


def lift_curve(
    sys: SystemSpec,
    lambda_path,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    initial_fraction: float = 0.05,
    max_fraction: float = 0.25,
    min_fraction: float = 1e-10,
) -> TransportResult:
    """Horizontal lift of a piecewise-linear parameter path from x0.

    Integrates the lifting system A(t) gamma' = b(t) by classical RK4
    and projects every step onto {f(lambda(t), .) = 0, h = h(x0)} with
    finder._correct.  The step is rejected and halved when the projection
    fails or needs more than 3 iterations, and the next one doubled
    (capped) when it needs at most one.
    """
    waypoints = _as_waypoints(lambda_path, sys.m, "lambda_path")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != sys.n:
        raise InputError(f"x0 has length {x.size}, expected n = {sys.n}")
    f0 = np.asarray(sys.f(waypoints[0], x), dtype=float)
    if np.linalg.norm(f0) > 10.0 * tols.equilibrium * (1.0 + np.linalg.norm(x)):
        raise InputError(
            f"x0 is not an equilibrium at the first waypoint: "
            f"||f|| = {np.linalg.norm(f0):.3e}"
        )
    if not sys.domain.contains(x, slack=tols.domain_slack):
        raise InputError(f"x0 {x.tolist()} is not in the domain")

    a0 = np.asarray(sys.h(x), dtype=float).reshape(-1)
    segments = len(waypoints) - 1
    domain_slack = tols.domain_slack * (1.0 + sys.domain.diameter())

    ts = [0.0]
    lams = [waypoints[0].copy()]
    gammas = [x.copy()]
    max_f = float(np.linalg.norm(f0))
    max_drift = 0.0
    steps = 0

    def velocity(lam_t, y, lam_dot, t_report):
        A = np.vstack([sys.jac_x(lam_t, y), sys.jac_h(y)])
        b = np.concatenate([-sys.jac_lambda(lam_t, y) @ lam_dot, np.zeros(sys.k)])
        try:
            return solve_least_squares(A, b, rank_tol=tols.rank)
        except DegeneracyError as err:
            raise TransportError(
                f"stacked Jacobian lost full column rank: {err}",
                t=t_report,
                report=err.report,
            ) from err

    for seg in range(segments):
        lam_from, lam_to = waypoints[seg], waypoints[seg + 1]
        lam_dot = lam_to - lam_from
        s = 0.0
        ds = initial_fraction
        while s < 1.0 - 1e-14:
            ds = min(ds, 1.0 - s)
            if ds < min_fraction:
                raise TransportError(
                    "transport step collapsed", t=(seg + s) / segments
                )
            t_mid = (seg + s + 0.5 * ds) / segments

            def lam_at(sigma):
                return lam_from + sigma * lam_dot

            k1 = velocity(lam_at(s), x, lam_dot, t_mid)
            k2 = velocity(lam_at(s + 0.5 * ds), x + 0.5 * ds * k1, lam_dot, t_mid)
            k3 = velocity(lam_at(s + 0.5 * ds), x + 0.5 * ds * k2, lam_dot, t_mid)
            k4 = velocity(lam_at(s + ds), x + ds * k3, lam_dot, t_mid)
            candidate = x + (ds / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            lam_next = lam_at(s + ds)
            t_next = (seg + s + ds) / segments
            try:
                projected, iterations, resid = _correct(
                    lambda y: np.concatenate([
                        np.asarray(sys.f(lam_next, y), dtype=float).reshape(-1),
                        np.asarray(sys.h(y), dtype=float).reshape(-1) - a0,
                    ]),
                    lambda y: np.vstack([sys.jac_x(lam_next, y), sys.jac_h(y)]),
                    candidate, tols,
                )
            except (ConvergenceError, DegeneracyError):
                ds *= 0.5
                continue
            if iterations > 3:
                ds *= 0.5
                continue
            if not sys.domain.contains(projected, slack=domain_slack):
                raise TransportError(
                    f"lift exited the domain at x = {projected.tolist()}",
                    t=t_next,
                )
            x = projected
            s += ds
            steps += 1
            ts.append(t_next)
            lams.append(lam_next.copy())
            gammas.append(x.copy())
            # the corrector's residual at x: [f(lam_next, x); h(x) - a0]
            max_f = max(max_f, float(np.linalg.norm(resid[: sys.n])))
            max_drift = max(max_drift, float(np.linalg.norm(resid[sys.n:])))
            if iterations <= 1:
                ds = min(2.0 * ds, max_fraction)

    return TransportResult(
        t=np.asarray(ts),
        lambda_path=np.asarray(lams),
        gamma=np.asarray(gammas),
        max_f_residual=max_f,
        max_h_drift=max_drift,
        steps_taken=steps,
    )


def holonomy_loop(
    sys: SystemSpec,
    loop,
    a,
    budget: int = 200,
    seed: int = 0,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> HolonomyReport:
    """Transport every point of E_lambda on the level set around a loop.

    The first and last waypoints must agree within 1e-9 relative to the
    first's norm.  Enumerates the finite set at the base waypoint, lifts
    the loop from each point, and matches the endpoints back by nearest
    neighbor within the clustering radius.  The match must be a bijection.
    """
    waypoints = _as_waypoints(loop, sys.m, "loop")
    if np.linalg.norm(waypoints[0] - waypoints[-1]) > 1e-9 * (
        1.0 + np.linalg.norm(waypoints[0])
    ):
        raise InputError("loop must close: first and last waypoints differ")
    a = np.asarray(a, dtype=float).reshape(-1)
    base = waypoints[0]

    points = enumerate_level_points(sys, base, a, budget=budget, seed=seed, tols=tols)
    if not points:
        raise InputError(
            f"no equilibria found on level {a.tolist()} at lambda = {base.tolist()}"
        )
    before = np.asarray([p.state.x for p in points])

    after = []
    for p in points:
        result = lift_curve(sys, waypoints, p.state.x, tols)
        after.append(result.gamma[-1])
    after = np.asarray(after)

    radius = tols.cluster * sys.domain.diameter()
    permutation = []
    displacement = 0.0
    for i, endpoint in enumerate(after):
        dists = np.linalg.norm(before - endpoint[None, :], axis=1)
        j = int(np.argmin(dists))
        if dists[j] > radius:
            raise HolonomyError(
                f"transported point {i} landed {dists[j]:.3e} away from every "
                f"enumerated point (matching radius {radius:.3e})"
            )
        permutation.append(j)
        displacement = max(displacement, float(dists[j]))
    if sorted(permutation) != list(range(len(points))):
        raise HolonomyError(
            f"endpoint matching is not a bijection: {permutation}"
        )

    return HolonomyReport(
        base_lambda=base.copy(),
        level=a,
        points_before=before,
        points_after=after,
        permutation=tuple(permutation),
        max_roundtrip_displacement=displacement,
    )


def check_cocycle(
    sys: SystemSpec,
    lambda1,
    lambda2,
    lambda3,
    x0,
    paths: Optional[Sequence] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Deviation between transporting 1 -> 3 directly and via 2.

    paths, when given, is (path_1_to_2, path_2_to_3, path_1_to_3); the
    defaults are straight segments.  Returns the endpoint distance.
    """
    l1 = np.asarray(lambda1, dtype=float).reshape(-1)
    l2 = np.asarray(lambda2, dtype=float).reshape(-1)
    l3 = np.asarray(lambda3, dtype=float).reshape(-1)
    if paths is None:
        paths = (np.array([l1, l2]), np.array([l2, l3]), np.array([l1, l3]))
    if len(paths) != 3:
        raise InputError("paths must be (path_1_to_2, path_2_to_3, path_1_to_3)")
    p12 = _as_waypoints(paths[0], sys.m, "path_1_to_2")
    p23 = _as_waypoints(paths[1], sys.m, "path_2_to_3")
    p13 = _as_waypoints(paths[2], sys.m, "path_1_to_3")
    for path, start, end, name in (
        (p12, l1, l2, "path_1_to_2"),
        (p23, l2, l3, "path_2_to_3"),
        (p13, l1, l3, "path_1_to_3"),
    ):
        if np.linalg.norm(path[0] - start) > 1e-9 or np.linalg.norm(path[-1] - end) > 1e-9:
            raise InputError(f"{name} does not connect its declared endpoints")

    direct = lift_curve(sys, p13, x0, tols).gamma[-1]
    via = lift_curve(sys, p12, x0, tols).gamma[-1]
    composed = lift_curve(sys, p23, via, tols).gamma[-1]
    return float(np.linalg.norm(direct - composed))
