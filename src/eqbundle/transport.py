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
tracer's corrector after every step, so errors do not compound.  Lifts
that do not depend on each other (the points of a holonomy, the two first
legs of a cocycle) run as lanes of one lockstep kernel, lift_lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .audit import _audit
from .errors import (
    DegeneracyError,
    EqBundleError,
    HolonomyError,
    InputError,
    TransportError,
)
from .finder import (
    _RETRY, _correct, _in_domain_rows, _lane_norm, _level_set, enumerate_level_points,
)
from .linalg import _solve_rows, kernel_basis, numeric_rank, solve_least_squares
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

    The one-lane call of lift_lanes, which documents the integration and
    its step rules; a failed lift raises the lane's error.
    """
    return lift_lanes(
        sys, [lambda_path], [x0], tols, initial_fraction, max_fraction, min_fraction
    )[0]


def _lane_start(sys: SystemSpec, lambda_path, x0, tols: Tolerances) -> tuple:
    """(waypoints, x0, ||f(lambda_0, x0)||, h(x0)) of one validated lane."""
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
    return waypoints, x, float(np.linalg.norm(f0)), a0


def _velocity(sys: SystemSpec, jacobian, lam, y, lam_dot, tols: Tolerances, t_mid) -> tuple:
    """The lifting system's solution at every row of the stack y: (velocity,
    errors {row: error}).  A = [df/dx; dh/dx] is the level-set Jacobian,
    the jacobian of _level_set(sys), and the solve is linalg._solve_rows.
    Every error ends its lane: an evaluation error, a non-finite A or b
    (InputError), or a TransportError at t_mid(row) when A is column rank
    deficient."""
    errors: dict = {}
    A = jacobian(y, lam, None, errors)
    # -(df/dlambda) lambda', negated before the product as in a lone solve
    drive = np.matmul(-sys.jac_lambda(lam, y, errors), lam_dot[:, :, None])[:, :, 0]
    b = np.concatenate([drive, np.zeros((len(y), sys.k))], axis=1)
    velocity, deficient = _solve_rows(A, b, tols.rank, errors)
    for row, err in deficient.items():
        errors[row] = TransportError(
            f"stacked Jacobian lost full column rank: {err}", t=t_mid(row), report=err.report
        )
    return velocity, errors


class _Lane:
    """One lane of lift_lanes: its path, where it is on it, its step, and
    what it has recorded."""

    __slots__ = (
        "index", "path", "segments", "a0", "seg", "s", "ds",
        "ts", "lams", "gammas", "max_f", "max_drift", "steps",
    )

    def __init__(self, index, path, x0, f0_norm, a0, ds):
        self.index, self.path, self.segments, self.a0 = index, path, len(path) - 1, a0
        self.seg, self.s, self.ds = 0, 0.0, ds
        self.ts, self.lams, self.gammas = [0.0], [path[0].copy()], [x0.copy()]
        self.max_f, self.max_drift, self.steps = f0_norm, 0.0, 0

    def t(self, ahead: float) -> float:
        """The path parameter in [0, 1] at s + ahead on the current segment."""
        return (self.seg + self.s + ahead) / self.segments

    def result(self) -> TransportResult:
        return TransportResult(
            t=np.asarray(self.ts),
            lambda_path=np.asarray(self.lams),
            gamma=np.asarray(self.gammas),
            max_f_residual=self.max_f,
            max_h_drift=self.max_drift,
            steps_taken=self.steps,
        )


# sigma of the RK4 stages as s + ds * c: s, s + ds/2 and s + ds, exactly
_STAGE_SIGMAS = np.array([0.0, 0.5, 1.0])


def lift_lanes(
    sys: SystemSpec,
    paths,
    x0s,
    tols: Tolerances = DEFAULT_TOLERANCES,
    initial_fraction: float = 0.05,
    max_fraction: float = 0.25,
    min_fraction: float = 1e-10,
) -> list:
    """Horizontal lifts of piecewise-linear parameter paths, lane i lifting
    paths[i] from x0s[i]; returns one TransportResult per lane.

    Each lane integrates the lifting system A(t) gamma' = b(t) by classical
    RK4 and projects every step onto {f(lambda(t), .) = 0, h = h(x0)} with
    finder._correct.  On each segment of its path a lane starts with the
    step initial_fraction of the segment.  A step is rejected and halved
    when the projection fails or needs more than 3 iterations, and the
    next one is doubled, up to max_fraction, when it needs at most one.  A
    step below min_fraction, a rank-deficient lifting system or a
    projected point outside the domain ends the lane with a
    TransportError.

    The lanes advance in lockstep: each RK4 stage makes one stacked
    jac_x/jac_h/jac_lambda call and one batched SVD solve for all running
    lanes, and each corrector iteration one stacked call.  Every lane keeps
    its own segment, position and step, so its result is bitwise that of
    a lone lift.  When lanes fail, the error of the first failed lane in
    lane order is raised, validation errors included: the error that
    lifting the lanes one after another would raise.  Lanes after a failed
    one are dropped at once.  InputError unless the fractions are finite
    and 0 < min_fraction <= initial_fraction <= max_fraction.
    """
    if not 0.0 < min_fraction <= initial_fraction <= max_fraction < np.inf:
        raise InputError(
            "step fractions must be finite with 0 < min_fraction <= "
            f"initial_fraction <= max_fraction, got {min_fraction}, "
            f"{initial_fraction}, {max_fraction}"
        )
    paths, x0s = list(paths), list(x0s)
    if len(paths) != len(x0s):
        raise InputError(f"{len(paths)} paths for {len(x0s)} starting points")
    failed: dict = {}
    lanes = []
    for index, (path, x0) in enumerate(zip(paths, x0s)):
        try:
            lanes.append(_Lane(index, *_lane_start(sys, path, x0, tols), initial_fraction))
        except EqBundleError as err:
            failed[index] = err
            break
    results = list(lanes)
    n = sys.n
    domain_slack = tols.domain_slack * (1.0 + sys.domain.diameter())
    residual, jacobian = _level_set(sys)

    def t_mid(row):
        return lanes[row].t(0.5 * lanes[row].ds)

    # the stacks of the running lanes, a row each; a lane's lam_from and
    # lam_dot change only when it starts a new segment
    x = np.array([lane.gammas[0] for lane in lanes]).reshape(-1, n)
    lam_from = np.array([lane.path[0] for lane in lanes]).reshape(-1, sys.m)
    lam_dot = np.array([lane.path[1] - lane.path[0] for lane in lanes]).reshape(-1, sys.m)
    a0 = np.array([lane.a0 for lane in lanes]).reshape(-1, sys.k)
    while lanes:
        # a failure before the corrector ends its lane, drops the rows
        # after it and reruns the round for the rows before it, which
        # recomputes the same values
        failure = None
        for row, lane in enumerate(lanes):
            lane.ds = min(lane.ds, 1.0 - lane.s)
            if lane.ds < min_fraction:
                failure = row, TransportError("transport step collapsed", t=lane.t(0.0))
                break
        if failure is None:
            s, ds = np.array([(lane.s, lane.ds) for lane in lanes]).T
            sigma = s[:, None] + ds[:, None] * _STAGE_SIGMAS
            # lambda at the stages, lam_from + sigma * lam_dot: (rows, 3, m)
            lam_t = lam_from[:, None] + sigma[:, :, None] * lam_dot[:, None]
            half = (0.5 * ds)[:, None]
            k = []
            for stage, scale in ((0, None), (1, half), (1, half), (2, ds[:, None])):
                y = x if scale is None else x + scale * k[-1]
                velocity, errors = _velocity(
                    sys, jacobian, lam_t[:, stage], y, lam_dot, tols, t_mid
                )
                if errors:
                    failure = min(errors.items(), key=lambda item: item[0])
                    break
                k.append(velocity)
        if failure is not None:
            row, err = failure
            failed[lanes[row].index] = err
            lanes, x, lam_from, lam_dot, a0 = (
                v[:row] for v in (lanes, x, lam_from, lam_dot, a0)
            )
            continue

        k1, k2, k3, k4 = k
        candidate = x + (ds / 6.0)[:, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lam_next = lam_t[:, 2]
        y, iterations, resid, errors = _correct(
            residual, jacobian, candidate, tols, lam_next, a0
        )
        # a lane whose projection failed or took more than 3 iterations
        # retries at half the step; the others took it, if it stayed inside
        taken = [
            row for row, its in enumerate(iterations) if its <= 3 and row not in errors
        ]
        inside, raised = _in_domain_rows(
            sys, y if len(taken) == len(lanes) else y[taken], domain_slack
        )
        outside = {}    # row: the error its domain test raised, or None
        if np.count_nonzero(inside) < len(taken):
            outside = {taken[i]: raised.get(i) for i in np.flatnonzero(~inside)}
        # the corrector's residual at y: [f(lam_next, y); h(y) - a0]
        norm_f = _lane_norm(resid[:, :n])
        norm_drift = _lane_norm(resid[:, n:])

        going = []
        for row, lane in enumerate(lanes):
            err = errors.get(row)
            if err is not None and not isinstance(err, _RETRY):
                failed[lane.index] = err
                break
            if row in outside:
                failed[lane.index] = outside[row] or TransportError(
                    f"lift exited the domain at x = {y[row].tolist()}", t=lane.t(lane.ds)
                )
                break
            if err is not None or iterations[row] > 3:
                lane.ds *= 0.5
                going.append(row)
                continue
            lane.ts.append(lane.t(lane.ds))
            lane.lams.append(lam_next[row])
            lane.gammas.append(y[row])
            lane.max_f = max(lane.max_f, float(norm_f[row]))
            lane.max_drift = max(lane.max_drift, float(norm_drift[row]))
            lane.steps += 1
            lane.s += lane.ds
            if iterations[row] <= 1:
                lane.ds = min(2.0 * lane.ds, max_fraction)
            if not lane.s < 1.0 - 1e-14:
                lane.seg, lane.s, lane.ds = lane.seg + 1, 0.0, initial_fraction
                if lane.seg == lane.segments:
                    continue
                start = lane.path[lane.seg]
                lam_from[row], lam_dot[row] = start, lane.path[lane.seg + 1] - start
            going.append(row)
        if len(taken) < len(lanes):
            retry = np.ones(len(lanes), dtype=bool)
            retry[taken] = False
            y = np.where(retry[:, None], x, y)
        x = y
        if len(going) < len(lanes):
            lanes = [lanes[row] for row in going]
            x, lam_from, lam_dot, a0 = (v[going] for v in (x, lam_from, lam_dot, a0))

    if failed:
        raise failed[min(failed)]
    return [lane.result() for lane in results]


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
    the loop from all its points at once, as lanes of lift_lanes, and
    matches the endpoints back by nearest neighbor within the clustering
    radius.  The match must be a bijection.  A failed lift raises the
    error of the first point, in enumeration order, whose lift fails.
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

    lifts = lift_lanes(sys, [waypoints] * len(points), [p.state.x for p in points], tols)
    after = np.asarray([result.gamma[-1] for result in lifts])

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
    defaults are straight segments.  Returns the endpoint distance.  The
    direct and the 1 -> 2 lifts run as two lanes of lift_lanes, then the
    2 -> 3 lift; a failure raises the first error in that order.
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

    direct, via = lift_lanes(sys, [p13, p12], [x0, x0], tols)
    composed = lift_curve(sys, p23, via.gamma[-1], tols)
    return float(np.linalg.norm(direct.gamma[-1] - composed.gamma[-1]))
