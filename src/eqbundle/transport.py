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

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .audit import _audit
from .errors import (
    DegeneracyError,
    EqBundleError,
    HolonomyError,
    InputError,
    TransportError,
    closed_loop,
    cocycle_paths,
    finite_array,
    finite_vector,
    step_bounds,
    waypoint_path,
)
# enumerate_level_points is re-exported: the multistart that a holonomy runs
from .finder import (
    DEFAULT_BUDGET, DEFAULT_SEED, _continuation_start, _correct, _lane_norm, _level_points,
    _level_set, _step_rule, enumerate_level_points,
)
from .linalg import _solve_rows, kernel_basis, numeric_rank, solve_least_squares
from .systems import Evaluation, PointState, SystemSpec, _in_domain_rows, evaluate
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class ConnectionFrame(NamedTuple):
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


class TransportResult(NamedTuple):
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


class HolonomyReport(NamedTuple):
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

    m, k = sys.m, sys.k

    # cond_ii passed, so the kernel of df/dx has k columns
    vertical = np.vstack([np.zeros((m, k)), kernel_x])

    stacked = np.block([
        [ev.jac_lambda, ev.jac_x],
        [np.zeros((k, m)), ev.jac_h],
    ])
    horizontal = kernel_basis(stacked, tols.rank)      # (m+n, m)
    if horizontal.shape[1] != m:
        raise DegeneracyError(
            f"horizontal subspace has dimension {horizontal.shape[1]}, expected {m}",
            report=report,
        )
    span = numeric_rank(np.hstack([vertical, horizontal]), tols.rank)
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
    coeff = solve_least_squares(basis, finite_vector(vector, len(basis), "vector", "m + n"))
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
    X = finite_vector(X, sys.m + sys.n, "X", "m + n")
    Y = finite_vector(Y, sys.m + sys.n, "Y", "m + n")
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


# lift_lanes' default step bounds, as fractions of a segment of the path;
# the first step defaults to max_fraction (lift_fractions)
MIN_FRACTION, MAX_FRACTION = 1e-10, 1.0


def lift_fractions(min_fraction, initial_fraction, max_fraction) -> tuple:
    """lift_lanes' step fractions as floats (min, initial, max), with an
    initial_fraction of None meaning max_fraction: a lane first tries each
    segment whole.  InputError unless they are finite and 0 < min_fraction
    <= initial_fraction <= max_fraction."""
    if initial_fraction is None:
        initial_fraction = max_fraction
    return step_bounds(min_fraction, initial_fraction, max_fraction, "fraction")


def lift_curve(
    sys: SystemSpec,
    lambda_path,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    initial_fraction: Optional[float] = None,
    max_fraction: float = MAX_FRACTION,
    min_fraction: float = MIN_FRACTION,
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
    waypoints = waypoint_path(lambda_path, sys.m, "lambda_path", "m")
    x, f0 = _continuation_start(sys, waypoints[0], x0, tols)
    return waypoints, x, f0, np.asarray(sys.h(x), dtype=float).reshape(-1)


def _velocity(sys: SystemSpec, system, lam, y, lam_dot, tols: Tolerances, errors, lanes):
    """The lifting system's solution at every row of the stack y, row i on
    lanes[i].  The lifting system is the augmented stack [df/dx; dh/dx |
    -(df/dlambda) lambda'; 0]: system, of _level_set(sys), writes the
    level-set Jacobian, and this writes the last column beside it.  The
    solve is linalg._solve_rows.  errors is the round's shared {row: error}
    dict: a row already there is not evaluated again, and every new error,
    which ends its lane, is stored there: an evaluation error, a
    non-finite A or b (InputError), or a TransportError at the middle of
    the lane's step when A is column rank deficient."""
    n, stack = sys.n, system(y, lam, None, errors)
    # -(df/dlambda) lambda', negated before the product as in a lone solve
    stack[:, :n, -1] = np.matmul(-sys.jac_lambda(lam, y, errors), lam_dot[:, :, None])[:, :, 0]
    stack[:, n:, -1] = 0.0
    velocity, deficient = _solve_rows(stack, tols.rank, errors)
    for row, err in deficient.items():
        lane = lanes[row]
        errors[row] = TransportError(
            f"stacked Jacobian lost full column rank: {err}",
            t=lane.t(0.5 * lane.ds), report=err.report,
        )
    return velocity


class _Lane:
    """One lane of lift_lanes and the only copy of its state: its path,
    where it is on it (segment, position s and step ds, as fractions of the
    segment, and x, its last corrected point), and what it has recorded."""

    __slots__ = (
        "index", "path", "segments", "a0", "seg", "s", "ds", "x",
        "ts", "lams", "gammas", "max_f", "max_drift", "steps",
    )

    def __init__(self, index, path, x0, f0_norm, a0, ds):
        self.index, self.path, self.segments, self.a0 = index, path, len(path) - 1, a0
        self.seg, self.s, self.ds, self.x = 0, 0.0, ds, x0
        self.ts, self.lams, self.gammas = [0.0], [path[0].copy()], [x0.copy()]
        self.max_f, self.max_drift, self.steps = f0_norm, 0.0, 0

    def t(self, ahead: float) -> float:
        """The path parameter in [0, 1] at s + ahead on the current segment."""
        return (self.seg + (self.s + ahead)) / self.segments

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
    initial_fraction: Optional[float] = None,
    max_fraction: float = MAX_FRACTION,
    min_fraction: float = MIN_FRACTION,
) -> list:
    """Horizontal lifts of piecewise-linear parameter paths, lane i lifting
    paths[i] from x0s[i]; returns one TransportResult per lane.

    Each lane integrates the lifting system A(t) gamma' = b(t) by classical
    RK4 and projects every step onto {f(lambda(t), .) = 0, h = h(x0)} with
    finder._correct.  Steps are fractions of a segment of the path, set by
    the corrector: the fiber tracer's rule, finder._step_rule with the RK4
    increment as the predictor, retries a step at half length or keeps it
    and may double the next, up to max_fraction.  A step whose RK4
    candidate lies outside the domain (or whose domain test raises) is
    retried as well, while half of it is at least min_fraction: the jump
    test measures a move against the predictor's own length, which a wild
    predictor inflates.  Each segment starts with the step
    initial_fraction, which defaults to max_fraction (lift_fractions), so
    by default a lane first tries each segment whole.  Every segment ends
    exactly at its waypoint, t and lambda included: a step that would
    leave less than min_fraction of the segment (or 1e-14 of it) runs to
    its end.  A start that misses the corrector's tolerance is first
    projected the same way (gamma still starts at x0).  A correction that
    fails fatally, an evaluation error of any class included, ends the
    lane with its error, unless the step is retried for its candidate.  A
    step below min_fraction, a rank-deficient lifting system or a
    projected point outside the domain ends the lane with a
    TransportError.  Starts, candidates and projected points are tested
    against the domain with the slack of systems._in_domain_rows.

    The lanes advance in lockstep: each RK4 stage makes one stacked
    jac_x/jac_h/jac_lambda call and one batched least-squares solve for
    all running lanes, and each corrector iteration one stacked call.
    Each lane (_Lane) holds its own segment, position, step and point;
    each round stacks them afresh, so a lane's result is bitwise that of a
    lone lift.  One failure rule holds for every lane, validation
    included: a lane's first error ends that lane alone, and the other
    lanes go on to their ends.  A plain callable is not called on a
    failed lane's row again; a batched one may get it in the stacked
    calls of the same stage, whose values for it are dropped.  Then the
    error of the first failed lane in lane order is raised: the error
    that lifting the lanes one after another would raise.  The fractions
    are checked by lift_fractions.
    """
    min_fraction, initial_fraction, max_fraction = lift_fractions(
        min_fraction, initial_fraction, max_fraction
    )
    paths, x0s = list(paths), list(x0s)
    if len(paths) != len(x0s):
        raise InputError(f"{len(paths)} paths for {len(x0s)} starting points")
    failed: dict = {}       # lane index: the error that ended the lane
    lanes = []
    for index, (path, x0) in enumerate(zip(paths, x0s)):
        try:
            lanes.append(_Lane(index, *_lane_start(sys, path, x0, tols), initial_fraction))
        except EqBundleError as err:
            failed[index] = err
    results = lanes
    n = sys.n
    residual, system = _level_set(sys)

    # every step starts at a corrector output; a start whose projection
    # fails is kept, and the loop meets its error
    off = [lane for lane in lanes if lane.max_f > tols.newton * (1.0 + np.linalg.norm(lane.x))]
    if off:
        starts = _correct(
            residual, system, np.array([lane.x for lane in off]), tols,
            np.array([lane.path[0] for lane in off]), np.array([lane.a0 for lane in off]),
        )[0]
        for lane, start in zip(off, starts):
            lane.x = start
    while lanes:
        for lane in lanes:
            rest = 1.0 - lane.s
            lane.ds = min(lane.ds, rest)
            if lane.ds < min_fraction:
                failed[lane.index] = TransportError("transport step collapsed", t=lane.t(0.0))
            # a step that would leave less than min_fraction (or 1e-14) of
            # the segment runs to its end: s + (1 - s) is exactly 1
            elif rest - lane.ds < max(min_fraction, 1e-14):
                lane.ds = rest
        lanes = [lane for lane in lanes if lane.index not in failed]
        if not lanes:
            break
        # the round's stacks, a row per running lane, built from the lanes
        x = np.array([lane.x for lane in lanes])
        a0 = np.array([lane.a0 for lane in lanes])
        lam_from = np.array([lane.path[lane.seg] for lane in lanes])
        lam_dot = np.array([lane.path[lane.seg + 1] for lane in lanes]) - lam_from
        s, ds = np.array([(lane.s, lane.ds) for lane in lanes]).T
        sigma = s[:, None] + ds[:, None] * _STAGE_SIGMAS
        # lambda at the stages, lam_from + sigma * lam_dot: (rows, 3, m)
        lam_t = lam_from[:, None] + sigma[:, :, None] * lam_dot[:, None]
        # a step that ends its segment ends at the waypoint itself, which
        # lam_from + lam_dot can miss by a rounding
        for row in np.flatnonzero(sigma[:, 2] == 1.0):
            lam_t[row, 2] = lanes[row].path[lanes[row].seg + 1]
        half = (0.5 * ds)[:, None]
        errors: dict = {}
        k = []
        for stage, scale in ((0, None), (1, half), (1, half), (2, ds[:, None])):
            y = x if scale is None else x + scale * k[-1]
            k.append(_velocity(sys, system, lam_t[:, stage], y, lam_dot, tols, errors, lanes))
            if errors:
                break
        if errors:
            # the failed lanes end; the round is rebuilt for the others,
            # which recomputes the same values
            failed.update((lanes[row].index, err) for row, err in errors.items())
            continue

        k1, k2, k3, k4 = k
        candidate = x + (ds / 6.0)[:, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # a candidate outside the domain (or whose domain test raises) is
        # retried, whatever its correction does: _step_rule measures a jump
        # against the predictor's own length, which a wild predictor
        # inflates.  A step that cannot be halved is judged by its
        # corrected point, so a lift that leaves the domain ends there as
        # having exited it
        outside = ~_in_domain_rows(sys, candidate, tols)[0] & (ds >= 2.0 * min_fraction)
        lam_next = lam_t[:, 2]
        y, iterations, resid, retry, fatal = _correct(
            residual, system, candidate, tols, lam_next, a0
        )
        # finder's step rule; the lanes it does not retry took the step, if
        # it stayed inside.  A fatal error ends its lane unless the step is
        # retried for its candidate, and its row is not domain-tested
        retry, grow = _step_rule(retry, iterations, _lane_norm(y - x), _lane_norm(candidate - x))
        retry |= outside
        ended = {row: err for row, err in fatal.items() if not outside[row]}
        taken = [row for row in np.flatnonzero(~retry) if row not in ended]
        inside, raised = _in_domain_rows(sys, y[taken], tols)
        ended.update((taken[i], raised.get(i)) for i in np.flatnonzero(~inside))

        # the corrector's residual at y: [f(lam_next, y); h(y) - a0]
        norm_f = _lane_norm(resid[:, :n])
        norm_drift = _lane_norm(resid[:, n:])
        for row, lane in enumerate(lanes):
            if row in ended:
                failed[lane.index] = ended[row] or TransportError(
                    f"lift exited the domain at x = {y[row].tolist()}", t=lane.t(lane.ds)
                )
            elif retry[row]:
                lane.ds *= 0.5
            else:
                lane.x = y[row]
                lane.ts.append(lane.t(lane.ds))
                lane.lams.append(lam_next[row])
                lane.gammas.append(y[row])
                lane.max_f = max(lane.max_f, float(norm_f[row]))
                lane.max_drift = max(lane.max_drift, float(norm_drift[row]))
                lane.steps += 1
                lane.s += lane.ds
                if grow[row]:
                    lane.ds = min(2.0 * lane.ds, max_fraction)
                if lane.s == 1.0:
                    lane.seg, lane.s, lane.ds = lane.seg + 1, 0.0, initial_fraction
        lanes = [lane for lane in lanes if lane.seg < lane.segments and lane.index not in failed]

    if failed:
        raise failed[min(failed)]
    return [lane.result() for lane in results]


def holonomy_loop(
    sys: SystemSpec,
    loop,
    a,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> HolonomyReport:
    """Transport every point of E_lambda on the level set around a loop.

    The first and last waypoints must agree within 1e-9 relative to the
    first's norm.  Finds the points of enumerate_level_points at the base
    waypoint, without evaluating or auditing them, lifts the loop from all
    of them at once, as lanes of lift_lanes, and matches the endpoints back
    by nearest neighbor within the clustering radius.  The match must be a
    bijection.  A failed lift raises the
    error of the first point, in enumeration order, whose lift fails.
    """
    waypoints = waypoint_path(loop, sys.m, "loop", "m")
    closed_loop(waypoints, "waypoints")
    a = finite_array(a, "level a").reshape(-1)
    base = waypoints[0]

    points = [x for x, _ in _level_points(sys, base, a, budget, seed, tols)]
    if not points:
        raise InputError(
            f"no equilibria found on level {a.tolist()} at lambda = {base.tolist()}"
        )
    before = np.asarray(points)

    lifts = lift_lanes(sys, [waypoints] * len(points), points, tols)
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
    l1 = finite_vector(lambda1, sys.m, "lambda1", "m")
    l2 = finite_vector(lambda2, sys.m, "lambda2", "m")
    l3 = finite_vector(lambda3, sys.m, "lambda3", "m")
    if paths is None:
        paths = (np.array([l1, l2]), np.array([l2, l3]), np.array([l1, l3]))
    names = ("path_1_to_2", "path_2_to_3", "path_1_to_3")
    p12, p23, p13 = (
        waypoint_path(path, sys.m, name, "m") for path, name in zip(cocycle_paths(paths), names)
    )
    for path, start, end, name in zip((p12, p23, p13), (l1, l2, l1), (l2, l3, l3), names):
        if np.linalg.norm(path[0] - start) > 1e-9 or np.linalg.norm(path[-1] - end) > 1e-9:
            raise InputError(f"{name} does not connect its declared endpoints")

    direct, via = lift_lanes(sys, [p13, p12], [x0, x0], tols)
    composed = lift_curve(sys, p23, via.gamma[-1], tols)
    return float(np.linalg.norm(direct.gamma[-1] - composed.gamma[-1]))
