"""Equilibrium location, level-set enumeration, and fiber tracing.

The square solve targets F(x) = [f(lambda, x); h(x) - a] = 0 whose
stacked Jacobian [df/dx; dh/dx] has full column rank n at transversal
points, so a least-squares Newton step is the exact Newton step there.
Enumeration runs that solve from every point of a low-discrepancy
sequence at once, as lanes of one lockstep kernel, deduplicates by
clustering and audits only the kept points.  Fibers (k = 1 only) are
traced by predictor-corrector continuation along the kernel of df/dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import qmc

from .audit import AuditReport, audit_point
from .errors import (
    BranchPointError,
    ConvergenceError,
    DegeneracyError,
    EqBundleError,
    InputError,
    UnsupportedDimensionError,
)
from .linalg import (
    RankReport,
    default_rank_tol,
    kernel_basis,
    numeric_rank,
    solve_least_squares,
)
from .systems import PointState, SystemSpec
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class EquilibriumPoint:
    """A solved point of {f = 0} on the level set {h = a}."""

    state: PointState
    residual_f: float
    level: np.ndarray
    audit: AuditReport
    stacked_rank: int
    transversal: bool

    def as_dict(self) -> dict:
        return {
            "lambda": self.state.lam.tolist(),
            "x": self.state.x.tolist(),
            "residual_f": self.residual_f,
            "level": self.level.tolist(),
            "stacked_rank": self.stacked_rank,
            "transversal": self.transversal,
            "audit": self.audit.as_dict(),
        }


@dataclass(frozen=True)
class FiberTrace:
    """An ordered polyline sample of one connected fiber of E_lambda (k = 1).

    For circles the first point is repeated as the last.  For segments
    endpoint_boundary_distances estimates the distance from each endpoint
    to the domain boundary.
    """

    lam: np.ndarray
    points: np.ndarray          # (N, n)
    topology: str               # "circle" | "segment"
    arclength: float
    endpoint_boundary_distances: Optional[tuple]
    max_f_residual: float

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam.tolist(),
            "points": [row.tolist() for row in self.points],
            "topology": self.topology,
            "arclength": self.arclength,
            "endpoint_boundary_distances": (
                None
                if self.endpoint_boundary_distances is None
                else list(self.endpoint_boundary_distances)
            ),
            "max_f_residual": self.max_f_residual,
        }


# Outcome of one Newton lane; NewtonLanes.status holds indices into this.
LANE_OUTCOMES = (
    "converged",
    "start outside domain",
    "non-finite residual",
    "singular",
    "line search stalled",
    "max iterations",
    "outside the domain at the end",
    "evaluation error",
)
(
    CONVERGED,
    START_OUTSIDE_DOMAIN,
    NONFINITE_RESIDUAL,
    SINGULAR,
    LINE_SEARCH_STALLED,
    MAX_ITERATIONS,
    OUTSIDE_DOMAIN_AT_END,
    EVALUATION_ERROR,
) = range(len(LANE_OUTCOMES))
_RUNNING = -1


@dataclass(frozen=True)
class NewtonLanes:
    """Outcome of newton_lanes; row i of every array belongs to start i."""

    x: np.ndarray               # (B, n) last accepted iterate
    status: np.ndarray          # (B,) index into LANE_OUTCOMES
    iteration: np.ndarray       # (B,) Newton iteration at which the lane stopped
    residual: np.ndarray        # (B, n + k) F at x; NaN where never evaluated
    max_iter: int
    details: dict               # lane -> RankReport (singular) or the raised error

    @property
    def residual_f(self) -> np.ndarray:
        """||f(lam, x)|| per lane."""
        return np.linalg.norm(self.residual[:, : self.x.shape[1]], axis=1)

    def counts(self) -> dict:
        """Number of lanes per outcome, every outcome listed."""
        tally = np.bincount(self.status, minlength=len(LANE_OUTCOMES))
        return {name: int(c) for name, c in zip(LANE_OUTCOMES, tally)}

    def error(self, lane: int) -> Optional[EqBundleError]:
        """The typed error newton_on_level_set raises for this lane, or None."""
        code = self.status[lane]
        x = self.x[lane]
        norm = np.linalg.norm(self.residual[lane])
        at = self.iteration[lane]
        if code == CONVERGED:
            return None
        if code == START_OUTSIDE_DOMAIN:
            return InputError(f"x0 {x.tolist()} is not in the domain")
        if code == NONFINITE_RESIDUAL:
            return InputError(f"F(x0) is not finite at x0 = {x.tolist()}")
        if code == SINGULAR:
            report = self.details[lane]
            return DegeneracyError(
                f"singular Newton system at iteration {at}: least squares matrix "
                f"is column rank deficient (rank {report.rank} < {x.size})",
                report=report,
            )
        if code == LINE_SEARCH_STALLED:
            return ConvergenceError(
                f"Newton line search stalled at iteration {at}, ||F|| = {norm:.3e}"
            )
        if code == MAX_ITERATIONS:
            return ConvergenceError(
                f"Newton did not converge in {self.max_iter} iterations, "
                f"||F|| = {norm:.3e}"
            )
        if code == OUTSIDE_DOMAIN_AT_END:
            return ConvergenceError(f"Newton converged to {x.tolist()} outside the domain")
        return self.details[lane]

    def solution(self, lane: int) -> np.ndarray:
        """x of a converged lane; raises the lane's typed error otherwise."""
        error = self.error(lane)
        if error is not None:
            raise error
        return self.x[lane].copy()


def _row_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1), the same arithmetic without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _lanewise(fn, x: np.ndarray, out: np.ndarray):
    """out[i] = fn(x[i]) lane by lane.  A lane whose call raises an
    EqBundleError keeps its fill value and lands in the error map."""
    errors = {}
    for row, y in enumerate(x):
        try:
            out[row] = fn(y)
        except EqBundleError as err:
            errors[row] = err
    return out, errors


class _LaneCalls:
    """Residual, stacked Jacobian and domain membership over a (b, n) stack.

    Each returns (values, errors {row: EqBundleError}), with the rows of
    failed lanes NaN.  Values and derivatives come from the spec's stacked
    accessors: one call for the whole stack on a batched spec, whose
    non-finite rows are then re-run alone, and lane by lane otherwise, so
    a lane fails with the error of a lone solve either way.
    """

    def __init__(self, sys: SystemSpec, lam: np.ndarray, a: np.ndarray):
        self.sys, self.lam, self.a = sys, lam, a
        self.p = sys.n + sys.k

    def residual(self, x: np.ndarray):
        errors: dict = {}
        f = self.sys.f_rows(self.lam, x, errors)
        h = self.sys.h_rows(x, errors)
        return np.concatenate([f, h - self.a], axis=1), errors

    def jacobian(self, x: np.ndarray):
        errors: dict = {}
        jac_x = self.sys.jac_x(self.lam, x, errors)
        jac_h = self.sys.jac_h(x, errors)
        return np.concatenate([jac_x, jac_h], axis=1), errors

    def in_domain(self, x: np.ndarray, slack: float):
        domain = self.sys.domain
        if not self.sys.batched:
            return _lanewise(
                lambda y: domain.contains(y, slack), x, np.zeros(len(x), dtype=bool)
            )
        inside = np.all(
            (x >= domain.box[:, 0] - slack) & (x <= domain.box[:, 1] + slack), axis=1
        )
        for g in domain.constraints:
            inside &= g(x) <= slack
        return inside, {}


def newton_lanes(
    sys: SystemSpec,
    lam,
    a,
    starts,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_iter: int = 50,
) -> NewtonLanes:
    """Damped Newton for [f(lam, x); h(x) - a] = 0 from every row of starts.

    The starts advance in lockstep as lanes of one (B, n) array, but each
    lane follows exactly the rule of a lone solve, so its result does not
    depend on the batch it ran in.  A lane converges when ||F|| <=
    newton_tol * (1 + ||x0||) at the top of one of max_iter iterations.
    Each iteration takes the Newton step V diag(1/s) U^T (-F) from the SVD
    of the stacked Jacobian [df/dx; dh/dx], whose singular values also
    decide its column rank.  The line search tries the step scaled by
    1, 1/2, ..., 2^-24 and takes the first trial that stays in the domain
    box inflated by 5 % of the diameter, is finite, and lowers ||F|| (or
    meets the target).  Starts must lie in the domain and converged
    points must lie in it too.  Every lane ends with one of
    LANE_OUTCOMES; nothing is raised for a failed lane.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    x = np.array(starts, dtype=float)
    if lam.size != sys.m:
        raise InputError(f"lambda has length {lam.size}, expected m = {sys.m}")
    if a.size != sys.k:
        raise InputError(f"level a has length {a.size}, expected k = {sys.k}")
    if x.ndim != 2 or x.shape[1] != sys.n:
        raise InputError(f"starts must have shape (B, {sys.n}), got {x.shape}")
    calls = _LaneCalls(sys, lam, a)
    count = x.shape[0]
    status = np.full(count, _RUNNING)
    iteration = np.zeros(count, dtype=int)
    residual = np.full((count, calls.p), np.nan)
    norm = np.full(count, np.nan)
    details: dict = {}

    def stop(lanes, code, at=None):
        status[lanes] = code
        if at is not None:
            iteration[lanes] = at

    def record(lanes, errors, at=None):
        # called after the other checks of a stage, so the error wins
        for row, err in errors.items():
            details[int(lanes[row])] = err
            stop(lanes[row], EVALUATION_ERROR, at)

    diameter = sys.domain.diameter()
    target = tols.newton * (1.0 + np.linalg.norm(x, axis=1))
    lanes = np.arange(count)
    inside, errors = calls.in_domain(x, 1e-9 * diameter)
    stop(lanes[~inside], START_OUTSIDE_DOMAIN, 0)
    record(lanes, errors, 0)
    lanes = lanes[status == _RUNNING]

    values, errors = calls.residual(x[lanes])
    residual[lanes] = values
    stop(lanes[~np.isfinite(values).all(axis=1)], NONFINITE_RESIDUAL, 0)
    record(lanes, errors, 0)
    lanes = lanes[status[lanes] == _RUNNING]
    norm[lanes] = _row_norm(residual[lanes])

    margin = 0.05 * diameter
    lo, hi = sys.domain.box[:, 0] - margin, sys.domain.box[:, 1] + margin
    for it in range(max_iter):
        done = norm[lanes] <= target[lanes]
        stop(lanes[done], CONVERGED, it)
        lanes = lanes[~done]
        if not lanes.size:
            break

        jac, errors = calls.jacobian(x[lanes])
        broken = lanes[~np.isfinite(jac).all(axis=(1, 2))]
        for lane in broken:
            details[int(lane)] = InputError("A contains non-finite entries")
        stop(broken, EVALUATION_ERROR, it)
        record(lanes, errors, it)
        keep = status[lanes] == _RUNNING
        lanes, jac = lanes[keep], jac[keep]

        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        if tols.rank is not None:
            cutoff = np.full(lanes.size, float(tols.rank))
        else:
            cutoff = default_rank_tol(jac.shape[1:], s[:, 0])
        # s is descending: rank < n exactly when the last value is cut off
        singular = s[:, -1] <= cutoff
        if singular.any():
            for row in singular.nonzero()[0]:
                details[int(lanes[row])] = RankReport(
                    rank=int(np.count_nonzero(s[row] > cutoff[row])),
                    singular_values=tuple(float(v) for v in s[row]),
                    tol=float(cutoff[row]),
                )
            stop(lanes[singular], SINGULAR, it)
            regular = ~singular
            lanes, u, s, vt = lanes[regular], u[regular], s[regular], vt[regular]

        xs, fs, ns, ts = x[lanes], residual[lanes], norm[lanes], target[lanes]
        coeff = np.matmul(-fs[:, None, :], u)[:, 0, :] / s
        step = np.matmul(np.swapaxes(vt, 1, 2), coeff[:, :, None])[:, :, 0]
        pending = np.ones(lanes.size, dtype=bool)
        alpha = 1.0
        for _ in range(25):
            candidate = xs + alpha * step
            trying = pending & ((candidate >= lo) & (candidate <= hi)).all(axis=1)
            trial = np.full(fs.shape, np.nan)
            trial[trying], errors = calls.residual(candidate[trying])
            if errors:
                rows = trying.nonzero()[0]
                record(lanes[rows], errors, it)
                pending[rows[list(errors)]] = False
            trial_norm = _row_norm(trial)
            # a skipped or non-finite trial has a NaN or infinite norm and
            # fails both comparisons
            accept = (trial_norm < ns) | (trial_norm <= ts)
            xs[accept], fs[accept], ns[accept] = (
                candidate[accept], trial[accept], trial_norm[accept]
            )
            pending &= ~accept
            if not pending.any():
                break
            alpha *= 0.5
        else:
            stop(lanes[pending], LINE_SEARCH_STALLED, it)
        x[lanes], residual[lanes], norm[lanes] = xs, fs, ns
        lanes = lanes[status[lanes] == _RUNNING]
    stop(lanes, MAX_ITERATIONS, max_iter)

    converged = (status == CONVERGED).nonzero()[0]
    inside, errors = calls.in_domain(x[converged], tols.domain_slack * (1.0 + diameter))
    stop(converged[~inside], OUTSIDE_DOMAIN_AT_END)
    record(converged, errors)
    return NewtonLanes(
        x=x, status=status, iteration=iteration, residual=residual,
        max_iter=max_iter, details=details,
    )


def _equilibrium_point(sys, lam, x, residual_f, tols) -> EquilibriumPoint:
    """The reported point: level, stacked rank and audit at a converged x."""
    stacked = np.vstack([sys.jac_x(lam, x), sys.jac_h(x)])
    fd = sys.jac_x_fn is None or sys.jac_h_fn is None
    rank = numeric_rank(stacked, tols.rank, fd=fd)
    state = PointState(lam, x)
    return EquilibriumPoint(
        state=state,
        residual_f=float(residual_f),
        level=np.asarray(sys.h(x), dtype=float).reshape(-1),
        audit=audit_point(sys, state, tols),
        stacked_rank=rank.rank,
        transversal=rank.rank == sys.n,
    )


def newton_on_level_set(
    sys: SystemSpec,
    lam,
    a,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_iter: int = 50,
) -> EquilibriumPoint:
    """Damped Newton for [f(lam, x); h(x) - a] = 0 from x0, audited.

    The one-lane call of newton_lanes, which documents the iteration.  A
    failed lane raises its typed error: InputError for a start outside
    the domain or a non-finite F(x0), DegeneracyError for a singular
    Newton system, ConvergenceError for a stalled line search, too many
    iterations or a solution outside the domain.  At the solution the
    column rank of the stacked Jacobian is recorded as a transversality
    certificate instead of raised.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != sys.n:
        raise InputError(f"x0 has length {x.size}, expected n = {sys.n}")
    lanes = newton_lanes(sys, lam, a, x[None, :], tols, max_iter)
    return _equilibrium_point(sys, lam, lanes.solution(0), lanes.residual_f[0], tols)


def level_starts(sys: SystemSpec, budget: int, seed: int) -> np.ndarray:
    """The multistart sample: budget scrambled Halton points in the domain box."""
    sampler = qmc.Halton(d=sys.n, scramble=True, seed=seed)
    box = sys.domain.box
    return qmc.scale(sampler.random(budget), box[:, 0], box[:, 1])


def enumerate_level_points(
    sys: SystemSpec,
    lam,
    a,
    budget: int = 200,
    seed: int = 0,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list:
    """Multistart Newton from a scrambled Halton sequence.

    All budget starts run as lanes of one newton_lanes call.  Converged
    points are deduplicated by clustering with radius cluster_tol *
    domain diameter, keeping the best-converged representative, and only
    the kept points are audited.  They are returned sorted
    lexicographically by coordinates.  An empty result is a valid
    answer: either the level set carries no equilibria for this lambda
    or the budget missed every basin.
    """
    if budget <= 0:
        raise InputError(f"budget must be positive, got {budget}")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    lanes = newton_lanes(sys, lam, a, level_starts(sys, budget, seed), tols)
    residual_f = lanes.residual_f
    radius = tols.cluster * sys.domain.diameter()
    # keep the best-converged representative of each cluster
    by_quality = sorted(
        np.flatnonzero(lanes.status == CONVERGED),
        key=lambda i: (residual_f[i], tuple(lanes.x[i])),
    )
    kept: list = []
    for i in by_quality:
        if all(np.linalg.norm(lanes.x[i] - lanes.x[j]) > radius for j in kept):
            kept.append(i)
    points = [
        _equilibrium_point(sys, lam, lanes.x[i].copy(), residual_f[i], tols)
        for i in kept
    ]
    # lexicographic output order; rounding first makes the order stable
    # when distinct solutions share coordinates up to solver noise
    points.sort(key=lambda e: (tuple(np.round(e.state.x, 9)), tuple(e.state.x)))
    return points


def _corrector(sys, lam, x_pred, tangent, tols, max_iter=8):
    """Newton for [f; tangent . (y - x_pred)] = 0.  Returns (y, iterations)."""
    y = x_pred.copy()
    scale = 1.0 + float(np.linalg.norm(x_pred))
    target = tols.newton * scale
    for iteration in range(max_iter):
        fv = np.asarray(sys.f(lam, y), dtype=float).reshape(-1)
        resid = np.concatenate([fv, [float(tangent @ (y - x_pred))]])
        if not np.all(np.isfinite(resid)):
            raise ConvergenceError("corrector residual is not finite")
        if np.linalg.norm(resid) <= target:
            return y, iteration
        jac = np.vstack([sys.jac_x(lam, y), tangent[None, :]])
        step = solve_least_squares(jac, -resid, rank_tol=tols.rank)
        y = y + step
    fv = np.asarray(sys.f(lam, y), dtype=float).reshape(-1)
    resid = np.concatenate([fv, [float(tangent @ (y - x_pred))]])
    if np.linalg.norm(resid) <= target:
        return y, max_iter
    raise ConvergenceError(
        f"fiber corrector did not converge, ||G|| = {np.linalg.norm(resid):.3e}"
    )


def _fiber_tangent(sys, lam, x, tols, location_note: str):
    kernel = kernel_basis(sys.jac_x(lam, x), tols.rank, fd=sys.jac_x_fn is None)
    if kernel.shape[1] != 1:
        raise BranchPointError(
            f"kernel of df/dx has dimension {kernel.shape[1]}, expected 1 "
            f"{location_note}",
            location=PointState(lam, x.copy()),
        )
    tangent = kernel[:, 0]
    return tangent / np.linalg.norm(tangent)


def _march(sys, lam, x_start, t_start, tols, step0, min_step, max_step, max_points):
    """March one direction.  Returns (points, closed) where closed means
    the walk returned to x_start (circle)."""
    contains = sys.domain.contains
    points = [x_start.copy()]
    tangent = t_start
    first_tangent = t_start
    step = step0
    while len(points) < max_points:
        x = points[-1]
        advanced = None
        while step >= min_step:
            x_pred = x + step * tangent
            try:
                y, iterations = _corrector(sys, lam, x_pred, tangent, tols)
            except (ConvergenceError, DegeneracyError):
                step *= 0.5
                continue
            if np.linalg.norm(y - x) > 2.0 * step:
                # corrector wandered to a different sheet; resolve finer
                step *= 0.5
                continue
            advanced = (y, iterations)
            break
        if advanced is None:
            raise ConvergenceError(
                f"fiber step collapsed below {min_step:.1e} near x = {x.tolist()}"
            )
        y, iterations = advanced

        if not contains(y, slack=0.0):
            boundary = _refine_boundary(sys, lam, x, tangent, step, tols)
            if boundary is not None:
                points.append(boundary)
            return points, False

        new_tangent = _fiber_tangent(
            sys, lam, y, tols, f"while tracing at x = {np.round(y, 6).tolist()}"
        )
        if float(new_tangent @ tangent) < 0.0:
            new_tangent = -new_tangent

        if (
            len(points) >= 5
            and np.linalg.norm(y - x_start) < 0.5 * step
            and float(new_tangent @ first_tangent) > 0.9
        ):
            points.append(x_start.copy())
            return points, True

        points.append(y)
        tangent = new_tangent
        if iterations > 3:
            step = max(step * 0.5, min_step)
        elif iterations <= 1:
            step = min(step * 2.0, max_step)
    raise ConvergenceError(
        f"fiber trace exceeded {max_points} points without closing or "
        "reaching the boundary"
    )


def _refine_boundary(sys, lam, x_inside, tangent, step, tols):
    """Bisect the step fraction between the last interior corrected point
    and the first exterior one; returns the last interior point found."""
    contains = sys.domain.contains
    lo, hi = 0.0, step
    best = None
    # parameter resolution relative to the step that crossed the boundary
    resolution = max(tols.boundary_refine, 1e-15) * max(1.0, step)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        try:
            y, _ = _corrector(sys, lam, x_inside + mid * tangent, tangent, tols)
        except (ConvergenceError, DegeneracyError):
            hi = mid
            continue
        if contains(y, slack=0.0):
            lo = mid
            best = y
        else:
            hi = mid
    return best


def trace_fiber(
    sys: SystemSpec,
    lam,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    initial_step: Optional[float] = None,
    max_step: Optional[float] = None,
    min_step: Optional[float] = None,
    max_points: int = 20000,
    initial_direction: int = 1,
) -> FiberTrace:
    """Trace the connected fiber of {f(lam, .) = 0} through x0 (k = 1 only).

    Predictor along the unit kernel vector of df/dx, corrector = Newton
    constrained orthogonal to the tangent, step doubling/halving on
    corrector iteration count.  Ends either by closing into a circle or
    by hitting the domain boundary in both directions (segment).
    """
    if sys.k != 1:
        raise UnsupportedDimensionError(
            f"fiber tracing needs k = 1, system has k = {sys.k}"
        )
    lam = np.asarray(lam, dtype=float).reshape(-1)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if lam.size != sys.m or x0.size != sys.n:
        raise InputError("lambda or x0 has the wrong length")
    f0 = np.asarray(sys.f(lam, x0), dtype=float).reshape(-1)
    if np.linalg.norm(f0) > tols.equilibrium * (1.0 + np.linalg.norm(x0)) * 10.0:
        raise InputError(
            f"x0 is not an equilibrium: ||f|| = {np.linalg.norm(f0):.3e}"
        )
    if not sys.domain.contains(x0, slack=tols.domain_slack):
        raise InputError(f"x0 {x0.tolist()} is not in the domain")

    diameter = sys.domain.diameter()
    step0 = initial_step if initial_step is not None else 0.01 * diameter
    cap = max_step if max_step is not None else 0.05 * diameter
    floor = min_step if min_step is not None else 1e-12 * diameter

    tangent = _fiber_tangent(sys, lam, x0, tols, "at the starting point")
    if initial_direction < 0:
        tangent = -tangent

    forward, closed = _march(
        sys, lam, x0, tangent, tols, step0, floor, cap, max_points
    )
    if closed:
        points = np.asarray(forward)
        topology = "circle"
        boundary_distances = None
    else:
        backward, closed_back = _march(
            sys, lam, x0, -tangent, tols, step0, floor, cap, max_points
        )
        if closed_back:
            # hit the boundary one way but closed the other: inconsistent
            raise ConvergenceError(
                "fiber closed in one direction but met the boundary in the other"
            )
        points = np.asarray(backward[::-1] + forward[1:])
        topology = "segment"
        boundary_distances = (
            float(sys.domain.boundary_distance(points[0])),
            float(sys.domain.boundary_distance(points[-1])),
        )

    residual = 0.0
    for row in points:
        value = np.asarray(sys.f(lam, row), dtype=float)
        residual = max(residual, float(np.linalg.norm(value)))
    arclength = float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))
    return FiberTrace(
        lam=lam,
        points=points,
        topology=topology,
        arclength=arclength,
        endpoint_boundary_distances=boundary_distances,
        max_f_residual=residual,
    )
