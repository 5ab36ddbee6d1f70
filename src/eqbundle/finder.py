"""Equilibrium location, level-set enumeration, and fiber tracing.

The square solve targets F(x) = [f(lambda, x); h(x) - a] = 0 whose
stacked Jacobian [df/dx; dh/dx] has full column rank n at transversal
points, so a least-squares Newton step is the exact Newton step there.
_level_set defines F and that Jacobian once, for newton_lanes and for
transport's lift, and every step is one batched linalg._solve_rows call.
Enumeration runs that solve from every point of a low-discrepancy
sequence at once, as lanes of one lockstep kernel, deduplicates by
clustering and audits only the kept points.  Fibers (k = 1 only) are
traced by predictor-corrector continuation along the kernel of df/dx.
The corrector, _correct, is undamped and local, and also corrects the
steps of transport's lift; newton_lanes is the damped, global solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps that cost out of
# the first find
import numpy.random

from .audit import AuditReport, audit_point
from .errors import (
    BranchPointError,
    ConvergenceError,
    DegeneracyError,
    EqBundleError,
    InputError,
    UnsupportedDimensionError,
    non_negative_int,
    positive_int,
)
from .linalg import _all_finite, _solve_rows, kernel_basis, numeric_rank
from .systems import PointState, SystemSpec, _rows
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


# The line search's step scales 1, 1/2, ..., 2^-24 in the rounds that
# newton_lanes evaluates as one stack each: 1, 2, 4, 8 and 10 trials, so no
# lane evaluates more than about twice the trials it needs
_ALPHA_ROUNDS = np.split(np.ldexp(1.0, -np.arange(25)), [1, 3, 7, 15])


def _lane_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) of every row of v (B, p), bitwise.  The norm of a
    lone vector is the square root of a BLAS dot, which a pairwise sum of
    squares does not always reproduce; vecdot makes that dot per row."""
    return np.sqrt(np.vecdot(v, v))


def _in_domain_rows(sys: SystemSpec, x: np.ndarray, slack: float):
    """sys.domain.contains(row, slack) at every row of x, as (inside, errors
    {row: EqBundleError}): one vectorized test on a batched spec, and row by
    row otherwise, where a constraint may raise."""
    domain = sys.domain
    if not sys.batched:
        errors: dict = {}
        inside = _rows(
            lambda _, y: domain.contains(y, slack), np.zeros(0), x, (), False, errors
        )
        return inside == 1.0, errors
    inside = np.logical_and.reduce(
        (x >= domain.box[:, 0] - slack) & (x <= domain.box[:, 1] + slack), axis=1
    )
    for g in domain.constraints:
        inside &= g(x) <= slack
    return inside, {}


def _level_set(sys: SystemSpec) -> tuple:
    """(residual, jacobian) of the level-set system at every row of a stack
    y (R, n): residual(y, lam, a, errors) is F = [f(lam, y); h(y) - a] (R,
    n + k) and jacobian(y, lam, a, errors) [df/dx; dh/dx] (R, n + k, n), a
    unused.  lam and a are one shared vector or one row per row of y.  As
    in the spec's stacked accessors, a row fails with the error of a lone
    evaluation: NaN, with its EqBundleError in errors (raised when None)."""

    def residual(y, lam, a, errors):
        return np.concatenate([sys.f_rows(lam, y, errors), sys.h_rows(y, errors) - a], axis=1)

    def jacobian(y, lam, a, errors):
        return np.concatenate([sys.jac_x(lam, y, errors), sys.jac_h(y, errors)], axis=1)

    return residual, jacobian


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
    F and its Jacobian [df/dx; dh/dx] come from _level_set, as in the
    lift's corrector.  Each iteration takes the least-squares Newton step
    of all running lanes in one _solve_rows call, whose batched SVD also
    decides each Jacobian's column rank: a lane ends as singular on a rank
    deficient Jacobian and with its InputError on a non-finite one.  The
    line search scales the step by 1, 1/2, ..., 2^-24 and takes the first
    trial that stays in the domain box inflated by 5 % of the diameter, is
    finite, and lowers ||F|| (or meets the target); a lane whose first
    such event is an evaluation error ends with that error.  The trials
    run in rounds of 1, 2, 4, 8 and 10 scales, each round one stacked
    residual call for every lane still searching, and a lane keeps the
    first trial of a round in that order, so errors at trials a
    trial-by-trial search never reaches are ignored.  Starts must lie in
    the domain and converged points must lie in it too.  Every lane ends
    with one of LANE_OUTCOMES; nothing is raised for a failed lane.
    """
    max_iter = positive_int(max_iter, "max_iter")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    a = np.asarray(a, dtype=float).reshape(-1)
    x = np.array(starts, dtype=float)
    if lam.size != sys.m:
        raise InputError(f"lambda has length {lam.size}, expected m = {sys.m}")
    if a.size != sys.k:
        raise InputError(f"level a has length {a.size}, expected k = {sys.k}")
    if x.ndim != 2 or x.shape[1] != sys.n:
        raise InputError(f"starts must have shape (B, {sys.n}), got {x.shape}")
    level_residual, level_jacobian = _level_set(sys)
    count = x.shape[0]
    status = np.full(count, _RUNNING)
    iteration = np.zeros(count, dtype=int)
    residual = np.full((count, sys.n + sys.k), np.nan)
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
    inside, errors = _in_domain_rows(sys, x, 1e-9 * diameter)
    stop(lanes[~inside], START_OUTSIDE_DOMAIN, 0)
    record(lanes, errors, 0)
    lanes = lanes[status == _RUNNING]

    errors = {}
    values = level_residual(x[lanes], lam, a, errors)
    residual[lanes] = values
    stop(lanes[~np.isfinite(values).all(axis=1)], NONFINITE_RESIDUAL, 0)
    record(lanes, errors, 0)
    lanes = lanes[status[lanes] == _RUNNING]
    norm[lanes] = _lane_norm(residual[lanes])

    margin = 0.05 * diameter
    lo, hi = sys.domain.box[:, 0] - margin, sys.domain.box[:, 1] + margin
    for it in range(max_iter):
        done = norm[lanes] <= target[lanes]
        stop(lanes[done], CONVERGED, it)
        lanes = lanes[~done]
        if not lanes.size:
            break

        errors = {}
        jac = level_jacobian(x[lanes], lam, a, errors)
        # a non-finite Jacobian is an InputError in errors
        step, deficient = _solve_rows(jac, -residual[lanes], tols.rank, errors)
        record(lanes, errors, it)
        for row, err in deficient.items():
            details[int(lanes[row])] = err.report
            stop(lanes[row], SINGULAR, it)
        keep = status[lanes] == _RUNNING
        lanes, step = lanes[keep], step[keep]

        xs, fs, ns, ts = x[lanes], residual[lanes], norm[lanes], target[lanes]
        pending = np.ones(lanes.size, dtype=bool)
        for alphas in _ALPHA_ROUNDS:
            rows = pending.nonzero()[0]
            # trial j of pending lane rows[i] is row i * alphas.size + j
            candidate = (xs[rows, None] + alphas[:, None] * step[rows, None]).reshape(
                -1, step.shape[1]
            )
            trying = ((candidate >= lo) & (candidate <= hi)).all(axis=1)
            trial = np.full((candidate.shape[0], residual.shape[1]), np.nan)
            errors = {}
            trial[trying] = level_residual(candidate[trying], lam, a, errors)
            trial_norm = _lane_norm(trial)
            # a skipped or non-finite trial has a NaN or infinite norm and
            # fails both comparisons
            by_lane = trial_norm.reshape(rows.size, alphas.size)
            event = (by_lane < ns[rows, None]) | (by_lane <= ts[rows, None])
            if errors:
                # each error under the row of its trial in candidate
                tried = trying.nonzero()[0]
                raised = {int(tried[row]): err for row, err in errors.items()}
                event.flat[list(raised)] = True
            # per lane the first trial in alpha order that was accepted or
            # raised, where a trial-by-trial search would have stopped
            hit = event.any(axis=1)
            first = np.arange(rows.size) * alphas.size + event.argmax(axis=1)
            if errors:
                failed = {
                    rows[i]: raised[first[i]] for i in hit.nonzero()[0] if first[i] in raised
                }
                record(lanes, failed, it)
                pending[list(failed)] = False
                hit &= pending[rows]
            take, first = rows[hit], first[hit]
            xs[take], fs[take], ns[take] = candidate[first], trial[first], trial_norm[first]
            pending[take] = False
            if not pending.any():
                break
        else:
            stop(lanes[pending], LINE_SEARCH_STALLED, it)
        x[lanes], residual[lanes], norm[lanes] = xs, fs, ns
        lanes = lanes[status[lanes] == _RUNNING]
    stop(lanes, MAX_ITERATIONS, max_iter)

    converged = (status == CONVERGED).nonzero()[0]
    inside, errors = _in_domain_rows(
        sys, x[converged], tols.domain_slack * (1.0 + diameter)
    )
    stop(converged[~inside], OUTSIDE_DOMAIN_AT_END)
    record(converged, errors)
    return NewtonLanes(
        x=x, status=status, iteration=iteration, residual=residual,
        max_iter=max_iter, details=details,
    )


def _equilibrium_point(sys, lam, x, residual_f, tols) -> EquilibriumPoint:
    """The reported point: level, stacked rank and audit at a converged x."""
    _, jacobian = _level_set(sys)
    stacked = jacobian(x[None], lam, None, None)[0]
    rank = numeric_rank(stacked, tols.rank, fd=sys.finite_difference("jac_x", "jac_h"))
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


def _first_primes(count: int) -> list:
    primes: list = []
    candidate = 2
    while len(primes) < count:
        for p in primes:
            if candidate % p == 0:
                break
        else:
            primes.append(candidate)
        candidate += 1
    return primes


def level_starts(sys: SystemSpec, budget: int, seed: int) -> np.ndarray:
    """The multistart sample: budget scrambled Halton points in the domain box.

    Owen's random digit scrambling (arXiv:1706.02808), laid out so that
    the sample is bitwise the reference Halton sampler's (pinned by
    tests/test_oracles.py): coordinate i uses the i-th prime base b and
    ceil(54 / log2(b)) - 1 digit permutations of range(b), shuffled in turn
    by one default_rng(seed).  Point t sums perm_j(digit j of t) *
    b^-(j+1) in increasing j, one term at a time, as a pairwise sum would
    round differently, and the unit sample is scaled by
    u * (hi - lo) + lo.  A box of zero width in a coordinate puts every
    start on its edge.
    """
    d = sys.n
    bases = _first_primes(d)
    rng = np.random.default_rng(seed)
    depth = [math.ceil(54 / math.log2(b)) - 1 for b in bases]
    # terms[j, i, r] = perm_j(r) * b^-(j+1) for base b = bases[i], and 0
    # past that base's depth, which leaves a sum unchanged
    terms = np.zeros((depth[0], d, bases[-1]))
    for i, (b, count) in enumerate(zip(bases, depth)):
        perms = np.repeat(np.arange(b)[None], count, axis=0)
        rng.permuted(perms, axis=1, out=perms)  # rng.shuffle row by row
        weights = [1.0 / b]
        for _ in range(count - 1):
            weights.append(weights[-1] / b)
        terms[:count, i, :b] = perms * np.array(weights)[:, None]
    base, coords = np.array(bases), np.arange(d)
    digits = np.repeat(np.arange(budget)[:, None], d, axis=1)
    sample = np.zeros((budget, d))
    # base 2 has the most digits; past (budget - 1).bit_length() of them
    # every digit of every point is 0
    used = (budget - 1).bit_length()
    for j in range(used):
        sample += terms[j, coords, digits % base]
        digits //= base
    for j in range(used, depth[0]):
        sample += terms[j, :, 0]
    lo, hi = sys.domain.box[:, 0], sys.domain.box[:, 1]
    return sample * (hi - lo) + lo


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
    budget = positive_int(budget, "budget")
    seed = non_negative_int(seed, "seed")
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


# Iteration cap of _correct.  Its callers treat more than 3 iterations as
# a sign that the step was too long, so the cap only bounds wasted work.
_CORRECTOR_ITERATIONS = 8

# The failures of a _correct lane after which its caller retries from a
# closer start; any other error of a lane is fatal to it.
_RETRY = (ConvergenceError, DegeneracyError)


def _corrector_results(y0: np.ndarray, p: int) -> tuple:
    count = len(y0)
    return y0.copy(), np.zeros(count, dtype=int), np.full((count, p), np.nan)


def _correct(residual, jacobian, y0, tols, *lane_args):
    """Undamped Gauss-Newton for residual(y) = 0 from nearby starts, one
    lane per row of y0 (B, n).

    Each lane follows the rule of a lone solve: one solve_least_squares(
    jacobian(y), -residual(y)) step per iteration until ||residual(y)|| <=
    newton_tol * (1 + ||y0||), at most _CORRECTOR_ITERATIONS steps.  The
    lanes run in lockstep.  residual(y, *args, errors) and jacobian(y,
    *args, errors) evaluate the stack y of the running lanes, (R, p) and
    (R, p, n), with args the lane_args (one row per lane) cut to those
    lanes, and store the EqBundleError of a row they cannot evaluate under
    that row in errors.  The steps of all running lanes are one batched SVD
    solve.

    Returns (y, iterations, resid, failed): per lane the corrected point,
    the iteration at which it converged (a list) and the residual there,
    and failed {lane: error} for the lanes that did not converge.  A lane
    fails with ConvergenceError on a non-finite residual or no convergence
    and with DegeneracyError on a rank-deficient Jacobian, after which
    callers retry from a closer start (_RETRY); any other error, the
    EqBundleError its evaluation raised or InputError on a non-finite
    Jacobian, is fatal to the lane, as a lone call would propagate it.
    """
    count = len(y0)
    target = tols.newton * (1.0 + _lane_norm(y0))
    y, args = y0, lane_args
    failed: dict = {}
    # the lane of each row and (y, iterations, resid) of every lane, kept
    # once a lane ends before the others
    lanes = out = None
    for iteration in range(_CORRECTOR_ITERATIONS + 1):
        errors: dict = {}
        resid = residual(y, *args, errors)
        norm = _lane_norm(resid)
        done = norm <= target
        converged = np.count_nonzero(done)
        if lanes is None and not errors and converged == count:
            return y, [iteration] * count, resid, failed
        # a finite norm means a finite residual: without an error or a
        # converged lane every lane just steps
        if (
            errors or converged or iteration == _CORRECTOR_ITERATIONS
            or not _all_finite(norm)
        ):
            if lanes is None:
                lanes, out = np.arange(count), _corrector_results(y0, resid.shape[1])
            going = np.isfinite(resid).all(axis=1) & ~done
            for row, err in errors.items():
                failed[int(lanes[row])] = err
                going[row] = done[row] = False
            for row in np.flatnonzero(~going & ~done):
                failed.setdefault(
                    int(lanes[row]), ConvergenceError("corrector residual is not finite")
                )
            ended = lanes[done]
            out[0][ended], out[1][ended], out[2][ended] = y[done], iteration, resid[done]
            if iteration == _CORRECTOR_ITERATIONS:
                for row in np.flatnonzero(going):
                    failed[int(lanes[row])] = ConvergenceError(
                        f"corrector did not converge in {_CORRECTOR_ITERATIONS} "
                        f"iterations, ||G|| = {norm[row]:.3e}"
                    )
                break
            y, resid, target, lanes, *args = (
                a[going] for a in (y, resid, target, lanes, *args)
            )
            if not lanes.size:
                break
        errors = {}
        step, deficient = _solve_rows(jacobian(y, *args, errors), -resid, tols.rank, errors)
        y = y + step
        if errors or deficient:
            if lanes is None:
                lanes, out = np.arange(count), _corrector_results(y0, resid.shape[1])
            errors.update(deficient)
            going = np.ones(lanes.size, dtype=bool)
            for row, err in errors.items():
                failed[int(lanes[row])] = err
                going[row] = False
            y, target, lanes, *args = (a[going] for a in (y, target, lanes, *args))
            if not lanes.size:
                break
    return out[0], out[1].tolist(), out[2], failed


def _slice(sys, lam):
    """Residual and Jacobian of [f(lam, y); tangent . (y - x_pred)] for
    _correct, with lane arguments x_pred and tangent: each lane's fiber cut
    by the hyperplane through its x_pred normal to its tangent."""

    def residual(y, x_pred, tangent, errors):
        cut = np.vecdot(y - x_pred, tangent)    # per row the lone BLAS dot
        return np.concatenate([sys.f_rows(lam, y, errors), cut[:, None]], axis=1)

    def jacobian(y, x_pred, tangent, errors):
        return np.concatenate([sys.jac_x(lam, y, errors), tangent[:, None]], axis=1)

    return residual, jacobian


def _correct_slice(fiber_slice, x_pred, tangent, tols):
    """_correct of one lane from x_pred on the fiber's slice there: (y,
    iterations, residual), or None when a retry may help; a fatal error of
    the lane is raised."""
    x_pred, tangent = x_pred[None], tangent[None]
    y, iterations, resid, failed = _correct(*fiber_slice, x_pred, tols, x_pred, tangent)
    if failed:
        if isinstance(failed[0], _RETRY):
            return None
        raise failed[0]
    return y[0], iterations[0], resid[0]


def _fiber_tangent(sys, lam, x, tols, location_note: str):
    kernel = kernel_basis(sys.jac_x(lam, x), tols.rank, fd=sys.finite_difference("jac_x"))
    if kernel.shape[1] != 1:
        raise BranchPointError(
            f"kernel of df/dx has dimension {kernel.shape[1]}, expected 1 "
            f"{location_note}",
            location=PointState(lam, x.copy()),
        )
    tangent = kernel[:, 0]
    return tangent / np.linalg.norm(tangent)


def _march(sys, lam, x_start, f_start, t_start, tols, step0, min_step, max_step,
           max_points):
    """March one direction.  Returns (points, f_norms, closed): f_norms[i]
    is ||f(lam, points[i])|| (f_start at x_start) and closed means the walk
    returned to x_start (circle)."""
    contains = sys.domain.contains
    fiber_slice = _slice(sys, lam)
    points = [x_start.copy()]
    f_norms = [f_start]
    tangent = t_start
    first_tangent = t_start
    step = step0
    while len(points) < max_points:
        x = points[-1]
        advanced = None
        while step >= min_step:
            corrected = _correct_slice(fiber_slice, x + step * tangent, tangent, tols)
            if corrected is None:
                step *= 0.5
                continue
            if np.linalg.norm(corrected[0] - x) > 2.0 * step:
                # corrector wandered to a different sheet; resolve finer
                step *= 0.5
                continue
            advanced = corrected
            break
        if advanced is None:
            raise ConvergenceError(
                f"fiber step collapsed below {min_step:.1e} near x = {x.tolist()}"
            )
        y, iterations, resid = advanced

        if not contains(y, slack=0.0):
            boundary = _refine_boundary(sys, fiber_slice, x, tangent, step, tols)
            if boundary is not None:
                points.append(boundary[0])
                f_norms.append(boundary[1])
            return points, f_norms, False

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
            f_norms.append(f_start)
            return points, f_norms, True

        points.append(y)
        f_norms.append(float(np.linalg.norm(resid[: sys.n])))
        tangent = new_tangent
        if iterations > 3:
            step = max(step * 0.5, min_step)
        elif iterations <= 1:
            step = min(step * 2.0, max_step)
    raise ConvergenceError(
        f"fiber trace exceeded {max_points} points without closing or "
        "reaching the boundary"
    )


def _refine_boundary(sys, fiber_slice, x_inside, tangent, step, tols):
    """Bisect the step fraction between the last interior corrected point
    and the first exterior one; returns the last interior point found and
    its ||f||, or None."""
    contains = sys.domain.contains
    lo, hi = 0.0, step
    best = None
    # parameter resolution relative to the step that crossed the boundary
    resolution = max(tols.boundary_refine, 1e-15) * max(1.0, step)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        corrected = _correct_slice(fiber_slice, x_inside + mid * tangent, tangent, tols)
        if corrected is None:
            hi = mid
            continue
        y, _, resid = corrected
        if contains(y, slack=0.0):
            lo = mid
            best = y, float(np.linalg.norm(resid[: sys.n]))
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

    Predictor along the unit kernel vector of df/dx, corrector _correct
    in the hyperplane orthogonal to the tangent.  A failed or wandering
    correction is retried at half the step; more than 3 iterations halve
    the next step, at most 1 doubles it.  Ends either by closing into a
    circle or by hitting the domain boundary in both directions (segment).
    """
    if sys.k != 1:
        raise UnsupportedDimensionError(
            f"fiber tracing needs k = 1, system has k = {sys.k}"
        )
    lam = np.asarray(lam, dtype=float).reshape(-1)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if lam.size != sys.m or x0.size != sys.n:
        raise InputError("lambda or x0 has the wrong length")
    f0 = float(np.linalg.norm(np.asarray(sys.f(lam, x0), dtype=float)))
    if f0 > tols.equilibrium * (1.0 + np.linalg.norm(x0)) * 10.0:
        raise InputError(f"x0 is not an equilibrium: ||f|| = {f0:.3e}")
    if not sys.domain.contains(x0, slack=tols.domain_slack):
        raise InputError(f"x0 {x0.tolist()} is not in the domain")

    diameter = sys.domain.diameter()
    step0 = initial_step if initial_step is not None else 0.01 * diameter
    cap = max_step if max_step is not None else 0.05 * diameter
    floor = min_step if min_step is not None else 1e-12 * diameter

    tangent = _fiber_tangent(sys, lam, x0, tols, "at the starting point")
    if initial_direction < 0:
        tangent = -tangent

    forward, f_norms, closed = _march(
        sys, lam, x0, f0, tangent, tols, step0, floor, cap, max_points
    )
    if closed:
        points = np.asarray(forward)
        topology = "circle"
        boundary_distances = None
    else:
        backward, back_norms, closed_back = _march(
            sys, lam, x0, f0, -tangent, tols, step0, floor, cap, max_points
        )
        if closed_back:
            # hit the boundary one way but closed the other: inconsistent
            raise ConvergenceError(
                "fiber closed in one direction but met the boundary in the other"
            )
        points = np.asarray(backward[::-1] + forward[1:])
        f_norms = back_norms + f_norms[1:]
        topology = "segment"
        boundary_distances = (
            float(sys.domain.boundary_distance(points[0])),
            float(sys.domain.boundary_distance(points[-1])),
        )

    arclength = float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))
    return FiberTrace(
        lam=lam,
        points=points,
        topology=topology,
        arclength=arclength,
        endpoint_boundary_distances=boundary_distances,
        max_f_residual=max([0.0] + f_norms),
    )
