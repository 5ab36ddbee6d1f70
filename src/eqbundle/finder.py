"""Equilibrium location, level-set enumeration, and fiber tracing.

The square solve targets F(x) = [f(lambda, x); h(x) - a] = 0 whose
stacked Jacobian [df/dx; dh/dx] has full column rank n at transversal
points, so a least-squares Newton step is the exact Newton step there.
_level_set defines F and that Jacobian once, for newton_lanes and for
_correct, and every step is one batched linalg._solve_rows call on the
augmented stack [df/dx; dh/dx | -F], written once per iteration.
Enumeration runs the damped, global newton_lanes from every point of a
low-discrepancy sequence at once, as lanes of one lockstep kernel whose
running state is compact, cut only when lanes stop.  The sequence's
random shift is numpy's default_rng draw, computed in Python integers
(_pcg64_random), so that no run imports numpy.random for it.  It
deduplicates by clustering, and evaluates, as one stack, and audits
only the kept points.  A lane whose ||F|| stays far above its target
and falls by less than 1 % in 5 iterations ends early as "no
progress", so an empty level costs a few iterations per start, not the
iteration cap.  Fibers (k = 1 only) are
traced by predictor-corrector continuation from the kernel of df/dx at
the start along each kept step's chord, whose turn guards the step, in
one loop that also finds where the step that leaves the domain crosses
its boundary, by a secant on the domain's margin guarded by bisection.  The undamped, local _correct makes
every local projection:
the tracer's steps, the lift's starts and steps, and the eigen-loop's
midpoints; it marks each failed lane for retry or gives its fatal error.
One rule, _step_rule, retries, accepts or grows the tracer's and the
lift's steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .audit import AuditReport, _near_equilibrium, audit_point
from .errors import (
    COUNT_LIMIT,
    BranchPointError,
    ConvergenceError,
    DegeneracyError,
    EqBundleError,
    InputError,
    UnsupportedDimensionError,
    _scaled_norm,
    finite_array,
    finite_vector,
    non_negative_int,
    positive_int,
    stack_count,
    step_bounds,
    unit_sign,
)
from .linalg import _solve_rows, kernel_basis, numeric_rank
from .systems import (
    _BLOCKS,
    Evaluation,
    PointState,
    SystemSpec,
    _evaluate_rows,
    _in_box,
    _in_domain_rows,
    _slack,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


class EquilibriumPoint(NamedTuple):
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


class FiberTrace(NamedTuple):
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
    "no progress",
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
    NO_PROGRESS,
) = range(len(LANE_OUTCOMES))
_RUNNING = -1


class NewtonLanes(NamedTuple):
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
        if code == NO_PROGRESS:
            return ConvergenceError(
                f"Newton made no progress in {_STALL_WINDOW} iterations, "
                f"||F|| = {norm:.3e} at iteration {at}"
            )
        return self.details[lane]

    def solution(self, lane: int) -> np.ndarray:
        """x of a converged lane; raises the lane's typed error otherwise."""
        error = self.error(lane)
        if error is not None:
            raise error
        return self.x[lane].copy()


# The line search's step scales 1, 1/2, ..., 2^-24 in the rounds that
# newton_lanes evaluates as one stack each: 1, 8 and 16 trials.  Most lanes
# take the full step (98 % of rfmr(3)'s steps, 80 % of example2's), but on
# example2's empty levels a lane accepts 1 at 8 % of its steps, a scale of
# at least 2^-8 at 82 % and of at least 2^-16 at 99 %, so fewer, wider
# rounds save more stacked calls than their extra trials cost
_ALPHA_ROUNDS = np.split(np.ldexp(1.0, -np.arange(25)), [1, 9])

# A lane ends as "no progress" at the top of iteration it >= _STALL_WINDOW
# when ||F|| is above _STALL_FACTOR times its target and above _STALL_DROP
# times its ||F|| at iteration it - _STALL_WINDOW: Gauss-Newton crawling
# toward a minimum of ||F|| that is not a root (Dennis & Schnabel, Numerical
# Methods for Unconstrained Optimization and Nonlinear Equations, 1983,
# ch. 7).  Near a root ||F|| falls far faster than 1 % in 5 iterations.
_STALL_WINDOW = 5
_STALL_DROP = 0.99
_STALL_FACTOR = 1e3


def _lane_norm(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(row) of every row of v (B, p), bitwise.  The norm of a
    lone vector is the square root of a BLAS dot, which a pairwise sum of
    squares does not always reproduce; vecdot makes that dot per row."""
    return np.sqrt(np.vecdot(v, v))


def _level_set(sys: SystemSpec) -> tuple:
    """(residual, system) of the level-set system at every row of a stack
    y (R, n): residual(y, lam, a, errors) is F = [f(lam, y); h(y) - a] (R,
    n + k), and system(y, lam, a, errors) the augmented stack [df/dx; dh/dx
    | b] (R, n + k, n + 1) that linalg._solve_rows takes, a unused.  The
    Jacobian is written into it once, and its last column b is the
    caller's to write: -F for a Newton step, the lift's drive for its
    velocity.  lam and a are one shared vector or one row per row of y.
    As in the spec's stacked accessors, a row fails with the error of a
    lone evaluation: NaN, with its EqBundleError in errors (raised when
    None)."""
    n = sys.n

    def residual(y, lam, a, errors):
        return np.concatenate([sys.f_rows(lam, y, errors), sys.h_rows(y, errors) - a], axis=1)

    def system(y, lam, a, errors):
        out = np.empty((len(y), n + sys.k, n + 1))
        out[:, :n, :n] = sys.jac_x(lam, y, errors)
        out[:, n:, :n] = sys.jac_h(y, errors)
        return out

    return residual, system


# newton_lanes' iteration cap
NEWTON_MAX_ITER = 50


def newton_lanes(
    sys: SystemSpec,
    lam,
    a,
    starts,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_iter: int = NEWTON_MAX_ITER,
) -> NewtonLanes:
    """Damped Newton for [f(lam, x); h(x) - a] = 0 from every row of starts.

    The global solve of enumerate_level_points and newton_on_level_set,
    for starts that may lie far from a root.  The starts advance in
    lockstep as lanes of one (B, n) array, but each lane follows exactly
    the rule of a lone solve, so its result does not depend on the batch
    it ran in.  A lane converges when ||F|| <= newton_tol * (1 + ||x0||)
    at the top of one of max_iter iterations.
    F and its Jacobian [df/dx; dh/dx] come from _level_set, as in the
    lift's corrector.  Each iteration writes the running lanes' Jacobians
    beside -F into one augmented stack and takes their least-squares
    Newton steps in one _solve_rows call on it (a batched QR with a rank
    certificate, and a batched SVD for the rows it does not clear), which
    also decides each Jacobian's column rank: a lane ends as singular on a
    rank deficient Jacobian and with its InputError on a non-finite one.
    The line search scales the step by 1, 1/2, ..., 2^-24 and takes the
    first trial that stays in the domain box inflated by 5 % of the
    diameter, is finite, and lowers ||F||; a lane whose first such event
    is an evaluation error ends with that error.
    The trials run in rounds of 1, 8 and 16 scales, each round one stacked
    residual call for every lane still searching, so an iteration makes at
    most 3 stacked residual calls.  A lane keeps the first trial of a round
    in that order, so errors at trials a trial-by-trial search never
    reaches are ignored.  A lane that makes no progress ends early, as "no
    progress", at the top of iteration it >= 5 when ||F|| exceeds 1e3
    times its target and 0.99 times the lane's ||F|| at iteration it - 5:
    far from any root, the lane is crawling toward a minimum of ||F|| that
    is not zero.  Starts and converged points must lie in the domain
    within the one slack of _in_domain_rows, which scales domain_slack by
    1 + diameter.  Every lane ends with one of LANE_OUTCOMES; nothing is
    raised for a failed lane.

    The running lanes' x, F, ||F||, target and the ||F|| of their last 5
    iterations are compact arrays, one row per running lane, cut only
    when lanes stop; a lane's x and F go to its output rows once, when it
    stops.

    lam must be a finite vector of length m, and a and starts finite
    (InputError otherwise); the level a is one k-vector shared by every
    lane.
    """
    max_iter = positive_int(max_iter, "max_iter")
    lam = finite_vector(lam, sys.m, "lambda", "m")
    a = finite_array(a, "level a").reshape(-1)
    x = finite_array(starts, "starts").copy()
    if x.ndim != 2 or x.shape[1] != sys.n:
        raise InputError(f"starts must have shape (B, {sys.n}), got {x.shape}")
    if a.size != sys.k:
        raise InputError(f"level a has length {a.size}, expected k = {sys.k}")
    level_residual, level_system = _level_set(sys)
    count, n = x.shape
    status = np.full(count, _RUNNING)
    iteration = np.zeros(count, dtype=int)
    residual = np.full((count, n + sys.k), np.nan)
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

    def running(keep, *arrays):
        # the rows of keep of each running array, once the x and F of the
        # lanes that stopped are in their output rows
        ended = ~keep
        x[lanes[ended]], residual[lanes[ended]] = xs[ended], fs[ended]
        return [values[keep] for values in arrays]

    lanes = np.arange(count)
    inside, errors = _in_domain_rows(sys, x, tols)
    stop(lanes[~inside], START_OUTSIDE_DOMAIN, 0)
    record(lanes, errors, 0)
    lanes = lanes[status == _RUNNING]

    # the running lanes' state: row i is that of lane lanes[i]
    errors = {}
    xs = x[lanes]
    fs = level_residual(xs, lam, a, errors)
    keep = np.isfinite(fs).all(axis=1)
    stop(lanes[~keep], NONFINITE_RESIDUAL, 0)
    record(lanes, errors, 0)
    keep[list(errors)] = False
    ts = tols.newton * (1.0 + np.linalg.norm(xs, axis=1))
    if not keep.all():
        lanes, xs, fs, ts = running(keep, lanes, xs, fs, ts)
    # the trials' box: the domain box inflated by 5 % of its diameter
    margin = 0.05 * sys.domain.diameter()
    inflated = sys.domain.box + np.array([-margin, margin])
    # ||F|| of every running lane at the top of the last _STALL_WINDOW
    # iterations: at the top of iteration it, column it % _STALL_WINDOW
    # still holds that of iteration it - _STALL_WINDOW
    recent = np.empty((lanes.size, _STALL_WINDOW))
    # a norm past the float range (a level past 1e154) is inf: the lane stalls
    with np.errstate(over="ignore"):
        ns = _lane_norm(fs)
        for it in range(max_iter):
            done = ns <= ts
            stop(lanes[done], CONVERGED, it)
            slot = it % _STALL_WINDOW
            if it >= _STALL_WINDOW:
                stalled = (ns > _STALL_FACTOR * ts) & (ns > _STALL_DROP * recent[:, slot])
                stop(lanes[stalled], NO_PROGRESS, it)
                done |= stalled
            if done.any():
                lanes, xs, fs, ns, ts, recent = running(~done, lanes, xs, fs, ns, ts, recent)
            recent[:, slot] = ns
            if not lanes.size:
                break

            errors = {}
            system = level_system(xs, lam, a, errors)
            np.negative(fs, out=system[:, :, n])
            # a non-finite Jacobian is an InputError in errors
            step, deficient = _solve_rows(system, tols.rank, errors)
            if errors or deficient:
                record(lanes, errors, it)
                for row, err in deficient.items():
                    details[int(lanes[row])] = err.report
                    stop(lanes[row], SINGULAR, it)
                keep = np.ones(lanes.size, dtype=bool)
                keep[[*errors, *deficient]] = False
                lanes, xs, fs, ns, ts, recent, step = running(
                    keep, lanes, xs, fs, ns, ts, recent, step
                )

            pending = np.ones(lanes.size, dtype=bool)
            ended = np.zeros(lanes.size, dtype=bool)
            for alphas in _ALPHA_ROUNDS:
                rows = pending.nonzero()[0]
                every = rows.size == lanes.size
                base, toward = (xs, step) if every else (xs[rows], step[rows])
                # trial j of pending lane rows[i] is row i * alphas.size + j
                candidate = (base[:, None] + alphas[:, None] * toward[:, None]).reshape(-1, n)
                trying = _in_box(candidate, inflated, 0.0)
                errors = {}
                if trying.all():
                    trial = level_residual(candidate, lam, a, errors)
                else:
                    trial = np.full((candidate.shape[0], fs.shape[1]), np.nan)
                    trial[trying] = level_residual(candidate[trying], lam, a, errors)
                trial_norm = _lane_norm(trial)
                # a skipped or non-finite trial has a NaN or infinite norm and
                # fails the comparison; a running lane's ||F|| is above its
                # target, so a trial that meets the target lowers ||F||
                by_lane = trial_norm.reshape(rows.size, alphas.size)
                event = by_lane < (ns if every else ns[rows])[:, None]
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
                    ended[list(failed)] = True
                    hit &= pending[rows]
                take, first = rows[hit], first[hit]
                xs[take], fs[take], ns[take] = candidate[first], trial[first], trial_norm[first]
                pending[take] = False
                if not pending.any():
                    break
            else:
                stop(lanes[pending], LINE_SEARCH_STALLED, it)
                ended |= pending
            if ended.any():
                lanes, xs, fs, ns, ts, recent = running(~ended, lanes, xs, fs, ns, ts, recent)
        stop(lanes, MAX_ITERATIONS, max_iter)
        x[lanes], residual[lanes] = xs, fs

    converged = (status == CONVERGED).nonzero()[0]
    inside, errors = _in_domain_rows(sys, x[converged], tols)
    stop(converged[~inside], OUTSIDE_DOMAIN_AT_END)
    record(converged, errors)
    return NewtonLanes(
        x=x, status=status, iteration=iteration, residual=residual,
        max_iter=max_iter, details=details,
    )


def _equilibrium_points(sys, lam, points, tols) -> list:
    """The reported points at the converged (x, ||f||) pairs of points:
    each one's level, stacked rank and audit, all from its evaluation.  The
    evaluations are one stacked _evaluate_rows call, row i that of point
    i, each row the bits of a lone evaluate.  A point whose evaluation
    fails raises its error in its turn, so the first failing point's error
    is raised, as evaluating the points one by one would."""
    if not points:
        return []
    errors: dict = {}
    blocks = _evaluate_rows(
        sys, finite_vector(lam, sys.m, "lambda", "m"), np.array([x for x, _ in points]),
        _BLOCKS, errors,
    )
    found = []
    for row, (x, residual_f) in enumerate(points):
        if row in errors:
            raise errors[row]
        ev = Evaluation(PointState(lam, x), *(block[row] for block in blocks))
        stacked = np.concatenate([ev.jac_x, ev.jac_h])
        rank = numeric_rank(stacked, tols.rank)
        found.append(EquilibriumPoint(
            state=ev.point,
            residual_f=float(residual_f),
            level=ev.h_value,
            audit=audit_point(sys, ev, tols),
            stacked_rank=rank.rank,
            transversal=rank.rank == sys.n,
        ))
    return found


def newton_on_level_set(
    sys: SystemSpec,
    lam,
    a,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_iter: int = NEWTON_MAX_ITER,
) -> EquilibriumPoint:
    """Damped Newton for [f(lam, x); h(x) - a] = 0 from x0, audited.

    The one-lane call of newton_lanes, which documents the iteration.  A
    failed lane raises its typed error: InputError for a start outside
    the domain or a non-finite F(x0), DegeneracyError for a singular
    Newton system, ConvergenceError for a stalled line search, no
    progress in 5 iterations while ||F|| is far above its target, too many
    iterations or a solution outside the domain.  At the solution the
    column rank of the stacked Jacobian is recorded as a transversality
    certificate instead of raised.
    """
    x = finite_vector(x0, sys.n, "x0", "n")
    lanes = newton_lanes(sys, lam, a, x[None, :], tols, max_iter)
    return _equilibrium_points(sys, lam, [(lanes.solution(0), lanes.residual_f[0])], tols)[0]


def _golden(n: int) -> float:
    """The positive root g of g^(n+1) = g + 1, the golden ratio at n = 1:
    64 steps of the contraction g <- (1 + g)^(1/(n+1)) from 2, in Python
    floats."""
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (n + 1))
    return g


def level_starts(sys: SystemSpec, budget: int, seed: int) -> np.ndarray:
    """The multistart sample: budget quasirandom points in the domain box,
    the unit sample _unit_starts(n, budget, seed) scaled by u * (hi - lo)
    + lo.  A box of zero width in a coordinate puts every start on its
    edge.
    """
    lo, hi = sys.domain.box[:, 0], sys.domain.box[:, 1]
    return _unit_starts(sys.n, budget, seed) * (hi - lo) + lo


def _unit_starts(n: int, budget: int, seed: int) -> np.ndarray:
    """The multistart's unit sample: the first budget points of a randomly
    shifted Kronecker sequence in [0, 1)^n.

    Point t is frac(s + t * alpha), with alpha_i = g^-(i+1) for g =
    _golden(n) (the R_n sequence of Roberts, "The Unreasonable
    Effectiveness of Quasirandom Sequences", 2018) and the shift s drawn by
    _pcg64_random(seed, n): default_rng(seed).random(n) bit for bit,
    without importing numpy.random.  A longer sample starts with the
    shorter one.  g takes libm's scalar pow and the rest only IEEE basic
    operations, not numpy's vectorized power or exp, whose SIMD code may
    round otherwise, so every machine builds the same bits.
    """
    g = _golden(n)
    alpha = [1.0 / g]
    for _ in range(n - 1):
        alpha.append(alpha[-1] / g)
    shift = np.array(_pcg64_random(seed, n))
    v = shift + np.arange(budget)[:, None] * np.array(alpha)
    return v - np.floor(v)


# numpy's SeedSequence (numpy/random/bit_generator.pyx: the hash
# constants of its pool and of its output) and PCG64
# (numpy/random/src/pcg64), for _pcg64_random
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL_HASH, _OUTPUT_HASH = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: int, mult: int) -> tuple:
    """SeedSequence's hashmix of a 32-bit word: (its hash, the next const)."""
    value ^= const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _pcg64_random(seed: int, n: int) -> list:
    """np.random.default_rng(seed).random(n) bit for bit, for an int seed
    >= 0, in Python integers, so that a run need not import numpy.random.

    SeedSequence hashes the seed's 32-bit words, low first, into a pool of
    4 words and draws 8 words from it; those set PCG64's 128-bit state and
    increment (O'Neill, PCG, 2014).  Each float is the top 53 bits of one
    XSL-RR output, over 2^53.
    """
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const, mult = _POOL_HASH
    pool = []
    for word in (words + [0, 0, 0])[:4]:
        word, const = _hashmix(word, const, mult)
        pool.append(word)

    def mix(dst, value):
        nonlocal const
        value, const = _hashmix(value, const, mult)
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
        pool[dst] = mixed ^ mixed >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix(dst, word)
    const, mult = _OUTPUT_HASH
    drawn = []
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, mult)
        drawn.append(word)
    # four 64-bit words, low half first: PCG64's initial state, then its
    # stream, each high word first
    s0, s1, s2, s3 = (drawn[i] | drawn[i + 1] << 32 for i in range(0, 8, 2))
    increment = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((increment + (s0 << 64 | s1)) * _PCG64_MULTIPLIER + increment) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG64_MULTIPLIER + increment) & _M128
        word, turn = (state >> 64 ^ state) & _M64, state >> 122
        out.append((((word >> turn | word << (64 - turn)) & _M64) >> 11) / 2**53)
    return out


def _cluster_representatives(x, quality, converged, radius) -> list:
    """The lanes kept from the converged ones: in order of (quality, x),
    each lane farther than radius from every lane kept before it.  A
    stable lexsort over those keys orders finite rows as sorting the
    tuples does, and each kept lane drops every remaining lane within
    radius with one _lane_norm call."""
    lanes = np.flatnonzero(converged)
    remaining = lanes[np.lexsort(np.vstack([x[lanes, ::-1].T, quality[lanes]]))]
    kept: list = []
    while remaining.size:
        best, remaining = remaining[0], remaining[1:]
        kept.append(best)
        remaining = remaining[_lane_norm(x[remaining] - x[best]) > radius]
    return kept


# the multistart of enumerate_level_points and holonomy_loop: the number of
# starts and the seed of their sample
DEFAULT_BUDGET = 200
DEFAULT_SEED = 0


def enumerate_level_points(
    sys: SystemSpec,
    lam,
    a,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list:
    """Multistart Newton from level_starts' quasirandom sample of the
    domain box.

    All budget starts run as lanes of one newton_lanes call; budget is
    bounded by errors.stack_count, as it stacks budget Jacobians.  Converged
    points are deduplicated by clustering with radius cluster_tol *
    domain diameter, keeping the best-converged representative, and only
    the kept points are evaluated, as one stack, and audited.  They are
    returned sorted lexicographically by coordinates.  An empty result is a valid
    answer: either the level set carries no equilibria for this lambda
    or the budget missed every basin.
    """
    return _equilibrium_points(sys, lam, _level_points(sys, lam, a, budget, seed, tols), tols)


def _level_points(sys: SystemSpec, lam, a, budget, seed, tols: Tolerances) -> list:
    """The (x, ||f||) pairs of the points enumerate_level_points reports,
    in its order, without their evaluation or audit."""
    budget = stack_count(budget, "budget", sys.n)
    seed = non_negative_int(seed, "seed")
    lanes = newton_lanes(sys, lam, a, level_starts(sys, budget, seed), tols)
    residual_f = lanes.residual_f
    kept = _cluster_representatives(
        lanes.x, residual_f, lanes.status == CONVERGED, tols.cluster * sys.domain.diameter()
    )
    points = [(lanes.x[i].copy(), residual_f[i]) for i in kept]
    # lexicographic output order; rounding first makes the order stable
    # when distinct solutions share coordinates up to solver noise
    points.sort(key=lambda p: (tuple(np.round(p[0], 9)), tuple(p[0])))
    return points


# Iteration cap of _correct.  _step_rule retries a step after more than
# 3 iterations; the cap lets the fiber's boundary search take a few more.
_CORRECTOR_ITERATIONS = 8

# Bounds on a tracer step's turn, the cosine between its unit chord and
# its predictor's direction.  _step_rule retries a step that turns by more
# than about 5.7 degrees (_RETRY_TURN) and lets a 2-iteration step grow
# below about 3.6 degrees (_GROW_TURN).  A fiber's tangent at a kept point
# that turns from the chord into it past 60 degrees (_JUMP_TURN, the bound
# of the jump test moved > 2 * length) shows that chord left its branch.
_RETRY_TURN, _GROW_TURN, _JUMP_TURN = 0.995, 0.998, 0.5


def _step_rule(retry, iterations, moved, length, turn=math.nan) -> tuple:
    """The fiber tracer's and the lift's one rule on corrected steps, per
    lane: (retry, grow), boolean arrays.  Retry a step at half length when
    _correct marked its lane for retry, its correction took more than 3
    iterations, it landed farther (moved) from the step's start than twice
    the predictor's length, a jump to another branch, or its turn is below
    _RETRY_TURN.  Else accept it, and double the next step up to its cap
    (grow) when the correction took at most 1 iteration, or 2 with a turn
    above _GROW_TURN; grow is read on accepted steps only.  A lane without
    a chord, as in the lift, has turn NaN and neither test fires; the
    tracer's turn is the angle test on consecutive chords of den Heijer &
    Rheinboldt (SIAM J. Numer. Anal. 18, 1981).  A start off its fiber
    would count its own offset as a move, so the lift corrects its start
    before the first step; the lift also retries a step whose predictor
    leaves the domain (transport.lift_lanes)."""
    return (
        retry | (iterations > 3) | (moved > 2.0 * length) | (turn < _RETRY_TURN),
        (iterations <= 1) | ((iterations == 2) & (turn > _GROW_TURN)),
    )


def _corrector_results(y0: np.ndarray, p: int) -> tuple:
    count = len(y0)
    return y0.copy(), np.zeros(count, dtype=int), np.full((count, p), np.nan), np.ones(count, bool)


def _correct(residual, system, y0, tols, *lane_args):
    """Undamped Gauss-Newton for residual(y) = 0 from nearby starts, one
    lane per row of y0 (B, n).

    The one local projection: the tracer's steps onto _slice, and the
    lift's starts and steps and the eigen-loop's midpoints onto
    _level_set.  No lane is damped, has its start tested against the
    domain or ends for lack of progress.

    Each lane follows the rule of a lone solve: one solve_least_squares(
    J(y), -residual(y)) step per iteration until ||residual(y)|| <=
    newton_tol * (1 + ||y0||), at most _CORRECTOR_ITERATIONS steps.  The
    lanes run in lockstep.  residual(y, *args, errors) evaluates the stack
    y of the running lanes, (R, p), and system(y, *args, errors) writes
    their Jacobians J into an augmented stack (R, p, n + 1) whose last
    column _correct fills with -residual, with args the lane_args (one row
    per lane) cut to those lanes; each stores the EqBundleError of a row
    it cannot evaluate under that row in errors.  The steps of all running
    lanes are one _solve_rows call on that stack.

    Returns (y, iterations, resid, retry, fatal): per lane the corrected
    point, the iteration at which it converged and the residual there
    (arrays); retry, a boolean mask of the lanes that a closer start may
    fix: a non-finite residual, a rank-deficient Jacobian or no convergence
    in _CORRECTOR_ITERATIONS; and fatal {lane: error} for every other
    failed lane: the EqBundleError its evaluation raised, whatever its
    class, or InputError on a non-finite Jacobian, which a lone call would
    propagate.  A failed lane keeps its start as y.
    """
    count = len(y0)
    target = tols.newton * (1.0 + _lane_norm(y0))
    y, args = y0, lane_args
    fatal: dict = {}
    # the lane of each row and (y, iterations, resid, retry) of every lane,
    # kept once a lane ends before the others; a lane stays marked for
    # retry unless it converges or fails fatally
    lanes = out = None
    for iteration in range(_CORRECTOR_ITERATIONS + 1):
        errors: dict = {}
        resid = residual(y, *args, errors)
        norm = _lane_norm(resid)
        done = norm <= target
        converged = np.count_nonzero(done)
        if lanes is None and not errors and converged == count:
            return y, np.full(count, iteration), resid, np.zeros(count, dtype=bool), fatal
        # a finite norm means a finite residual: without an error or a
        # converged lane every lane just steps
        if (
            errors or converged or iteration == _CORRECTOR_ITERATIONS
            or not np.isfinite(norm).all()
        ):
            if lanes is None:
                lanes, out = np.arange(count), _corrector_results(y0, resid.shape[1])
            going = np.isfinite(resid).all(axis=1) & ~done
            for row, err in errors.items():
                fatal[int(lanes[row])] = err
                going[row] = done[row] = False
            ended = lanes[done]
            out[0][ended], out[1][ended], out[2][ended] = y[done], iteration, resid[done]
            out[3][ended] = False
            if iteration == _CORRECTOR_ITERATIONS:
                break
            y, resid, target, lanes, *args = (
                a[going] for a in (y, resid, target, lanes, *args)
            )
            if not lanes.size:
                break
        errors = {}
        stack = system(y, *args, errors)
        np.negative(resid, out=stack[:, :, -1])
        step, deficient = _solve_rows(stack, tols.rank, errors)
        y = y + step
        if errors or deficient:
            if lanes is None:
                lanes, out = np.arange(count), _corrector_results(y0, resid.shape[1])
            going = np.ones(lanes.size, dtype=bool)
            going[list(deficient)] = False
            for row, err in errors.items():
                fatal[int(lanes[row])] = err
                going[row] = False
            y, target, lanes, *args = (a[going] for a in (y, target, lanes, *args))
            if not lanes.size:
                break
    out[3][list(fatal)] = False
    return (*out, fatal)


def _slice(sys, lam):
    """Residual and system of [f(lam, y); tangent . (y - x_pred)] for
    _correct, with lane arguments x_pred and tangent: each lane's fiber cut
    by the hyperplane through its x_pred normal to its tangent.  The system
    is the augmented stack [df/dx; tangent | b] (R, n + 1, n + 1) with its
    last column b left to _correct."""
    n = sys.n

    def residual(y, x_pred, tangent, errors):
        cut = np.vecdot(y - x_pred, tangent)    # per row the lone BLAS dot
        return np.concatenate([sys.f_rows(lam, y, errors), cut[:, None]], axis=1)

    def system(y, x_pred, tangent, errors):
        out = np.empty((len(y), n + 1, n + 1))
        out[:, :n, :n] = sys.jac_x(lam, y, errors)
        out[:, n, :n] = tangent
        return out

    return residual, system


def _tangent_at(system, x, direction, tols):
    """The fiber's unit tangent at x, oriented along direction: tau of the
    bordered system [df/dx(x); direction^T] tau = e_{n+1} (Allgower &
    Georg, Numerical Continuation Methods, 2.1), one _solve_rows row of
    _slice's system, normalized; tau . direction = 1 orients it.  It is
    direction itself where that system is rank deficient, and the error of
    df/dx at x, or of its non-finite values, is raised."""
    errors: dict = {}
    stack = system(x[None], None, direction[None], errors)
    stack[:, :, -1] = 0.0
    stack[:, -1, -1] = 1.0
    tau, deficient = _solve_rows(stack, tols.rank, errors)
    if errors:
        raise errors[0]
    return direction if deficient else tau[0] / np.linalg.norm(tau[0])


def _march(sys, lam, x_start, f_start, t_start, tols, step0, min_step, max_step,
           max_points):
    """March one direction.  Returns (points, f_norms, closed): f_norms[i]
    is ||f(lam, points[i])|| (f_start at x_start) and closed means the walk
    returned to x_start (circle).  Each round corrects one prediction x +
    along * tangent from the last accepted point x, one lane of _correct,
    and raises the lane's fatal error.  tangent is t_start, the fiber's
    unit tangent at x_start, then the unit chord of the step kept, whose
    component along the tangent before it is the step.  along is the step,
    which _step_rule halves or accepts, with the step's turn (the chord's
    cosine with tangent), until a step leaves the domain.  A step retried
    for its turn re-aims tangent, once per point, along the fiber's tangent
    at x (_tangent_at); a tangent there that turns from the chord into x
    below _JUMP_TURN raises ConvergenceError, as that chord left its
    branch.  Then along probes the bracket (lo, hi) on
    that step, with x at lo, until hi - lo <= resolution = boundary_refine
    * max(1, step), and the last corrected point inside ends the direction:
    a probe whose corrected point is inside moves lo, and one outside, or
    whose correction is marked for retry, moves hi.  A probe is the
    Illinois (regula falsi) root of the signed margins (Domain.margin) of
    the points at lo and hi, moved 0.5 * resolution toward the end that
    the last probe did not move and kept at least that far inside the
    bracket.  It is the midpoint instead when the margins do not bracket a
    root (hi's correction was retried, or x is inside only within the
    start's slack) or when, after k probes, the bracket is wider than
    2**((1 - k) / 2) * step: it has not halved once per two probes.  So a
    direction's search makes at most about 2 * log2(step / resolution) + 3
    corrections, whatever the margin."""
    margin_of = sys.domain.margin
    fiber_slice = _slice(sys, lam)
    points = [x_start.copy()]
    f_norms = [f_start]
    x = x_start
    tangent = first_tangent = t_start
    aimed = True            # tangent is the fiber's tangent at x, not a chord
    step = step0
    # once a step has left the domain: the bracket [lo, hi] and the margins
    # at its ends, the end that the last probe moved (0 lo, 1 hi; the step
    # that left moved hi), the width above which the next probe bisects,
    # the resolution, and the last inside point with its ||f||
    bracket = boundary = None
    while len(points) < max_points:
        if bracket is None:
            if step < min_step:
                raise ConvergenceError(
                    f"fiber step collapsed below {min_step:.1e} near x = {x.tolist()}"
                )
            along = step
        else:
            lo, hi = bracket
            width = hi - lo
            if width <= resolution:
                if boundary is not None:
                    points.append(boundary[0])
                    f_norms.append(boundary[1])
                return points, f_norms, False
            m_lo, m_hi = margins
            if m_lo >= 0.0 > m_hi and width <= limit:
                shift = 0.5 * resolution if moved == 0 else -0.5 * resolution
                along = lo + width * m_lo / (m_lo - m_hi) + shift
                along = min(max(along, lo + 0.5 * resolution), hi - 0.5 * resolution)
            else:
                along = 0.5 * (lo + hi)
            limit /= math.sqrt(2.0)
        x_pred = (x + along * tangent)[None]
        y, iterations, resid, retry, fatal = _correct(
            *fiber_slice, x_pred, tols, x_pred, tangent[None]
        )
        if fatal:
            raise fatal[0]
        if bracket is not None:
            margin = math.nan if retry[0] else margin_of(y[0])
            end = 0 if margin >= 0.0 else 1
            if end == moved:        # Illinois: halve the margin of the end kept
                margins[1 - end] *= 0.5
            bracket[end], margins[end], moved = along, margin, end
            if end == 0:
                boundary = y[0], float(np.linalg.norm(resid[0, : sys.n]))
            continue
        y = y[0]
        chord = y - x
        distance = np.linalg.norm(chord)
        chord /= distance
        turn = chord @ tangent
        retry, grow = _step_rule(retry, iterations, distance, step, turn)
        if retry[0]:
            step *= 0.5
            if turn < _RETRY_TURN and not aimed:
                aim = _tangent_at(fiber_slice[1], x, tangent, tols)
                corner = aim @ tangent
                if corner < _JUMP_TURN:
                    raise ConvergenceError(
                        f"fiber trace turned by {math.degrees(math.acos(corner)):.1f} degrees "
                        f"at x = {x.tolist()}: the step into x left its branch"
                    )
                tangent, aimed = aim, True
            continue
        margin = margin_of(y)
        if not margin >= 0.0:
            bracket, margins, moved = [0.0, step], [margin_of(x), margin], 1
            limit = math.sqrt(2.0) * step
            resolution = max(tols.boundary_refine, 1e-15) * max(1.0, step)
            continue

        if (
            len(points) >= 5
            and np.linalg.norm(y - x_start) < 0.5 * step
            and float(chord @ first_tangent) > 0.9
        ):
            points.append(x_start.copy())
            f_norms.append(f_start)
            return points, f_norms, True

        points.append(y)
        f_norms.append(float(np.linalg.norm(resid[0, : sys.n])))
        x, tangent, aimed = y, chord, False
        if grow[0]:
            step = min(step * 2.0, max_step)
    raise ConvergenceError(
        f"fiber trace exceeded {max_points} points without closing or "
        "reaching the boundary"
    )


def _continuation_start(sys: SystemSpec, lam, x0, tols: Tolerances, what: str = "x0") -> tuple:
    """(x0, ||f(lam, x0)||) at the start of a fiber trace or a lift, or at
    an eigen-loop point: x0 a finite n-vector in the domain's box, an
    equilibrium at lam (_near_equilibrium), and inside the domain, each
    within the slack of _in_domain_rows.  The box is tested before f, which
    may overflow outside it.  what names the point in the messages."""
    x0 = finite_vector(x0, sys.n, what, "n")
    errors: dict = {}
    if _in_box(x0, sys.domain.box, _slack(sys.domain.diameter(), tols)):
        f0 = _scaled_norm(sys.f(lam, x0))
        _near_equilibrium(f0, x0, tols, what)
        inside, errors = _in_domain_rows(sys, x0[None], tols)
        if inside[0]:
            return x0, f0
    raise errors.get(0) or InputError(f"{what} {x0.tolist()} is not in the domain")


# trace_fiber's defaults: the min, initial and max steps as fractions of the
# domain diameter, the cap on the points of one direction, and the first
# direction
MIN_STEP_FRACTION, INITIAL_STEP_FRACTION, MAX_STEP_FRACTION = 1e-12, 0.01, 0.05
MAX_FIBER_POINTS = 20000
INITIAL_DIRECTION = 1


def fiber_steps(sys: SystemSpec, min_step, initial_step, max_step) -> tuple:
    """trace_fiber's steps as floats (min, initial, max), each None meaning
    its *_STEP_FRACTION times the domain diameter.  InputError unless they
    are finite and 0 < min_step <= initial_step <= max_step."""
    diameter = sys.domain.diameter()
    return step_bounds(
        MIN_STEP_FRACTION * diameter if min_step is None else min_step,
        INITIAL_STEP_FRACTION * diameter if initial_step is None else initial_step,
        MAX_STEP_FRACTION * diameter if max_step is None else max_step,
        "step",
    )


def trace_fiber(
    sys: SystemSpec,
    lam,
    x0,
    tols: Tolerances = DEFAULT_TOLERANCES,
    initial_step: Optional[float] = None,
    max_step: Optional[float] = None,
    min_step: Optional[float] = None,
    max_points: int = MAX_FIBER_POINTS,
    initial_direction: int = INITIAL_DIRECTION,
) -> FiberTrace:
    """Trace the connected fiber of {f(lam, .) = 0} through x0 (k = 1 only).

    Predicts along the unit kernel vector of df/dx at x0, signed so that
    its largest |coordinate| (the first, on ties) is positive, times
    initial_direction, then along the unit chord of each kept step (the
    secant predictor; Allgower & Georg, Numerical Continuation Methods),
    and corrects by _correct in the hyperplane orthogonal to the
    prediction; a crossing branch is traced through.  The lift's rule,
    _step_rule with the step as the predictor's length and the step's turn,
    retries a step at half length or keeps it and may double the next, up
    to max_step; a step retried for its turn predicts along the fiber's
    tangent instead of the chord, and a tangent that shows the last chord
    left its branch ends the trace with ConvergenceError (_march).  Ends
    either by closing into a circle or by hitting the domain boundary in
    both directions (segment).
    The steps default to INITIAL_STEP_FRACTION, MAX_STEP_FRACTION and
    MIN_STEP_FRACTION times the domain diameter and must satisfy
    0 < min_step <= initial_step <= max_step (fiber_steps); the initial
    direction is 1 or -1.
    """
    if sys.k != 1:
        raise UnsupportedDimensionError(
            f"fiber tracing needs k = 1, system has k = {sys.k}"
        )
    lam = finite_vector(lam, sys.m, "lambda", "m")
    floor, step0, cap = fiber_steps(sys, min_step, initial_step, max_step)
    max_points = positive_int(max_points, "max_points", COUNT_LIMIT)
    sign = unit_sign(initial_direction, "initial_direction")
    x0, f0 = _continuation_start(sys, lam, x0, tols)
    kernel = kernel_basis(sys.jac_x(lam, x0), tols.rank)
    if kernel.shape[1] != 1:
        raise BranchPointError(
            f"kernel of df/dx has dimension {kernel.shape[1]}, expected 1 at the starting point",
            location=PointState(lam, x0.copy()),
        )
    tangent = kernel[:, 0] / np.linalg.norm(kernel[:, 0])
    # direction 1 walks where the largest |coordinate| is positive (the
    # first largest on ties), whatever sign LAPACK gives the kernel
    tangent *= sign * math.copysign(1.0, tangent[np.argmax(np.abs(tangent))])

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
