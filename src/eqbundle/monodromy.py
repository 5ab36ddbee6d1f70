"""Eigenvalue monodromy along loops of matrices and fiber loops.

At a non-degenerate equilibrium the Jacobian df/dx carries exactly k zero
eigenvalues (one per first integral); the remaining p = n - k eigenvalues are
bounded away from zero.  Following those p eigenvalues continuously around a
closed loop yields a permutation (which eigenvalue returns to which) and an
integer winding number per track (net turns around 0 in the complex plane).
This module splits spectra, tracks them along matrix and fiber loops in one
refining loop that splits each sample's spectrum once, and reports the
(permutation, windings) datum together with imaginary-axis crossing counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    EqBundleError, InputError, ResolutionError, TrackingError, closed_loop, finite_array,
    finite_vector, matrix_loop, non_negative_int, waypoint_path,
)
from .finder import newton_lanes
from .linalg import eigen_dense
from .systems import PointState, SystemSpec, _evaluate_point
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "SpectrumSplit",
    "EigenLoopReport",
    "StabilitySignature",
    "split_spectrum",
    "track_matrix_loop",
    "eigen_along_fiber_loop",
    "stability_signature",
    "assignment",
]

_LEAVES_CSTAR = "winding undefined, path leaves C*"


@dataclass(frozen=True)
class SpectrumSplit:
    """Spectrum of a Jacobian partitioned into structural zeros and the rest.

    gap_ratio is (smallest nonzero modulus) / (largest zero modulus), with
    the denominator floored to avoid division by zero; it is 0.0 when there
    are no nonzero eigenvalues to separate.
    """

    zeros: tuple[complex, ...]
    nonzeros: tuple[complex, ...]
    gap_ratio: float
    tol_zero_used: float
    unreliable: bool

    def as_dict(self) -> dict:
        return {
            "zeros": [[z.real, z.imag] for z in self.zeros],
            "nonzeros": [[z.real, z.imag] for z in self.nonzeros],
            "gap_ratio": self.gap_ratio,
            "tol_zero_used": self.tol_zero_used,
            "unreliable": self.unreliable,
        }


def split_spectrum(
    J: np.ndarray,
    k: int,
    tol_zero: Optional[float] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> SpectrumSplit:
    """Classify the k smallest-modulus eigenvalues of J as structural zeros.

    tol_zero defaults to tols.zero_factor times the spectral radius.  The
    split never fails; instead it is flagged unreliable when a classified
    zero exceeds tol_zero or the zero/nonzero modulus gap is narrower than
    tols.gap_min.
    """
    J = finite_array(J, "J")
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise InputError(f"expected a square matrix, got shape {J.shape}")
    n = J.shape[0]
    k = non_negative_int(k, "k")
    if k > n:
        raise InputError(f"k = {k} is out of range for an {n} x {n} matrix")
    zeros, nonzeros, gap_ratio, tol_zero_used, unreliable = _split(J, k, tol_zero, tols)
    return SpectrumSplit(
        zeros=tuple(complex(z) for z in zeros),
        nonzeros=tuple(complex(z) for z in nonzeros),
        gap_ratio=gap_ratio,
        tol_zero_used=tol_zero_used,
        unreliable=unreliable,
    )


def _split(J: np.ndarray, k: int, tol_zero: Optional[float], tols: Tolerances) -> tuple:
    """split_spectrum's fields for a valid (J, k), the zeros and nonzeros as
    arrays in eigen_dense's (real, imag) order, so the spectrum is sorted once."""
    eigs = eigen_dense(J)
    moduli = np.abs(eigs)
    tiny = float(np.finfo(float).tiny)
    if tol_zero is None:
        tol_zero = tols.zero_factor * max(float(np.max(moduli, initial=0.0)), tiny)
    # the k smallest moduli, ties going to the earlier eigenvalue
    is_zero = np.zeros(eigs.size, dtype=bool)
    is_zero[np.argsort(moduli, kind="stable")[:k]] = True
    largest_zero = float(np.max(moduli[is_zero], initial=0.0))
    gap_ratio = 0.0
    if k < eigs.size:
        gap_ratio = float(np.min(moduli[~is_zero])) / max(largest_zero, tiny)
    unreliable = (k < eigs.size and gap_ratio < tols.gap_min) or (
        k > 0 and largest_zero > tol_zero
    )
    return eigs[is_zero], eigs[~is_zero], gap_ratio, float(tol_zero), bool(unreliable)


@dataclass(frozen=True)
class EigenLoopReport:
    """Monodromy datum of the nonzero spectrum along a closed loop.

    permutation[i] = j means the track that started at nonzero eigenvalue i
    (base spectrum sorted by real part, then imaginary part) ends at
    eigenvalue j of that same base spectrum.  windings[i] is the net number
    of counterclockwise turns of track i around the origin.
    re_axis_crossings[i] counts sign changes of Re along track i.
    """

    permutation: tuple[int, ...]
    windings: tuple[int, ...]
    re_axis_crossings: tuple[int, ...]
    min_distance_to_zero: float
    samples_used: int
    flags: tuple[str, ...]
    tol_zero_used: float

    def as_dict(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "windings": list(self.windings),
            "crossings": list(self.re_axis_crossings),
            "min_distance_to_zero": self.min_distance_to_zero,
            "samples_used": self.samples_used,
            "flags": list(self.flags),
            "tol_zero_used": self.tol_zero_used,
        }


def _chord_distance_to_origin(a: complex, b: complex) -> float:
    """Distance from 0 to the segment [a, b] in the complex plane."""
    d = b - a
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(a)
    t = -(a.real * d.real + a.imag * d.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(a + t * d)


def assignment(cost: np.ndarray) -> np.ndarray:
    """Columns of a minimum-cost perfect matching of a square cost matrix.

    Row i is matched to column assignment(cost)[i].  Ties are broken as
    the reference solver pinned by tests/test_oracles.py breaks them, so
    tracks that meet exactly (a real pair turning complex) are always
    matched the same way.  When the row minima lie in distinct columns and
    each is attained once, that matching is the unique optimum and is
    returned as it is.  Otherwise the shortest augmenting path solver of
    Crouse (IEEE TAES 52(4), 2016) runs with the reference's tie rules:
    the unscanned columns are scanned from the last one down, with the
    scanned one replaced by the last, and among equally short paths one
    that reaches a free column wins.
    """
    cost = np.asarray(cost, dtype=float)
    p = cost.shape[0]
    if cost.shape != (p, p):
        raise InputError(f"expected a square cost matrix, got shape {cost.shape}")
    cols = cost.argmin(axis=1)
    # p entries equal their row's minimum exactly when every row minimum is
    # attained once; a NaN row never counts
    if (
        len(set(cols.tolist())) == p
        and np.count_nonzero(cost == cost.min(axis=1, keepdims=True)) == p
    ):
        return cols
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise InputError("cost matrix contains NaN or -inf")
    return np.array(_shortest_augmenting_paths(cost.tolist()), dtype=np.intp)


def _shortest_augmenting_paths(cost: list) -> list:
    """Crouse's solver on a square matrix given as a list of rows, with
    every reduced cost and dual update in the reference's order of
    operations, in Python floats (IEEE doubles)."""
    p = len(cost)
    inf = float("inf")
    u = [0.0] * p
    v = [0.0] * p
    path = [-1] * p
    col4row = [-1] * p
    row4col = [-1] * p
    for cur_row in range(p):
        # Dijkstra from cur_row over reduced costs, until a free column
        min_val = 0.0
        remaining = list(range(p - 1, -1, -1))
        scanned_rows, scanned_cols = [], []
        shortest = [inf] * p
        i = cur_row
        sink = -1
        while sink == -1:
            index = -1
            lowest = inf
            scanned_rows.append(i)
            row, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                s = shortest[j]
                r = min_val + row[j] - u_i - v[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == inf:
                raise InputError("cost matrix admits no finite matching")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in scanned_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


class _LoopTracker:
    """Sequential fold that carries p eigenvalue tracks along the loop;
    refine(left, right) gives the (payload, matrix) between two samples."""

    def __init__(self, base: np.ndarray, k: int, tol_zero: float, tols: Tolerances,
                 refine: Callable, max_refine: int):
        self.k = k
        self.tol_zero = tol_zero
        self.tols = tols
        self.refine = refine
        self.max_refine = max_refine
        self.values = base.copy()
        self.previous = base.copy()  # two-point history for extrapolation
        self.accumulated = np.zeros(base.size)
        self.crossings = np.zeros(base.size, dtype=int)
        self.last_sign = np.sign(base.real).astype(int)
        self.min_distance = float(np.min(np.abs(base)))
        self.samples_used = 1
        self.flags: list[str] = []

    def flag_once(self, message: str) -> None:
        if message not in self.flags:
            self.flags.append(message)

    def match(self, candidates: np.ndarray) -> np.ndarray:
        predicted = 2.0 * self.values - self.previous
        cost = np.abs(predicted[:, None] - candidates[None, :])
        return candidates[assignment(cost)]

    def accept(self, matched: np.ndarray, dargs: np.ndarray) -> None:
        self.accumulated += dargs
        self.previous = self.values
        self.values = matched
        self.min_distance = min(self.min_distance, float(np.min(np.abs(matched))))
        # a sign of 0 (on the axis) neither counts nor resets the last sign
        signs = np.sign(matched.real).astype(int)
        self.crossings += signs * self.last_sign < 0
        self.last_sign = np.where(signs != 0, signs, self.last_sign)
        self.samples_used += 1

    def advance(self, left_payload, right_payload, right_matrix: np.ndarray,
                depth: int, segment: tuple[int, int]) -> None:
        _, candidates, _, _, unreliable = _split(
            right_matrix, self.k, self.tol_zero, self.tols
        )
        if unreliable:
            self.flag_once("unreliable zero/nonzero split encountered along the loop")
        matched = self.match(candidates)
        small = np.abs(matched) <= self.tol_zero
        if np.any(small):
            idx = int(np.argmax(small))
            raise TrackingError(
                f"{_LEAVES_CSTAR}: tracked eigenvalue {idx} has modulus "
                f"{abs(matched[idx]):.3e} <= tol_zero = {self.tol_zero:.3e}",
                segment=segment,
            )
        dargs = np.angle(matched * np.conj(self.values))
        movement = float(np.max(np.abs(matched - self.values)))
        if candidates.size > 1:
            pair_gaps = np.abs(candidates[:, None] - candidates[None, :])
            min_gap = float(np.min(pair_gaps[~np.eye(candidates.size, dtype=bool)]))
        else:
            min_gap = np.inf
        needs_refine = np.any(np.abs(dargs) >= 0.5 * np.pi) or movement > 0.5 * min_gap
        if needs_refine and depth < self.max_refine:
            # a refiner that cannot produce a midpoint (e.g. Newton hits a
            # singular point between the samples) degrades to the coarse step,
            # whose certification below reports what actually went wrong
            try:
                mid_payload, mid_matrix = self.refine(left_payload, right_payload)
            except EqBundleError:
                pass
            else:
                self.advance(left_payload, mid_payload, mid_matrix, depth + 1, segment)
                self.advance(mid_payload, right_payload, right_matrix, depth + 1, segment)
                return
        # accepting this increment as-is: certify it first
        for i in range(matched.size):
            if _chord_distance_to_origin(complex(self.values[i]),
                                         complex(matched[i])) <= self.tol_zero:
                raise TrackingError(
                    f"{_LEAVES_CSTAR}: the step of tracked eigenvalue {i} passes "
                    f"within tol_zero = {self.tol_zero:.3e} of the origin",
                    segment=segment,
                )
        if np.any(np.abs(dargs) >= 0.5 * np.pi):
            raise ResolutionError(
                "eigenvalue tracking could not certify an argument increment "
                f"below pi/2 after {self.max_refine} refinement levels",
                segment=segment,
            )
        self.accept(matched, dargs)


def _blend_matrices(a: np.ndarray, b: np.ndarray):
    mid = 0.5 * (a + b)
    return mid, mid


def _track(matrices: Sequence[np.ndarray], payloads: Sequence, refine: Callable, k: int,
           tol_zero: Optional[float], tols: Tolerances, max_refine: int) -> EigenLoopReport:
    """The monodromy datum of a closed loop of finite n x n matrices, for
    0 <= k <= n and max_refine >= 0; refine takes payloads[i], payloads[i+1]."""
    _, base, _, tol_fixed, unreliable = _split(matrices[0], k, tol_zero, tols)
    if base.size == 0:
        raise InputError("no nonzero eigenvalues to track (k equals the dimension)")
    if np.min(np.abs(base)) <= tol_fixed:
        raise TrackingError(
            f"{_LEAVES_CSTAR}: a base nonzero eigenvalue already has modulus "
            f"<= tol_zero = {tol_fixed:.3e}",
            segment=(0, 0),
        )
    tracker = _LoopTracker(base, k, tol_fixed, tols, refine, max_refine)
    if unreliable:
        tracker.flag_once("unreliable zero/nonzero split encountered along the loop")
    for i in range(len(matrices) - 1):
        tracker.advance(payloads[i], payloads[i + 1], matrices[i + 1], 0, (i, i + 1))

    # closure: map each track back to the base spectrum it started from
    cols = assignment(np.abs(tracker.values[:, None] - base[None, :]))
    permutation = tuple(int(c) for c in cols)
    mismatch = float(np.max(np.abs(tracker.values - base[cols])))
    scale = float(np.max(np.abs(base)))
    if mismatch > 1e-6 * (1.0 + scale):
        tracker.flag_once(
            f"final spectrum differs from the base spectrum by {mismatch:.3e}"
        )
    end_args = np.angle(base[cols])
    start_args = np.angle(base)
    principal = np.angle(np.exp(1j * (end_args - start_args)))
    windings = np.rint((tracker.accumulated - principal) / (2.0 * np.pi)).astype(int)
    return EigenLoopReport(
        permutation=permutation,
        windings=tuple(int(w) for w in windings),
        re_axis_crossings=tuple(int(c) for c in tracker.crossings),
        min_distance_to_zero=tracker.min_distance,
        samples_used=tracker.samples_used,
        flags=tuple(tracker.flags),
        tol_zero_used=tol_fixed,
    )


def track_matrix_loop(
    matrices: Sequence[np.ndarray],
    k: int = 0,
    tol_zero: Optional[float] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_refine: int = 8,
) -> EigenLoopReport:
    """Track the nonzero eigenvalues along a closed loop of square matrices.

    The first and last matrices must agree within 1e-12 relative to the
    first's norm.  Each sample's spectrum is computed, sorted and split
    once.  Per step, the new nonzero spectrum is matched to the existing
    tracks by optimal assignment against a linear extrapolation of each
    track; an interval is halved (by the linear blend of its two matrices)
    whenever an argument increment reaches pi/2 or the largest movement
    exceeds half the smallest gap between new eigenvalues.  tol_zero is
    fixed once from the base matrix (tols.zero_factor times its spectral
    radius); any tracked eigenvalue whose modulus, or whose step chord,
    comes within tol_zero of the origin aborts the loop, since its winding
    number is then undefined.
    """
    mats, k = matrix_loop(matrices, k)
    max_refine = non_negative_int(max_refine, "max_refine")
    return _track(mats, mats, _blend_matrices, k, tol_zero, tols, max_refine)


def eigen_along_fiber_loop(
    sys: SystemSpec,
    lam,
    loop_points: Sequence,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_refine: int = 8,
) -> EigenLoopReport:
    """Track the nonzero Jacobian eigenvalues along a closed loop of
    equilibria on one fiber.

    Every loop point must be an equilibrium of f(lam, .) within tolerance
    and the first and last points must agree within 1e-9 relative to the
    first's norm (their Jacobians need not agree more closely).  When the tracker needs
    intermediate samples, linear blends of neighboring loop points are
    projected back onto the equilibrium set at the interpolated first
    integral level by Newton at fixed lam.
    """
    lam = finite_vector(lam, sys.m, "lambda", "m")
    points = waypoint_path(loop_points, sys.n, "loop_points", "n")
    closed_loop(points, "loop points")
    max_refine = non_negative_int(max_refine, "max_refine")

    matrices = []
    levels = []
    for i, x in enumerate(points):
        f_value, h_value, jac_x = _evaluate_point(sys, PointState(lam, x), ("f", "h", "jac_x"))
        residual = float(np.linalg.norm(f_value))
        scale = 1.0 + float(np.linalg.norm(x))
        if residual > 10.0 * tols.equilibrium * scale:
            raise InputError(
                f"loop point {i} is not an equilibrium: ||f|| = {residual:.3e}"
            )
        matrices.append(jac_x)
        levels.append(h_value)

    def refine(left, right):
        x_guess = 0.5 * (left[0] + right[0])
        a_mid = 0.5 * (left[1] + right[1])
        x_mid = newton_lanes(sys, lam, a_mid, x_guess[None, :], tols).solution(0)
        h_value, jac_x = _evaluate_point(sys, PointState(lam, x_mid), ("h", "jac_x"))
        return (x_mid, h_value), jac_x

    return _track(matrices, list(zip(points, levels)), refine, sys.k, None, tols, max_refine)


@dataclass(frozen=True)
class StabilitySignature:
    """Per-track lower bounds on imaginary-axis crossings.

    A track with winding number m must cross Re = 0 at least 2|m| times, so
    the bound is max(2|m|, observed crossings); exceeds_winding_bound marks
    tracks whose observed count is strictly above 2|m|.
    """

    bounds: tuple[int, ...]
    exceeds_winding_bound: tuple[bool, ...]

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "exceeds_winding_bound": list(self.exceeds_winding_bound),
        }


def stability_signature(report: EigenLoopReport) -> StabilitySignature:
    bounds = []
    exceeds = []
    for m, observed in zip(report.windings, report.re_axis_crossings):
        floor = 2 * abs(m)
        bounds.append(max(floor, observed))
        exceeds.append(observed > floor)
    return StabilitySignature(bounds=tuple(bounds), exceeds_winding_bound=tuple(exceeds))
