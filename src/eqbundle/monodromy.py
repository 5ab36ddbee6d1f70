"""Eigenvalue monodromy along loops of matrices and fiber loops.

At a non-degenerate equilibrium the Jacobian df/dx carries exactly k zero
eigenvalues (one per first integral); the remaining p = n - k eigenvalues are
bounded away from zero.  Following those p eigenvalues continuously around a
closed loop yields a permutation (which eigenvalue returns to which) and an
integer winding number per track (net turns around 0 in the complex plane).
This module splits spectra, tracks them along matrix and fiber loops in one
refining loop that splits each distinct sample's spectrum once, in stacks of
samples (fiber loop midpoints are finder._correct lanes), and reports the
(permutation, windings) datum with imaginary-axis crossing counts.  The
tracks are folded a window of intervals at a time: one exact step, then
one stacked matching of the run of steps that follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConvergenceError, EqBundleError, InputError, ResolutionError, TrackingError,
    closed_loop, finite_array, finite_vector, matrix_loop, non_negative_int, positive_float,
    waypoint_path,
)
from .finder import _continuation_start, _correct, _level_set
from .linalg import eigen_dense
from .systems import SystemSpec, _evaluate_rows, _in_domain_rows
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "SpectrumSplit",
    "EigenLoopReport",
    "split_spectrum",
    "track_matrix_loop",
    "eigen_along_fiber_loop",
    "assignment",
]

_LEAVES_CSTAR = "winding undefined, path leaves C*"
_TINY = float(np.finfo(float).tiny)
# The fold squares distances between eigenvalues and multiplies them in
# pairs: moduli below this keep both (4e300 at most) inside the float range.
_LARGEST_MODULUS = 1e150
# the midpoint of _LoopTracker.midpoints_of that repeats an endpoint's spectrum
_REPEATED_SPECTRUM = EqBundleError("the midpoint repeats an endpoint's spectrum")
# the most leaf intervals _LoopTracker.window matches in one stack, so its
# temporaries stay O(_WINDOW p^2) however long the loop
_WINDOW = 64


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

    tol_zero, a positive finite number, defaults to tols.zero_factor times
    the spectral radius.  The split never fails; instead it is flagged
    unreliable when a classified zero exceeds tol_zero or the zero/nonzero
    modulus gap is narrower than tols.gap_min.
    """
    J = finite_array(J, "J")
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise InputError(f"expected a square matrix, got shape {J.shape}")
    n = J.shape[0]
    k = non_negative_int(k, "k")
    if k > n:
        raise InputError(f"k = {k} is out of range for an {n} x {n} matrix")
    tol_zero = None if tol_zero is None else positive_float(tol_zero, "tol_zero")
    zeros, nonzeros, gap_ratio, unreliable, _, tol_zero_used = _split(
        eigen_dense(J)[None], k, tol_zero, tols
    )
    return SpectrumSplit(
        zeros=tuple(complex(z) for z in zeros[0]),
        nonzeros=tuple(complex(z) for z in nonzeros[0]),
        gap_ratio=float(gap_ratio[0]),
        tol_zero_used=tol_zero_used,
        unreliable=bool(unreliable[0]),
    )


def _split(eigs: np.ndarray, k: int, tol_zero: Optional[float], tols: Tolerances) -> tuple:
    """split_spectrum's fields for every row of a stack of spectra (S, n),
    each in eigen_dense's (real, imag) order, so a spectrum is sorted once:
    zeros (S, k) and nonzeros (S, n - k), each keeping that order,
    gap_ratio (S,), unreliable (S,), min_gap (S,), the smallest distance
    between two nonzeros of a row (inf for fewer than two), and tol_zero,
    taken from the first row when None."""
    count, n = eigs.shape
    moduli = np.abs(eigs)
    if tol_zero is None:
        tol_zero = tols.zero_factor * max(float(np.max(moduli[0], initial=0.0)), _TINY)
    # the k smallest moduli of a row, ties going to the earlier eigenvalue
    is_zero = np.zeros(eigs.shape, dtype=bool)
    is_zero[np.arange(count)[:, None], np.argsort(moduli, axis=1, kind="stable")[:, :k]] = True
    zeros = eigs[is_zero].reshape(count, k)
    nonzeros = eigs[~is_zero].reshape(count, n - k)
    largest_zero = np.max(moduli[is_zero].reshape(count, k), axis=1, initial=0.0)
    # 0.0 when k = 0, which no tolerance (>= 0) exceeds
    unreliable = largest_zero > tol_zero
    gap_ratio = np.zeros(count)
    if k < n:
        # inf or NaN past the float range, as a lone float division gives
        with np.errstate(over="ignore", invalid="ignore"):
            gap_ratio = np.min(moduli[~is_zero].reshape(count, n - k), axis=1) / np.maximum(
                largest_zero, _TINY
            )
        unreliable |= gap_ratio < tols.gap_min
    gaps = np.abs(nonzeros[:, :, None] - nonzeros[:, None, :])
    diagonal = np.arange(n - k)
    gaps[:, diagonal, diagonal] = np.inf
    min_gap = gaps.min(axis=(1, 2), initial=np.inf)
    return zeros, nonzeros, gap_ratio, unreliable, min_gap, float(tol_zero)


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


def _chord_clears(start: np.ndarray, end: np.ndarray, step: np.ndarray,
                  tol: float) -> np.ndarray:
    """Whether each chord, given by the moduli of its ends and its length,
    stays farther than tol from 0 by the bound dist(0, [a, b]) >=
    max(|a|, |b|) - |b - a|, with a relative margin of 1e-12 (and an
    absolute one of the smallest normal float) far above the rounding of
    the moduli and of _chord_distance_to_origin, so a cleared chord is one
    that _chord_distance_to_origin puts above tol."""
    return np.maximum(start, end) * (1.0 - 1e-12) - step * (1.0 + 1e-12) > tol + _TINY


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
    that reaches a free column wins.  A 2 x 2 cost without NaN or -inf
    skips both: _two_rows is that solver unrolled for two rows.
    """
    cost = np.asarray(cost, dtype=float)
    p = cost.shape[0]
    if cost.shape != (p, p):
        raise InputError(f"expected a square cost matrix, got shape {cost.shape}")
    if p == 2:
        (a, b), (c, d) = cost.tolist()
        # a cost with NaN or -inf is left to the certificate and its check
        if -math.inf < a and -math.inf < b and -math.inf < c and -math.inf < d:
            return np.array(_two_rows(a, b, c, d), dtype=np.intp)
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


def _two_rows(a: float, b: float, c: float, d: float) -> tuple:
    """_shortest_augmenting_paths on the cost [[a, b], [c, d]] (no NaN or
    -inf), unrolled: its comparisons, in its scan order, on the reduced
    costs it forms, so ties and near ties go the same way."""
    if a <= b:                      # row 0 takes column 0, then row 1 ...
        if c < d:                   # ... reaches it too, and row 0 moves on
            moved = c + b - a       # row 0's reduced cost of column 1
            cols, last = ((1, 0) if moved < d else (0, 1)), min(moved, d)
        else:
            cols, last = (0, 1), d
    elif c <= d:                    # row 0 takes column 1, row 1 column 0
        cols, last = (1, 0), c
    else:                           # row 1 reaches column 1 too, row 0 moves on
        moved = d + a - b
        cols, last = ((0, 1) if moved < c else (1, 0)), min(moved, c)
    if min(a, b) == math.inf or last == math.inf:
        raise InputError("cost matrix admits no finite matching")
    return cols


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


@dataclass(eq=False, slots=True)
class _Sample:
    """A loop sample: the refiner's payload and its nonzero spectrum, split
    once.  A sample whose spectrum could not be computed holds that error
    instead, which the fold raises if it reaches the sample.  Samples
    compare and hash by identity, so a pair of them keys the cache.  The
    given samples whose payloads have equal bytes are one sample, and each
    midpoint made is a new one."""

    payload: object
    nonzeros: np.ndarray
    unreliable: bool
    min_gap: float
    largest: float              # the largest modulus in nonzeros
    smallest: float             # the smallest one
    error: Optional[Exception]


def _check_moduli(sample: _Sample, segment: tuple) -> None:
    """InputError when the fold reaches a sample whose eigenvalues are too
    large for it to square their distances."""
    if sample.largest >= _LARGEST_MODULUS:
        raise InputError(
            f"eigenvalue tracking needs moduli below {_LARGEST_MODULUS:.0e}, and the "
            f"loop reaches {sample.largest:.3e} (between samples {segment[0]} and {segment[1]})"
        )


def _sample_error(sample: _Sample, segment: tuple) -> Exception:
    """The error the fold raises when it reaches a sample that holds one:
    the sample's own, or a TrackingError of the segment where LAPACK did
    not converge on its matrix (numpy's LinAlgError)."""
    if isinstance(sample.error, np.linalg.LinAlgError):
        return TrackingError(f"eigenvalues not computed: {sample.error}", segment=segment)
    return sample.error


def _identities(rows: np.ndarray) -> list:
    """For each row of a float stack, the index of the first row with the
    same bytes.  Rows are matched by the wrapping sum of their 64-bit
    words, far cheaper than hashing their bytes, and a match is then
    checked in full: a row that shares its sum but not its bytes with the
    first row of that sum keeps its own index."""
    words = np.ascontiguousarray(rows).reshape(len(rows), -1).view(np.uint64)
    first: dict = {}
    keys = [first.setdefault(total, i) for i, total in enumerate(words.sum(axis=1).tolist())]
    for i, key in enumerate(keys):
        if key != i and words[key].tobytes() != words[i].tobytes():
            keys[i] = i
    return keys


def _samples(payloads: list, matrices, k: int, tol_zero: Optional[float],
             tols: Tolerances) -> tuple:
    """(samples, tol_zero): a _Sample per payload, each payload distinct
    (_track gives equal given payloads one sample), the spectra of all the
    matrices from one eigen_dense stack and split by one _split, tol_zero
    taken from the first when None.  When the stack fails, each matrix is
    taken alone, so one that fails (a non-finite blend, or LAPACK not
    converging) keeps its own error, which _sample_error types."""
    errors: dict = {}
    try:
        spectra = eigen_dense(np.asarray(matrices))
    except (InputError, np.linalg.LinAlgError):
        spectra = np.full((len(payloads), len(matrices[0])), np.nan, dtype=complex)
        for i, matrix in enumerate(matrices):
            try:
                spectra[i] = eigen_dense(matrix)
            except (InputError, np.linalg.LinAlgError) as err:
                errors[i] = err
    _, nonzeros, _, unreliable, min_gap, tol_zero = _split(spectra, k, tol_zero, tols)
    moduli = np.abs(nonzeros)
    fields = zip(payloads, nonzeros, unreliable.tolist(), min_gap.tolist(),
                 np.max(moduli, axis=1, initial=0.0).tolist(),
                 np.min(moduli, axis=1, initial=np.inf).tolist())
    samples = [_Sample(*sample, errors.get(i)) for i, sample in enumerate(fields)]
    return samples, tol_zero


def _refinement_certain(pairs: list) -> np.ndarray:
    """Whether the fold refines each (left, right) pair of samples whatever
    the tracks' matching, as the tracks are the left spectrum in some order:
    - the directed Hausdorff distance from the left spectrum to the right
      one exceeds half the right one's min_gap, and bounds movement below;
    - or some left eigenvalue is at an argument increment of pi/2 or more
      from every right one, so its track's increment is one too."""
    left = np.array([left.nonzeros for left, _ in pairs])[:, :, None]
    right = np.array([right.nonzeros for _, right in pairs])[:, None, :]
    half_gap = 0.5 * np.array([right.min_gap for _, right in pairs])
    # a prediction only decides what is computed early, so an overflow
    # here (a huge eigenvalue times another) changes no result
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.abs(right - left).min(axis=2).max(axis=1) > half_gap
        turned = np.abs(np.angle(right * np.conj(left))) >= 0.5 * np.pi
    return far | turned.all(axis=2).any(axis=1)


class _LoopTracker:
    """Fold that carries p eigenvalue tracks along the loop, a window of
    leaf intervals at a time.

    Its one record is track, the tracks' values at every accepted sample,
    from the base spectrum on; order says where each track's last value
    sits in the last accepted sample's nonzeros.  A sample is matched and
    certified against track[-1], and the report is read from the whole
    track at the end.  refine(lefts, rights) gives, per pair of payloads,
    the (payload, matrix) of their midpoint or the EqBundleError of a
    midpoint that cannot be made.  prefetch refines the pairs that the
    fold is certain to refine, one batch per depth, into a cache whose
    midpoints become the fold's leaf intervals; a pair not in it is
    refined alone, as a batch of one, by the exact step.

    On a loop that retraces a segment, made holds every midpoint made
    under both orders of its endpoints, so that each distinct one is made
    once, and the return leg of an out-and-back loop takes its midpoints
    from its outgoing leg.  Elsewhere no midpoint can be asked for twice,
    and made is None: no unordered pair of adjacent given samples repeats,
    and each midpoint made is a new sample.  On a retraced loop two
    intervals can be one pair of samples (a segment run twice in the same
    direction).  Each interval has one parent, the pair whose midpoint is
    its newer end, so the two have the same halvings above them, and the
    prefetch takes or leaves both alike; the first that the exact step
    halves pops the cached midpoint, and the other finds it in made."""

    def __init__(self, base: np.ndarray, k: int, tol_zero: float, tols: Tolerances,
                 refine: Callable, max_refine: int, retraced: bool):
        self.k = k
        self.tol_zero = tol_zero
        self.tols = tols
        self.refine = refine
        self.max_refine = max_refine
        self.midpoints: dict = {}  # (left, right) -> _Sample or EqBundleError
        # (left, right) and (right, left) -> _Sample or EqBundleError
        self.made: Optional[dict] = {} if retraced else None
        self.track = [base]
        self.order = np.arange(len(base))
        self.flags: list[str] = []

    def flag_once(self, message: str) -> None:
        if message not in self.flags:
            self.flags.append(message)

    def midpoints_of(self, pairs: list) -> list:
        """The midpoint _Sample of each (left, right) pair, or its
        EqBundleError.  With made, a pair whose two samples, in either
        order, are those of a pair made before takes that pair's midpoint
        or error, and the others are made once each.  That midpoint has the
        bits this pair's would have: refine blends with 0.5 (a + b), and
        IEEE addition commutes; each _correct lane and each eigen_dense row
        is independent of its batch."""
        if self.made is None:
            return self.make(pairs)
        new = {frozenset(pair): pair for pair in pairs if pair not in self.made}
        if new:
            for (left, right), mid in zip(new.values(), self.make(list(new.values()))):
                self.made[left, right] = self.made[right, left] = mid
        return [self.made[pair] for pair in pairs]

    def make(self, pairs: list) -> list:
        """midpoints_of the pairs, made in one refine batch and split in one
        stack.  A midpoint whose nonzero spectrum equals its left or its
        right endpoint's exactly refines nothing, and counts as one that
        could not be made: it is _REPEATED_SPECTRUM.  The blends of a
        matrix loop get there once the halving reaches float resolution."""
        made = self.refine([left.payload for left, _ in pairs],
                           [right.payload for _, right in pairs])
        rows = [i for i, mid in enumerate(made) if not isinstance(mid, EqBundleError)]
        if rows:
            samples, _ = _samples([made[i][0] for i in rows], [made[i][1] for i in rows],
                                  self.k, self.tol_zero, self.tols)
            ends = np.array([[end.nonzeros for end in pairs[i]] for i in rows])
            mids = np.array([sample.nonzeros for sample in samples])[:, None]
            repeats = (mids == ends).all(axis=2).any(axis=1)
            for i, sample, repeat in zip(rows, samples, repeats):
                made[i] = _REPEATED_SPECTRUM if repeat else sample
        return made

    def prefetch(self, pairs: list) -> None:
        """Refine, one batch per depth below max_refine, the pairs whose
        refinement _refinement_certain predicts, then their halves."""
        for _ in range(self.max_refine):
            if pairs:
                pairs = [pair for pair, sure in zip(pairs, _refinement_certain(pairs)) if sure]
            if not pairs:
                return
            mids = self.midpoints_of(pairs)
            self.midpoints.update(zip(pairs, mids))
            pairs = [
                half
                for (left, right), mid in zip(pairs, mids)
                if isinstance(mid, _Sample) and mid.error is None
                for half in ((left, mid), (mid, right))
            ]

    def reaches(self, sample: _Sample) -> bool:
        """Whether a step to sample gets past the checks that raise before
        its matching is certified: no error, moduli the fold can square, and
        no eigenvalue within tol_zero of the origin."""
        return (sample.error is None and sample.largest < _LARGEST_MODULUS
                and sample.smallest > self.tol_zero)

    def fold(self, pairs: list) -> None:
        """Fold the samples of the (left, right) pairs into the track, in
        loop order.  leaves is a stack of (left, right, depth, index)
        intervals, the next one on top: the pairs, each prefetched halving
        that the fold reaches replaced by its two halves.  Each window
        starts with the exact step, then folds the leaves it can take as
        one stack."""
        leaves = []
        pending = [(left, right, 0, i) for i, (left, right) in enumerate(pairs)][::-1]
        while pending:
            left, right, depth, index = pending.pop()
            mid = self.midpoints.get((left, right))
            if isinstance(mid, _Sample) and self.reaches(right):
                pending += [(mid, right, depth + 1, index), (left, mid, depth + 1, index)]
            else:
                leaves.append((left, right, depth, index))
        leaves.reverse()
        while leaves:
            if self.step(leaves) and leaves:
                self.window(leaves)

    def step(self, leaves: list) -> bool:
        """Take the exact step, in track order, of the leaf on top: match
        its right sample by assignment and certify it (True), or, when the
        leaf needs halving, put its two halves in its place, the left one
        on top (False).  Every error of the fold is raised here."""
        left, right, depth, index = leaves.pop()
        segment = (index, index + 1)
        if right.error is not None:
            raise _sample_error(right, segment)
        _check_moduli(right, segment)
        if right.unreliable:
            self.flag_once("unreliable zero/nonzero split encountered along the loop")
        values = self.track[-1]
        # a linear extrapolation of each track, the base alone at first
        predicted = 2.0 * values - self.track[-2] if len(self.track) > 1 else values
        cols = assignment(np.abs(predicted[:, None] - right.nonzeros[None, :]))
        matched = right.nonzeros[cols]
        moduli = np.abs(matched)
        if float(moduli.min()) <= self.tol_zero:
            idx = int((moduli <= self.tol_zero).argmax())
            raise TrackingError(
                f"{_LEAVES_CSTAR}: tracked eigenvalue {idx} has modulus "
                f"{abs(matched[idx]):.3e} <= tol_zero = {self.tol_zero:.3e}",
                segment=segment,
            )
        turns = matched * values.conj()
        turned = float(np.abs(np.arctan2(turns.imag, turns.real)).max()) >= 0.5 * np.pi
        steps = np.abs(matched - values)
        if (turned or float(steps.max()) > 0.5 * right.min_gap) and depth < self.max_refine:
            # a refiner that cannot produce a midpoint (e.g. Newton hits a
            # singular point between the samples) degrades to the coarse
            # step, whose certification below reports what went wrong
            mid = self.midpoints.pop((left, right), None)
            if mid is None:
                mid = self.midpoints_of([(left, right)])[0]
            if isinstance(mid, _Sample):
                leaves += [(mid, right, depth + 1, index), (left, mid, depth + 1, index)]
                return False
        # accepting this increment as-is: certify it first, exactly for
        # the tracks whose chord the modulus bound does not clear
        cleared = _chord_clears(np.abs(values), moduli, steps, self.tol_zero)
        for i in np.flatnonzero(~cleared).tolist():
            if _chord_distance_to_origin(complex(values[i]),
                                         complex(matched[i])) <= self.tol_zero:
                raise TrackingError(
                    f"{_LEAVES_CSTAR}: the step of tracked eigenvalue {i} passes "
                    f"within tol_zero = {self.tol_zero:.3e} of the origin",
                    segment=segment,
                )
        if turned:
            raise ResolutionError(
                "eigenvalue tracking could not certify an argument increment "
                f"below pi/2 after {self.max_refine} refinement levels",
                segment=segment,
            )
        self.track.append(matched)
        self.order = cols
        return True

    def window(self, leaves: list) -> None:
        """Accept the longest run of the next leaves, at most _WINDOW of
        them, whose steps the exact step would accept unhalved and without
        its solver or its exact chord test; the leaf that ends the run stays
        on top for the next exact step.

        With S_0 the last accepted sample and S_j the right sample of the
        j-th leaf, the steps are matched in sample-index space: link j
        takes an index of S_j to one of S_{j+1}, and depends on link j - 1
        alone, through the prediction 2 S_j - (S_{j-1} carried by link
        j - 1).  Every link is guessed to be the identity and recomputed,
        one (m, p, p) cost stack and one row argmin per pass, from the
        guess until it reproduces itself; a link computed from verified
        links is verified, so each pass verifies at least one more.  A
        verified link is the exact step's matching where its row minima
        certify it, and the run's tests are those of the exact step, on
        the same floats from the same operations.  A step that turns by
        pi/2 or more is at least as long as its longer end is far from 0,
        so the chord test stops the run there."""
        run = []
        for leaf in leaves[:-_WINDOW - 1:-1]:
            if not self.reaches(leaf[1]):
                break
            run.append(leaf)
        if not run:
            return
        spectra = np.array([run[0][0].nonzeros] + [right.nonzeros for _, right, _, _ in run])
        values, rights = spectra[:-1], spectra[1:]
        count, p = rights.shape
        rows = np.arange(count)[:, None]
        links = np.broadcast_to(np.arange(p), (count, p)).copy()
        certified = np.zeros(count, dtype=bool)
        # zeros where a link that is not a permutation leaves no value
        previous = np.zeros((count, p), dtype=complex)
        # the track's values before the last accepted sample, in its order
        previous[0, self.order] = self.track[-2]
        start = 0
        while True:
            previous[rows[1:], links[:-1]] = values[:-1]
            predicted = 2.0 * values[start:] - previous[start:]
            cost = np.abs(predicted[:, :, None] - rights[start:, None, :])
            recomputed = cost.argmin(axis=2)
            # assignment's certificate: the row minima lie in distinct
            # columns and each is attained once
            hit = np.zeros(recomputed.shape, dtype=bool)
            hit[rows[:count - start], recomputed] = True
            lowest = cost[rows[:count - start], np.arange(p), recomputed][:, :, None]
            certified[start:] = hit.all(axis=1) & (
                np.count_nonzero(cost == lowest, axis=(1, 2)) == p
            )
            changed = np.flatnonzero((recomputed != links[start:]).any(axis=1))
            links[start:] = recomputed
            verified = start + int(changed[0]) + 1 if changed.size else count
            uncertified = np.flatnonzero(~certified[:verified])
            if uncertified.size:
                verified = int(uncertified[0])
                break
            if verified == count:
                break
            start = verified
        matched = rights[rows[:verified], links[:verified]]
        steps = np.abs(matched - values[:verified])
        far = steps.max(axis=1) > 0.5 * np.array(
            [right.min_gap for _, right, _, _ in run[:verified]]
        )
        shallow = np.array([depth < self.max_refine for _, _, depth, _ in run[:verified]],
                           dtype=bool)
        halted = np.flatnonzero(far & shallow)
        taken = int(halted[0]) if halted.size else verified
        if taken:
            cleared = _chord_clears(np.abs(values[:taken]), np.abs(matched[:taken]),
                                    steps[:taken], self.tol_zero).all(axis=1)
            taken = int(np.argmin(cleared)) if not cleared.all() else taken
        order = self.order
        orders = np.empty((taken, p), dtype=np.intp)
        for j in range(taken):
            order = orders[j] = links[j][order]
        self.track.extend(rights[rows[:taken], orders])
        self.order = order
        if any(right.unreliable for _, right, _, _ in run[:taken]):
            self.flag_once("unreliable zero/nonzero split encountered along the loop")
        del leaves[len(leaves) - taken:]


def _blend_matrices(lefts: list, rights: list) -> list:
    # a blend past the float range is an error only if the fold reaches it
    with np.errstate(over="ignore", invalid="ignore"):
        mids = 0.5 * (np.asarray(lefts) + np.asarray(rights))
    return [(mid, mid) for mid in mids]


def _track(matrices: Sequence[np.ndarray], payloads: Sequence, refine: Callable, k: int,
           tol_zero: Optional[float], tols: Tolerances, max_refine: int,
           keys: list) -> EigenLoopReport:
    """The monodromy datum of a closed loop of finite n x n matrices, for
    0 <= k <= n and max_refine >= 0; refine takes lists of payloads.  The
    loop's samples have the payloads; keys[i] is the index of the first
    payload equal to payload i (_identities), and matrices holds the matrix
    of each distinct payload in order of first appearance, so each
    distinct sample's spectrum is computed once.  An out-and-back loop
    retraces its outgoing leg, and takes the return leg's midpoints from
    it (_LoopTracker.made).  The report is read from the fold's track: its
    samples, least modulus, argument increments, real-part signs and last
    row."""
    firsts = dict.fromkeys(keys)
    given, tol_fixed = _samples(list(map(payloads.__getitem__, firsts)), matrices, k,
                                tol_zero, tols)
    samples = list(map(dict(zip(firsts, given)).__getitem__, keys))
    if samples[0].error is not None:
        raise _sample_error(samples[0], (0, 0))
    _check_moduli(samples[0], (0, 0))
    base = samples[0].nonzeros
    if base.size == 0:
        raise InputError("no nonzero eigenvalues to track (k equals the dimension)")
    if np.min(np.abs(base)) <= tol_fixed:
        raise TrackingError(
            f"{_LEAVES_CSTAR}: a base nonzero eigenvalue already has modulus "
            f"<= tol_zero = {tol_fixed:.3e}",
            segment=(0, 0),
        )
    # each segment in both orders: fewer than two per segment when one
    # repeats in either order, or has length 0 (a point repeated at once)
    segments = {*zip(keys, keys[1:]), *zip(keys[1:], keys)}
    tracker = _LoopTracker(base, k, tol_fixed, tols, refine, max_refine,
                           len(segments) < 2 * (len(keys) - 1))
    if samples[0].unreliable:
        tracker.flag_once("unreliable zero/nonzero split encountered along the loop")
    pairs = list(zip(samples, samples[1:]))
    tracker.prefetch(pairs)
    tracker.fold(pairs)
    track = np.array(tracker.track)

    # closure: map each track back to the base spectrum it started from
    cols = assignment(np.abs(track[-1][:, None] - base[None, :]))
    mismatch = float(np.max(np.abs(track[-1] - base[cols])))
    if mismatch > 1e-6 * (1.0 + float(np.max(np.abs(base)))):
        tracker.flag_once(
            f"final spectrum differs from the base spectrum by {mismatch:.3e}"
        )
    # the argument increments summed row after row (accumulate, not the
    # pairwise sum), as the fold met them
    turns = track[1:] * track[:-1].conj()
    accumulated = np.cumsum(np.arctan2(turns.imag, turns.real), axis=0)[-1]
    principal = np.angle(np.exp(1j * (np.angle(base[cols]) - np.angle(base))))
    windings = np.rint((accumulated - principal) / (2.0 * np.pi)).astype(int)
    # the last nonzero sign of Re before each sample, from the base's sign
    # on: a sign of 0 (on the axis) neither counts nor resets it
    signs = np.sign(track.real)
    rows = np.where(signs != 0.0, np.arange(len(track))[:, None], 0)
    last = np.take_along_axis(signs, np.maximum.accumulate(rows, axis=0), axis=0)
    crossings = np.count_nonzero(signs[1:] * last[:-1] < 0, axis=0)
    return EigenLoopReport(
        permutation=tuple(int(c) for c in cols),
        windings=tuple(int(w) for w in windings),
        re_axis_crossings=tuple(int(c) for c in crossings),
        min_distance_to_zero=float(np.abs(track).min()),
        samples_used=len(track),
        flags=tuple(tracker.flags),
        tol_zero_used=tol_fixed,
    )


# the refinement depth of track_matrix_loop and eigen_along_fiber_loop
MAX_REFINE = 8


def track_matrix_loop(
    matrices: Sequence[np.ndarray],
    k: int = 0,
    tol_zero: Optional[float] = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_refine: int = MAX_REFINE,
) -> EigenLoopReport:
    """Track the nonzero eigenvalues along a closed loop of square matrices.

    The first and last matrices must agree within 1e-12 relative to the
    first's norm.  Each distinct sample's spectrum is computed, sorted and
    split once: matrices with the same bytes are one sample, and a loop
    that retraces a segment (out and back) blends each of its midpoints
    once.  Per step, the new nonzero spectrum is matched to the existing
    tracks by optimal assignment against a linear extrapolation of each
    track; an interval is halved (by the linear blend of its two matrices)
    whenever an argument increment reaches pi/2 or the largest movement
    exceeds half the smallest gap between new eigenvalues.  The spectra
    come in stacks, one eigvals call for the given matrices and one per
    refinement depth for the blends of every interval whose halving is
    certain whatever the matching (_refinement_certain).  The fold takes
    those blends as intervals of its own, and runs a window at a time: an
    exact step, which blends an interval the prediction missed on its
    own, then the steps after it matched in one stack, up to the first
    one that needs halving, the solver or the exact chord test.  The
    result is that of halving one interval at a time.  A blend that is
    not finite raises its InputError when the fold reaches it.  tol_zero, a positive finite number, is fixed once from the base
    matrix when not given (tols.zero_factor times its spectral radius);
    any tracked eigenvalue whose modulus, or whose step chord, comes
    within tol_zero of the origin aborts the loop, since its winding
    number is then undefined.
    """
    mats, k = matrix_loop(matrices, k)
    tol_zero = None if tol_zero is None else positive_float(tol_zero, "tol_zero")
    max_refine = non_negative_int(max_refine, "max_refine")
    keys = _identities(mats)
    return _track(mats[list(dict.fromkeys(keys))], mats, _blend_matrices, k, tol_zero, tols,
                  max_refine, keys)


def eigen_along_fiber_loop(
    sys: SystemSpec,
    lam,
    loop_points: Sequence,
    tols: Tolerances = DEFAULT_TOLERANCES,
    max_refine: int = MAX_REFINE,
) -> EigenLoopReport:
    """Track the nonzero Jacobian eigenvalues along a closed loop of
    equilibria on one fiber.

    Every loop point must be an equilibrium of f(lam, .) within tolerance
    and lie in the domain within the slack of systems._in_domain_rows: each
    distinct point in turn, once, passes finder._continuation_start, the
    test of a fiber trace's start (a repeat of a valid point is valid, so
    the first point that fails is the one that raises).  The first and
    last points must agree within 1e-9 relative to the first's norm (their
    Jacobians need not agree more closely).  Once every point has passed,
    h and df/dx of the distinct loop points are evaluated in one stack.
    When the tracker needs
    intermediate samples, linear blends of neighboring loop points are
    projected back onto the equilibrium set at the interpolated first
    integral level, at fixed lam, by the undamped local corrector
    finder._correct.  The midpoints of one refinement depth that the
    tracker is certain to need are the lanes of one _correct call, each
    at its own level, evaluated and split in one stack; one it needs
    beyond those is corrected alone.  A midpoint whose lane fails, ends
    outside the domain (the slack of systems._in_domain_rows) or fails to
    evaluate leaves its interval unhalved.  Each distinct midpoint is
    corrected once: an out-and-back loop takes its return leg's midpoints,
    and their failures, from its outgoing leg.
    """
    lam = finite_vector(lam, sys.m, "lambda", "m")
    points = waypoint_path(loop_points, sys.n, "loop_points", "n")
    closed_loop(points, "loop points")
    max_refine = non_negative_int(max_refine, "max_refine")

    keys = _identities(points)
    firsts = list(dict.fromkeys(keys))
    for i in firsts:
        _continuation_start(sys, lam, points[i], tols, f"loop point {i}")
    h_values, matrices = _evaluate_rows(sys, lam, points[firsts], ("h", "jac_x"))

    def refine(lefts, rights):
        # each midpoint corrected at the mean level of its pair, as one lane
        starts = 0.5 * (np.array([x for x, _ in lefts]) + np.array([x for x, _ in rights]))
        levels = 0.5 * (np.array([a for _, a in lefts]) + np.array([a for _, a in rights]))
        lams = np.broadcast_to(lam, (len(starts), sys.m))
        x_mid, _, _, retry, errors = _correct(*_level_set(sys), starts, tols, lams, levels)
        inside, raised = _in_domain_rows(sys, x_mid, tols)
        errors.update(raised)
        for i in np.flatnonzero(retry | ~inside).tolist():
            errors.setdefault(i, ConvergenceError(f"no midpoint near {starts[i].tolist()}"))
        h_mid, jac_mid = _evaluate_rows(sys, lam, x_mid, ("h", "jac_x"), errors)
        return [errors.get(i) or ((x_mid[i], h_mid[i]), jac_mid[i]) for i in range(len(starts))]

    h_of = dict(zip(firsts, h_values))
    payloads = [(x, h_of[key]) for x, key in zip(points, keys)]
    return _track(matrices, payloads, refine, sys.k, None, tols, max_refine, keys)
