"""Rank-revealing linear algebra with explicit tolerance reporting.

Thin contracts over LAPACK (via numpy): every rank decision applies one
cutoff rule to singular values and records the cutoff next to the answer.
A rank alone takes the singular values only, a rank with kernel and image
one full SVD, least squares one thin SVD (never the normal equations).
Dense eigenvalues come back in a deterministic order.

A wide stack of least-squares solves (_solve_rows) takes its batched SVD
in contiguous chunks, one per usable CPU, on threads: each matrix still
goes through its own LAPACK call, so every row is bit for bit what the
one batched call gives, whatever the CPU count.  Only stacks whose work
reaches _SPLIT_WORK are split; there is no option to set.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RankReport:
    """Outcome of a numeric rank decision.

    Attributes
    ----------
    rank : int
        Number of singular values strictly above ``tol``.
    singular_values : tuple of float
        All singular values, descending.
    tol : float
        The cutoff actually used.
    """

    rank: int
    singular_values: tuple
    tol: float

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "singular_values": list(self.singular_values),
            "tol": self.tol,
        }


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite, from one sum: a NaN or infinite entry
    makes the sum non-finite.  A sum that overflows reads as non-finite
    too, so a False calls for an entrywise check, never for a failure."""
    return math.isfinite(np.add.reduce(values, axis=None))


def _as_matrix(M, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


# Central differences with step cbrt(eps) leave absolute noise of order
# eps^(2/3) in every matrix entry (truncation and roundoff balance there),
# so singular values of finite-difference Jacobians are meaningless below
# that scale.  Factor 50 gives headroom over the per-entry constant.
FD_NOISE_FLOOR = 50.0 * EPS ** (2.0 / 3.0)


def rank_cutoff(shape, sigma_max, tol_override, fd: bool):
    """The singular value cutoff for matrices of this shape whose largest
    singular value is sigma_max (a float, or an array of one per matrix):
    tol_override when given, else max(rows, cols) * sigma_max * eps, raised
    to the finite-difference noise floor when fd is set."""
    if tol_override is not None:
        return np.full(np.shape(sigma_max), float(tol_override))
    tol = max(shape) * sigma_max * EPS
    if fd:
        tol = np.maximum(tol, FD_NOISE_FLOOR * np.maximum(1.0, sigma_max))
    return tol


def _rank_report(shape, s: np.ndarray, tol_override, fd: bool) -> RankReport:
    """The rank decision on the singular values s of a matrix of this shape,
    with the cutoff of rank_cutoff."""
    tol = float(rank_cutoff(shape, float(s[0]) if s.size else 0.0, tol_override, fd))
    rank = int(np.count_nonzero(s > tol))
    return RankReport(rank=rank, singular_values=tuple(float(v) for v in s), tol=tol)


def numeric_rank(M, tol_override: float | None = None, fd: bool = False) -> RankReport:
    """Rank of a dense matrix by SVD.

    Parameters
    ----------
    M : array_like, shape (p, q)
        Matrix with finite entries.
    tol_override : float, optional
        Absolute singular value cutoff.  When omitted the cutoff is
        ``max(p, q) * sigma_max * eps``, raised to the finite-difference
        noise floor when ``fd`` is set.
    fd : bool
        Declare that M came from finite differences, so singular values
        at the differencing noise scale must be treated as zero.

    Returns
    -------
    RankReport
    """
    A = _as_matrix(M)
    return _rank_report(A.shape, np.linalg.svd(A, compute_uv=False), tol_override, fd)


def solve_least_squares(A, b, rank_tol: float | None = None) -> np.ndarray:
    """Minimize |A x - b| for a full-column-rank A (p, q) and a b (p, ...),
    each b[:, j, ...] a right-hand side of its own x[:, j, ...].

    The call of _solve_rows with one row per right-hand side: one thin SVD
    A = U diag(s) V^T decides the column rank, with the cutoff of
    numeric_rank, and gives the solution V diag(1/s) U^T b; the normal
    equations are never formed.  Raises DegeneracyError carrying the
    RankReport when A is column rank deficient, since the minimizer is
    then not unique.
    """
    A = _as_matrix(A, "A")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise InputError("b contains non-finite entries")
    if b.shape[:1] != A.shape[:1]:
        raise InputError(f"incompatible shapes: A is {A.shape}, b is {b.shape}")
    (p, q), tail = A.shape, b.shape[1:]
    if p < q:
        # a wide A has fewer singular values than columns, so none is cut
        # off in _solve_rows, and its rank is short all the same
        raise _deficient(A.shape, np.linalg.svd(A, full_matrices=False)[1], rank_tol)
    if q == 0:
        return np.zeros((0,) + tail)
    columns = b.reshape(p, -1).T
    # without a right-hand side, one zero row still decides the rank
    rows = columns if len(columns) else np.zeros((1, p))
    x, deficient = _solve_rows(np.broadcast_to(A, (len(rows), p, q)), rows, rank_tol, {})
    if deficient:
        raise deficient[0]
    return x[: len(columns)].T.reshape((q,) + tail)


# The SVD work, rows * p * q**2, of a stack (rows, p, q) from which
# _svd_rows splits it across the CPUs.  Handing a chunk to a thread has a
# fixed cost: on a 2-core machine, splitting every stack of work 2,000 or
# more made the (<= 200, 5, 3) stacks of example2 and its empty levels
# about 10 % slower, while any threshold from 20,000 to 200,000 gave
# rfmr(10) and rfmr(20) the same saving.  100,000 keeps the small stacks
# on the calling thread with margin.
_SPLIT_WORK = 100_000

_pool = None                    # ThreadPoolExecutor, made on the first split
_pool_lock = threading.Lock()


def _forget_pool():
    # a forked child has none of the parent's threads: a pool inherited
    # with idle workers would queue work that no thread ever takes
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_pool():
    """The split's thread pool, started on first use: one worker fewer
    than the machine has CPUs, since the calling thread takes a chunk."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max(1, (os.cpu_count() or 1) - 1), thread_name_prefix="eqbundle-svd"
            )
        return _pool


def _svd_rows(A: np.ndarray) -> tuple:
    """np.linalg.svd(A, full_matrices=False) of a stack A (B, p, q), bit for
    bit.  A stack whose work B * p * q**2 reaches _SPLIT_WORK is split into
    contiguous chunks, one per usable CPU but none with less than half that
    work: the calling thread takes the first and the pool the others, and
    u, s and vt are concatenated in row order.  numpy releases the GIL
    inside each LAPACK call, and each matrix takes the same call in a chunk
    as in the whole stack."""
    count, p, q = A.shape
    parts = 2 * count * p * q * q // _SPLIT_WORK
    if parts >= 2:
        parts = min(parts, count, _usable_cpus())
    if parts < 2:
        return np.linalg.svd(A, full_matrices=False)
    chunks = np.array_split(A, parts)
    pool = _worker_pool()
    futures = [pool.submit(np.linalg.svd, chunk, full_matrices=False) for chunk in chunks[1:]]
    try:
        first = np.linalg.svd(chunks[0], full_matrices=False)
    finally:
        # every chunk finishes before this call returns or raises
        rest = [future.result() for future in futures]
    return tuple(np.concatenate(part) for part in zip(first, *rest))


def _deficient(shape, s: np.ndarray, rank_tol) -> DegeneracyError:
    """The error of a least-squares matrix of this shape whose singular
    values s leave it column rank deficient."""
    report = _rank_report(shape, s, rank_tol, False)
    return DegeneracyError(
        f"least squares matrix is column rank deficient (rank {report.rank} < {shape[1]})",
        report=report,
    )


def _solve_rows(A: np.ndarray, b: np.ndarray, rank_tol, errors: dict) -> tuple:
    """The least-squares solve of solve_least_squares(A[i], b[i], rank_tol)
    at every row i of the stacks A (B, p, q), p >= q > 0, and b (B, p),
    with one batched SVD, which _svd_rows splits across the CPUs when the
    stack is wide; the rows and their bits do not depend on the split or
    on the other rows.

    Rows already in errors are skipped.  A row whose A or b is not finite
    gets solve_least_squares' InputError in errors.  Returns (x, deficient):
    x (B, q), NaN where a row was not solved, and deficient {row:
    DegeneracyError} for the rows whose A is column rank deficient.
    """
    count, shape = len(A), A.shape[1:]
    rows = None                 # every row, until one is left out
    if errors or not (_all_finite(A) and _all_finite(b)):
        bad_A = ~np.isfinite(A).all(axis=(1, 2))
        bad_b = ~np.isfinite(b).all(axis=1)
        for row in range(count):
            if row not in errors and (bad_A[row] or bad_b[row]):
                errors[row] = InputError(
                    f"{'A' if bad_A[row] else 'b'} contains non-finite entries"
                )
        rows = np.array([row for row in range(count) if row not in errors], dtype=int)
        A, b = A[rows], b[rows]
    u, s, vt = _svd_rows(A)
    deficient = {}
    # s is descending: rank < q exactly when the last value is cut off
    cut = s[:, -1] <= rank_cutoff(shape, s[:, 0], rank_tol, False)
    if np.count_nonzero(cut):
        rows = np.arange(count) if rows is None else rows
        for i in np.flatnonzero(cut):
            deficient[int(rows[i])] = _deficient(shape, s[i], rank_tol)
        keep = ~cut
        u, s, vt, b, rows = u[keep], s[keep], vt[keep], b[keep], rows[keep]
    coeff = np.matmul(b[:, None, :], u)[:, 0, :] / s
    x = np.matmul(vt.transpose(0, 2, 1), coeff[:, :, None])[:, :, 0]
    if rows is None:
        return x, deficient
    out = np.full((count, shape[1]), np.nan)
    out[rows] = x
    return out, deficient


def eigen_dense(M) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag).

    For real input the values come from LAPACK's real Schur path, so
    complex eigenvalues appear in exact conjugate pairs.  A stack (S, n, n)
    gives one sorted row per matrix (S, n) from one eigvals call, each row
    bit for bit the matrix's own eigen_dense.
    """
    A = _as_matrix(M, ndim=3 if np.ndim(M) == 3 else 2)
    if A.shape[-2] != A.shape[-1]:
        raise InputError(f"matrix must be square, got shape {A.shape}")
    vals = np.linalg.eigvals(A)
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


def rank_and_subspaces(M, tol_override: float | None = None, fd: bool = False) -> tuple:
    """(RankReport, kernel, image) of M from one full SVD, the cutoff as in
    numeric_rank; the bases are orthonormal columns of singular vectors."""
    A = _as_matrix(M)
    u, s, vt = np.linalg.svd(A)
    report = _rank_report(A.shape, s, tol_override, fd)
    return report, vt[report.rank:].T.copy(), u[:, :report.rank].copy()


def kernel_basis(M, tol_override: float | None = None, fd: bool = False) -> np.ndarray:
    """Orthonormal basis of ker(M) as columns, from right singular vectors."""
    return rank_and_subspaces(M, tol_override, fd)[1]
