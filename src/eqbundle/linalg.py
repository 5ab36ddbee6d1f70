"""Rank-revealing linear algebra with explicit tolerance reporting.

Thin contracts over LAPACK (via numpy): every rank decision applies one
cutoff rule to singular values and records the cutoff next to the answer.
A rank alone takes the singular values only, a rank with kernel and image
one full SVD.  Dense eigenvalues come back in a deterministic order.

Least squares (_solve_rows, and solve_least_squares, its one-row call)
never forms the normal equations, and takes one route per column count
q.  With q < _QR_COLUMNS one thin SVD A = U diag(s) V^T decides the
column rank and gives V diag(1/s) U^T b.  With q >= _QR_COLUMNS one
Householder QR of [A | b] and one back substitution give x = R^-1 (Q^T b)
(Golub & Van Loan, Matrix Computations, 4th ed., 5.3), and a certificate
proves that the SVD's rank decision would find A full rank:

    1 / (sqrt(q) max(y)) > 2 (rank_cutoff(shape, ||A||_F, rank_tol) + p q eps ||A||_F)

for y = M(R)^-1 e, where the comparison matrix M(R) has |r_ii| on its
diagonal and -|r_ij| above it.  The proof (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed.): |R^-1| <= M(R)^-1 entrywise (Thm
8.12), so ||R^-1||_2 <= sqrt(q) ||R^-1||_inf <= sqrt(q) max(y), and the
left side is at most the least singular value of R.  ||A||_F is at least
the largest singular value of A, and p q eps ||A||_F bounds the QR's
backward error (Thm 19.4); below 1e-150 the squares of ||A||_F may
underflow, and such a row is not certified.  y_i = (1 + sum_j>i |r_ij|
y_j) / |r_ii| adds nonnegative terms only, so the computed y is within
about q (q + 1) eps of the exact one, relative, and the factor 2 covers
that and the SVD's own rounding.  No inverse is formed.

A row the certificate does not clear takes the SVD route, which decides
its rank and reports a deficient one.  Every row of a stack takes the
same calls as it would alone, so its route and its bits do not depend on
the other rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError, finite_array

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


def _as_matrix(M, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """M as a finite_array of one matrix, or when stacked also of a stack."""
    A = finite_array(M, name)
    if A.ndim != 2 and not (stacked and A.ndim == 3):
        dims = "2- or 3" if stacked else "2"
        raise InputError(f"{name} must be {dims}-dimensional, got shape {A.shape}")
    return A


# Central differences with step cbrt(eps) leave absolute noise of order
# eps^(2/3) in every matrix entry (truncation and roundoff balance there),
# so singular values of finite-difference Jacobians are meaningless below
# that scale.  Factor 50 gives headroom over the per-entry constant.
FD_NOISE_FLOOR = 50.0 * EPS ** (2.0 / 3.0)


def rank_cutoff(shape, sigma_max, tol_override, fd: bool):
    """The singular value cutoff for matrices of this shape whose largest
    singular value is sigma_max (a float, or an array of one per matrix):
    tol_override when given, else max(rows, cols) * eps * sigma_max, raised
    to the finite-difference noise floor when fd is set.  In that order the
    product overflows only where the cutoff does, and, eps being a power
    of two, it is (max(rows, cols) * sigma_max) * eps bit for bit wherever
    that is finite and normal."""
    if tol_override is not None:
        return np.full(np.shape(sigma_max), float(tol_override))
    tol = max(shape) * EPS * sigma_max
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
        ``max(p, q) * eps * sigma_max``, raised to the finite-difference
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

    The call of _solve_rows with one row per right-hand side, so it takes
    the route of its column count q (see the module docstring): one thin
    SVD below _QR_COLUMNS columns, else one QR whose certificate, when it
    fails, hands the solve to the SVD.  The rank is decided with the cutoff
    of numeric_rank; the normal equations are never formed.  Raises
    DegeneracyError carrying the RankReport when A is column rank
    deficient, since the minimizer is then not unique.
    """
    A = _as_matrix(A, "A")
    b = finite_array(b, "b")
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


def _deficient(shape, s: np.ndarray, rank_tol) -> DegeneracyError:
    """The error of a least-squares matrix of this shape whose singular
    values s leave it column rank deficient."""
    report = _rank_report(shape, s, rank_tol, False)
    return DegeneracyError(
        f"least squares matrix is column rank deficient (rank {report.rank} < {shape[1]})",
        report=report,
    )


# The least column count of the QR route.  On a shared 2-core x86 machine
# (numpy 2.4, best of 25), one (q + 1, q) row of _solve_rows takes 36, 53,
# 55 and 82 us by QR against 19, 29, 32 and 77 us by SVD at q = 3, 8, 10
# and 20, most of it the back substitution's numpy calls, while a 200-row
# stack takes 0.18, 0.57, 0.77 and 2.5 ms by QR against 0.54, 2.3, 3.2 and
# 12.0 ms by SVD.
_QR_COLUMNS = 8


def _qr_rows(A: np.ndarray, b: np.ndarray, rank_tol) -> tuple:
    """(x, certified) for the finite stacks A (B, p, q), p >= q, and b
    (B, p): x = R^-1 (Q^T b) from one Householder QR of [A | b], and
    certified marks the rows that pass the certificate of the module
    docstring, a proof that the SVD rule of _solve_rows finds A full rank.
    One back substitution gives x and y = M(R)^-1 e: with the right-hand
    sides appended to R and |R| and a last unknown of -1, each step is one
    vecdot per row, the BLAS dot of a lone row, and one division.  A row
    whose R is singular, whose figures overflow or whose ||A||_F may
    underflow (below 1e-150) is not certified; its x means nothing."""
    count, p, q = A.shape
    h = np.linalg.qr(np.concatenate([A, b[:, :, None]], axis=2), mode="raw")[0]
    r = h.swapaxes(1, 2)[:, :q]     # [R | Q^T b] on and above the diagonal
    T = np.array([r, np.abs(r)])
    T[1, ..., q] = -1.0             # [|R| | -e]
    # with v_q = -1, v_i = (T_i,i+1: . v_i+1:) / d_i is x_i and y_i
    d = T.diagonal(0, 2, 3) * [[[-1.0]], [[1.0]]]     # -r_ii and |r_ii|
    v = np.full((2, count, q + 1), -1.0)
    # a zero r_ii, an overflow or an inf * 0 can only leave its row uncertified
    with np.errstate(all="ignore"):
        for i in range(q - 1, -1, -1):
            v[..., i] = np.vecdot(T[..., i, i + 1:], v[..., i + 1:]) / d[..., i]
        norm = np.sqrt((A * A).reshape(count, -1).sum(axis=1))
        bound = rank_cutoff((p, q), norm, rank_tol, False) + p * q * EPS * norm
        certified = 2.0 * q ** 0.5 * bound * v[1, :, :q].max(axis=1) < 1.0
    return v[0, :, :q], certified & (norm > 1e-150)


def _solve_rows(A: np.ndarray, b: np.ndarray, rank_tol, errors: dict) -> tuple:
    """The least-squares solve of solve_least_squares(A[i], b[i], rank_tol)
    at every row i of the stacks A (B, p, q), p >= q > 0, and b (B, p).
    With q >= _QR_COLUMNS the rows take one batched QR (_qr_rows), and
    those it does not certify full rank, like every row of a narrower
    stack, one batched thin SVD, which decides the rank with the cutoff of
    numeric_rank and gives V diag(1/s) U^T b.  A row's route and bits do
    not depend on the other rows.

    Rows already in errors are skipped.  A row whose A or b is not finite
    gets solve_least_squares' InputError in errors; the test is np.isfinite,
    entry by entry, so finite entries near the float limit pass it without
    a warning.  Returns (x, deficient):
    x (B, q), NaN where a row was not solved, and deficient {row:
    DegeneracyError} for the rows whose A is column rank deficient.
    """
    count, shape = len(A), A.shape[1:]
    rows = None                 # every row, until one is left out
    if errors or not (np.isfinite(A).all() and np.isfinite(b).all()):
        bad_A = ~np.isfinite(A).all(axis=(1, 2))
        bad_b = ~np.isfinite(b).all(axis=1)
        for row in range(count):
            if row not in errors and (bad_A[row] or bad_b[row]):
                errors[row] = InputError(
                    f"{'A' if bad_A[row] else 'b'} must be an array of finite numbers"
                )
        rows = np.array([row for row in range(count) if row not in errors], dtype=int)
        A, b = A[rows], b[rows]
    if not len(A):
        return np.full((count, shape[1]), np.nan), {}
    out = None                  # (count, q) once the QR route leaves rows
    if shape[1] >= _QR_COLUMNS:
        x, certified = _qr_rows(A, b, rank_tol)
        if certified.all():
            return _placed(x, rows, count), {}
        rows = np.arange(count) if rows is None else rows
        out = _placed(x[certified], rows[certified], count)
        A, b, rows = A[~certified], b[~certified], rows[~certified]
    u, s, vt = np.linalg.svd(A, full_matrices=False)
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
    return _placed(x, rows, count, out), deficient


def _placed(x: np.ndarray, rows, count: int, out=None) -> np.ndarray:
    """x (R, q) written at the given rows of out (count, q), a new array of
    NaN when None; rows None stands for every row in order."""
    if rows is None and out is None:
        return x
    if out is None:
        out = np.full((count, x.shape[1]), np.nan)
    out[rows] = x
    return out


def eigen_dense(M) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag).

    For real input the values come from LAPACK's real Schur path, so
    complex eigenvalues appear in exact conjugate pairs.  A stack (S, n, n)
    gives one sorted row per matrix (S, n) from one eigvals call, each row
    bit for bit the matrix's own eigen_dense.
    """
    A = _as_matrix(M, stacked=True)
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
