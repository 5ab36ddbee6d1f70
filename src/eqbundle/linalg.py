"""Rank-revealing linear algebra with explicit tolerance reporting.

Thin contracts over LAPACK (via numpy): every rank decision applies one
cutoff rule (rank_cutoff) to singular values, whatever produced the
matrix, and records the cutoff next to the answer.
A rank alone takes the singular values only, a rank with kernel and image
one full SVD.  Dense eigenvalues come back in a deterministic order.

Least squares (_solve_rows, and solve_least_squares, its one-row call)
never forms the normal equations and takes one route at every column
count q.  Its one input is the augmented stack [A | b], which the caller
writes once: a Newton step writes its Jacobian beside -F.  One
Householder QR of that stack, whose last column becomes Q^T b, and one
back substitution give x = R^-1 (Q^T b) (Golub & Van Loan, Matrix
Computations, 4th ed., 5.3), and a certificate proves that the SVD's rank
decision would find A full rank:

    1 / (sqrt(q) max(y)) > 2 (rank_cutoff(shape, N, rank_tol) + p q eps N)

for y = M(R)^-1 e and N = sqrt(p q) max|a_ij|, where the comparison
matrix M(R) has |r_ii| on its diagonal and -|r_ij| above it.  The proof
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.):
|R^-1| <= M(R)^-1 entrywise (Thm 8.12), so ||R^-1||_2 <= sqrt(q)
||R^-1||_inf <= sqrt(q) max(y), and the left side is at most the least
singular value of R.  No entry of A exceeds max|a_ij|, so N >= ||A||_F,
which is at least the largest singular value of A, and p q eps N bounds
the QR's backward error (Thm 19.4).  Nothing is squared, and a max is
exact in any order.  At max|a_ij| <= 1e-150 the bound may underflow, and
such a row is not certified.  y_i = (1 + sum_j>i |r_ij| y_j) / |r_ii|
adds nonnegative terms only, so the computed y is within about q (q + 1)
eps of the exact one, relative, and the factor 2 covers that and the
SVD's own rounding.  With c = 2 sqrt(q) times the right side, the test is
0 < y_i and c y_i < 1 for every i.  Multiplying by c >= 0 is monotone, so
that is c max(y) < 1; and where R holds a NaN or an inf, or a zero r_ii,
y holds a NaN, an inf or a 0, and the test fails.  No inverse is formed.

A row the certificate does not clear takes one thin SVD A = U diag(s)
V^T, which decides its column rank with the cutoff of numeric_rank and
gives V diag(1/s) U^T b, or reports the deficient rank.

The back substitution runs per column i from q - 1 down to 0: v_i /= d_i,
then v_j -= T_ji v_i for every j < i, once for x (v = Q^T b, T = R, d_i =
r_ii) and once for y (v = e, T = -|R|, d_i = |r_ii|).  It is written in
two forms with the same IEEE operations in the same order: numpy ufuncs
over a stack, which sweep x and y over one copy of R and take -|r_ji| as
copysign(r_ji, -1) column by column, and Python floats for a lone row or
a small stack, where numpy's per-call cost would dominate.  Each
operation is correctly rounded in both, and no dot product (whose BLAS
summation order Python cannot reproduce) is taken.  The Python form
refuses a row at its first failing y_i, and before it divides by a zero
or non-finite r_ii.  So every row of a stack takes the calls it would
take alone, and its route and its bits depend neither on the other rows
nor on the form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, InputError, finite_array

EPS = float(np.finfo(float).eps)


class RankReport(NamedTuple):
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


def rank_cutoff(shape, sigma_max, tol_override):
    """The singular value cutoff for matrices of this shape whose largest
    singular value is sigma_max (a float, or an array of one per matrix):
    tol_override when given, else max(rows, cols) * eps * sigma_max.  In
    that order the product overflows only where the cutoff does, and, eps
    being a power of two, it is (max(rows, cols) * sigma_max) * eps bit
    for bit wherever that is finite and normal."""
    if tol_override is not None:
        return np.full(np.shape(sigma_max), float(tol_override))
    return max(shape) * EPS * sigma_max


def _rank_report(shape, s: np.ndarray, tol_override) -> RankReport:
    """The rank decision on the singular values s of a matrix of this shape,
    with the cutoff of rank_cutoff."""
    tol = float(rank_cutoff(shape, float(s[0]) if s.size else 0.0, tol_override))
    rank = int(np.count_nonzero(s > tol))
    return RankReport(rank=rank, singular_values=tuple(float(v) for v in s), tol=tol)


def numeric_rank(M, tol_override: float | None = None) -> RankReport:
    """Rank of a dense matrix by SVD.

    Parameters
    ----------
    M : array_like, shape (p, q)
        Matrix with finite entries.
    tol_override : float, optional
        Absolute singular value cutoff.  When omitted the cutoff is
        ``max(p, q) * eps * sigma_max``.

    Returns
    -------
    RankReport
    """
    A = _as_matrix(M)
    return _rank_report(A.shape, np.linalg.svd(A, compute_uv=False), tol_override)


def solve_least_squares(A, b, rank_tol: float | None = None) -> np.ndarray:
    """Minimize |A x - b| for a full-column-rank A (p, q) and a b (p, ...),
    each b[:, j, ...] a right-hand side of its own x[:, j, ...].

    The call of _solve_rows with one row per right-hand side (see the
    module docstring): each row is A with its right-hand side beside it,
    and one QR whose certificate, when it fails, hands the solve to the
    SVD.  The rank is decided with the cutoff of numeric_rank; the normal
    equations are never formed.  Raises DegeneracyError carrying the
    RankReport when A is column rank deficient, since the minimizer is
    then not unique.
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
    system = np.empty((max(len(columns), 1), p, q + 1))
    system[:, :, :q] = A
    system[:, :, q] = columns if len(columns) else 0.0
    x, deficient = _solve_rows(system, rank_tol, {})
    if deficient:
        raise deficient[0]
    return x[: len(columns)].T.reshape((q,) + tail)


def _deficient(shape, s: np.ndarray, rank_tol) -> DegeneracyError:
    """The error of a least-squares matrix of this shape whose singular
    values s leave it column rank deficient."""
    report = _rank_report(shape, s, rank_tol)
    return DegeneracyError(
        f"least squares matrix is column rank deficient (rank {report.rank} < {shape[1]})",
        report=report,
    )


def _certificate_scale(shape, amax, rank_tol):
    """c = 2 sqrt(q) (rank_cutoff(shape, N, rank_tol) + p q eps N), N =
    sqrt(p q) amax, for a float amax or an array of one per row: the
    certificate of the module docstring clears a row when 0 < y_i and
    c y_i < 1 for every entry of its y = M(R)^-1 e."""
    p, q = shape
    norm = (p * q) ** 0.5 * amax
    return 2.0 * q ** 0.5 * (rank_cutoff(shape, norm, rank_tol) + p * q * EPS * norm)


# The back substitution runs in Python floats for a stack of count rows
# when count * (q + 2) <= _PYTHON_ROWS, else as numpy ufuncs: the cost of
# the first grows with count * q^2, that of the second with q.  On a
# shared 2-core x86 machine (numpy 2.4, best of 21 x 300 calls) _qr_rows
# on random (count, q + 1, q + 1) stacks took, in Python floats and as
# ufuncs, 33 and 34 us at (count, q) = (8, 2), 35 and 34 at (9, 2), 39
# and 41 at (7, 3), 43 and 41 at (8, 3), 50 and 51 at (6, 5), 58 and 52
# at (7, 5), 64 and 73 at (3, 10), 79 and 75 at (4, 10), 124 and 128 at
# (2, 20), and 182 and 138 at (3, 20).  The forms cross at count * (q + 2)
# of 34 to about 46, lowest for the small q of most stacks; with the
# bound at 36 neither form is taken where the other is 5 % faster.
_PYTHON_ROWS = 36


def _qr_rows(system: np.ndarray, rank_tol) -> tuple:
    """(x, certified) for a finite augmented stack [A | b] (B, p, q + 1),
    p >= q: x = R^-1 (Q^T b) from one raw-mode Householder QR of the stack
    as given, and certified marks the rows that pass the certificate of
    the module docstring, a proof that the SVD rule of _solve_rows finds A
    full rank.  Each row's max|a_ij| is max(max a_ij, -min a_ij), so no
    |A| is built.  One back substitution gives x and y = M(R)^-1 e: in
    Python floats row by row (_lone_row) for a lone row or a small stack
    (_PYTHON_ROWS), else as numpy ufuncs over x and y, each (q, B), and
    one (q, q, B) copy of R, so that each update is contiguous; -|R| is
    never stored.  Both forms make the same operations in the same order.
    A row whose R is singular or not finite, whose figures overflow or
    whose largest |a_ij| is at most 1e-150 is not certified; its x means
    nothing."""
    count, p, q = system.shape[0], system.shape[1], system.shape[2] - 1
    A = system[:, :, :q]
    # h[:, i, :i + 1] is column i of R, and h[:, q, :q] is Q^T b
    h = np.linalg.qr(system, mode="raw")[0]
    if count * (q + 2) <= _PYTHON_ROWS:
        pairs = zip(h.tolist(), A.reshape(count, -1).tolist())
        x, certified = zip(*[_lone_row(row, max(map(abs, a)), rank_tol, p) for row, a in pairs])
        return np.array(x), np.array(certified)
    # R[i, j] holds R_ji of every row, d[i] r_ii and e[i] |r_ii|
    R = np.ascontiguousarray(h[:, :q, :q].transpose(1, 2, 0))
    d = R.diagonal().T
    e = np.abs(d)
    x, y = h[:, q, :q].T.copy(), np.ones((q, count))
    amax = np.maximum(A.max(axis=(1, 2)), -A.min(axis=(1, 2)))
    # a zero r_ii, an overflow or an inf * 0 can only leave its row uncertified
    with np.errstate(all="ignore"):
        for i in range(q - 1, 0, -1):
            column, xi, yi = R[i, :i], x[i], y[i]
            xi /= d[i]
            x[:i] -= column * xi
            yi /= e[i]
            y[:i] -= np.copysign(column, -1.0) * yi
        x[0] /= d[0]
        y[0] /= e[0]
        c = _certificate_scale((p, q), amax, rank_tol)
        certified = ((0.0 < y) & (c * y < 1.0)).all(axis=0) & (amax > 1e-150)
    return x.T, certified


def _lone_row(h: list, amax: float, rank_tol, p: int) -> tuple:
    """(x, certified) of _qr_rows for one row, in Python floats: h is that
    row's raw QR as nested lists and amax its largest |a_ij|.  The stack
    form's operations in its order.  Each y_i is final once divided, so
    the row is refused at its first y_i with c y_i >= 1 or NaN, and before
    dividing by an r_ii that is 0, which would raise ZeroDivisionError
    here, or not finite: in the stack form each leaves a y_i that is inf,
    NaN or 0."""
    q = len(h) - 1
    c = float(_certificate_scale((p, q), amax, rank_tol))
    x, y = h[q][:q], [1.0] * q
    for i in range(q - 1, -1, -1):
        column = h[i]
        d = abs(column[i])
        if not 0.0 < d < math.inf:
            return x, False
        xi = x[i] = x[i] / column[i]
        yi = y[i] = y[i] / d
        if not c * yi < 1.0:
            return x, False
        for j in range(i):
            x[j] -= column[j] * xi
            y[j] -= -abs(column[j]) * yi
    return x, amax > 1e-150


def _solve_rows(system: np.ndarray, rank_tol, errors: dict) -> tuple:
    """The least-squares solve of solve_least_squares(A[i], b[i], rank_tol)
    at every row i of the augmented stack system = [A | b] (B, p, q + 1),
    p >= q > 0, which the caller writes once and which is factored as
    given.  Every row takes one batched QR (_qr_rows), and the rows it
    does not certify full rank one batched thin SVD of A, which decides
    the rank with the cutoff of numeric_rank and gives V diag(1/s) U^T b.
    A row's route and bits depend neither on the other rows nor on the
    stack's size.

    Rows already in errors are skipped.  A row whose A or b is not finite
    gets solve_least_squares' InputError in errors; the test is np.isfinite,
    entry by entry, so finite entries near the float limit pass it without
    a warning.  Returns (x, deficient):
    x (B, q), NaN where a row was not solved, and deficient {row:
    DegeneracyError} for the rows whose A is column rank deficient.
    """
    count, p, q = system.shape[0], system.shape[1], system.shape[2] - 1
    shape = (p, q)
    rows = None                 # every row, until one is left out
    finite = np.isfinite(system)
    if errors or not finite.all():
        bad_A = ~finite[:, :, :q].all(axis=(1, 2))
        bad_b = ~finite[:, :, q].all(axis=1)
        for row in range(count):
            if row not in errors and (bad_A[row] or bad_b[row]):
                errors[row] = InputError(
                    f"{'A' if bad_A[row] else 'b'} must be an array of finite numbers"
                )
        rows = np.array([row for row in range(count) if row not in errors], dtype=int)
        system = system[rows]
    if not len(system):
        return np.full((count, q), np.nan), {}
    x, certified = _qr_rows(system, rank_tol)
    if certified.all():
        return (x if rows is None else _placed(x, rows, count)), {}
    rows = np.arange(count) if rows is None else rows
    out = _placed(x[certified], rows[certified], count)
    system, rows = system[~certified], rows[~certified]
    u, s, vt = np.linalg.svd(system[:, :, :q], full_matrices=False)
    b = np.ascontiguousarray(system[:, :, q])
    deficient = {}
    # s is descending: rank < q exactly when the last value is cut off
    cut = s[:, -1] <= rank_cutoff(shape, s[:, 0], rank_tol)
    if np.count_nonzero(cut):
        for i in np.flatnonzero(cut):
            deficient[int(rows[i])] = _deficient(shape, s[i], rank_tol)
        keep = ~cut
        u, s, vt, b, rows = u[keep], s[keep], vt[keep], b[keep], rows[keep]
    coeff = np.matmul(b[:, None, :], u)[:, 0, :] / s
    x = np.matmul(vt.transpose(0, 2, 1), coeff[:, :, None])[:, :, 0]
    return _placed(x, rows, count, out), deficient


def _placed(x: np.ndarray, rows, count: int, out=None) -> np.ndarray:
    """x (R, q) written at the given rows of out (count, q), a new array of
    NaN when None."""
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


def rank_and_subspaces(M, tol_override: float | None = None) -> tuple:
    """(RankReport, kernel, image) of M from one full SVD, the cutoff as in
    numeric_rank; the bases are orthonormal columns of singular vectors."""
    A = _as_matrix(M)
    u, s, vt = np.linalg.svd(A)
    report = _rank_report(A.shape, s, tol_override)
    return report, vt[report.rank:].T.copy(), u[:, :report.rank].copy()


def kernel_basis(M, tol_override: float | None = None) -> np.ndarray:
    """Orthonormal basis of ker(M) as columns, from right singular vectors."""
    return rank_and_subspaces(M, tol_override)[1]
