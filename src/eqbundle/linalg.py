"""Rank-revealing linear algebra with explicit tolerance reporting.

Thin contracts over LAPACK (via numpy): every rank decision is made from a
full SVD with the cutoff recorded next to the answer, least squares always
goes through an orthogonal factorization (never the normal equations), and
dense eigenvalues come back in a deterministic order.
"""

from __future__ import annotations

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


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InputError(f"{name} contains non-finite entries")
    return A


def default_rank_tol(shape, sigma_max: float) -> float:
    """Spectral-norm-scaled cutoff: max(rows, cols) * sigma_max * eps."""
    return max(shape) * sigma_max * EPS


# Central differences with step cbrt(eps) leave absolute noise of order
# eps^(2/3) in every matrix entry (truncation and roundoff balance there),
# so singular values of finite-difference Jacobians are meaningless below
# that scale.  Factor 50 gives headroom over the per-entry constant.
FD_NOISE_FLOOR = 50.0 * EPS ** (2.0 / 3.0)


def fd_rank_tol(shape, sigma_max: float) -> float:
    """Rank cutoff for matrices assembled from finite differences."""
    return max(default_rank_tol(shape, sigma_max), FD_NOISE_FLOOR * max(1.0, sigma_max))


def _svd_cutoff(shape, sigma_max: float, tol_override, fd: bool) -> float:
    if tol_override is not None:
        return float(tol_override)
    if fd:
        return fd_rank_tol(shape, sigma_max)
    return default_rank_tol(shape, sigma_max)


def _rank_report(shape, s: np.ndarray, tol_override, fd: bool) -> RankReport:
    """The rank decision on the singular values s of a matrix of this shape."""
    sigma_max = float(s[0]) if s.size else 0.0
    tol = _svd_cutoff(shape, sigma_max, tol_override, fd)
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
    """Minimize |A x - b| for a full-column-rank A.

    One thin SVD A = U diag(s) V^T decides the column rank, with the
    cutoff of numeric_rank, and gives the solution V diag(1/s) U^T b; the
    normal equations are never formed.  Raises DegeneracyError carrying
    the RankReport when A is column rank deficient, since the minimizer
    is then not unique.
    """
    A = _as_matrix(A, "A")
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise InputError("b contains non-finite entries")
    if b.shape[0] != A.shape[0]:
        raise InputError(f"incompatible shapes: A is {A.shape}, b has length {b.shape[0]}")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    report = _rank_report(A.shape, s, rank_tol, False)
    if report.rank < A.shape[1]:
        raise DegeneracyError(
            f"least squares matrix is column rank deficient (rank {report.rank} < {A.shape[1]})",
            report=report,
        )
    coeff = (u.T @ b) / s.reshape((-1,) + (1,) * (b.ndim - 1))
    return vt.T @ coeff


def eigen_dense(M) -> np.ndarray:
    """All eigenvalues of a square matrix, sorted by (real, imag).

    For real input the values come from LAPACK's real Schur path, so
    complex eigenvalues appear in exact conjugate pairs.
    """
    A = _as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise InputError(f"matrix must be square, got shape {A.shape}")
    vals = np.linalg.eigvals(A)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def kernel_basis(M, tol_override: float | None = None, fd: bool = False) -> np.ndarray:
    """Orthonormal basis of ker(M) as columns, from right singular vectors."""
    A = _as_matrix(M)
    _, s, vt = np.linalg.svd(A)
    rank = _rank_report(A.shape, s, tol_override, fd).rank
    return vt[rank:].T.copy()


def image_basis(M, tol_override: float | None = None, fd: bool = False) -> np.ndarray:
    """Orthonormal basis of im(M) as columns, from left singular vectors."""
    A = _as_matrix(M)
    u, s, _ = np.linalg.svd(A)
    rank = _rank_report(A.shape, s, tol_override, fd).rank
    return u[:, :rank].copy()
