"""Pointwise non-degeneracy audits.

Checks, at a given (lambda, x):

  * whether the point is an equilibrium (small ||f||),
  * cond_i:   rank of df/dlambda equals min(m, n-k),
  * cond_ii:  rank of df/dx equals n-k (asserted at equilibria only),
  * cond_iii: kernel and image of df/dx intersect trivially,
  * the structural identity (df/dx)^T grad h_l + Hess(h_l) f = 0, which
    holds at every point of the domain, equilibrium or not,
  * the rank of the full Jacobian [df/dlambda | df/dx], which equals n-k
    along the equilibrium set and certifies its dimension m+k.

cond_i is audited but non-fatal: legitimate systems exist whose
equilibrium set is parameter-independent, making df/dlambda vanish there
(the three-species closed system behaves this way), so a cond_i failure
is a warning carrying the measured rank, never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EvaluationError, InputError, _scaled_norm
from .linalg import numeric_rank, rank_and_subspaces
from .systems import Evaluation, PointState, SystemSpec, evaluate
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one rank condition.

    passed is None when the condition is not asserted at this point
    (conditions ii and iii are statements about equilibria; off the
    equilibrium set the measured rank is recorded as information only).
    """

    passed: Optional[bool]
    rank: int
    expected: Optional[int]
    detail: str

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rank": self.rank,
            "expected": self.expected,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AuditReport:
    point: PointState
    is_equilibrium: bool
    residual: float
    cond_i: CheckResult
    cond_ii: CheckResult
    cond_iii: CheckResult
    structural_identity_residual: float
    full_jacobian_rank: int
    tolerances: dict

    @property
    def warnings(self) -> tuple:
        notes = []
        if self.cond_i.passed is False:
            notes.append(
                "cond_i: rank of df/dlambda is "
                f"{self.cond_i.rank}, expected {self.cond_i.expected}; "
                "parameter directions do not span the normal space here"
            )
        return tuple(notes)

    def as_dict(self) -> dict:
        return {
            "lambda": self.point.lam.tolist(),
            "x": self.point.x.tolist(),
            "is_equilibrium": self.is_equilibrium,
            "residual": self.residual,
            "cond_i": self.cond_i.as_dict(),
            "cond_ii": self.cond_ii.as_dict(),
            "cond_iii": self.cond_iii.as_dict(),
            "structural_identity_residual": self.structural_identity_residual,
            "full_jacobian_rank": self.full_jacobian_rank,
            "tolerances": dict(self.tolerances),
            "warnings": list(self.warnings),
        }


def structural_identity_residual(ev: Evaluation) -> float:
    """Max over l of ||(df/dx)^T grad h_l + Hess(h_l) f||.

    This vanishes identically, at every point of the domain, whenever the
    h_l are parameter-independent first integrals.  It is the
    differentiated form of d/dt h(x(t)) = 0, so it holds off the
    equilibrium set too.
    """
    worst = 0.0
    for l in range(ev.jac_h.shape[0]):
        grad = ev.jac_h[l]
        value = ev.jac_x.T @ grad + ev.hess_h[l] @ ev.f_value
        worst = max(worst, float(np.linalg.norm(value)))
    return worst


def check_structural_identity(sys: SystemSpec, u: PointState) -> float:
    """Residual of the structural identity at one point."""
    return structural_identity_residual(evaluate(sys, u, check_domain=False))


def _is_equilibrium(ev: Evaluation, tols: Tolerances) -> tuple:
    """(whether ev is at an equilibrium, ||f||).  EvaluationError when ||f||
    overflows although every entry of f is finite."""
    with np.errstate(over="ignore"):
        residual = float(np.linalg.norm(ev.f_value))
    if not np.isfinite(residual):
        raise EvaluationError(
            "||f|| is not finite", where=(ev.point.lam.tolist(), ev.point.x.tolist())
        )
    scale = 1.0 + _scaled_norm(ev.point.x)
    return residual <= tols.equilibrium * scale, residual


def _near_equilibrium(f_norm: float, x, tols: Tolerances, what: str) -> None:
    """InputError unless ||f|| = f_norm at the point x named what is within
    10 tols.equilibrium (1 + ||x||): the bound on the start of a fiber trace
    or a lift and on the points of an eigenvalue loop.  A NaN ||f|| is no
    equilibrium.  ||x|| is errors._scaled_norm, which does not overflow."""
    if not f_norm <= 10.0 * tols.equilibrium * (1.0 + _scaled_norm(x)):
        raise InputError(f"{what} is not an equilibrium: ||f|| = {f_norm:.3e}")


def audit_point(
    sys: SystemSpec, u, tols: Tolerances = DEFAULT_TOLERANCES
) -> AuditReport:
    """Run all pointwise checks at u, a PointState or an Evaluation already
    made there.  Never raises on a failed condition.

    Only evaluability is required, not domain membership, so equilibria
    just outside the working region can still be diagnosed.  A PointState
    must be finite, with lambda of length m and x of length n (InputError
    otherwise, as at every evaluation).  An ||f|| that overflows, although
    every entry of f is finite, is an EvaluationError.
    """
    if isinstance(u, Evaluation):
        return _audit(sys, u, tols)[0]
    return _audit(sys, evaluate(sys, u, check_domain=False), tols)[0]


def _audit(sys: SystemSpec, ev: Evaluation, tols: Tolerances) -> tuple:
    """audit_point on an evaluation, and the kernel basis of df/dx from the
    one SVD that decides cond_ii and cond_iii: (AuditReport, kernel)."""
    n, k, m = sys.n, sys.k, sys.m
    at_equilibrium, residual = _is_equilibrium(ev, tols)
    rank_lam = numeric_rank(ev.jac_lambda, tols.rank)
    expected_i = min(m, n - k)
    cond_i = CheckResult(
        passed=rank_lam.rank == expected_i,
        rank=rank_lam.rank,
        expected=expected_i,
        detail="rank of df/dlambda vs min(m, n-k); failure is a warning",
    )

    rank_x, kernel, image = rank_and_subspaces(ev.jac_x, tols.rank)
    cond_ii = CheckResult(
        passed=rank_x.rank == n - k if at_equilibrium else None,
        rank=rank_x.rank,
        expected=n - k if at_equilibrium else None,
        detail=(
            "rank of df/dx vs n-k at an equilibrium"
            if at_equilibrium
            else "measured rank of df/dx off the equilibrium set (informational)"
        ),
    )

    # the full SVD's kernel and image bases have n columns together
    rank_ki = numeric_rank(np.hstack([kernel, image]), tols.rank)
    cond_iii = CheckResult(
        passed=rank_ki.rank == n if at_equilibrium else None,
        rank=rank_ki.rank,
        expected=n,
        detail=(
            "rank of [kernel basis | image basis] of df/dx vs n"
            + ("" if at_equilibrium else " (informational off the equilibrium set)")
        ),
    )

    full = numeric_rank(np.hstack([ev.jac_lambda, ev.jac_x]), tols.rank)

    used = {
        "equilibrium": tols.equilibrium,
        "rank_jac_lambda": rank_lam.tol,
        "rank_jac_x": rank_x.tol,
        "rank_kernel_image": rank_ki.tol,
        "rank_full_jacobian": full.tol,
    }
    return AuditReport(
        point=ev.point,
        is_equilibrium=at_equilibrium,
        residual=residual,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        structural_identity_residual=structural_identity_residual(ev),
        full_jacobian_rank=full.rank,
        tolerances=used,
    ), kernel


@dataclass(frozen=True)
class DimensionVerdict:
    """Per-point dimension certificate for the equilibrium set."""

    point: PointState
    passed: bool
    full_jacobian_rank: int
    expected_rank: int
    kernel_dimension: int
    expected_kernel_dimension: int

    def as_dict(self) -> dict:
        return {
            "lambda": self.point.lam.tolist(),
            "x": self.point.x.tolist(),
            "passed": self.passed,
            "full_jacobian_rank": self.full_jacobian_rank,
            "expected_rank": self.expected_rank,
            "kernel_dimension": self.kernel_dimension,
            "expected_kernel_dimension": self.expected_kernel_dimension,
        }


def audit_manifold_dimension(
    sys: SystemSpec,
    equilibria: Sequence[PointState],
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> list:
    """Certify rank([df/dlambda | df/dx]) = n-k at each equilibrium.

    Equivalently dim ker J = m+k: the equilibrium set is locally an
    (m+k)-dimensional manifold wherever this passes.  Each point's
    audit_point decides the equilibrium test and gives the rank.
    """
    verdicts = []
    for u in equilibria:
        report = audit_point(sys, u, tols)
        if not report.is_equilibrium:
            raise InputError(
                f"point lambda = {u.lam.tolist()}, x = {u.x.tolist()} is not an "
                f"equilibrium: ||f|| = {report.residual:.3e} exceeds the tolerance "
                f"{tols.equilibrium:.1e} * (1 + ||x||)"
            )
        rank = report.full_jacobian_rank
        verdicts.append(
            DimensionVerdict(
                point=u,
                passed=rank == sys.n - sys.k,
                full_jacobian_rank=rank,
                expected_rank=sys.n - sys.k,
                kernel_dimension=sys.m + sys.n - rank,
                expected_kernel_dimension=sys.m + sys.k,
            )
        )
    return verdicts
