import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqbundle import builtin
from eqbundle.audit import AuditReport, _near_equilibrium, audit_point, structural_identity_residual
from eqbundle.errors import EqBundleError, InputError
from eqbundle.finder import _continuation_start, trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop
from eqbundle.systems import Domain, PointState, SystemSpec, evaluate
from eqbundle.tolerances import DEFAULT_TOLERANCES
from eqbundle.transport import connection_frame, lift_curve, metric_g

from conftest import count_calls, sample_box


def test_example2_symmetric_point(example2):
    u = PointState(np.array([1.0]), np.array([1.0, 1.0, 1.0]))
    report = audit_point(example2, u)
    assert report.is_equilibrium
    assert report.residual < 1e-14
    assert report.cond_ii.passed and report.cond_ii.rank == 1
    assert report.cond_iii.passed and report.cond_iii.rank == 3
    # df/dlambda vanishes on the whole equilibrium set here, so the
    # parameter-rank condition fails; that is a warning, not an error
    assert report.cond_i.passed is False
    assert report.cond_i.rank == 0 and report.cond_i.expected == 1
    assert report.warnings
    assert report.full_jacobian_rank == 1


@pytest.mark.parametrize("lam, x, message", [
    ([0.5], ["x", 0], "a point's lambda and x must be arrays of numbers"),
    ([0.5], [[0.0], [0.0, 1.0]], "a point's lambda and x must be arrays of numbers"),
    ({"l": 1}, [0.0, 0.0], "a point's lambda and x must be arrays of numbers"),
    ([0.5], [np.nan, 0.0], "x must be an array of finite numbers"),
    ([np.inf], [0.0, 0.0], "lambda must be an array of finite numbers"),
    ([0.5], [0.0], "x has length 1, expected a vector of length n = 2"),
])
def test_malformed_points_are_input_errors(planar, lam, x, message):
    with pytest.raises(InputError, match=message):
        audit_point(planar, PointState(lam, x))


def test_planar_audit(planar):
    u = PointState(np.array([0.5]), np.array([-0.5, 0.0]))
    report = audit_point(planar, u)
    assert report.is_equilibrium
    assert report.cond_i.passed and report.cond_i.rank == 1
    assert report.cond_ii.passed and report.cond_ii.rank == 1
    assert report.cond_iii.passed
    assert report.structural_identity_residual == 0.0
    assert report.full_jacobian_rank == 1
    assert not report.warnings


def test_example2_nilpotent_point(example2):
    # equilibrium with y = 0: rank of df/dx stays 1 but the nonzero block
    # is nilpotent, so kernel and image overlap
    u = PointState(np.array([1.0]), np.array([1.0, 0.0, 1.0]))
    ev = evaluate(example2, u, check_domain=False)
    assert np.allclose(ev.jac_x, [[0, 0, 0], [-1, 0, 1], [0, 0, 0]])
    report = audit_point(example2, u)
    assert report.is_equilibrium
    assert report.cond_ii.passed and report.cond_ii.rank == 1
    assert report.cond_iii.passed is False
    assert report.cond_iii.rank == 2


def test_structural_identity_hand_values(example2):
    # non-equilibrium point: the identity holds before f is set to zero
    u = PointState(np.array([1.0]), np.array([0.0, 1.0, 1.0]))
    ev = evaluate(example2, u, check_domain=False)
    assert np.linalg.norm(ev.f_value) > 0.5
    grad_h1 = ev.jac_h[0]
    term_jac = ev.jac_x.T @ grad_h1
    term_hess = ev.hess_h[0] @ ev.f_value
    assert np.allclose(term_jac, [2.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(term_hess, [-2.0, 0.0, 0.0], atol=1e-14)
    assert structural_identity_residual(ev) < 1e-12


def test_structural_identity_everywhere(planar, example2, rfmr3):
    rng = np.random.default_rng(424242)
    for sys in (planar, example2, rfmr3):
        checked = 0
        while checked < 200:
            pb = sys.parameter_box
            lam = pb[:, 0] + (pb[:, 1] - pb[:, 0]) * rng.random(sys.m)
            x = sample_box(sys.domain, rng, 1)[0]
            if not sys.domain.contains(x):
                continue
            checked += 1
            ev = evaluate(sys, PointState(lam, x), check_domain=False)
            assert structural_identity_residual(ev) < 1e-8


def test_eigenvalue_split_at_equilibria(planar, example2, rfmr3):
    # at equilibria passing cond_ii and cond_iii, df/dx has exactly k
    # eigenvalues at zero and n-k away from it
    points = []
    for y in (0.0, 0.5, -0.5, 0.9):
        points.append((planar, PointState(np.array([0.5]),
                                          np.array([0.5 * (y * y - 1.0), y]))))
    points.append((example2, PointState(np.array([1.0]), np.array([1.0, 1.0, 1.0]))))
    points.append((example2, PointState(np.array([1.0]), np.array([0.7, 0.95, 0.7]))))
    points.append((rfmr3, PointState(np.ones(3), np.full(3, 0.5))))
    points.append((rfmr3, PointState(np.ones(3), np.full(3, 0.25))))
    for sys, u in points:
        report = audit_point(sys, u)
        assert report.is_equilibrium
        if not (report.cond_ii.passed and report.cond_iii.passed):
            continue
        ev = evaluate(sys, u)
        eigs = np.linalg.eigvals(ev.jac_x)
        cut = 1e-7 * max(1.0, np.max(np.abs(eigs)))
        zeros = int(np.sum(np.abs(eigs) <= cut))
        assert zeros == sys.k
        assert len(eigs) - zeros == sys.n - sys.k


def test_kernel_image_split_detects_nilpotency(planar):
    # the [kernel | image] rank test distinguishes a semisimple zero
    # eigenvalue from a nilpotent one of the same rank
    from eqbundle.linalg import kernel_basis, numeric_rank, rank_and_subspaces

    rng = np.random.default_rng(99)
    for _ in range(20):
        p = rng.normal(size=(3, 3))
        while np.linalg.cond(p) > 20.0:
            p = rng.normal(size=(3, 3))
        semisimple = p @ np.diag([0.0, 1.0, 2.0]) @ np.linalg.inv(p)
        jordan = p @ np.array([[0.0, 1.0, 0.0],
                               [0.0, 0.0, 0.0],
                               [0.0, 0.0, 2.0]]) @ np.linalg.inv(p)
        for matrix, expect in ((semisimple, True), (jordan, False)):
            stacked = np.hstack([kernel_basis(matrix), rank_and_subspaces(matrix)[2]])
            # similarity by p leaves O(eps * cond(p)) noise in the bases;
            # the rank cutoff must sit above it and below the true gap
            assert (numeric_rank(stacked, tol_override=1e-8).rank == 3) == expect


def test_off_equilibrium_checks_are_informational(planar):
    u = PointState(np.array([0.5]), np.array([0.5, 0.0]))
    report = audit_point(planar, u)
    assert not report.is_equilibrium
    assert report.cond_ii.passed is None
    assert report.cond_iii.passed is None
    assert report.cond_ii.rank == 1  # measured rank still recorded


def test_report_serializes(example2):
    u = PointState(np.array([1.0]), np.array([1.0, 1.0, 1.0]))
    report = audit_point(example2, u)
    data = report.as_dict()
    text = json.dumps(data, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["is_equilibrium"] is True
    assert parsed["cond_i"]["passed"] is False
    assert set(parsed["tolerances"]) == {
        "equilibrium", "rank_jac_lambda", "rank_jac_x",
        "rank_kernel_image", "rank_full_jacobian",
    }
    assert parsed["warnings"]


def test_audit_point_takes_one_svd_of_df_dx(monkeypatch, rfmr3, example2):
    # df/dlambda, df/dx (rank, kernel and image at once), the kernel-image
    # stack and the full Jacobian: four SVDs, none of them repeated
    svds = count_calls(monkeypatch, "svd", np.linalg)
    for sys, u in (
        (rfmr3, PointState([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])),
        (example2, PointState([1.0], [1.0, 1.0, 1.0])),
    ):
        svds.clear()
        audit_point(sys, u)
        assert len(svds) == 4


NON_FINITE_ENTRIES = {
    "evaluate": lambda sys, u: evaluate(sys, u, check_domain=False),
    "connection_frame": connection_frame,
    "metric_g": lambda sys, u: metric_g(sys, u, np.zeros(3), np.zeros(3)),
}


@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRIES))
@pytest.mark.parametrize("lam, x, message", [
    ([0.5], [np.nan, 0.0], "x must be an array of finite numbers"),
    ([0.5], [0.0, -np.inf], "x must be an array of finite numbers"),
    ([np.nan], [0.0, 0.0], "lambda must be an array of finite numbers"),
])
def test_every_point_entry_rejects_a_non_finite_point(planar, entry, lam, x, message):
    # the point is rejected before f is evaluated there, which would raise
    # EvaluationError
    with pytest.raises(InputError, match=message):
        NON_FINITE_ENTRIES[entry](planar, PointState(lam, x))


def _nan_at_start_system():
    """A plain-callable planar system whose f is NaN at x = (0.1, 0) only."""
    def f(lam, x):
        if x[0] == 0.1 and x[1] == 0.0:
            return np.array([np.nan, 0.0])
        return np.array([-x[0] + lam[0] * (x[1] ** 2 - 1.0), 0.0])

    planar = builtin("planar")
    return SystemSpec(
        name="nan-start", n=2, m=1, k=1, f=f,
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=planar.jac_x_fn, jac_lambda_fn=planar.jac_lambda_fn,
        jac_h_fn=planar.jac_h_fn, hess_h_fn=planar.hess_h_fn,
    )


NAN_STARTS = {
    "trace_fiber": (
        lambda sys: trace_fiber(sys, [0.5], [0.1, 0.0]), "x0",
    ),
    "lift_curve": (
        lambda sys: lift_curve(sys, [[0.5], [0.6]], [0.1, 0.0]), "x0",
    ),
    "eigen_along_fiber_loop": (
        lambda sys: eigen_along_fiber_loop(sys, [0.5], [[-0.5, 0.0], [0.1, 0.0], [-0.5, 0.0]]),
        "loop point 1",
    ),
}


@pytest.mark.parametrize("entry", sorted(NAN_STARTS))
def test_a_nan_f_is_not_an_equilibrium(entry):
    run, what = NAN_STARTS[entry]
    with pytest.raises(InputError, match=rf"^{what} is not an equilibrium: \|\|f\|\| = nan$"):
        run(_nan_at_start_system())


def test_the_equilibrium_bounds_are_inclusive(planar):
    # ||f|| at the bound is an equilibrium, one ulp past it is not: the
    # audit's tols.equilibrium (1 + ||x||) and a fiber start's ten times
    # that.  At x = 0 the scale is 1, and 2^-30 keeps every product exact
    tols = DEFAULT_TOLERANCES.replace(equilibrium=2.0**-30)
    ev = evaluate(planar, PointState([0.5], [0.0, 0.0]))
    for f_norm, expected in ((2.0**-30, True), (math.nextafter(2.0**-30, 1.0), False)):
        report = audit_point(planar, ev._replace(f_value=np.array([f_norm, 0.0])), tols)
        assert (report.residual, report.is_equilibrium) == (f_norm, expected)
    bound = 10.0 * 2.0**-30
    _near_equilibrium(bound, [0.0, 0.0], tols, "x0")
    with pytest.raises(InputError, match="^x0 is not an equilibrium"):
        _near_equilibrium(math.nextafter(bound, 1.0), [0.0, 0.0], tols, "x0")


# a point of planar's fiber x1 = lambda (x2^2 - 1) at lambda = 0.5, which
# is also a point of the NaN-start system's
ON_FIBER = [-0.375, 0.5]
COORDINATES = st.one_of(
    st.floats(-1.5, 1.5),
    st.floats(-1e308, 1e308),
    st.sampled_from([0.0, 0.1, 1.0, -1.0, 1e308, -1e308]),
)


@st.composite
def fiber_probes(draw):
    """A point on planar's fiber at lambda = 0.5, near it or off it."""
    x2 = draw(COORDINATES)
    kind = draw(st.sampled_from(["on", "near", "off"]))
    if kind == "off" or abs(x2) > 2.0:
        return [draw(COORDINATES), x2]
    x1 = 0.5 * (x2 * x2 - 1.0)
    return [x1 + draw(st.floats(-1e-6, 1e-6)) if kind == "near" else x1, x2]


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(name=st.sampled_from(["planar", "nan-start"]), p=fiber_probes())
@example(name="nan-start", p=[0.1, 0.0])
@example(name="planar", p=[0.0, 1e308])
def test_an_eigen_loop_point_is_tested_as_a_fiber_start(name, p):
    # the loop [q, p, q] stops at point 1 exactly where a trace from p
    # would stop, with the same error and the point named as a loop point
    sys = builtin("planar") if name == "planar" else _nan_at_start_system()
    try:
        _continuation_start(sys, np.array([0.5]), p, DEFAULT_TOLERANCES)
        expected = None
    except EqBundleError as err:
        expected = err
    try:
        eigen_along_fiber_loop(sys, [0.5], [ON_FIBER, p, ON_FIBER])
        raised = None
    except EqBundleError as err:
        raised = err
    if expected is None:
        assert raised is None or not str(raised).startswith("loop point")
    else:
        assert type(raised) is type(expected)
        assert str(raised) == str(expected).replace("x0", "loop point 1", 1)
