import json

import numpy as np
import pytest

from conftest import count_calls
from eqbundle import audit, finder, systems, transport
from eqbundle.errors import DegeneracyError, HolonomyError, InputError, TransportError
from eqbundle.linalg import numeric_rank, solve_least_squares
from eqbundle.systems import Domain, PointState, SystemSpec
from eqbundle.tolerances import DEFAULT_TOLERANCES
from eqbundle.transport import (
    check_cocycle,
    connection_frame,
    holonomy_loop,
    lift_curve,
    metric_g,
    vertical_projector,
)

ASYM_LAM = np.array([1.0, 1.875, 1.0])
ASYM_X = np.array([0.5, 0.4, 0.6])   # equilibrium of rfmr(3) off the diagonal


def in_span(basis, vector, atol=1e-10):
    # basis columns are orthonormal
    vector = np.asarray(vector, dtype=float)
    return np.linalg.norm(basis @ (basis.T @ vector) - vector) < atol


def test_frame_example2(example2):
    frame = connection_frame(example2, PointState([1.0], [1.0, 1.0, 1.0]))
    assert frame.vertical_basis.shape == (4, 2)
    assert frame.horizontal_basis.shape == (4, 1)
    s = 1.0 / np.sqrt(2.0)
    assert in_span(frame.vertical_basis, [0.0, s, 0.0, s])
    assert in_span(frame.vertical_basis, [0.0, 0.0, 1.0, 0.0])
    assert in_span(frame.horizontal_basis, [1.0, 0.0, 0.0, 0.0])
    # identity orthonormality of each basis
    assert np.allclose(frame.vertical_basis.T @ frame.vertical_basis, np.eye(2), atol=1e-12)
    assert frame.max_mutual_overlap < 1e-12


def test_frame_planar(planar):
    frame = connection_frame(planar, PointState([0.5], [-0.5, 0.0]))
    assert frame.vertical_basis.shape == (3, 1)
    assert frame.horizontal_basis.shape == (3, 1)
    assert in_span(frame.vertical_basis, [0.0, 0.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    assert in_span(frame.horizontal_basis, [s, -s, 0.0])
    assert frame.max_mutual_overlap < 1e-12
    # sign normalization: dominant coordinate of each column is positive
    for basis in (frame.vertical_basis, frame.horizontal_basis):
        for col in basis.T:
            assert col[np.argmax(np.abs(col))] > 0


def test_frame_preconditions(example2, planar):
    # nilpotent point: cond_iii fails, the splitting does not exist
    complementary = "^kernel and image of df/dx are not complementary$"
    with pytest.raises(DegeneracyError, match=complementary) as err:
        connection_frame(example2, PointState([1.0], [1.0, 0.0, 1.0]))
    assert err.value.report is not None
    assert err.value.report.cond_iii.passed is False
    # not an equilibrium at all
    with pytest.raises(DegeneracyError, match="needs an equilibrium"):
        connection_frame(planar, PointState([0.5], [0.5, 0.0]))
    # df/dx vanishes at the origin of example2, an equilibrium: cond_ii fails
    with pytest.raises(DegeneracyError, match="^rank of df/dx is 0, expected 1$") as err:
        connection_frame(example2, PointState([1.0], [0.0, 0.0, 0.0]))
    assert err.value.report.cond_ii.passed is False


def _line_system(h, jac_h):
    """n = 2, m = 1, k = 1: f = (x1 - lambda, 0), whose equilibria x1 =
    lambda pass cond_ii and cond_iii, with the given h, which need not be
    a first integral."""
    return SystemSpec(
        name="line", n=2, m=1, k=1,
        f=lambda lam, x: np.array([x[0] - lam[0], 0.0]),
        h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=lambda lam, x: np.array([[1.0, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.array([[-1.0], [0.0]]),
        jac_h_fn=jac_h,
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )


def test_frame_refuses_a_splitting_that_h_does_not_cut():
    u = PointState([0.5], [0.5, 0.0])
    # dh/dx vanishes at u: the horizontal space is the whole 2-dimensional
    # kernel of [df/dlambda | df/dx]
    flat = _line_system(lambda x: np.array([x[1] ** 2]), lambda x: np.array([[0.0, 2.0 * x[1]]]))
    with pytest.raises(DegeneracyError, match="^horizontal subspace has dimension 2, expected 1$"):
        connection_frame(flat, u)
    # h = x1 is constant along the fiber: the one horizontal direction is
    # the vertical one
    along = _line_system(lambda x: np.array([x[0]]), lambda x: np.array([[1.0, 0.0]]))
    spans = "^vertical \\+ horizontal spans rank 1, expected 2$"
    with pytest.raises(DegeneracyError, match=spans) as err:
        connection_frame(along, u)
    assert err.value.report.cond_ii.passed and err.value.report.cond_iii.passed


def test_frame_oblique_splitting(rfmr3):
    assert np.max(np.abs(rfmr3.f(ASYM_LAM, ASYM_X))) < 1e-15
    frame = connection_frame(rfmr3, PointState(ASYM_LAM, ASYM_X))
    # the vertical/horizontal splitting is genuinely oblique here: the
    # recorded overlap diagnostic is far from zero, and that is fine
    assert frame.max_mutual_overlap > 1e-3
    together = np.hstack([frame.vertical_basis, frame.horizontal_basis])
    assert numeric_rank(together).rank == 4  # still spans T_u E


def test_metric_examples(planar, rfmr3):
    u = PointState([0.5], [-0.5, 0.0])
    frame = connection_frame(planar, u)
    V = frame.vertical_basis[:, 0]
    H = frame.horizontal_basis[:, 0]
    assert metric_g(planar, u, V, H) == pytest.approx(0.0, abs=1e-12)
    assert metric_g(planar, u, V, V) == pytest.approx(1.0, abs=1e-12)
    lifted = H / H[0]   # horizontal lift of e1
    assert metric_g(planar, u, lifted, lifted) == pytest.approx(1.0, abs=1e-10)

    u3 = PointState(ASYM_LAM, ASYM_X)
    frame3 = connection_frame(rfmr3, u3)
    coeff = solve_least_squares(frame3.horizontal_basis[:3, :], np.array([1.0, 0.0, 0.0]))
    lifted3 = frame3.horizontal_basis @ coeff
    assert np.allclose(lifted3[:3], [1.0, 0.0, 0.0], atol=1e-10)
    assert metric_g(rfmr3, u3, lifted3, lifted3) == pytest.approx(1.0, abs=1e-10)
    vert = frame3.vertical_basis[:, 0]
    assert metric_g(rfmr3, u3, vert, vert) == pytest.approx(1.0, abs=1e-12)


def test_metric_tangency_precondition(planar):
    u = PointState([0.5], [-0.5, 0.0])
    with pytest.raises(InputError, match="not tangent"):
        metric_g(planar, u, [1.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    # the bound is inclusive: J V is exactly 0 here, so V passes at tangent 0
    exact = DEFAULT_TOLERANCES.replace(tangent=0.0)
    assert metric_g(planar, u, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], exact) == pytest.approx(1.0)


def test_submersion_isometry(example2, rfmr3):
    # g restricted to horizontal vectors equals the parameter-space inner
    # product of their projections
    cases = [
        (example2, PointState([1.0], [1.0, 1.0, 1.0])),
        (rfmr3, PointState(ASYM_LAM, ASYM_X)),
        (rfmr3, PointState([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])),
    ]
    for sys, u in cases:
        frame = connection_frame(sys, u)
        H = frame.horizontal_basis
        for i in range(H.shape[1]):
            for j in range(H.shape[1]):
                g = metric_g(sys, u, H[:, i], H[:, j])
                flat = float(H[: sys.m, i] @ H[: sys.m, j])
                assert abs(g - flat) <= 1e-8


def test_lift_planar(planar):
    result = lift_curve(planar, [[0.5], [0.9]], [-0.5, 0.0])
    assert np.allclose(result.gamma[-1], [-0.9, 0.0], atol=1e-8)
    assert result.max_h_drift <= 1e-8
    assert result.max_f_residual <= 1e-8
    # along the lift, x = -lambda exactly (y stays 0 on this fiber)
    assert np.max(np.abs(result.gamma[:, 0] + result.lambda_path[:, 0])) <= 1e-8
    assert np.max(np.abs(result.gamma[:, 1])) <= 1e-12
    assert result.steps_taken > 0
    assert result.t[0] == 0.0 and result.t[-1] == pytest.approx(1.0)


def test_lift_constant_path(planar):
    result = lift_curve(planar, [[0.5], [0.5]], [-0.5, 0.0])
    assert np.max(np.abs(result.gamma - np.array([-0.5, 0.0]))) == 0.0
    assert result.max_h_drift == 0.0


def test_lift_example2_stationary(example2):
    x_star, y_star = np.sqrt(8.0 / 15.0), np.sqrt(14.0 / 15.0)
    x0 = np.array([x_star, y_star, x_star])
    result = lift_curve(example2, [[1.0], [2.0]], x0)
    # df/dlambda vanishes on the equilibrium plane, so the lift is stationary
    assert np.linalg.norm(result.gamma[-1] - x0) <= 1e-8
    assert result.max_h_drift <= 1e-8


def test_lift_validations(planar):
    with pytest.raises(InputError, match="not an equilibrium"):
        lift_curve(planar, [[0.5], [0.9]], [0.3, 0.0])
    with pytest.raises(InputError, match="waypoints"):
        lift_curve(planar, [[0.5]], [-0.5, 0.0])
    with pytest.raises(InputError, match="x0 has length"):
        lift_curve(planar, [[0.5], [0.9]], [-0.5, 0.0, 0.0])


def test_lift_transversality_failure():
    # h is not independent along f's degenerate direction: the stacked
    # matrix [df/dx; dh/dx] has rank 1 < n = 2 everywhere
    sys = SystemSpec(
        name="rank-deficient", n=2, m=1, k=1,
        f=lambda lam, x: np.array([-x[0], 0.0]),
        h=lambda x: np.array([x[0]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=lambda lam, x: np.array([[-1.0, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[1.0, 0.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    with pytest.raises(TransportError) as err:
        lift_curve(sys, [[1.0], [2.0]], [0.0, 0.5])
    assert err.value.t is not None


def test_a_step_that_leaves_exactly_min_fraction_is_taken_as_it_is(planar):
    # 1 - 0.75 is exactly min_fraction, which a step may leave: the segment
    # takes the steps 0.75 and 0.25, not one step of 1
    result = lift_curve(planar, [[0.5], [0.75]], [-0.5, 0.0], initial_fraction=0.75,
                        min_fraction=0.25)
    assert result.t.tolist() == [0.0, 0.75, 1.0]


def test_a_candidate_outside_is_retried_at_exactly_twice_min_fraction():
    # x1 = 0.5 tanh(5 (lambda - 0.5)) stays below 0.5, but RK4 over the
    # whole path puts the candidate near x1 = 1.2, outside the box.  A step
    # of 2 min_fraction can still be halved, so it is retried, though its
    # corrected point would be inside
    def branch(lam):
        return 0.5 * np.tanh(5.0 * (lam - 0.5))

    sys = SystemSpec(
        name="tanh", n=2, m=1, k=1,
        f=lambda lam, x: np.array([branch(lam[0]) - x[0], 0.0]),
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 0.6], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.array([[-1.0, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.array(
            [[2.5 / np.cosh(5.0 * (lam[0] - 0.5)) ** 2], [0.0]]
        ),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    result = lift_curve(sys, [[0.0], [1.0]], [branch(0.0), 0.0], min_fraction=0.5)
    assert result.t.tolist() == [0.0, 0.5, 1.0]
    assert result.gamma[-1, 0] == pytest.approx(branch(1.0), abs=1e-12)


def test_a_start_within_the_corrector_tolerance_is_not_projected(monkeypatch):
    # ||f|| at the start is exactly tols.newton (1 + ||x0||), the bound
    # itself: the start is kept, so the one accepted step is the one
    # correction
    sys = _line_system(lambda x: np.array([x[1]]), lambda x: np.array([[0.0, 1.0]]))
    calls = count_calls(monkeypatch, "_correct", transport)
    lam0 = [DEFAULT_TOLERANCES.newton]
    assert np.linalg.norm(sys.f(lam0, [0.0, 0.0])) == DEFAULT_TOLERANCES.newton
    result = lift_curve(sys, [lam0, [0.5]], [0.0, 0.0])
    assert result.steps_taken == len(calls) == 1


def test_lift_horizontality(rfmr3):
    result = lift_curve(rfmr3, [[1.0, 1.0, 1.0], [2.0, 1.5, 1.0]], [0.5, 0.5, 0.5])
    lam_dot = np.array([1.0, 0.5, 0.0])
    for i in range(len(result.t)):
        lam_i, x_i = result.lambda_path[i], result.gamma[i]
        frame = connection_frame(rfmr3, PointState(lam_i, x_i))
        # instantaneous lifted velocity is horizontal by construction
        jac_x = rfmr3.jac_x_fn(lam_i, x_i)
        jac_h = rfmr3.jac_h_fn(x_i)
        jac_l = rfmr3.jac_lambda_fn(lam_i, x_i)
        A = np.vstack([jac_x, jac_h])
        b = np.concatenate([-jac_l @ lam_dot, np.zeros(1)])
        xdot = solve_least_squares(A, b)
        velocity = np.concatenate([lam_dot, xdot])
        vert = vertical_projector(frame, velocity)
        assert np.linalg.norm(vert) <= 1e-6 * np.linalg.norm(velocity)
        # the discrete secant picks up an O(dt) vertical bias from fiber
        # curvature; bound it relative to the step it took
        if i > 0:
            dt = result.t[i] - result.t[i - 1]
            secant = np.concatenate([
                result.lambda_path[i] - result.lambda_path[i - 1],
                result.gamma[i] - result.gamma[i - 1],
            ])
            prev = connection_frame(
                rfmr3, PointState(result.lambda_path[i - 1], result.gamma[i - 1])
            )
            vert_secant = vertical_projector(prev, secant)
            assert np.linalg.norm(vert_secant) <= 0.5 * dt * np.linalg.norm(secant)


def test_holonomy_planar(planar):
    report = holonomy_loop(planar, [[0.5], [0.9], [0.5]], [0.0], budget=50, seed=0)
    assert report.permutation == (0,)
    assert report.max_roundtrip_displacement < 1e-6
    assert np.allclose(report.points_before[0], [-0.5, 0.0], atol=1e-9)


def test_holonomy_example2(example2):
    report = holonomy_loop(example2, [[1.0], [2.0], [1.0]], [2.0, 6.0], budget=200, seed=0)
    assert report.permutation == (0, 1, 2, 3)
    assert report.max_roundtrip_displacement < 1e-6
    ordered = [tuple(np.round(row, 9)) for row in report.points_before]
    assert ordered == sorted(ordered)


def test_holonomy_rfmr_rectangle(rfmr3):
    loop = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1, 2, 1], [1, 1, 1]]
    report = holonomy_loop(rfmr3, loop, [1.5], budget=80, seed=0)
    assert report.permutation == tuple(range(len(report.points_before)))
    assert report.max_roundtrip_displacement < 1e-6


def test_holonomy_validations(planar):
    with pytest.raises(InputError, match="loop must close"):
        holonomy_loop(planar, [[0.5], [0.9]], [0.0])
    with pytest.raises(InputError, match="no equilibria"):
        holonomy_loop(planar, [[0.5], [0.9], [0.5]], [5.0], budget=20, seed=0)


def test_holonomy_rejects_two_lifts_onto_one_point(example2, monkeypatch):
    # every lane ends where the first one does: each endpoint matches the
    # first point, and the matching is not a bijection
    lift_lanes = transport.lift_lanes

    def collapsed(sys, paths, starts, tols):
        lifts = lift_lanes(sys, paths, starts, tols)
        return [lifts[0]] * len(lifts)

    monkeypatch.setattr(transport, "lift_lanes", collapsed)
    with pytest.raises(HolonomyError, match=r"not a bijection: \[0, 0, 0, 0\]$"):
        holonomy_loop(example2, [[1.0], [2.0], [1.0]], [2.0, 6.0], budget=200, seed=0)


def test_holonomy_matching_radius(rfmr3, planar):
    # a zero matching radius rejects even a perfect roundtrip
    loop = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1, 2, 1], [1, 1, 1]]
    strict = DEFAULT_TOLERANCES.replace(cluster=0.0)
    with pytest.raises(HolonomyError, match="away from every enumerated point"):
        holonomy_loop(rfmr3, loop, [1.5], budget=80, seed=0, tols=strict)
    # but the radius is inclusive: a lift along a constant loop returns to
    # its start exactly, a distance 0, which matches at radius 0
    report = holonomy_loop(planar, [[0.5], [0.5]], [0.0], budget=1, seed=0, tols=strict)
    assert report.permutation == (0,) and report.max_roundtrip_displacement == 0.0


def test_cocycle(planar, rfmr3):
    assert check_cocycle(planar, [0.5], [0.7], [0.9], [-0.5, 0.0]) < 1e-8
    assert check_cocycle(planar, [0.5], [0.5], [0.5], [-0.5, 0.0]) == 0.0
    deviation = check_cocycle(
        rfmr3, [1, 1, 1], [1.2, 1.0, 1.0], [1.1, 1.3, 1.0], [0.5, 0.5, 0.5]
    )
    assert deviation < 1e-6


def test_cocycle_path_validation(planar):
    bad = (
        np.array([[0.5], [0.6]]),
        np.array([[0.8], [0.9]]),   # should start at lambda2 = 0.6
        np.array([[0.5], [0.9]]),
    )
    with pytest.raises(InputError, match="does not connect"):
        check_cocycle(planar, [0.5], [0.6], [0.9], [-0.5, 0.0], paths=bad)
    # the bound is inclusive: 1e-9 - 0 is exactly 1e-9, so a path that
    # starts, or ends, 1e-9 from its declared endpoint 0 connects it
    near = ([[1e-9], [0.5]], [[0.5], [1e-9]], [[0.0], [0.0]])
    assert check_cocycle(planar, [0.0], [0.5], [0.0], [0.0, 0.0], paths=near) < 1e-8


def test_transport_serialization(planar):
    result = lift_curve(planar, [[0.5], [0.9]], [-0.5, 0.0])
    data = json.loads(json.dumps(result.as_dict(), sort_keys=True))
    assert len(data["t"]) == len(data["gamma"]) == len(data["lambda_path"])
    report = holonomy_loop(planar, [[0.5], [0.9], [0.5]], [0.0], budget=30, seed=0)
    blob = json.loads(json.dumps(report.as_dict(), sort_keys=True))
    assert blob["permutation"] == [0]


def test_frame_reuses_the_audit_factorization(monkeypatch, rfmr3):
    # the audit's four SVDs, then the horizontal kernel and the span rank;
    # V_u is the kernel of the audit's SVD of df/dx
    svds = count_calls(monkeypatch, "svd", np.linalg)
    connection_frame(rfmr3, PointState(ASYM_LAM, ASYM_X))
    assert len(svds) == 6


def test_metric_evaluates_the_point_once(monkeypatch, rfmr3):
    u = PointState(ASYM_LAM, ASYM_X)
    vertical = connection_frame(rfmr3, u).vertical_basis[:, 0]
    evaluations = count_calls(monkeypatch, "evaluate", audit, transport)
    metric_g(rfmr3, u, vertical, vertical)
    assert len(evaluations) == 1


def test_holonomy_lifts_its_points_without_evaluating_or_auditing_them(
    monkeypatch, example2
):
    # the lift needs the enumerated x's alone: no derivative blocks are
    # evaluated and no audit is made at the base waypoint
    evaluations = count_calls(monkeypatch, "evaluate", systems, audit, transport)
    # finder evaluates its kept points as one stack
    stacked = count_calls(monkeypatch, "_evaluate_rows", finder)
    audits = count_calls(monkeypatch, "_audit", audit, transport)
    report = holonomy_loop(example2, [[1.0], [2.0], [1.0]], [2.0, 6.0], budget=200, seed=0)
    assert report.permutation == (0, 1, 2, 3)
    assert evaluations == [] and stacked == [] and audits == []


def test_holonomy_loop_closes_at_the_config_rule(rfmr3):
    # configs accept loops that close within 1e-9 relative; so does the call
    loop = [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1 + 1e-10, 1, 1]]
    report = holonomy_loop(rfmr3, loop, [1.5], budget=40, seed=0)
    assert report.permutation == (0,)
