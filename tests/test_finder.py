import dataclasses
import hashlib
import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import circle_fiber_system, count_calls
from eqbundle import builtin, finder
from eqbundle.errors import (
    DIMENSION_LIMIT,
    BranchPointError,
    ConvergenceError,
    DegeneracyError,
    EqBundleError,
    EvaluationError,
    InputError,
    UnsupportedDimensionError,
)
from eqbundle.expr import build_system_from_config
from eqbundle.finder import (
    _cluster_representatives,
    enumerate_level_points,
    level_starts,
    newton_on_level_set,
    trace_fiber,
)
from eqbundle.linalg import solve_least_squares
from eqbundle.systems import Domain, PointState, SystemSpec
from eqbundle.tolerances import Tolerances
from eqbundle.transport import holonomy_loop


def bisect_root(func, lo, hi, tol=1e-14):
    flo = func(lo)
    assert flo * func(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * func(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, func(mid)
    return 0.5 * (lo + hi)


def test_newton_planar(planar):
    point = newton_on_level_set(planar, [0.5], [0.0], [0.0, 0.0])
    assert np.allclose(point.state.x, [-0.5, 0.0], atol=1e-10)
    assert point.residual_f <= 1e-9 * (1 + np.linalg.norm(point.state.x))
    assert np.allclose(point.level, [0.0], atol=1e-10)
    assert point.transversal and point.stacked_rank == 2
    assert point.audit.is_equilibrium


def test_newton_example2_against_bisection_oracle(example2):
    # on the level (2, 6) with x = z the two integral equations reduce to
    # a single quadratic in x^2; solve it independently by bisection
    def reduced(x):
        y_sq = 2.0 - 2.0 * x * x
        return 4 * x * x + 4 * y_sq + 0.25 * x * x - 6.0

    x_star = bisect_root(reduced, 0.5, 1.0)
    y_star = np.sqrt(2.0 - 2.0 * x_star * x_star)
    assert abs(x_star - np.sqrt(8.0 / 15.0)) < 1e-12

    point = newton_on_level_set(example2, [1.0], [2.0, 6.0], [0.7, 0.9, 0.7])
    assert np.allclose(point.state.x, [x_star, y_star, x_star], atol=1e-9)
    assert np.allclose(point.level, [2.0, 6.0], atol=1e-10)
    assert point.transversal


def test_newton_rfmr(rfmr3):
    point = newton_on_level_set(rfmr3, [1.0, 1.0, 1.0], [1.5], [0.4, 0.5, 0.6])
    assert np.allclose(point.state.x, [0.5, 0.5, 0.5], atol=1e-9)


def test_newton_input_validation(planar):
    with pytest.raises(InputError, match="not in the domain"):
        newton_on_level_set(planar, [0.5], [0.0], [2.0, 2.0])
    with pytest.raises(InputError, match="lambda has length"):
        newton_on_level_set(planar, [0.5, 0.5], [0.0], [0.0, 0.0])
    with pytest.raises(InputError, match="level a has length"):
        newton_on_level_set(planar, [0.5], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ConvergenceError):
        newton_on_level_set(planar, [0.5], [0.9], [0.1, 0.1], max_iter=1)


def test_newton_singular_system():
    # h is deliberately not a first integral; its gradient is parallel to
    # the only nonzero row of df/dx, so the stacked Jacobian loses rank
    sys = SystemSpec(
        name="degenerate", n=2, m=1, k=1,
        f=lambda lam, x: np.array([-x[0], 0.0]),
        h=lambda x: np.array([x[0]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=lambda lam, x: np.array([[-1.0, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[1.0, 0.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    with pytest.raises(DegeneracyError, match="singular Newton system"):
        newton_on_level_set(sys, [1.0], [0.5], [0.5, 0.5])


def test_enumerate_example2_level_counts(example2):
    x_star, y_star = np.sqrt(8.0 / 15.0), np.sqrt(14.0 / 15.0)
    counts = {}
    for lam_value in (1.0, 2.0):
        points = enumerate_level_points(
            example2, [lam_value], [2.0, 6.0], budget=200, seed=0
        )
        counts[lam_value] = len(points)
        assert len(points) == 4
        patterns = set()
        for p in points:
            x, y, z = p.state.x
            assert abs(abs(x) - x_star) < 1e-9
            assert abs(abs(y) - y_star) < 1e-9
            assert abs(x - z) < 1e-9  # sign of x and z is linked
            patterns.add((x > 0, y > 0))
        assert len(patterns) == 4
        ordered = [tuple(np.round(p.state.x, 9)) for p in points]
        assert ordered == sorted(ordered)
    # the count does not depend on lambda
    assert counts[1.0] == counts[2.0]


def test_enumerate_planar_unique(planar):
    points = enumerate_level_points(planar, [0.5], [0.0], budget=100, seed=0)
    assert len(points) == 1
    assert np.allclose(points[0].state.x, [-0.5, 0.0], atol=1e-9)


def test_enumerate_empty_and_validation(planar):
    with pytest.raises(InputError, match="budget"):
        enumerate_level_points(planar, [0.5], [0.0], budget=0)
    # level outside the reachable range of h on V: empty, not an error
    assert enumerate_level_points(planar, [0.5], [5.0], budget=50, seed=1) == []


def test_trace_planar_parabola(planar):
    trace = trace_fiber(planar, [0.5], [-0.5, 0.0])
    assert trace.topology == "segment"
    pts = trace.points
    assert np.max(np.abs(pts[:, 0] - 0.5 * (pts[:, 1] ** 2 - 1.0))) < 1e-8
    assert trace.max_f_residual <= 1e-8
    targets = [np.array([0.0, -1.0]), np.array([0.0, 1.0])]
    for target in targets:
        assert min(np.linalg.norm(pts[0] - target), np.linalg.norm(pts[-1] - target)) < 1e-6
    assert all(d <= 1e-6 for d in trace.endpoint_boundary_distances)
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.max(gaps) <= 1.5 * 0.05 * planar.domain.diameter()
    assert trace.arclength == pytest.approx(np.sum(gaps))


def test_trace_rfmr_diagonal(rfmr3):
    trace = trace_fiber(rfmr3, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    assert trace.topology == "segment"
    pts = trace.points
    # the equal-rates fiber is the main diagonal of the unit cube
    assert np.max(np.abs(pts - pts[:, :1])) < 1e-8
    corners = [np.zeros(3), np.ones(3)]
    for corner in corners:
        assert min(np.linalg.norm(pts[0] - corner), np.linalg.norm(pts[-1] - corner)) < 1e-6
    assert all(d <= 1e-6 for d in trace.endpoint_boundary_distances)
    assert trace.max_f_residual <= 1e-8


def test_trace_circle(planar):
    sys = circle_fiber_system()
    trace = trace_fiber(sys, [1.0], [0.5, 0.0])
    assert trace.topology == "circle"
    assert np.array_equal(trace.points[0], trace.points[-1])
    radii = np.linalg.norm(trace.points, axis=1)
    assert np.max(np.abs(radii - 0.5)) < 1e-8
    assert trace.max_f_residual <= 1e-8
    assert trace.endpoint_boundary_distances is None
    # polyline length of a sampled circle approaches 2*pi*r from below
    assert 0.95 * np.pi < trace.arclength <= np.pi + 1e-6


def test_trace_direction_independence(planar):
    fwd = trace_fiber(planar, [0.5], [-0.5, 0.0], initial_direction=1)
    rev = trace_fiber(planar, [0.5], [-0.5, 0.0], initial_direction=-1)
    # a segment is traced in both directions from x0 either way, so the
    # sampled point sets agree exactly as unordered sets
    set_fwd = sorted(map(tuple, fwd.points))
    set_rev = sorted(map(tuple, rev.points))
    assert np.allclose(np.asarray(set_fwd), np.asarray(set_rev), atol=1e-10)

    sys = circle_fiber_system()
    one = trace_fiber(sys, [1.0], [0.5, 0.0], initial_direction=1)
    two = trace_fiber(sys, [1.0], [0.5, 0.0], initial_direction=-1)
    # opposite walks around the same circle: compare as curves
    gap = max(
        np.max(np.linalg.norm(np.diff(one.points, axis=0), axis=1)),
        np.max(np.linalg.norm(np.diff(two.points, axis=0), axis=1)),
    )
    dists = np.linalg.norm(one.points[:, None, :] - two.points[None, :, :], axis=2)
    hausdorff = max(dists.min(axis=1).max(), dists.min(axis=0).max())
    assert hausdorff <= gap
    assert one.topology == two.topology == "circle"
    assert one.arclength == pytest.approx(two.arclength, rel=0.01)


def test_a_direction_holds_at_most_max_points(planar):
    # each direction of this segment takes 13 points, its start included
    assert len(trace_fiber(planar, [0.5], [-0.5, 0.0], max_points=13).points) == 25
    with pytest.raises(ConvergenceError, match="exceeded 12 points"):
        trace_fiber(planar, [0.5], [-0.5, 0.0], max_points=12)


def test_a_trace_closed_one_way_only_is_an_error(monkeypatch, planar):
    # the two directions disagree: one meets the boundary, the other closes
    march = finder._march
    closes = iter([False, True])

    def marched(*args):
        points, f_norms, _ = march(*args)
        return points, f_norms, next(closes)

    monkeypatch.setattr(finder, "_march", marched)
    with pytest.raises(ConvergenceError, match="closed in one direction but met the boundary"):
        trace_fiber(planar, [0.5], [-0.5, 0.0])


def test_trace_rejects_k_not_one(example2):
    with pytest.raises(UnsupportedDimensionError, match="k = 1"):
        trace_fiber(example2, [1.0], [1.0, 1.0, 1.0])


def test_trace_requires_equilibrium(planar):
    with pytest.raises(InputError, match="not an equilibrium"):
        trace_fiber(planar, [0.5], [0.3, 0.0])


def test_trace_branch_point_detected():
    # f vanishes identically, so the kernel of df/dx is 2-dimensional
    sys = SystemSpec(
        name="flat", n=2, m=1, k=1,
        f=lambda lam, x: np.zeros(2),
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=lambda lam, x: np.zeros((2, 2)),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    with pytest.raises(BranchPointError) as err:
        trace_fiber(sys, [1.0], [0.0, 0.0])
    assert err.value.location is not None
    assert np.allclose(err.value.location.x, [0.0, 0.0])


def test_a_fiber_is_traced_through_a_crossing_branch():
    # at lambda = 0.5 the fiber x1 = -1/4 crosses the parabola x1 = 0.5
    # (x2^2 - 1), where df/dx = 0, at x2 = +-sqrt(0.5); no step lands on a
    # crossing, so the line is traced straight through both, from a start
    # past a crossing and from one between them, without an error
    sys = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "h": ["x2"],
        "f": ["-(x1 - l1*(x2^2 - 1))*(x1 + 0.25)", "0*x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": [[0.25, 1.5]],
    })
    for x0 in ([-0.25, 0.9], [-0.25, 0.0]):
        trace = trace_fiber(sys, [0.5], x0)
        assert trace.topology == "segment"
        assert np.all(trace.points[:, 0] == -0.25)
        assert trace.points[[0, -1], 1] == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert trace.max_f_residual == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the trace stays on its branch, but 0.01 from the sibling the "
                   "corrector's tolerance allows about 1.4e-8 off it, and this trace reads "
                   "4.4e-9")
def test_a_fiber_trace_stays_on_its_branch():
    # f1 = -(x1 - r(x2)) (x1 - 0.41), r = 0.4 tanh(10 (x2 - 0.3)): the fiber
    # through x0 is x1 = r(x2), which rises to 0.4 tanh(7) < 0.41 and so
    # never meets its sibling x1 = 0.41.  Near x2 = 0.45 the secant
    # predictor overshoots toward the sibling; without the turn guard the
    # corrector lands there and the last 11 points lie on x1 = 0.41
    sys = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "h": ["x2"],
        "f": ["-(x1 - 0.4*(1 - 2/(exp(2*10*(x2 - 0.3)) + 1)))*(x1 - 0.41)", "0*x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": [[0.5, 1.5]],
    })
    trace = trace_fiber(sys, [1.0], [-0.39999999996979896, -0.9])
    x1, x2 = trace.points.T
    assert np.abs(x1 - 0.4 * np.tanh(10.0 * (x2 - 0.3))).max() < 1e-9


def test_the_step_rule_reads_a_turn_only_where_a_lane_has_one():
    # per lane (iterations, turn): a turn below 0.995 retries, and a
    # 2-iteration step grows only above 0.998; a turn of NaN, as in the
    # lift, is the rule without a turn
    iterations = np.array([1, 1, 1, 2, 2, 2, 2, 1, 3, 4])
    turn = np.array([1.0, 0.995, 0.9949, 0.9981, 0.998, 0.997, np.nan, np.nan, 1.0, 1.0])
    retry, grow = finder._step_rule(np.zeros(10, bool), iterations, 1.0, 1.0, turn)
    assert retry.tolist() == [False, False, True, False, False, False, False, False, False, True]
    assert grow.tolist() == [True, True, True, True, False, False, False, True, False, False]
    lift = finder._step_rule(np.zeros(10, bool), iterations, np.ones(10), np.ones(10))
    assert [a.tolist() for a in lift] == [(iterations > 3).tolist(), (iterations <= 1).tolist()]


def test_a_re_aimed_predictor_is_the_fiber_s_tangent(planar):
    # on planar's parabola x1 = lam (x2^2 - 1) the tangent at x is along
    # (2 lam x2, 1), oriented along the direction given; where the line
    # x1 = -1/4 crosses the parabola, df/dx vanishes and the direction
    # itself is kept
    system = finder._slice(planar, np.array([0.5]))[1]
    x = np.array([0.5 * (0.6 ** 2 - 1.0), 0.6])
    tangent = finder._tangent_at(system, x, np.array([0.0, -1.0]), Tolerances())
    assert tangent == pytest.approx(-np.array([0.6, 1.0]) / np.hypot(0.6, 1.0), abs=1e-15)
    crossing = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "h": ["x2"],
        "f": ["-(x1 - l1*(x2^2 - 1))*(x1 + 0.25)", "0*x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": [[0.25, 1.5]],
    })
    system = finder._slice(crossing, np.array([0.5]))[1]
    direction = np.array([0.6, 0.8])
    assert finder._tangent_at(system, np.array([-0.25, np.sqrt(0.5)]), direction,
                              Tolerances()) is direction
    # a df/dx that is not finite at x raises, as in the corrector
    undefined = dataclasses.replace(planar, jac_x_fn=lambda lam, x: np.full((2, 2), np.nan))
    system = finder._slice(undefined, np.array([0.5]))[1]
    with pytest.raises(InputError, match="A must be an array of finite numbers"):
        finder._tangent_at(system, x, np.array([0.0, -1.0]), Tolerances())


def test_a_trace_that_reaches_the_sibling_branch_raises_there():
    # x1 = 0.4 tanh(10 x2) beside x1 = 0.402: a step lands on the sibling,
    # and the tangent there turns by about 69 degrees from the chord into it
    sys = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "h": ["x2"],
        "f": ["-(x1 - 0.4*(1 - 2/(exp(2*10*(x2 - 0.0)) + 1)))*(x1 - 0.402)", "0*x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": [[0.5, 1.5]],
    })
    x0 = [0.4 * (1.0 - 2.0 / (np.exp(-18.0) + 1.0)), -0.9]
    with pytest.raises(ConvergenceError, match=r"turned by 69\.\d degrees at x = \[0\.402"):
        trace_fiber(sys, [1.0], x0)


# the fibers that ended on their sibling branch without an error before
# the tracer's turn guard, and three that now raise on reaching it
@example(H=0.2, K=80, c=0.0, gap=0.002)
@example(H=0.2, K=80, c=0.3, gap=0.002)
@example(H=0.4, K=10, c=0.3, gap=0.01)
@example(H=0.4, K=20, c=0.3, gap=0.01)
@example(H=0.6, K=10, c=-0.3, gap=0.002)
@example(H=0.6, K=20, c=0.3, gap=0.002)
@example(H=0.6, K=40, c=-0.3, gap=0.002)
@example(H=0.4, K=10, c=-0.3, gap=0.002)
@example(H=0.4, K=10, c=0.0, gap=0.002)
@example(H=0.4, K=10, c=0.3, gap=0.002)
@settings(settings.get_profile("derandomized"), max_examples=20)
@given(
    H=st.sampled_from([0.2, 0.4, 0.6]), K=st.sampled_from([5, 10, 20, 40, 80]),
    c=st.sampled_from([-0.3, 0.0, 0.3]), gap=st.sampled_from([0.002, 0.01, 0.05]),
)
def test_a_fiber_trace_ends_on_its_branch_or_raises(H, K, c, gap):
    # the fiber x1 = r(x2) = H tanh(K (x2 - c)) from x2 = -0.9, beside its
    # sibling x1 = H + gap, which it never meets: 135 such fibers.  Each
    # trace stays within 1e-6 of its branch, far below the gap, or raises
    sys = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "h": ["x2"],
        "f": [f"-(x1 - {H}*(1 - 2/(exp(2*{K}*(x2 - {c})) + 1)))*(x1 - {H + gap:.3f})", "0*x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": [[0.5, 1.5]],
    })
    x0 = [H * (1.0 - 2.0 / (np.exp(2.0 * K * (-0.9 - c)) + 1.0)), -0.9]
    try:
        trace = trace_fiber(sys, [1.0], x0)
    except EqBundleError:
        return
    x1, x2 = trace.points.T
    assert np.abs(x1 - H * np.tanh(K * (x2 - c))).max() < 1e-6


@pytest.mark.parametrize("name, params, lam, x0", [
    ("planar", {}, [0.5], [-0.5, 0.0]),
    ("rfmr", {"n": 3}, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]),
])
def test_a_trace_takes_one_kernel_basis_whatever_its_length(monkeypatch, name, params, lam, x0):
    # the start's kernel vector is the one SVD of a trace: each later step
    # predicts along the chord of the step kept, and df/dx is evaluated only
    # by the corrector
    sys = builtin(name, **params)
    kernels = []
    kernel_basis = finder.kernel_basis

    def counted(*args, **kwargs):
        kernels.append(1)
        return kernel_basis(*args, **kwargs)

    monkeypatch.setattr(finder, "kernel_basis", counted)
    d = sys.domain.diameter()
    counts = set()
    for fraction in (0.05, 0.01, 0.002):
        kernels.clear()
        trace = trace_fiber(sys, lam, x0, initial_step=fraction * d, max_step=fraction * d)
        counts.add(len(trace.points))
        assert len(kernels) == 1
    assert len(counts) == 3


def test_equilibrium_point_serializes(planar):
    point = newton_on_level_set(planar, [0.5], [0.0], [0.0, 0.0])
    data = json.loads(json.dumps(point.as_dict(), sort_keys=True))
    assert data["transversal"] is True
    assert data["audit"]["is_equilibrium"] is True
    assert len(data["x"]) == 2


def test_find_on_a_box_of_zero_width(planar):
    # x1 is pinned to 0; at lambda = 0 the level h = 0.5 meets f = 0 at (0, 0.5)
    pinned = dataclasses.replace(planar, domain=Domain(box=[[0.0, 0.0], [-1.0, 1.0]]))
    assert np.all(level_starts(pinned, 32, 0)[:, 0] == 0.0)
    points = enumerate_level_points(pinned, [0.0], [0.5], budget=32)
    assert len(points) == 1
    assert np.allclose(points[0].state.x, [0.0, 0.5], atol=1e-12)


def test_the_unit_sample_is_built_once_per_key(example2, planar, monkeypatch):
    # no sample is kept between calls: each find builds its sample once, from
    # (n, budget, seed) alone, so finds that change only lambda or the level,
    # and a holonomy's multistart, all start from the same bytes
    built = []

    def counted(n, budget, seed):
        sample = unit_starts(n, budget, seed)
        built.append(((n, budget, seed), sample.tobytes()))
        return sample

    unit_starts = finder._unit_starts
    monkeypatch.setattr(finder, "_unit_starts", counted)
    first = enumerate_level_points(example2, [1.0], [2.0, 6.0], budget=40, seed=3)
    assert len(built) == 1
    second = enumerate_level_points(example2, [2.0], [2.0, 6.0], budget=40, seed=3)
    assert len(first) == len(second) == 4
    holonomy_loop(example2, [[1.0], [2.0], [1.0]], [2.0, 6.0], budget=40, seed=3)
    assert len(built) == 3
    n = example2.n
    assert {key for key, _ in built} == {(n, 40, 3)}
    assert len({bits for _, bits in built}) == 1
    # another n, budget or seed is another key, with another sample
    for sys, budget, seed in ((planar, 40, 3), (example2, 41, 3), (example2, 40, 4)):
        level_starts(sys, budget, seed)
    assert [key for key, _ in built[3:]] == [(planar.n, 40, 3), (n, 41, 3), (n, 40, 4)]
    assert len({bits for _, bits in built}) == 4


def test_a_written_start_leaves_the_cached_sample_alone(planar):
    # each call returns its own writable array with the same bytes, and
    # writing one leaves the next call as it was
    first, second = level_starts(planar, 32, 0), level_starts(planar, 32, 0)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    bits = first.tobytes()
    assert second.tobytes() == bits
    first[:] = 7.0
    assert level_starts(planar, 32, 0).tobytes() == bits


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(n=st.integers(1, 30), budget=st.integers(1, 600), seed=st.integers(0, 2**63 - 1))
def test_each_coordinate_of_the_unit_sample_has_at_most_three_gaps(n, budget, seed):
    # the three-gap theorem: the points frac(s + t alpha), t < budget, cut
    # the circle [0, 1) into arcs of at most 3 distinct lengths
    sample = finder._unit_starts(n, budget, seed)
    assert sample.shape == (budget, n)
    assert np.all((sample >= 0.0) & (sample < 1.0))
    for column in np.sort(sample, axis=0).T:
        gaps = np.sort(np.diff(column, append=column[0] + 1.0))
        assert np.count_nonzero(np.diff(gaps) > 1e-12) <= 2


@pytest.mark.parametrize("n, seed", [(1, 0), (3, 5), (20, 11)])
def test_a_longer_unit_sample_starts_with_the_shorter_one(n, seed):
    longer = finder._unit_starts(n, 600, seed)
    for budget in (1, 2, 31, 200):
        assert longer[:budget].tobytes() == finder._unit_starts(n, budget, seed).tobytes()


def test_the_shift_is_default_rng_s_draw_bit_for_bit():
    # numpy is the reference here only: the package draws the shift in
    # Python integers so that a run need not import numpy.random.  Seeds of
    # 1, 2, 3, 4 and 5 or more 32-bit words, up to DIMENSION_LIMIT floats
    seeds = [*range(301), 2**32, 2**32 + 1, 2**63 - 1, 2**64 - 1, 2**64, 2**96 + 5,
             2**128 - 1, 2**128, 2**160 + 7, 2**200 + 12345, 2**256 + 2**31]
    for seed in seeds:
        for n in {1, 2, 1 + seed % DIMENSION_LIMIT, DIMENSION_LIMIT}:
            expected = np.random.default_rng(seed).random(n)
            assert np.array(finder._pcg64_random(seed, n)).tobytes() == expected.tobytes()


def test_the_sequence_root_is_within_one_ulp():
    # g^(n+1) - g - 1 changes sign, in exact arithmetic, between the floats
    # next to g
    assert finder._golden(1) == (1.0 + math.sqrt(5.0)) / 2.0
    for n in range(1, 101):
        g = finder._golden(n)
        below, above = (Fraction(math.nextafter(g, to)) for to in (0.0, 2.0))
        assert below ** (n + 1) - below - 1 < 0 < above ** (n + 1) - above - 1


def test_two_seeds_shift_every_coordinate():
    first, second = finder._unit_starts(6, 40, 0), finder._unit_starts(6, 40, 1)
    assert np.all(first[0] != second[0])
    # the shift moves each coordinate by one constant on the circle
    moved = np.abs(np.mod(second - first, 1.0) - np.mod(second[0] - first[0], 1.0))
    assert np.all(np.minimum(moved, 1.0 - moved) < 1e-12)


def test_the_unit_sample_has_the_same_bytes_everywhere():
    sample = finder._unit_starts(3, 200, 0)
    assert [value.hex() for value in sample[1]] == [
        "0x1.d314d80aad558p-2", "0x1.e1b48302fcd2fp-1", "0x1.2e6cd2a0fc16ep-1",
    ]
    assert hashlib.sha256(sample.tobytes()).hexdigest() == (
        "f2977d5a3ad48334562ed1810924d02422090b47ef46315fdad616607794d500"
    )


@pytest.mark.parametrize(
    "name, params, lam, x0, calls, count",
    [
        ("planar", {}, [0.5], [-0.5, 0.0], 107, 25),
        ("rfmr", {"n": 3}, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 30, 25),
    ],
)
def test_trace_reads_residuals_from_the_corrector(name, params, lam, x0, calls, count):
    # f runs once at x0 and once per corrector iteration; the trace's
    # max_f_residual reuses those values instead of one more call per point
    sys = builtin(name, **params)
    made = []

    def f(lam, x):
        made.append(1)
        return sys.f(lam, x)

    counted = trace_fiber(dataclasses.replace(sys, f=f), lam, x0)
    plain = trace_fiber(sys, lam, x0)
    assert len(made) == calls and len(counted.points) == count
    assert counted.max_f_residual == plain.max_f_residual
    assert counted.max_f_residual == max(
        float(np.linalg.norm(sys.f(np.asarray(lam), row))) for row in plain.points
    )


def sorted_loop_representatives(x, quality, converged, radius) -> list:
    """The reference clustering: sort the converged lanes by the tuple
    (quality, x...), keep each lane farther than radius from all kept."""
    by_quality = sorted(
        np.flatnonzero(converged), key=lambda i: (quality[i], tuple(x[i]))
    )
    kept: list = []
    for i in by_quality:
        if all(np.linalg.norm(x[i] - x[j]) > radius for j in kept):
            kept.append(i)
    return kept


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(data=st.data())
def test_cluster_representatives_match_the_sorted_loop(data):
    # clusters of lanes around a few centres, spread about the radius, with
    # repeated lanes and repeated qualities so that every sort key ties
    n = data.draw(st.integers(1, 4), label="n")
    radius = data.draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]), label="radius")
    centres = data.draw(st.integers(1, 5), label="centres")
    count = data.draw(st.integers(0, 60), label="lanes")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    spread = radius * rng.choice([0.0, 0.5, 1.0, 2.0], size=(count, 1))
    x = rng.integers(-2, 3, size=(centres, n)).astype(float)[rng.integers(centres, size=count)]
    x += spread * rng.standard_normal((count, n)) / np.sqrt(n)
    quality = rng.choice([0.0, 1e-15, 3e-13, 1e-10], size=count)
    for i in range(1, count):
        if rng.random() < 0.2:  # an exact repeat of an earlier lane
            j = int(rng.integers(i))
            x[i], quality[i] = x[j], quality[j]
    converged = rng.random(count) < 0.8
    kept = _cluster_representatives(x, quality, converged, radius)
    assert [int(i) for i in kept] == sorted_loop_representatives(x, quality, converged, radius)


def test_trace_retries_a_step_that_needs_more_than_3_iterations(monkeypatch, rfmr3):
    # with steps of 0.3 d one correction on this fiber of level 1.5 takes 4
    # iterations; that step is retried at half length, as in the lift, so
    # no kept step took more than 3 (the boundary search may)
    made = {}
    correct = finder._correct

    def recorded(residual, jacobian, y0, tols, *lane_args):
        out = correct(residual, jacobian, y0, tols, *lane_args)
        made.setdefault(out[0][0].tobytes(), []).append(out[1][0])
        return out

    monkeypatch.setattr(finder, "_correct", recorded)
    d = rfmr3.domain.diameter()
    x0 = [0.6804283510948735, 0.378412903358974, 0.4411587455461525]
    trace = trace_fiber(rfmr3, [1.0, 2.0, 3.0], x0, initial_step=0.3 * d, max_step=0.3 * d)
    assert trace.topology == "segment"
    assert any(4 in iterations for iterations in made.values())
    steps = [made[p.tobytes()] for p in trace.points[1:-1] if p.tobytes() in made]
    assert len(steps) == len(trace.points) - 3      # all but the ends and x0
    assert all(max(iterations) <= 3 for iterations in steps)


def test_trace_retries_a_correction_that_does_not_converge(monkeypatch, rfmr3):
    # with the corrector capped at 2 iterations, a correction that needs 3
    # ends marked for retry, and the tracer retries that step at half length
    rules = []      # per stepping round: (marked for retry, step)
    rule = finder._step_rule

    def recorded(retry, iterations, moved, length, turn):
        rules.append((bool(retry[0]), length))
        return rule(retry, iterations, moved, length, turn)

    monkeypatch.setattr(finder, "_step_rule", recorded)
    d = rfmr3.domain.diameter()
    x0 = [0.6804283510948735, 0.378412903358974, 0.4411587455461525]

    def trace():
        rules.clear()
        return trace_fiber(rfmr3, [1.0, 2.0, 3.0], x0, initial_step=0.3 * d, max_step=0.3 * d)

    trace()
    assert not any(marked for marked, _ in rules)     # uncapped, every lane converges
    monkeypatch.setattr(finder, "_CORRECTOR_ITERATIONS", 2)
    assert trace().topology == "segment"
    marked = [i for i, (retry, _) in enumerate(rules) if retry]
    assert marked
    for i in marked:
        assert rules[i + 1][1] == 0.5 * rules[i][1]


@pytest.mark.parametrize("error", [EvaluationError, ConvergenceError, DegeneracyError])
def test_an_evaluation_error_ends_the_trace(error):
    # an error raised by a plain callable, of any class, is the lane's
    # fatal error: the trace raises it and does not retry the step
    sys = circle_fiber_system()
    raised = []

    def f(lam, x):
        if x[0] > 0.45:
            raised.append(error("the field is undefined past x1 = 0.45"))
            raise raised[-1]
        return sys.f(lam, x)

    with pytest.raises(error, match="undefined past") as caught:
        trace_fiber(dataclasses.replace(sys, f=f), [1.0], [0.0, 0.5])
    assert caught.value is raised[-1]
    assert len(raised) == 1


# The tracer as it was before its steps and its boundary search shared
# one loop: a stepping loop, a boundary search loop and a one-lane
# corrector wrapper, here on _correct's (retry, fatal) contract.
# trace_fiber must give what it gives, bit for bit.


def reference_correct_slice(fiber_slice, x_pred, tangent, tols):
    x_pred, tangent = x_pred[None], tangent[None]
    y, iterations, resid, retry, fatal = finder._correct(
        *fiber_slice, x_pred, tols, x_pred, tangent
    )
    if fatal:
        raise fatal[0]
    return y[0], iterations[0], resid[0], bool(retry[0])


def reference_tangent(sys, lam, x, direction, tols):
    """The unit solution of [df/dx(x); direction^T] tau = e_{n+1} by
    solve_least_squares, or direction where that system is rank
    deficient."""
    system = np.vstack([sys.jac_x(lam, x), direction])
    try:
        tau = solve_least_squares(system, np.eye(len(system))[-1], tols.rank)
    except DegeneracyError:
        return direction
    return tau / np.linalg.norm(tau)


def reference_march(sys, lam, x_start, f_start, t_start, tols, step0, min_step, max_step,
                    max_points):
    contains = sys.domain.contains
    fiber_slice = finder._slice(sys, lam)
    points = [x_start.copy()]
    f_norms = [f_start]
    tangent = t_start
    first_tangent = t_start
    aimed = True            # tangent is the fiber's tangent at x
    step = step0
    while len(points) < max_points:
        x = points[-1]
        while True:
            if step < min_step:
                raise ConvergenceError(
                    f"fiber step collapsed below {min_step:.1e} near x = {x.tolist()}"
                )
            y, iterations, resid, failed = reference_correct_slice(
                fiber_slice, x + step * tangent, tangent, tols
            )
            turn = (y - x) / np.linalg.norm(y - x) @ tangent
            retry, grow = finder._step_rule(
                failed, iterations, np.linalg.norm(y - x), step, turn
            )
            if not retry:
                break
            step *= 0.5
            if turn < finder._RETRY_TURN and not aimed:
                # re-aim along the tangent at x, unless it shows the chord
                # into x left its branch
                aim = reference_tangent(sys, lam, x, tangent, tols)
                if aim @ tangent < finder._JUMP_TURN:
                    raise ConvergenceError(
                        f"fiber trace turned by {math.degrees(math.acos(aim @ tangent)):.1f} degrees "
                        f"at x = {x.tolist()}: the step into x left its branch"
                    )
                tangent, aimed = aim, True

        if not contains(y, slack=0.0):
            boundary = reference_refine_boundary(sys, fiber_slice, x, y, tangent, step, tols)
            if boundary is not None:
                points.append(boundary[0])
                f_norms.append(boundary[1])
            return points, f_norms, False

        # the next prediction runs along the unit chord of the step kept
        new_tangent = (y - x) / np.linalg.norm(y - x)

        if (
            len(points) >= 5
            and np.linalg.norm(y - x_start) < 0.5 * step
            and float(new_tangent @ first_tangent) > 0.9
        ):
            points.append(x_start.copy())
            f_norms.append(f_start)
            return points, f_norms, True

        points.append(y)
        f_norms.append(float(np.linalg.norm(resid[: sys.n])))
        tangent, aimed = new_tangent, False
        if grow:
            step = min(step * 2.0, max_step)
    raise ConvergenceError(
        f"fiber trace exceeded {max_points} points without closing or "
        "reaching the boundary"
    )


def reference_refine_boundary(sys, fiber_slice, x_inside, y_outside, tangent, step, tols):
    """The boundary search from x_inside at 0 and y_outside at step: the
    last corrected point inside with its ||f||, or None."""
    margin = sys.domain.margin
    lo, hi = 0.0, step
    m_lo, m_hi = margin(x_inside), margin(y_outside)
    last = "hi"             # the end the last probe moved
    limit = math.sqrt(2.0) * step
    best = None
    resolution = max(tols.boundary_refine, 1e-15) * max(1.0, step)
    while hi - lo > resolution:
        width = hi - lo
        if m_lo >= 0.0 and m_hi < 0.0 and width <= limit:
            # Illinois estimate, 0.5 * resolution toward the end kept last
            along = lo + width * m_lo / (m_lo - m_hi)
            along += 0.5 * resolution if last == "lo" else -0.5 * resolution
            along = min(max(along, lo + 0.5 * resolution), hi - 0.5 * resolution)
        else:
            along = 0.5 * (lo + hi)
        limit /= math.sqrt(2.0)
        y, _, resid, failed = reference_correct_slice(
            fiber_slice, x_inside + along * tangent, tangent, tols
        )
        m = math.nan if failed else margin(y)
        if m >= 0.0:
            if last == "lo":
                m_hi *= 0.5
            lo, m_lo, last = along, m, "lo"
            best = y, float(np.linalg.norm(resid[: sys.n]))
        else:
            if last == "hi":
                m_lo *= 0.5
            hi, m_hi, last = along, m, "hi"
    return best


MARCH = finder._march
TRACED = {
    "planar": builtin("planar"), "rfmr3": builtin("rfmr", n=3), "circle": circle_fiber_system(),
}


def draw_fiber_start(data, name):
    """(lambda, x0) with x0 an equilibrium at lambda, from closed forms."""
    if name == "planar":
        lam = data.draw(st.floats(0.05, 1.0), label="lambda")
        x2 = data.draw(st.floats(-0.95, 0.95), label="x2")
        return [lam], [lam * (x2 ** 2 - 1.0), x2]
    if name == "circle":
        angle = data.draw(st.floats(0.0, 2.0 * np.pi), label="angle")
        return [data.draw(st.floats(0.25, 4.0), label="lambda")], [
            0.5 * np.cos(angle), 0.5 * np.sin(angle)
        ]
    # rfmr: the rates that make every flow lam_i x_i (1 - x_{i+1}) equal 1
    x = np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3), label="x"))
    return (1.0 / (x * (1.0 - np.roll(x, -1)))).tolist(), x.tolist()


def traced_outcome(march, sys, lam, x0, tols, steps):
    """trace_fiber with _march replaced by march: (every march's points,
    ||f|| values and closure, or its error; the trace, or its error)."""
    marches = []

    def recorded(*args):
        try:
            points, f_norms, closed = march(*args)
        except EqBundleError as err:
            marches.append((type(err), str(err)))
            raise
        marches.append((np.array(points).tobytes(), np.array(f_norms).tobytes(), closed))
        return points, f_norms, closed

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finder, "_march", recorded)
        try:
            trace = trace_fiber(sys, lam, x0, tols, **steps)
        except EqBundleError as err:
            return marches, (type(err), str(err))
    return marches, (
        trace.points.tobytes(), trace.topology, trace.arclength,
        trace.endpoint_boundary_distances, trace.max_f_residual,
    )


@settings(settings.get_profile("derandomized"), max_examples=12)
@given(data=st.data())
def test_trace_equals_the_two_loop_tracer(data):
    # steps of up to 0.6 d make the corrector retry, a boundary search to
    # a resolution of 1e-15 runs to the float spacing of the step, and a
    # floor of half the first step or a cap of 6 points ends some traces
    # with their errors
    name = data.draw(st.sampled_from(sorted(TRACED)), label="system")
    sys = TRACED[name]
    lam, x0 = draw_fiber_start(data, name)
    d = sys.domain.diameter()
    cap = d * data.draw(st.sampled_from([0.05, 0.3, 0.6]), label="max_step")
    initial = cap * data.draw(st.sampled_from([1.0, 0.25]), label="initial_step")
    steps = {
        "initial_step": initial,
        "max_step": cap,
        "min_step": data.draw(st.sampled_from([1e-12 * d, initial / 2]), label="min_step"),
        "max_points": data.draw(st.sampled_from([20000, 6]), label="max_points"),
        "initial_direction": data.draw(st.sampled_from([1, -1]), label="direction"),
    }
    tols = Tolerances(boundary_refine=data.draw(st.sampled_from([1e-10, 1e-3, 0.0])))
    assert traced_outcome(MARCH, sys, lam, x0, tols, steps) == traced_outcome(
        reference_march, sys, lam, x0, tols, steps
    )


def boundary_searches(monkeypatch):
    """Record each direction's boundary search as it runs: per search the
    step that left the domain, the resolution and the corrections made."""
    searches = []
    correct = finder._correct

    def recorded(*args):
        march = inspect.currentframe().f_back.f_locals
        bracket = march.get("bracket")
        if bracket is not None:
            if bracket == [0.0, march["step"]]:     # a search's first probe
                searches.append([march["step"], march["resolution"], 0])
            searches[-1][2] += 1
        return correct(*args)

    monkeypatch.setattr(finder, "_correct", recorded)
    return searches


@settings(settings.get_profile("derandomized"), max_examples=30)
@given(data=st.data())
def test_segment_ends_are_inside_and_on_the_boundary(data):
    # each end is inside at slack 0, within 1e-9 of the boundary at the
    # default tolerances, and its search makes at most twice the
    # corrections of a bisection to the same resolution
    name = data.draw(st.sampled_from(sorted(TRACED)), label="system")
    sys = TRACED[name]
    lam, x0 = draw_fiber_start(data, name)
    refine = data.draw(st.sampled_from([1e-10, 1e-3, 0.0]), label="boundary_refine")
    direction = data.draw(st.sampled_from([1, -1]), label="direction")
    with pytest.MonkeyPatch.context() as patch:
        searches = boundary_searches(patch)
        trace = trace_fiber(
            sys, lam, x0, Tolerances(boundary_refine=refine), initial_direction=direction
        )
    if trace.topology == "circle":
        assert not searches
        return
    assert len(searches) == 2
    for end in trace.points[[0, -1]]:
        assert sys.domain.contains(end, slack=0.0)
        if refine == 1e-10:
            assert sys.domain.boundary_distance(end) <= 1e-9
    for step, resolution, corrections in searches:
        assert corrections <= 2 * math.ceil(math.log2(step / resolution))


def test_a_start_on_the_boundary_ends_its_outward_direction_at_once(monkeypatch, planar):
    # (0, 1) is on the box's edge, at margin 0, and the fiber's tangent
    # there is (1, 1) / sqrt(2): the first probe of the step that leaves is
    # the Illinois root, half a resolution out, and no bisection of the
    # step follows
    calls = count_calls(monkeypatch, "_correct", finder)
    points, _, closed = finder._march(
        planar, np.array([0.5]), np.array([0.0, 1.0]), 0.0, np.array([1.0, 1.0]) / np.sqrt(2.0),
        Tolerances(), 0.05, 1e-12, 0.1, 100,
    )
    assert len(points) == 1 and not closed and len(calls) == 2


def test_a_pathological_margin_costs_at_most_twice_a_bisection(monkeypatch, rfmr3):
    # a margin of the right sign whose outside values are all -1e-300 puts
    # every secant estimate next to the outside end; the guard's midpoints
    # still close the bracket at least once per two probes, and the end is
    # the true margin's within the resolution
    lam, x0 = [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]
    plain = trace_fiber(rfmr3, lam, x0)
    margin = Domain.margin

    def pathological(self, x):
        value = margin(self, x)
        return value if value >= 0.0 else -1e-300

    monkeypatch.setattr(Domain, "margin", pathological)
    searches = boundary_searches(monkeypatch)
    trace = trace_fiber(rfmr3, lam, x0)
    assert len(searches) == 2
    for step, resolution, corrections in searches:
        # more than a bisection makes, and no more than the guard allows
        assert math.log2(step / resolution) < corrections
        assert corrections <= 2 * math.log2(step / resolution) + 3
    assert len(trace.points) == len(plain.points)
    assert np.abs(trace.points - plain.points).max() <= 2e-10


def test_correct_marks_each_failed_lane_for_retry_or_fatal():
    # lanes of g(y) = y - 1 from y = 0.5, one per outcome, in lockstep
    kinds = np.array([
        "converges", "non-finite", "deficient", "slow", "raises", "bad jacobian", "converges",
    ])
    evaluated = []      # the kinds of the rows of each residual call
    stacked = []        # and of each system call
    raised = ConvergenceError("raised by the residual")

    def residual(y, kind, errors):
        evaluated.append(set(kind))
        g = y - 1.0
        g[kind == "non-finite"] = np.nan
        for row in np.flatnonzero(kind == "raises"):
            errors[row] = raised
            g[row] = np.nan
        return g

    def system(y, kind, errors):
        stacked.append(set(kind))
        jac = np.ones((len(y), 1, 1))
        jac[kind == "deficient"] = 0.0
        jac[kind == "slow"] = 10.0          # a tenth of each Newton step
        jac[kind == "bad jacobian"] = np.inf
        # [J | b], whose last column _correct writes
        return np.concatenate([jac, np.zeros_like(jac)], axis=2)

    y0 = np.full((len(kinds), 1), 0.5)
    y, iterations, resid, retry, fatal = finder._correct(
        residual, system, y0, Tolerances(), kinds
    )
    assert retry.tolist() == [False, True, True, True, False, False, False]
    assert sorted(fatal) == [4, 5]
    assert fatal[4] is raised
    assert isinstance(fatal[5], InputError)
    assert y[:, 0].tolist() == [1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0]
    assert iterations[[0, 6]].tolist() == [1, 1]
    assert resid[[0, 6], 0].tolist() == [0.0, 0.0]
    # a lane ends at its failure: the residual never sees it again
    assert evaluated[1] == {"converges", "slow"}
    assert evaluated[2:] == [{"slow"}] * (finder._CORRECTOR_ITERATIONS - 1)
    # the residual at the cap ends the slow lane without a step
    assert stacked[1:] == [{"slow"}] * (finder._CORRECTOR_ITERATIONS - 1)
    # a deficient step, or a failed Jacobian, alone ends its lane too
    for kind in ("deficient", "bad jacobian"):
        evaluated.clear()
        finder._correct(residual, system, y0[:2], Tolerances(), np.array([kind, "slow"]))
        assert evaluated[1] == {"slow"}
    # at newton tolerance 0, a residual of 0 meets its target
    out = finder._correct(residual, system, y0[:1], Tolerances(newton=0.0), kinds[:1])
    assert out[1].tolist() == [1] and out[3].tolist() == [False]


def test_lanes_that_converge_together_skip_the_bookkeeping(monkeypatch):
    # _correct's early return: every lane met its target in the same
    # iteration and none failed, so no per-lane record is made
    books = count_calls(monkeypatch, "_corrector_results", finder)

    def residual(y, errors):
        return y - 1.0

    def system(y, errors):
        return np.concatenate([np.ones((len(y), 1, 1)), np.zeros((len(y), 1, 1))], axis=2)

    y, iterations, _, retry, fatal = finder._correct(
        residual, system, np.full((2, 1), 0.5), Tolerances()
    )
    assert y[:, 0].tolist() == [1.0, 1.0] and iterations.tolist() == [1, 1]
    assert not retry.any() and fatal == {} and books == []


def band_system():
    """f = (x2 - 1/4, 0) on the box [-1, 1]^2: the fiber through (x1, 1/4)
    is the line x2 = 1/4, and f is NaN on its stretch 0.999 < x1 < 1."""

    def f(lam, x):
        if 0.999 < x[0] < 1.0:
            return np.full(2, np.nan)
        return np.array([x[1] - 0.25, 0.0])

    return SystemSpec(
        name="band", n=2, m=1, k=1, f=f,
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.array([[0.0, 1.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )


def test_boundary_search_counts_a_failed_correction_as_outside():
    # steps of 0.3 reach x1 = 1.2 outside; from 0.9 the margins 0.1 and
    # -0.2 put the first probe just short of x1 = 1, in the NaN stretch,
    # whose failed correction counts as outside although its start is
    # inside; the search then bisects, so the trace ends just before 0.999
    sys = band_system()
    steps = {"initial_step": 0.3, "max_step": 0.3}
    trace = trace_fiber(sys, [0.5], [0.0, 0.25], **steps)
    assert trace.topology == "segment"
    low, high = sorted(trace.points[[0, -1], 0])
    assert low == pytest.approx(-1.0, abs=1e-9)
    assert 0.999 - 1e-9 < high <= 0.999
    assert trace.max_f_residual == 0.0
    outcome = traced_outcome(MARCH, sys, [0.5], [0.0, 0.25], Tolerances(), steps)
    assert outcome == traced_outcome(reference_march, sys, [0.5], [0.0, 0.25], Tolerances(), steps)
