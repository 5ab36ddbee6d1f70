import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqbundle import builtin, finder
from eqbundle.errors import (
    BranchPointError,
    ConvergenceError,
    DegeneracyError,
    InputError,
    UnsupportedDimensionError,
)
from eqbundle.finder import (
    _cluster_representatives,
    enumerate_level_points,
    level_starts,
    newton_on_level_set,
    trace_fiber,
)
from eqbundle.systems import Domain, PointState, SystemSpec


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


def circle_fiber_system():
    # f vanishes exactly on the circle x^2 + y^2 = 1/4 (and at the origin,
    # which is a separate component); h = x^2 + y^2
    def f(lam, x):
        g = x[0] ** 2 + x[1] ** 2 - 0.25
        return np.array([-lam[0] * g * x[1], lam[0] * g * x[0]])

    def h(x):
        return np.array([x[0] ** 2 + x[1] ** 2])

    return SystemSpec(
        name="circle-fiber", n=2, m=1, k=1, f=f, h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
    )


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
    )
    with pytest.raises(BranchPointError) as err:
        trace_fiber(sys, [1.0], [0.0, 0.0])
    assert err.value.location is not None
    assert np.allclose(err.value.location.x, [0.0, 0.0])


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


@pytest.mark.parametrize(
    "name, params, lam, x0, calls, count",
    [
        ("planar", {}, [0.5], [-0.5, 0.0], 305, 43),
        ("rfmr", {"n": 3}, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 85, 25),
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
    # no kept step took more than 3 (the boundary bisection may)
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
