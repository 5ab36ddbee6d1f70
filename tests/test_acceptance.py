"""End-to-end acceptance checks, one test per criterion.

Each test prints one PASS/FAIL line (visible with -rA/-s and in failure
reports) and asserts the same condition, so `pytest -v` shows exactly one
verdict line per criterion.
"""

import json

import numpy as np
import pytest

from eqbundle.audit import audit_point, structural_identity_residual
from eqbundle.cli import main
from eqbundle.errors import TrackingError
from eqbundle.finder import enumerate_level_points, newton_on_level_set, trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop, track_matrix_loop
from eqbundle.systems import PointState, builtin, check_first_integral_identity, evaluate
from eqbundle.transport import check_cocycle, connection_frame, holonomy_loop, lift_curve, metric_g

ALL_SYSTEMS = lambda: [builtin("planar"), builtin("example2"), builtin("rfmr", n=3)]


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _sample_interior_points(sys, count, seed):
    rng = np.random.default_rng(seed)
    points = []
    budget = 0
    while len(points) < count and budget < 1000 * count:
        lam = rng.uniform(sys.parameter_box[:, 0], sys.parameter_box[:, 1])
        x = rng.uniform(sys.domain.box[:, 0], sys.domain.box[:, 1])
        budget += 1
        if sys.domain.contains(x):
            points.append(PointState(lam, x))
    assert len(points) == count
    return points


def test_criterion_01_first_integral_identity():
    worst = 0.0
    for sys in ALL_SYSTEMS():
        worst = max(worst, check_first_integral_identity(sys, samples=200, seed=0))
    _verdict(1, "max |f . grad h| over 200 samples per system < 1e-10",
             worst < 1e-10, f"worst = {worst:.3e}")


def _identity_residual(sys, u):
    return structural_identity_residual(evaluate(sys, u, check_domain=False))


def test_criterion_02_structural_identity():
    worst = 0.0
    for sys in ALL_SYSTEMS():
        for u in _sample_interior_points(sys, 200, seed=1):
            worst = max(worst, _identity_residual(sys, u))
    hand = _identity_residual(builtin("example2"), PointState([1.0], [0.0, 1.0, 1.0]))
    ok = worst < 1e-8 and hand < 1e-12
    _verdict(2, "structural identity residual < 1e-8 at 200 samples per system "
                "and < 1e-12 at the hand-checked point",
             ok, f"worst = {worst:.3e}, hand = {hand:.3e}")


def test_criterion_03_manifold_dimension():
    cases = [
        (builtin("planar"), [0.5], [0.0], 1),
        (builtin("example2"), [1.0], [2.0, 6.0], 4),
        (builtin("rfmr", n=3), [1.0, 1.0, 1.0], [1.5], 1),
    ]
    ok = True
    details = []
    for sys, lam, level, expected_count in cases:
        found = enumerate_level_points(sys, lam, level, budget=200, seed=0)
        ok = ok and len(found) == expected_count
        # each found point carries its own audit: an equilibrium whose full
        # Jacobian has rank n-k, so the equilibrium set has dimension m+k
        ranks = [p.audit.full_jacobian_rank for p in found]
        ok = ok and all(p.audit.is_equilibrium for p in found)
        ok = ok and all(r == sys.n - sys.k for r in ranks)
        details.append(f"{sys.name}: ranks {ranks}")
    _verdict(3, "rank J = n-k at every found equilibrium of every system",
             ok, "; ".join(details))


def test_criterion_04_fiber_topology():
    planar = builtin("planar")
    trace_p = trace_fiber(planar, [0.5], [-0.5, 0.0])
    ends_p = [trace_p.points[0], trace_p.points[-1]]
    circle_err = max(abs(np.linalg.norm(e) - 1.0) for e in ends_p)
    ok = trace_p.topology == "segment" and circle_err < 1e-6

    rfmr = builtin("rfmr", n=3)
    trace_r = trace_fiber(rfmr, [1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
    ends_r = sorted([trace_r.points[0], trace_r.points[-1]], key=lambda p: p[0])
    corner_err = max(
        float(np.max(np.abs(ends_r[0] - 0.0))), float(np.max(np.abs(ends_r[1] - 1.0)))
    )
    ok = ok and trace_r.topology == "segment" and corner_err < 1e-6
    _verdict(4, "planar fiber ends on the unit circle, rfmr fiber spans the diagonal",
             ok, f"circle err {circle_err:.3e}, corner err {corner_err:.3e}")


def test_criterion_05_intersection_count_constancy():
    sys = builtin("example2")
    counts = [
        len(enumerate_level_points(sys, [lam], [2.0, 6.0], budget=200, seed=0))
        for lam in (1.0, 2.0)
    ]
    _verdict(5, "|E_lambda ∩ N_(2,6)| = 4 at lambda = 1 and lambda = 2",
             counts == [4, 4], f"counts = {counts}")


def test_criterion_06_transport_accuracy():
    planar = builtin("planar")
    example2 = builtin("example2")
    rfmr = builtin("rfmr", n=3)
    x_star, y_star = np.sqrt(8.0 / 15.0), np.sqrt(14.0 / 15.0)
    lifts = [
        lift_curve(planar, [[0.5], [0.9]], [-0.5, 0.0]),
        lift_curve(example2, [[1.0], [2.0]], [x_star, y_star, x_star]),
        lift_curve(rfmr, [[1.0, 1.0, 1.0], [2.0, 1.5, 1.0]], [0.5, 0.5, 0.5]),
    ]
    end_err = float(np.linalg.norm(lifts[0].gamma[-1] - np.array([-0.9, 0.0])))
    drift = max(lift.max_h_drift for lift in lifts)
    fres = max(lift.max_f_residual for lift in lifts)
    ok = end_err < 1e-8 and drift < 1e-8 and fres < 1e-8
    _verdict(6, "planar lift ends at (-0.9, 0); h-drift and f-residual < 1e-8 on every lift",
             ok, f"end {end_err:.3e}, drift {drift:.3e}, f {fres:.3e}")


def test_criterion_07_trivial_holonomy():
    reports = [
        holonomy_loop(builtin("rfmr", n=3),
                      [[1, 1, 1], [2, 1, 1], [2, 2, 1], [1, 2, 1], [1, 1, 1]],
                      [1.5], budget=80, seed=0),
        holonomy_loop(builtin("planar"), [[0.5], [0.9], [0.5]], [0.0], budget=50, seed=0),
        holonomy_loop(builtin("example2"), [[1.0], [2.0], [1.0]], [2.0, 6.0],
                      budget=200, seed=0),
    ]
    ok = all(r.permutation == tuple(range(len(r.points_before))) for r in reports)
    disp = max(r.max_roundtrip_displacement for r in reports)
    ok = ok and disp < 1e-6
    _verdict(7, "identity holonomy on rfmr rectangle, planar, and example2 loops",
             ok, f"max displacement {disp:.3e}")


def test_criterion_08_cocycle_law():
    dev_p = check_cocycle(builtin("planar"), [0.5], [0.7], [0.9], [-0.5, 0.0])
    dev_r = check_cocycle(builtin("rfmr", n=3), [1, 1, 1], [1.2, 1.0, 1.0],
                          [1.1, 1.3, 1.0], [0.5, 0.5, 0.5])
    ok = dev_p < 1e-6 and dev_r < 1e-6
    _verdict(8, "three-point transport compositions deviate < 1e-6",
             ok, f"planar {dev_p:.3e}, rfmr {dev_r:.3e}")


def _planar_equilibria(count):
    return [
        PointState([lam], [-lam, 0.0])
        for lam in np.linspace(0.02, 0.98, count)
    ]


def _example2_equilibria(count):
    points = []
    xs = np.linspace(0.6, 0.8, 10)
    ys = np.linspace(0.95, 1.15, 5)
    lams = np.linspace(0.5, 2.0, count)
    i = 0
    for x in xs:
        for y in ys:
            points.append(PointState([lams[i]], [x, y, x]))
            i += 1
    return points[:count]


def _rfmr_equilibria(count):
    sys = builtin("rfmr", n=3)
    rng = np.random.default_rng(11)
    points = []
    while len(points) < count:
        lam = rng.uniform(0.5, 2.0, 3)
        eq = newton_on_level_set(sys, lam, [1.5], [0.5, 0.5, 0.5])
        points.append(eq.state)
    return points


def test_criterion_09_riemannian_submersion():
    batches = [
        (builtin("planar"), _planar_equilibria(50)),
        (builtin("example2"), _example2_equilibria(50)),
        (builtin("rfmr", n=3), _rfmr_equilibria(50)),
    ]
    worst = 0.0
    audited = 0
    for sys, points in batches:
        for u in points:
            report = audit_point(sys, u)
            assert report.is_equilibrium and report.cond_ii.passed and report.cond_iii.passed
            audited += 1
            frame = connection_frame(sys, u)
            H = frame.horizontal_basis
            for i in range(H.shape[1]):
                for j in range(H.shape[1]):
                    g = metric_g(sys, u, H[:, i], H[:, j])
                    flat = float(H[: sys.m, i] @ H[: sys.m, j])
                    worst = max(worst, abs(g - flat))
    ok = audited == 150 and worst < 1e-8
    _verdict(9, "|g(X,Y) - <proj X, proj Y>| < 1e-8 on horizontal vectors at "
                "50 audited equilibria per system",
             ok, f"worst = {worst:.3e}")


def test_criterion_10_eigenvalue_monodromy():
    s = np.linspace(0.0, 2.0 * np.pi, 257)
    mats = [np.array([[0.0, 1.0], [-1.0, 2.0 * np.cos(si)]]) for si in s]
    report = track_matrix_loop(mats, k=0)
    ok = sorted(report.windings) == [-1, 1]
    ok = ok and report.permutation == (0, 1)
    ok = ok and report.re_axis_crossings == (2, 2)
    ok = ok and all(
        c >= 2 * abs(m) for m, c in zip(report.windings, report.re_axis_crossings)
    )
    ok = ok and sum(report.windings) == 0
    _verdict(10, "rotation family: windings {+1,-1}, identity permutation, "
                 "2 crossings per track, winding sum 0",
             ok, f"windings {report.windings}, crossings {report.re_axis_crossings}")


def test_criterion_11_degeneracy_detection():
    sys = builtin("example2")
    ys = np.concatenate([np.linspace(0.5, -0.5, 11), np.linspace(-0.5, 0.5, 11)[1:]])
    pts = [np.array([1.15, y, 1.15]) for y in ys]
    pts[-1] = pts[0].copy()
    rejected = False
    message = ""
    try:
        eigen_along_fiber_loop(sys, [1.0], pts)
    except TrackingError as exc:
        rejected = "path leaves C*" in str(exc)
        message = str(exc)
    report = audit_point(sys, PointState([1.0], [1.0, 0.0, 1.0]))
    cond_iii_failed = report.is_equilibrium and report.cond_iii.passed is False
    ok = rejected and cond_iii_failed
    _verdict(11, "y-crossing fiber loop rejected with 'path leaves C*'; "
                 "audit reports cond_iii failure at (1, (1,0,1))",
             ok, message[:60])


def test_criterion_12_determinism(tmp_path):
    config = {
        "system": {"builtin": "example2"},
        "command": "find",
        "lambda": [1.0],
        "level": [2.0, 6.0],
        "budget": 200,
        "seed": 0,
        "output": {"path": str(tmp_path / "run.json"), "format": "json"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["find", "--config", str(cfg_path)]) == 0
    first = (tmp_path / "run.json").read_bytes()
    assert main(["find", "--config", str(cfg_path)]) == 0
    second = (tmp_path / "run.json").read_bytes()
    ok = first == second and len(first) > 0
    _verdict(12, "two runs of the same config and seed are byte-identical",
             ok, f"{len(first)} bytes")
