import dataclasses
import importlib.util
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import circle_fiber_system, count_calls, rfmr_circulant_eigenvalues
from eqbundle import builtin, monodromy
from eqbundle.audit import audit_point
from eqbundle.errors import (
    EqBundleError, EvaluationError, InputError, ResolutionError, TrackingError,
)
from eqbundle.finder import newton_lanes
from eqbundle.linalg import eigen_dense
from eqbundle.monodromy import (
    _LEAVES_CSTAR,
    _check_moduli,
    _chord_clears,
    _chord_distance_to_origin,
    _Sample,
    assignment,
    eigen_along_fiber_loop,
    split_spectrum,
    track_matrix_loop,
)
from eqbundle.systems import PointState
from eqbundle.tolerances import DEFAULT_TOLERANCES


def rotation_family(samples=256):
    # eigenvalues are exactly e^{+is} and e^{-is}; they collide at s = 0
    # and s = pi, which stresses the extrapolation matcher
    s = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    return [np.array([[0.0, 1.0], [-1.0, 2.0 * np.cos(si)]]) for si in s]


def test_split_example2(example2):
    J = example2.jac_x_fn(np.array([1.0]), np.array([1.0, 1.0, 1.0]))
    sp = split_spectrum(J, 2)
    assert len(sp.zeros) == 2 and len(sp.nonzeros) == 1
    assert max(abs(z) for z in sp.zeros) < 1e-12
    assert sp.nonzeros[0] == pytest.approx(1.0, abs=1e-12)
    assert not sp.unreliable


def test_split_planar():
    sp = split_spectrum(np.array([[-1.0, 0.0], [0.0, 0.0]]), 1)
    assert sp.zeros == (0.0 + 0.0j,)
    assert sp.nonzeros == (-1.0 + 0.0j,)
    assert sp.gap_ratio > 1e6
    assert not sp.unreliable


def test_split_rfmr_circulant_oracle(rfmr3):
    J = rfmr3.jac_x_fn(np.ones(3), np.full(3, 0.5))
    sp = split_spectrum(J, 1)
    oracle = rfmr_circulant_eigenvalues(1.0, 0.5, 3)
    assert np.allclose(sorted(np.abs(oracle))[:1], [0.0], atol=1e-12)
    # the two nonzero circulant eigenvalues coincide: a real double -1.5
    expected = sorted(oracle, key=lambda z: abs(z))[1:]
    assert np.allclose([abs(z) for z in expected], 1.5, atol=1e-12)
    assert abs(sp.zeros[0]) < 1e-12
    for mu in sp.nonzeros:
        assert mu == pytest.approx(-1.5, abs=1e-9)
    assert sum(sp.zeros) + sum(sp.nonzeros) == pytest.approx(np.trace(J), abs=1e-9)


def test_split_unreliable_flag():
    sp = split_spectrum(np.diag([1e-3, 1.0]), 1)
    assert sp.unreliable  # the "zero" 1e-3 exceeds 1e-7 * spectral radius
    ok = split_spectrum(np.diag([0.0, 1.0]), 1)
    assert not ok.unreliable


def test_a_split_at_its_bounds_is_reliable():
    # flagged when a zero exceeds tol_zero or the gap ratio is below
    # gap_min: a zero at tol_zero, or a ratio of gap_min, is not flagged
    z, gap_min = 2.0 ** -10, DEFAULT_TOLERANCES.gap_min
    assert not split_spectrum(np.diag([z, 2.0]), 1, tol_zero=z).unreliable
    assert split_spectrum(np.diag([z, 2.0]), 1, tol_zero=0.5 * z).unreliable
    assert not split_spectrum(np.diag([z, gap_min * z]), 1, tol_zero=1.0).unreliable
    assert split_spectrum(np.diag([z, 0.5 * gap_min * z]), 1, tol_zero=1.0).unreliable


def test_split_validation():
    for J in (np.ones((2, 3)), np.ones(3)):
        with pytest.raises(InputError, match="expected a square matrix"):
            split_spectrum(J, 0)
    with pytest.raises(InputError, match="out of range"):
        split_spectrum(np.eye(2), 3)
    with pytest.raises(InputError, match="finite"):
        split_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0)


def test_split_stability_under_noise(planar, example2, rfmr3):
    # perturbing by 1e-12 times the scale must not change the partition
    rng = np.random.default_rng(7)
    points = [
        (planar, PointState([0.5], [-0.5, 0.0])),
        (example2, PointState([1.0], [1.0, 1.0, 1.0])),
        (rfmr3, PointState([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])),
    ]
    for sys, u in points:
        report = audit_point(sys, u)
        assert report.cond_iii.passed
        J = sys.jac_x_fn(u.lam, u.x)
        base = split_spectrum(J, sys.k)
        scale = max(1.0, float(np.max(np.abs(J))))
        noisy = J + 1e-12 * scale * rng.uniform(-1.0, 1.0, J.shape)
        perturbed = split_spectrum(noisy, sys.k)
        assert len(perturbed.zeros) == len(base.zeros)
        assert np.allclose(
            sorted(abs(z) for z in perturbed.zeros),
            sorted(abs(z) for z in base.zeros),
            atol=1e-9,
        )
        assert np.allclose(
            sorted(abs(z) for z in perturbed.nonzeros),
            sorted(abs(z) for z in base.nonzeros),
            atol=1e-9,
        )


def test_rotation_family_loop():
    report = track_matrix_loop(rotation_family(256), k=0)
    assert report.permutation == (0, 1)
    assert sorted(report.windings) == [-1, 1]
    assert sum(report.windings) == 0  # det J(s) = 1, so the product never winds
    assert report.re_axis_crossings == (2, 2)
    assert report.min_distance_to_zero == pytest.approx(1.0, abs=1e-9)
    assert report.samples_used >= 257
    assert report.flags == ()
    # a track of winding w crosses Re = 0 at least 2|w| times; here exactly
    assert [c - 2 * abs(w) for w, c in zip(report.windings, report.re_axis_crossings)] == [0, 0]


def test_constant_loop():
    J0 = np.diag([-1.0, 2.0, 0.0])
    report = track_matrix_loop([J0, J0, J0], k=1)
    assert report.permutation == (0, 1)
    assert report.windings == (0, 0)
    assert report.re_axis_crossings == (0, 0)
    assert report.min_distance_to_zero == pytest.approx(1.0)


def test_real_diag_loop():
    s = np.linspace(0.0, 2.0 * np.pi, 65)
    mats = [np.diag([2.0 + np.cos(si), -1.0]) for si in s]
    report = track_matrix_loop(mats, k=0)
    assert report.permutation == (0, 1)
    assert report.windings == (0, 0)
    assert report.re_axis_crossings == (0, 0)
    assert report.min_distance_to_zero == pytest.approx(1.0, abs=1e-12)


def test_doubled_loop_squares():
    mats = rotation_family(256)
    single = track_matrix_loop(mats, k=0)
    doubled = track_matrix_loop(mats + mats[1:], k=0)
    # identity permutation composed with itself stays the identity and
    # every winding doubles
    assert doubled.permutation == single.permutation
    assert sorted(doubled.windings) == sorted(2 * w for w in single.windings)
    assert doubled.re_axis_crossings == tuple(2 * c for c in single.re_axis_crossings)


def test_conjugation_symmetry():
    # real matrix loop: the winding multiset equals its own negation
    report = track_matrix_loop(rotation_family(128), k=0)
    windings = sorted(report.windings)
    assert windings == sorted(-w for w in windings)


def test_flag_family_crossings_without_winding():
    # eigenvalues 0.5 cos(s) +- i sweep left and right without circling 0
    s = np.linspace(0.0, 2.0 * np.pi, 257)
    mats = [np.array([[0.5 * np.cos(si), 1.0], [-1.0, 0.5 * np.cos(si)]]) for si in s]
    report = track_matrix_loop(mats, k=0)
    assert report.windings == (0, 0)
    assert report.re_axis_crossings == (2, 2)
    # a track of winding w crosses Re = 0 at least 2|w| times; both tracks
    # here cross more often than their winding requires
    assert [c - 2 * abs(w) for w, c in zip(report.windings, report.re_axis_crossings)] == [2, 2]


def test_matrix_loop_validation():
    with pytest.raises(InputError, match="at least two"):
        track_matrix_loop([np.eye(2)], k=0)
    with pytest.raises(InputError, match="must close"):
        track_matrix_loop([np.eye(2), 2.0 * np.eye(2)], k=0)
    with pytest.raises(InputError, match="equal shape"):
        track_matrix_loop([np.eye(2), np.eye(3), np.eye(2)], k=0)
    with pytest.raises(InputError, match="no nonzero eigenvalues"):
        track_matrix_loop([np.eye(2), np.eye(2)], k=2)


def test_loop_through_zero_rejected():
    # a real eigenvalue crossing 0 has no winding number
    s = np.linspace(0.0, 2.0 * np.pi, 65)
    mats = [np.diag([np.cos(si), 5.0]) for si in s]
    with pytest.raises(TrackingError, match=r"path leaves C\*") as err:
        track_matrix_loop(mats, k=0)
    assert err.value.segment is not None


def test_refinement_certifies_coarse_loops():
    # 8 samples of the rotation family leave ~pi/4 argument steps; blending
    # matrices stays inside the family, so refinement succeeds
    report = track_matrix_loop(rotation_family(8), k=0)
    assert sorted(report.windings) == [-1, 1]
    assert report.samples_used > 9


def test_resolution_budget_exhaustion():
    # with refinement disabled, a quarter-turn-per-step loop cannot certify
    # its argument increments
    with pytest.raises(ResolutionError, match="refinement"):
        track_matrix_loop(rotation_family(4), k=0, max_refine=0)


def test_fiber_loop_benign(example2):
    # closed loop inside the equilibrium plane {x = z}; the single nonzero
    # eigenvalue stays real positive, so nothing winds or crosses
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    pts = [
        np.array([0.7 + 0.05 * np.cos(t), 0.95 + 0.05 * np.sin(t), 0.7 + 0.05 * np.cos(t)])
        for t in theta
    ]
    pts[-1] = pts[0].copy()
    report = eigen_along_fiber_loop(example2, [1.0], pts)
    assert report.permutation == (0,)
    assert report.windings == (0,)
    assert report.re_axis_crossings == (0,)
    assert report.min_distance_to_zero == pytest.approx(0.9, abs=1e-9)
    assert report.flags == ()


def test_fiber_loop_crossing_zero(example2):
    # the nonzero eigenvalue equals lambda * y on the equilibrium plane, so
    # a loop crossing y = 0 loses it into the structural zeros
    ys = np.concatenate([np.linspace(0.5, -0.5, 11), np.linspace(-0.5, 0.5, 11)[1:]])
    pts = [np.array([1.15, y, 1.15]) for y in ys]
    pts[-1] = pts[0].copy()
    with pytest.raises(TrackingError, match=r"path leaves C\*"):
        eigen_along_fiber_loop(example2, [1.0], pts)

    # same loop sampled so that no point lands exactly on y = 0: the step
    # straddling it is caught by the chord test instead
    ys2 = np.concatenate([np.linspace(0.5, -0.5, 10), np.linspace(-0.5, 0.5, 10)[1:]])
    pts2 = [np.array([1.15, y, 1.15]) for y in ys2]
    pts2[-1] = pts2[0].copy()
    with pytest.raises(TrackingError, match=r"path leaves C\*"):
        eigen_along_fiber_loop(example2, [1.0], pts2)


def test_fiber_loop_constant(example2):
    x_star, y_star = np.sqrt(8.0 / 15.0), np.sqrt(14.0 / 15.0)
    xeq = np.array([x_star, y_star, x_star])
    report = eigen_along_fiber_loop(example2, [1.0], [xeq, xeq, xeq])
    assert report.permutation == (0,)
    assert report.windings == (0,)
    assert report.min_distance_to_zero == pytest.approx(float(y_star), abs=1e-9)


def test_fiber_loop_validation(example2):
    x_star, y_star = np.sqrt(8.0 / 15.0), np.sqrt(14.0 / 15.0)
    xeq = np.array([x_star, y_star, x_star])
    with pytest.raises(InputError, match="loop must close"):
        eigen_along_fiber_loop(example2, [1.0], [xeq, xeq + 0.2])
    with pytest.raises(InputError, match="not an equilibrium"):
        eigen_along_fiber_loop(
            example2, [1.0], [[0.7, 0.95, 0.8], xeq.tolist(), [0.7, 0.95, 0.8]]
        )
    with pytest.raises(InputError, match="at least two"):
        eigen_along_fiber_loop(example2, [1.0], [xeq])
    with pytest.raises(InputError, match="length"):
        eigen_along_fiber_loop(example2, [1.0], [[0.7, 0.95], [0.7, 0.95]])


def test_fiber_loop_points_pass_the_domain_test():
    planar = builtin("planar")
    # equilibria at lambda 0.5; the second and third are outside the box
    with pytest.raises(InputError, match=r"^loop point 1 \[0\.22, 1\.2\] is not in the domain$"):
        eigen_along_fiber_loop(
            planar, [0.5], [[-0.375, 0.5], [0.22, 1.2], [0.625, -1.5], [-0.375, 0.5]]
        )
    # at lambda 2, (-0.72, 0.8) is an equilibrium inside the box, outside the disk
    base, outside, off = [-0.38, 0.9], [-0.72, 0.8], [0.0, 0.0]
    with pytest.raises(InputError, match=r"^loop point 1 \[-0\.72, 0\.8\] is not in the domain$"):
        eigen_along_fiber_loop(planar, [2.0], [base, outside, off, base])
    # each point in turn: point 1's equilibrium test comes before point 2's domain test
    with pytest.raises(InputError, match="loop point 1 is not an equilibrium"):
        eigen_along_fiber_loop(planar, [2.0], [base, off, outside, base])


def test_a_loop_point_raises_its_domain_constraint_error():
    def constraint(x):
        if x[1] == 0.0:
            raise EvaluationError("the constraint is undefined at y = 0")
        return x[0] ** 2 + x[1] ** 2 - 1.0

    planar = builtin("planar")
    sys = dataclasses.replace(
        planar, batched=False, domain=dataclasses.replace(planar.domain, constraints=(constraint,))
    )
    loop = [[-0.375, 0.5], [-0.5, 0.0], [-0.375, -0.5], [-0.375, 0.5]]
    with pytest.raises(EvaluationError, match="the constraint is undefined at y = 0"):
        eigen_along_fiber_loop(sys, [0.5], loop)
    assert eigen_along_fiber_loop(planar, [0.5], loop).windings == (0,)


@pytest.mark.parametrize("shifts, crossings", [
    ([1, 0, 0, -1, 0, 1, 0, 1], (2, 2)),
    ([0, 1, 0, -1, 0], (1, 1)),
    ([1, 0, 1], (0, 0)),
])
def test_a_sample_on_the_imaginary_axis_neither_counts_nor_resets(shifts, crossings):
    # eigenvalues a +- i: a sign of Re of 0 keeps the last nonzero sign,
    # and the base's sign, 0 or not, starts the count
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    report = track_matrix_loop([a * np.eye(2) + rotation for a in shifts], k=0)
    assert report.re_axis_crossings == crossings
    assert report.samples_used == len(shifts)


def test_report_serialization():
    report = track_matrix_loop(rotation_family(64), k=0)
    data = json.loads(json.dumps(report.as_dict(), sort_keys=True))
    assert sorted(data.keys()) == [
        "crossings",
        "flags",
        "min_distance_to_zero",
        "permutation",
        "samples_used",
        "tol_zero_used",
        "windings",
    ]
    assert data["permutation"] == [0, 1]
    sp = split_spectrum(np.diag([0.0, -1.5, 2.0]), 1)
    blob = json.loads(json.dumps(sp.as_dict(), sort_keys=True))
    assert blob["zeros"] == [[0.0, 0.0]]
    assert blob["nonzeros"] == [[-1.5, 0.0], [2.0, 0.0]]


def test_fiber_loop_reads_no_parameter_or_hessian_blocks(rfmr3):
    calls = {"jac_lambda": 0, "hess_h": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    sys = dataclasses.replace(
        rfmr3,
        jac_lambda_fn=counted("jac_lambda", rfmr3.jac_lambda_fn),
        hess_h_fn=counted("hess_h", rfmr3.hess_h_fn),
    )
    # one coarse out-and-back leg on the diagonal, so the refiner runs too
    pts = [np.full(3, c) for c in (0.1, 0.4, 0.1)]
    report = eigen_along_fiber_loop(sys, [1.0, 1.0, 1.0], pts)
    assert report.samples_used > len(pts)
    assert calls == {"jac_lambda": 0, "hess_h": 0}


@st.composite
def circulant_ellipses(draw):
    """An ellipse (r0 + rr cos t, c0 + rc sin t) in (rate, fill) that stays
    on one side of c = 1/2, where conjugate rfmr eigenvalues never meet."""
    lo, hi = draw(st.sampled_from([(0.08, 0.45), (0.55, 0.92)]))
    c0 = draw(st.floats(lo + 0.02, hi - 0.02))
    rc = draw(st.floats(0.1, 0.9)) * min(c0 - lo, hi - c0)
    r0 = draw(st.floats(1.0, 2.5))
    rr = draw(st.floats(0.1, 0.8)) * (r0 - 0.3)
    return draw(st.integers(3, 6)), r0, rr, c0, rc, draw(st.integers(12, 48))


@settings(settings.get_profile("derandomized"), max_examples=30)
@given(loop=circulant_ellipses())
def test_circulant_loops_have_trivial_monodromy(loop):
    n, r0, rr, c0, rc, samples = loop
    sys = builtin("rfmr", n=n)
    t = 2.0 * np.pi * (np.arange(samples + 1) % samples) / samples
    mats = [
        sys.jac_x_fn(np.full(n, r0 + rr * np.cos(s)), np.full(n, c0 + rc * np.sin(s)))
        for s in t
    ]
    report = track_matrix_loop(mats, k=1)
    assert report.permutation == tuple(range(n - 1))
    assert report.windings == (0,) * (n - 1)
    # the base matrix sits at t = 0; the oracle's j = 0 value is the zero one
    nonzeros = np.array(split_spectrum(mats[0], 1).nonzeros)
    oracle = rfmr_circulant_eigenvalues(r0 + rr, c0, n)[1:]
    assert nonzeros.size == oracle.size
    distances = np.abs(nonzeros[:, None] - oracle[None, :])
    assert distances.min(axis=0).max() < 1e-9 * (r0 + rr)
    assert distances.min(axis=1).max() < 1e-9 * (r0 + rr)


def test_fiber_loop_closes_at_the_point_rule(rfmr3):
    # points that close within 1e-9 relative close the loop, though their
    # Jacobians then differ by more than a matrix loop's 1e-12
    pts = [np.full(3, c) for c in (0.1, 0.4, 0.1)]
    closed = eigen_along_fiber_loop(rfmr3, [1.0, 1.0, 1.0], pts)
    pts[-1] = pts[0] + np.array([1e-10, -1e-10, 0.0])
    near = eigen_along_fiber_loop(rfmr3, [1.0, 1.0, 1.0], pts)
    assert closed.flags == ()
    assert (near.permutation, near.windings, near.flags) == (
        closed.permutation, closed.windings, closed.flags
    )


def test_a_loop_that_closes_within_1e_12_can_end_on_another_spectrum():
    # J is the 3 x 3 Jordan block at 1 and E = e3 e1^T.  J + eps E has the
    # eigenvalues 1 + eps^(1/3) times the cube roots of unity, so a loop
    # that passes matrix_loop's 1e-12 closure check ends on a spectrum that
    # differs from the base's 1, 1, 1 by eps^(1/3): the report flags it
    jordan = np.eye(3) + np.eye(3, k=1)
    e31 = np.zeros((3, 3))
    e31[2, 0] = 1.0
    eps = 0.9e-12 * np.linalg.norm(jordan)
    report = track_matrix_loop([jordan, jordan + 0.5 * eps * e31, jordan + eps * e31])
    assert report.permutation == (0, 1, 2)
    (flag,) = report.flags
    prefix = "final spectrum differs from the base spectrum by "
    assert flag.startswith(prefix)
    assert float(flag[len(prefix):]) == pytest.approx(np.cbrt(eps), rel=1e-3)


def count_rows(monkeypatch, owner, name: str, rows_of) -> list:
    """Wrap owner.name so that every call appends rows_of(its first
    argument), the number of matrices or spectra it takes, to the list."""
    rows = []
    real = getattr(owner, name)

    def counted(first, *args, **kwargs):
        rows.append(rows_of(first))
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return rows


def count_lanes(monkeypatch) -> list:
    """Wrap monodromy._correct so that every call appends its lane count."""
    lanes = []
    real = monodromy._correct

    def counted(residual, jacobian, starts, *args):
        lanes.append(len(starts))
        return real(residual, jacobian, starts, *args)

    monkeypatch.setattr(monodromy, "_correct", counted)
    return lanes


def test_matrix_loop_sorts_each_spectrum_once(monkeypatch):
    # every distinct sample's spectrum is computed and sorted once: the
    # coarse samples in one stack, the midpoints in one stack per
    # refinement depth.  The family's matrices at s and 2 pi - s often
    # have the same bits, so 99 samples take 86 spectra
    eigvals = count_rows(
        monkeypatch, np.linalg, "eigvals", lambda a: len(a) if np.ndim(a) == 3 else 1
    )
    lexsorts = count_rows(
        monkeypatch, np, "lexsort", lambda keys: len(keys[0]) if np.ndim(keys[0]) == 2 else 1
    )
    report = track_matrix_loop(rotation_family(64), k=0)
    assert report.samples_used == 99
    assert sum(eigvals) == sum(lexsorts) == 86
    assert len(eigvals) == len(lexsorts) <= 1 + 8


def test_fiber_loop_solves_each_depth_as_one_batch(monkeypatch):
    # the midpoints of one refinement depth are the lanes of one
    # _correct call (a lone call per midpoint made 4 calls), at most
    # max_refine calls when every refinement was prefetched, and every
    # corrected midpoint is a sample of the loop.  The loop goes out and
    # back, so the midpoint of (0.45, 0.2) is that of (0.2, 0.45), one
    # lane that makes two samples
    sys = builtin("rfmr", n=6)
    lanes = count_lanes(monkeypatch)
    pts = [np.full(6, c) for c in (0.2, 0.45, 0.2)]
    report = eigen_along_fiber_loop(sys, np.full(6, 1.5), pts)
    assert report.samples_used == len(pts) + sum(lanes) + 1
    assert lanes == [1, 1, 1]


@st.composite
def curved_fiber_loops(draw):
    """(sys, lam, points): a closed loop of equilibria on a curved fiber,
    whose chords' midpoints are off the fiber.  Out and back along planar's
    parabola x1 = lam (x2^2 - 1) in one to three legs; 6 to 16 equal arcs
    of the circle system's fiber r = 1/2 (4 arcs make newton_lanes damp a
    first step); or 3 to 12 arcs of a circle of radius 0.02 to 0.15 on
    example2's equilibrium plane x1 = x3, well inside its domain, around
    the circle or out along one to three of them and back."""
    name = draw(st.sampled_from(["planar", "circle", "example2"]))
    if name == "planar":
        lam = draw(st.floats(0.05, 1.0))
        ends = [draw(st.floats(-0.9, 0.0)), draw(st.floats(0.1, 0.9))]
        if draw(st.booleans()):
            ends.reverse()
        legs = draw(st.integers(1, 3))
        out = [ends[0] + (ends[1] - ends[0]) * j / legs for j in range(legs + 1)]
        points = [np.array([lam * (y * y - 1.0), y]) for y in out + out[-2::-1]]
        return builtin("planar"), [lam], points
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    lam = draw(st.floats(0.25, 4.0))
    if name == "circle":
        arcs = draw(st.integers(6, 16))
        angles = phase + 2.0 * np.pi * np.arange(arcs) / arcs
        points = [0.5 * np.array([np.cos(t), np.sin(t)]) for t in angles]
        return circle_fiber_system(), [lam], points + points[:1]
    radius = draw(st.floats(0.02, 0.15))
    arcs = draw(st.integers(3, 12))
    angles = phase + 2.0 * np.pi * np.arange(arcs) / arcs
    points = []
    for t in angles:
        u, v = 0.55 + radius * np.cos(t), 1.18 + radius * np.sin(t)
        points.append(np.array([u, v, u]))
    if draw(st.booleans()):
        out = points[:draw(st.integers(1, 3)) + 1]
        return builtin("example2"), [lam], out + out[-2::-1]
    return builtin("example2"), [lam], points + points[:1]


@settings(settings.get_profile("derandomized"), max_examples=20)
@given(loop=curved_fiber_loops())
def test_fiber_loop_midpoints_equal_lone_newton_solves(loop):
    # every midpoint of two refinement depths, corrected as a lane of one
    # _correct call per depth, succeeds or fails with a lone newton_lanes
    # solve at its pair's mean level and equals it bit for bit; each takes
    # Newton steps, but neither the corrector's cap nor damping is reached
    sys, lam, points = loop
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy, "_track", lambda matrices, payloads, refine, *args: (
            payloads, refine
        ))
        payloads, refine = eigen_along_fiber_loop(sys, lam, points)
    pairs = list(zip(payloads, payloads[1:]))
    for _ in range(2):
        made = refine([left for left, _ in pairs], [right for _, right in pairs])
        halves = []
        for (left, right), mid in zip(pairs, made):
            start, level = 0.5 * (left[0] + right[0]), 0.5 * (left[1] + right[1])
            alone = newton_lanes(sys, lam, level, start[None])
            assert isinstance(mid, EqBundleError) == (alone.error(0) is not None)
            if alone.error(0) is None:
                assert alone.iteration[0] >= 1
                assert mid[0][0].tobytes() == alone.x[0].tobytes()
                halves += [(left, mid[0]), (mid[0], right)]
        pairs = halves


def _sorted_complex(values):
    return tuple(complex(v) for v in values[np.lexsort((values.imag, values.real))])


@st.composite
def split_matrices(draw):
    """(J, k): a real n x n matrix, n <= 8, with random float entries, small
    integer entries, or a permuted block diagonal of exact zeros, repeated
    reals and conjugate pairs; k in 0..n."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["float", "integer", "blocks"]))
    if kind == "float":
        J = np.array(draw(st.lists(st.floats(-4, 4), min_size=n * n, max_size=n * n)))
    elif kind == "integer":
        J = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)))
    else:
        J = np.zeros((n, n))
        reals = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0])
        i = 0
        while i < n:
            if i + 1 < n and draw(st.booleans()):
                a, b = draw(reals), draw(st.sampled_from([1.0, 0.5, 2.0]))
                J[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
                i += 2
            else:
                J[i, i] = draw(reals)
                i += 1
        perm = np.array(draw(st.permutations(range(n))))
        J = J[perm][:, perm]
    return J.reshape(n, n).astype(float), draw(st.integers(0, n))


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).reshape(-1).tobytes()


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(case=split_matrices())
def test_split_keeps_the_sorted_spectrum_order(case):
    # reference: the k smallest moduli (stable) are the zeros, and each
    # part is re-sorted by (real, imag)
    J, k = case
    eigs = eigen_dense(J)
    order = np.argsort(np.abs(eigs), kind="stable")
    split = split_spectrum(J, k)
    assert _bits(split.nonzeros) == _bits(_sorted_complex(eigs[order[k:]]))
    assert _bits(split.zeros) == _bits(_sorted_complex(eigs[order[:k]]))


def _outcome(run):
    """run()'s report, or the type and message of its error."""
    try:
        return run()
    except EqBundleError as err:
        return type(err).__name__, str(err)


def assert_prefetch_changes_nothing(run):
    """run() gives what it gives when the prefetch is off, so that the fold
    refines every pair alone, one at a time, as a recursive tracker does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy._LoopTracker, "prefetch", lambda self, pairs: None)
        alone = _outcome(run)
    prefetched = _outcome(run)
    assert prefetched == alone
    return prefetched


def plane_rotations(turn, samples):
    return [
        np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        for t in turn * (np.arange(samples + 1) % samples)
    ]


@pytest.mark.parametrize("samples, max_refine", [(4, 1), (8, 8), (64, 8), (256, 2), (9, 3)])
def test_prefetch_keeps_rotation_family_reports(samples, max_refine):
    # an odd sample count misses s = pi, so the tracks turn back there
    report = assert_prefetch_changes_nothing(
        lambda: track_matrix_loop(rotation_family(samples), k=0, max_refine=max_refine)
    )
    assert sorted(report.windings) == ([0, 0] if samples % 2 else [-1, 1])


def test_prefetch_keeps_a_resolution_error():
    # rotations by 4 pi / 5 per sample: one halving level cannot certify
    # the argument increments, two can
    mats = plane_rotations(0.8 * np.pi, 5)
    kind, message = assert_prefetch_changes_nothing(
        lambda: track_matrix_loop(mats, k=0, max_refine=1)
    )
    assert kind == "ResolutionError" and "after 1 refinement levels" in message
    report = assert_prefetch_changes_nothing(lambda: track_matrix_loop(mats, k=0, max_refine=2))
    assert report.samples_used > len(mats)


@st.composite
def out_and_back_loops(draw):
    """rfmr(n) at uniform rate r along the diagonal, from fill c0 to c1 in
    one to three legs and back, on either side of 1/2 or across it."""
    n = draw(st.integers(3, 6))
    lo, hi = draw(st.sampled_from([(0.05, 0.45), (0.55, 0.95), (0.05, 0.95)]))
    c0, c1 = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    legs = draw(st.integers(1, 3))
    out = [c0 + (c1 - c0) * j / legs for j in range(legs + 1)]
    fills = out + out[-2::-1]
    return n, draw(st.floats(0.5, 3.0)), fills, draw(st.sampled_from([1, 2, 8]))


@settings(settings.get_profile("derandomized"), max_examples=30)
@given(loop=out_and_back_loops())
def test_prefetch_keeps_fiber_loop_reports(loop):
    n, rate, fills, max_refine = loop
    sys = builtin("rfmr", n=n)
    pts = [np.full(n, c) for c in fills]
    assert_prefetch_changes_nothing(
        lambda: eigen_along_fiber_loop(sys, np.full(n, rate), pts, max_refine=max_refine)
    )


@pytest.mark.parametrize("block", ["f", "jac_x_fn"])
def test_prefetch_keeps_failed_midpoints(rfmr3, block):
    # rfmr(3) whose f (so the midpoint's Newton lane fails) or df/dx (so its
    # evaluation fails after Newton) raises near x = (1/4, 1/4, 1/4): the
    # coarse step over that midpoint is certified as it stands, and a loop
    # point there fails the loop
    failures = []
    real = getattr(rfmr3, block)

    def banded(lam, x):
        if abs(x[0] - 0.25) < 0.01:
            failures.append(x[0])
            raise EvaluationError("undefined near 1/4", where=x.tolist())
        return real(lam, x)

    sys = dataclasses.replace(rfmr3, batched=False, **{block: banded})
    for fills, samples_used in (
        ((0.1, 0.4, 0.1), 3),               # both midpoints fail
        ((0.1, 0.4, 0.7, 0.4, 0.1), 17),
        ((0.05, 0.25, 0.45, 0.25, 0.05), None),
    ):
        failures.clear()
        pts = [np.full(3, c) for c in fills]
        outcome = assert_prefetch_changes_nothing(
            lambda: eigen_along_fiber_loop(sys, np.ones(3), pts)
        )
        assert failures
        if samples_used is None:
            assert outcome == ("EvaluationError", "undefined near 1/4 at [0.25, 0.25, 0.25]")
        else:
            assert outcome.samples_used == samples_used


def test_prefetched_non_finite_blend_is_raised_only_when_reached(monkeypatch):
    # the eigenvalue 1 of the first step passes through 0, so the loop ends
    # there; the prefetch has already blended the last interval, whose two
    # 1.5e308 entries sum past the float range
    deferred = []
    real = monodromy._samples

    def spy(*args):
        samples, tol_zero = real(*args)
        deferred.extend(str(s.error) for s in samples if s.error is not None)
        return samples, tol_zero

    monkeypatch.setattr(monodromy, "_samples", spy)
    base = np.diag([1.0, 2.0])
    huge = np.diag([1.5e308, 1.0])
    mats = [base, np.diag([-1.0, 2.0]), huge, huge * [1.0, -1.0], base]
    kind, message = assert_prefetch_changes_nothing(
        lambda: track_matrix_loop(mats, k=0, tol_zero=1e-3)
    )
    assert kind == "TrackingError" and "(between samples 0 and 1)" in message
    assert "matrix must be an array of finite numbers" in deferred


def test_no_rotation_family_loop_reaches_the_solver(monkeypatch):
    # the rotation family's pair meets at s = 0 and s = pi, where the 2 x 2
    # costs tie exactly; a window's certified row minima or the exact
    # step's unrolled two-row pass match every step
    solves = count_calls(monkeypatch, "_shortest_augmenting_paths", monodromy)
    matched = 0
    for samples in (8, 24, 64, 256):
        report = track_matrix_loop(rotation_family(samples), k=0)
        assert sorted(report.windings) == [-1, 1]
        matched += report.samples_used - 1
    assert matched > 450 and solves == []


def test_rfmr20_eigen_loop_takes_no_exact_chord_test(monkeypatch):
    # every accepted step of the tracks is cleared by the modulus bound:
    # the bound is the last test of an exact step (one row) and of a
    # window (its candidate rows), which accepts the leading cleared rows
    chords = count_calls(monkeypatch, "_chord_distance_to_origin", monodromy)
    cleared = []
    real = monodromy._chord_clears

    def leading_rows(*args):
        clears = real(*args)
        cleared.append(int(np.logical_and.accumulate(np.atleast_2d(clears).all(axis=1)).sum()))
        return clears

    monkeypatch.setattr(monodromy, "_chord_clears", leading_rows)
    pts = [np.full(20, c) for c in (0.2, 0.31, 0.42, 0.31, 0.2)]
    report = eigen_along_fiber_loop(builtin("rfmr", n=20), np.full(20, 1.5), pts)
    assert report.windings == (0,) * 19 and report.samples_used > len(pts)
    assert sum(cleared) == report.samples_used - 1 and chords == []


def test_an_uncleared_step_takes_the_exact_chord_test(monkeypatch):
    # without refinement the eigenvalue 1 steps to -1 across the origin:
    # its chord is not cleared, and the exact test raises as it always did
    chords = count_calls(monkeypatch, "_chord_distance_to_origin", monodromy)
    mats = [np.diag([1.0, 5.0]), np.diag([-1.0, 5.0]), np.diag([1.0, 5.0])]
    with pytest.raises(TrackingError, match=(
        r"path leaves C\*: the step of tracked eigenvalue 0 passes within "
        r"tol_zero = 5\.000e-07 of the origin \(between samples 0 and 1\)"
    )):
        track_matrix_loop(mats, k=0, max_refine=0)
    assert chords == ["_chord_distance_to_origin"]


def _sequential_advance(self, left, right, segment) -> None:
    """The reference fold, _LoopTracker's step-by-step advance before the
    windowed fold replaced it, kept verbatim: fold the samples from left
    to right into the track.  An interval that needs halving is replaced,
    on a stack of pending (left, right, depth) intervals, by its two
    halves, the left one on top, so the samples are accepted in loop
    order, depth first."""
    pending = [(left, right, 0)]
    while pending:
        left, right, depth = pending.pop()
        if right.error is not None:
            raise right.error
        _check_moduli(right, segment)
        if right.unreliable:
            self.flag_once("unreliable zero/nonzero split encountered along the loop")
        values = self.track[-1]
        # a linear extrapolation of each track, the base alone at first
        predicted = 2.0 * values - self.track[-2] if len(self.track) > 1 else values
        cost = np.abs(predicted[:, None] - right.nonzeros[None, :])
        matched = right.nonzeros[assignment(cost)]
        moduli = np.abs(matched)
        if float(moduli.min()) <= self.tol_zero:
            idx = int((moduli <= self.tol_zero).argmax())
            raise TrackingError(
                f"{_LEAVES_CSTAR}: tracked eigenvalue {idx} has modulus "
                f"{abs(matched[idx]):.3e} <= tol_zero = {self.tol_zero:.3e}",
                segment=segment,
            )
        turns = matched * values.conj()
        turned = float(np.abs(np.arctan2(turns.imag, turns.real)).max()) >= 0.5 * np.pi
        steps = np.abs(matched - values)
        if (turned or float(steps.max()) > 0.5 * right.min_gap) and depth < self.max_refine:
            # a refiner that cannot produce a midpoint (e.g. Newton hits a
            # singular point between the samples) degrades to the coarse
            # step, whose certification below reports what went wrong
            mid = self.midpoints.pop((left, right), None)
            if mid is None:
                mid = self.midpoints_of([(left, right)])[0]
            if isinstance(mid, _Sample):
                pending += [(mid, right, depth + 1), (left, mid, depth + 1)]
                continue
        # accepting this increment as-is: certify it first, exactly for
        # the tracks whose chord the modulus bound does not clear
        cleared = _chord_clears(np.abs(values), moduli, steps, self.tol_zero)
        for i in np.flatnonzero(~cleared).tolist():
            if _chord_distance_to_origin(complex(values[i]),
                                         complex(matched[i])) <= self.tol_zero:
                raise TrackingError(
                    f"{_LEAVES_CSTAR}: the step of tracked eigenvalue {i} passes "
                    f"within tol_zero = {self.tol_zero:.3e} of the origin",
                    segment=segment,
                )
        if turned:
            raise ResolutionError(
                "eigenvalue tracking could not certify an argument increment "
                f"below pi/2 after {self.max_refine} refinement levels",
                segment=segment,
            )
        self.track.append(matched)


def _sequential_fold(self, pairs) -> None:
    for i, (left, right) in enumerate(pairs):
        _sequential_advance(self, left, right, (i, i + 1))


def assert_fold_is_sequential(run):
    """run() gives, with the prefetch on and off, what it gives when the
    tracker folds one interval at a time as _sequential_advance does."""
    windowed = assert_prefetch_changes_nothing(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy._LoopTracker, "fold", _sequential_fold)
        sequential = assert_prefetch_changes_nothing(run)
    assert windowed == sequential
    return windowed


@st.composite
def matrix_loops(draw):
    """(matrices, k, max_refine): a loop A + cos(t) B + sin(t) C of n x n
    matrices, n from 2 to 4, at 3 to 12 samples of t, with entries general
    or symmetric, and rounded to 0.1 or not, so that spectra repeat and
    costs tie exactly."""
    n = draw(st.integers(2, 4))
    entries = st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)
    a, b, c = (np.array(draw(entries)).reshape(n, n) for _ in range(3))
    if draw(st.booleans()):
        a, b, c = a + a.T, b + b.T, c + c.T
    samples = draw(st.integers(3, 12))
    t = 2.0 * np.pi * (np.arange(samples + 1) % samples) / samples
    scale = draw(st.sampled_from([0.05, 0.3, 1.0]))
    mats = a + scale * (np.cos(t)[:, None, None] * b + np.sin(t)[:, None, None] * c)
    if draw(st.booleans()):
        mats = np.round(mats, 1)
    return list(mats), draw(st.integers(0, 1)), draw(st.integers(0, 8))


# a loop of 3 x 3 matrices on which the window's guessed links are wrong
# at some step, so the first pass verifies only the links up to it
GUESSED_WRONG = [
    [[1.2, -3.6, 0.4], [2.6, -0.7, 2.7], [3.4, -2.3, 0.5]],
    [[0.7, -2.3, -0.6], [3.1, -1.1, 2.9], [3.0, -1.8, 0.2]],
    [[-0.4, -0.8, -1.2], [2.7, -1.7, 2.5], [2.1, -1.0, -0.3]],
    [[-1.5, 0.3, -1.1], [1.6, -2.3, 1.5], [0.9, -0.4, -1.1]],
    [[-2.2, 0.6, -0.5], [0.1, -2.7, 0.4], [0.0, -0.1, -1.6]],
    [[-2.3, -0.1, 0.6], [-1.2, -2.7, -0.5], [-0.4, -0.3, -1.8]],
    [[-1.7, -1.5, 1.6], [-1.7, -2.3, -0.7], [0.0, -0.9, -1.5]],
    [[-0.6, -3.0, 2.2], [-1.3, -1.7, -0.3], [0.9, -1.6, -0.9]],
    [[0.4, -4.1, 2.1], [-0.1, -1.1, 0.7], [2.1, -2.2, -0.2]],
    [[1.2, -4.3, 1.4], [1.4, -0.7, 1.8], [3.0, -2.5, 0.3]],
    [[1.2, -3.6, 0.4], [2.6, -0.7, 2.7], [3.4, -2.3, 0.5]],
]


@settings(settings.get_profile("derandomized"), max_examples=150)
@given(loop=matrix_loops())
@example(loop=(list(np.array(GUESSED_WRONG)), 1, 0))
def test_the_windowed_fold_is_the_sequential_fold(loop):
    mats, k, max_refine = loop
    assert_fold_is_sequential(lambda: track_matrix_loop(mats, k=k, max_refine=max_refine))


def _exact(run):
    """(outcome, tracks): run()'s report as JSON, every float to its last
    bit, or the type and message of its error; and the bytes of each
    fold's track, the tracks' values at every accepted sample, as far as
    the fold got."""
    tracks = []
    real = monodromy._LoopTracker.fold

    def fold(self, pairs):
        try:
            real(self, pairs)
        finally:
            tracks.append(np.array(self.track).tobytes())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy._LoopTracker, "fold", fold)
        outcome = _outcome(run)
    return (outcome if isinstance(outcome, tuple) else json.dumps(outcome.as_dict())), tracks


def assert_reuse_is_unseen(run):
    """run() gives, byte for byte, the report and the track it gives when
    nothing is reused: with every given sample its own (no two share an
    identity, so no segment repeats and nothing is looked up), and with a
    tracker whose lookups never hit, which makes every midpoint it is
    asked for.  Returns the report."""
    reused = _exact(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy, "_identities", lambda rows: list(range(len(rows))))
        apart = _exact(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy._LoopTracker, "midpoints_of", monodromy._LoopTracker.make)
        unmatched = _exact(run)
    assert reused == apart == unmatched
    return reused[0]


@st.composite
def retraced_loops(draw):
    """(function, args, kwargs): a loop that retraces segments.  A curved
    fiber loop (out and back along planar's parabola or example2's plane
    arcs; the closed arcs retrace nothing), rfmr(n) out and back along its
    diagonal, or a matrix_loops loop A + cos(t) B + sin(t) C run forward
    then backward, or run twice, so that each of its segments is run twice
    in the same direction."""
    kind = draw(st.sampled_from(["curved", "diagonal", "back", "twice"]))
    if kind == "curved":
        return eigen_along_fiber_loop, draw(curved_fiber_loops()), {}
    if kind == "diagonal":
        n, rate, fills, max_refine = draw(out_and_back_loops())
        args = (builtin("rfmr", n=n), np.full(n, rate), [np.full(n, c) for c in fills])
        return eigen_along_fiber_loop, args, {"max_refine": max_refine}
    mats, k, max_refine = draw(matrix_loops())
    mats = mats + (mats[-2::-1] if kind == "back" else mats[1:])
    return track_matrix_loop, (mats,), {"k": k, "max_refine": max_refine}


@settings(settings.get_profile("derandomized"), max_examples=80)
@given(loop=retraced_loops())
def test_the_reuse_cannot_be_seen(loop):
    function, args, kwargs = loop
    assert_reuse_is_unseen(lambda: function(*args, **kwargs))


def _work(monkeypatch, run) -> tuple:
    """(report, spectra, lanes): run()'s report, its eigvals rows and the
    lanes of each of its _correct calls."""
    spectra = count_rows(
        monkeypatch, np.linalg, "eigvals", lambda a: len(a) if np.ndim(a) == 3 else 1
    )
    lanes = count_lanes(monkeypatch)
    return run(), sum(spectra), lanes


def test_an_out_and_back_loop_takes_its_return_leg_from_its_outgoing_leg(monkeypatch):
    # the benchmark's rfmr(20) eigen-loop shape, out in two legs and back:
    # the return leg's points and every midpoint it needs are the outgoing
    # leg's.  The report's 22 samples take 12 spectra (3 for the 5 given
    # points), and each depth's corrector call half the lanes
    sys = builtin("rfmr", n=20)
    pts = [np.full(20, c) for c in (0.2, 0.31, 0.42, 0.31, 0.2)]

    def run():
        return eigen_along_fiber_loop(sys, np.full(20, 1.5), pts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy, "_identities", lambda rows: list(range(len(rows))))
        apart = _work(patch, run)
    reused = _work(monkeypatch, run)
    assert reused[0] == apart[0] and reused[0].samples_used == 22
    assert (apart[1:], reused[1:]) == ((22, [4, 8, 5]), (12, [2, 4, 3]))


def test_a_mirrored_midpoint_that_fails_reuses_its_error(rfmr3, monkeypatch):
    # rfmr(3) whose f raises near x = (1/4, 1/4, 1/4): the midpoint of 0.1
    # -> 0.4 fails, and the return leg 0.4 -> 0.1 takes that error with no
    # lane of its own; both intervals stay unhalved, as they did when each
    # leg corrected its own midpoint
    failures = []
    real = rfmr3.f

    def banded(lam, x):
        if abs(x[0] - 0.25) < 0.01:
            failures.append(x[0])
            raise EvaluationError("undefined near 1/4", where=x.tolist())
        return real(lam, x)

    sys = dataclasses.replace(rfmr3, batched=False, f=banded)
    pts = [np.full(3, c) for c in (0.1, 0.4, 0.1)]
    lanes = count_lanes(monkeypatch)
    report = assert_reuse_is_unseen(lambda: eigen_along_fiber_loop(sys, np.ones(3), pts))
    assert json.loads(report)["samples_used"] == 3
    # the three runs of assert_reuse_is_unseen: one corrector lane with the
    # reuse, one per leg with every given sample apart, and one per leg
    # when every lookup misses
    assert lanes == [1, 1, 1, 1, 1] and failures


def test_a_loop_that_retraces_no_segment_looks_nothing_up(monkeypatch):
    # a loop that closes on its first sample but repeats no segment keeps
    # no midpoints to look up; one that goes out and back keeps them all
    made = []
    real = monodromy._LoopTracker.fold

    def spy(self, pairs):
        made.append(self.made)
        return real(self, pairs)

    monkeypatch.setattr(monodromy._LoopTracker, "fold", spy)
    mats = plane_rotations(0.25 * np.pi, 8)
    track_matrix_loop(mats, k=0)
    track_matrix_loop(mats[:4] + mats[2::-1], k=0)
    assert made[0] is None and len(made[1]) > 0


def test_identities_are_shared_by_equal_bytes_alone():
    # a and b have the same sum of 64-bit words, so b is checked against a
    # in full and keeps its own index; a later b, checked against a too,
    # keeps its own as well: an identity is never shared by unequal rows
    a, b = [1.0, 2.0], [2.0, 1.0]
    assert monodromy._identities(np.array([a, b, a, b, a])) == [0, 1, 0, 3, 0]
    # -0.0 and 0.0 are equal floats with other bytes
    assert monodromy._identities(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])) == [0, 1, 0]
    # the family's matrices at s and 2 pi - s share their bytes at a few s
    keys = monodromy._identities(np.array(rotation_family(64)))
    assert {i: key for i, key in enumerate(keys) if key != i} == {
        34: 30, 58: 6, 61: 3, 63: 1, 64: 0
    }


def test_a_fiber_loop_checks_and_evaluates_each_distinct_point_once(monkeypatch):
    # out and back: three distinct points of five are checked and
    # evaluated.  A repeat of a valid point is valid, so the first point
    # that fails, after one, still names its own index
    sys = builtin("rfmr", n=6)
    starts = count_calls(monkeypatch, "_continuation_start", monodromy)
    evaluated = []
    real = monodromy._evaluate_rows

    def spy(sys, lam, x, *args):
        evaluated.append(len(x))
        return real(sys, lam, x, *args)

    monkeypatch.setattr(monodromy, "_evaluate_rows", spy)
    pts = [np.full(6, c) for c in (0.2, 0.3, 0.45, 0.3, 0.2)]
    eigen_along_fiber_loop(sys, np.full(6, 1.5), pts)
    assert len(starts) == 3 and evaluated[0] == 3
    off = np.full(6, 0.3)
    off[0] = 0.4
    bad = [pts[0], pts[1], pts[0], off, pts[0]]
    with pytest.raises(InputError, match="loop point 3 "):
        eigen_along_fiber_loop(sys, np.full(6, 1.5), bad)


def _coarse_and_dense(n, seed, shift, samples, scale=1.0):
    """(coarse, dense): a loop A + cos(t) B + sin(t) C of n x n matrices at
    samples values of t, with A, B and C scale times normal entries from
    seed, A shifted by shift I and B and C scaled by 0.8; and the same
    piecewise-linear loop with each interval cut into 32 by its linear
    blends."""
    a, b, c = scale * np.random.default_rng(seed).standard_normal((3, n, n))
    a += shift * np.eye(n)
    t = 2.0 * np.pi * (np.arange(samples + 1) % samples) / samples
    coarse = a + 0.8 * (np.cos(t)[:, None, None] * b + np.sin(t)[:, None, None] * c)
    s = (np.arange(32) / 32.0)[None, :, None, None]
    dense = (coarse[:-1, None] + s * (coarse[1:] - coarse[:-1])[:, None]).reshape(-1, n, n)
    return list(coarse), list(dense) + [coarse[-1]]


@st.composite
def coarse_and_dense_loops(draw):
    """_coarse_and_dense with n from 2 to 5, A shifted by +-4 I, at 6 to 16
    samples."""
    return _coarse_and_dense(draw(st.integers(2, 5)), draw(st.integers(0, 2**32 - 1)),
                             draw(st.sampled_from([-4.0, 4.0])), draw(st.integers(6, 16)))


def _tracks(loops):
    """The (winding, crossings) multiset of each loop's tracks; None when
    either loop is not tracked."""
    reports = []
    for mats in loops:
        try:
            report = track_matrix_loop(mats)
        except (TrackingError, ResolutionError):
            return None
        reports.append(sorted(zip(report.windings, report.re_axis_crossings)))
    return reports


@settings(settings.get_profile("derandomized"), max_examples=40)
@given(loops=coarse_and_dense_loops(), expected=st.none())
# with entries twice as large, a loop whose tracks wind and cross (its
# permutation is a 3-cycle; 512 times the density reads the same)
@example(loops=_coarse_and_dense(3, 107, 4.0, 8, 2.0), expected=[(-1, 2), (0, 1), (0, 1)])
def test_a_loop_s_tracks_do_not_depend_on_its_sampling(loops, expected):
    # the (winding, crossings) of every track, as a multiset, is read from
    # samples; where both samplings of one loop are tracked, they agree
    reports = _tracks(loops)
    if reports is not None:
        assert reports[0] == reports[1]
        assert expected is None or reports[0] == expected


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="an accepted interval is matched only at its ends")
def test_a_coarse_loop_s_tracks_are_its_dense_loop_s():
    # the same loop at 12 samples: the coarse run tracks the permutation
    # (2, 0, 1), windings (0, -1, 0); 32 to 512 times the density read
    # (0, 2, 1), windings 0, and the eigenvalues stay 0.075 apart
    coarse, dense = _tracks(_coarse_and_dense(3, 107, 4.0, 12, 2.0))
    assert dense == [(0, 1), (0, 1), (0, 2)]
    assert coarse == dense


def _rotations(angles):
    return [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in angles]


def test_a_window_stops_at_an_uncleared_chord(monkeypatch):
    # steps of 0.1 in argument, cleared by the bound at tol_zero = 0.5,
    # then one of 0.8 that is not (1 - 2 sin 0.4 < 0.5) and passes the
    # exact test (cos 0.4 > 0.5): the first window takes the steps before
    # it, the exact step takes it, track by track, and a second window the
    # rest; the pair meets at -1 off the samples, so the tracks turn back
    angles = np.concatenate([np.arange(0.5, 1.05, 0.1), np.arange(1.8, 0.5 + 2.0 * np.pi, 0.1)])
    mats = _rotations(np.append(angles, 0.5))
    report = assert_fold_is_sequential(lambda: track_matrix_loop(mats, k=0, tol_zero=0.5))
    assert report.windings == (0, 0) and report.samples_used > len(mats)
    chords = count_calls(monkeypatch, "_chord_distance_to_origin", monodromy)
    windows = count_calls(monkeypatch, "window", monodromy._LoopTracker)
    track_matrix_loop(mats, k=0, tol_zero=0.5)
    assert len(chords) == 2 and len(windows) == 2


@pytest.mark.parametrize("right, message", [
    # the halving is prefetched, but the fold raises at the right sample;
    # the midpoint fails too, with other figures
    (np.diag([-1.0, 3.0, 1e-9]), "tracked eigenvalue 0 has modulus 1.000e-09"),
    (np.diag([1.0, 3.0, 4e150]), "the loop reaches 4.000e+150 (between samples 0 and 1)"),
    # at the bounds themselves: a modulus of tol_zero, or of 1e150, fails
    # before any halving, whose midpoint has the eigenvalue 0
    (np.diag([-1.0, 3.0, 1e-6]), "tracked eigenvalue 0 has modulus 1.000e-06"),
    (np.diag([-1.0, -1.1, 1e150]), "the loop reaches 1.000e+150 (between samples 0 and 1)"),
])
def test_a_prefetched_pair_whose_right_sample_fails(right, message):
    base = np.diag([1.0, 3.0, 5.0])
    kind, text = assert_fold_is_sequential(
        lambda: track_matrix_loop([base, right, base], k=0, tol_zero=1e-6)
    )
    assert message in text


_BASE = np.diag([1.0, 3.0, 5.0])


@pytest.mark.parametrize("mats, options, kind, message", [
    # a base eigenvalue at tol_zero
    ([np.diag([0.5, 2.0])] * 2, {"tol_zero": 0.5}, TrackingError,
     "a base nonzero eigenvalue already has modulus"),
    # the track that reaches tol_zero is named
    ([np.diag([-2.0, 1.0, 5.0]), np.diag([-2.0, 1e-6, 5.0]), np.diag([-2.0, 1.0, 5.0])],
     {"tol_zero": 1e-6}, TrackingError, "tracked eigenvalue 1 has modulus 1.000e-06"),
    # the tracks 0.5 +- i -> -0.5 +- i pass 0 at distance 1 = tol_zero at
    # their chords' midpoints, and their ends stay farther out
    ([np.array([[0.5, -1.0], [1.0, 0.5]]), np.array([[-0.5, -1.0], [1.0, -0.5]]),
      np.array([[0.5, -1.0], [1.0, 0.5]])],
     {"tol_zero": 1.0}, TrackingError, "passes within tol_zero = 1.000e"),
    # 1 -> i and -1 -> -i turn by pi/2 exactly, with no refinement left
    ([np.diag([1.0, -1.0]), np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])],
     {"max_refine": 0}, ResolutionError, "below pi/2 after 0 refinement levels"),
    # the window after the first step starts at a sample that fails
    ([_BASE, _BASE, np.diag([1.0, 3.0, 1e-9]), _BASE], {"tol_zero": 1e-6}, TrackingError,
     r"modulus 1.000e-09 .*\(between samples 1 and 2\)"),
    # finite upper-right entries whose blend overflows: the fold reaches the
    # midpoint sample and raises the error it holds
    ([np.array([[1.0, 1e308], [0.0, 2.0]]), np.array([[3.0, 1.7e308], [0.0, 2.0]]),
      np.array([[1.0, 1e308], [0.0, 2.0]])],
     {}, InputError, "matrix must be an array of finite numbers"),
])
def test_a_loop_at_a_bound_raises(mats, options, kind, message):
    with pytest.raises(kind, match=message):
        track_matrix_loop(mats, k=0, **options)


def test_a_base_spectrum_that_fails_raises_a_typed_error(monkeypatch):
    # LAPACK does not converge on the base matrix, which holds a 7
    real = monodromy.eigen_dense

    def eigen_dense(M):
        if (np.asarray(M) == 7.0).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(M)

    monkeypatch.setattr(monodromy, "eigen_dense", eigen_dense)
    base = np.diag([7.0, 1.0])
    with pytest.raises(EqBundleError, match="did not converge"):
        track_matrix_loop([base, np.diag([6.0, 1.0]), base], k=0)


def test_tied_costs_reach_the_solver_in_both_folds(monkeypatch):
    solves = count_calls(monkeypatch, "_shortest_augmenting_paths", monodromy)
    mats = [np.diag([1.0, 1.0, 2.0])] * 3 + [np.diag([1.0, 1.5, 1.5]), np.diag([1.0, 1.0, 2.0])]
    report = assert_fold_is_sequential(lambda: track_matrix_loop(mats, k=0))
    assert report.windings == (0, 0, 0) and solves


_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regenerate.py")
_spec = importlib.util.spec_from_file_location("golden_regenerate", _GOLDEN)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name, windows, exact_steps, assignments, samples_used", [
    ("eigen-loop-rfmr3", 1, 1, 2, 6),
    ("track-matrix-loop-rfmr5", 1, 1, 2, 24),
    ("track-matrix-loop-rotation", 2, 3, 4, 59),
])
def test_golden_loops_fold_in_few_windows(monkeypatch, name, windows, exact_steps,
                                          assignments, samples_used):
    # the fold's work: windows folded, exact first steps (each calls
    # assignment once, and the closure once more), and the samples it took
    counts = {
        "windows": count_calls(monkeypatch, "window", monodromy._LoopTracker),
        "steps": count_calls(monkeypatch, "step", monodromy._LoopTracker),
        "assignments": count_calls(monkeypatch, "assignment", monodromy),
    }
    result = json.loads(golden.envelope(name))["result"]
    assert {key: len(calls) for key, calls in counts.items()} == {
        "windows": windows, "steps": exact_steps, "assignments": assignments,
    }
    assert result["samples_used"] == samples_used


def test_the_window_cap_bounds_the_fold_s_memory(monkeypatch):
    # 512 samples of a 40 x 40 loop around well separated real eigenvalues,
    # folded in windows of _WINDOW leaves: the fold's peak allocation stays
    # far below one cost stack of the whole loop, m p^2 complex numbers
    rng = np.random.default_rng(7)
    a = np.diag(np.arange(1.0, 41.0))
    b, c = 0.01 * rng.standard_normal((2, 40, 40))
    t = 2.0 * np.pi * (np.arange(513) % 512) / 512
    mats = a + np.cos(t)[:, None, None] * b + np.sin(t)[:, None, None] * c
    peaks = []
    real = monodromy._LoopTracker.fold

    def traced(self, pairs):
        tracemalloc.start()
        try:
            real(self, pairs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(monodromy._LoopTracker, "fold", traced)
    report = track_matrix_loop(list(mats), k=0)
    assert report.windings == (0,) * 40 and report.samples_used == 513
    whole_loop = 512 * 40 * 40 * np.dtype(complex).itemsize
    assert peaks[0] < whole_loop / 3


def _graze(draw, scale):
    """(a, b) on a line that passes 10^e * scale from the origin."""
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    offset = 10.0 ** draw(st.floats(-18.0, 0.0)) * scale
    along = [draw(st.floats(-2.0, 2.0)) * scale for _ in range(2)]
    turn = complex(np.cos(angle), np.sin(angle))
    return tuple(turn * complex(t, offset) for t in along)


@st.composite
def chords(draw):
    """A step (a, b) of a track: a segment that grazes 0, one on a ray from
    0 (where the bound is exact, so only its margin covers rounding), one
    much longer than |a|, or any, at moduli from 1e-300 to 1e149."""
    scale = 10.0 ** draw(st.floats(-300.0, 148.0))
    kind = draw(st.sampled_from(["graze", "ray", "long", "any"]))
    unit = st.floats(-1.0, 1.0)
    if kind == "graze":
        return _graze(draw, scale)
    if kind == "ray":
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        a = complex(np.cos(angle), np.sin(angle)) * scale
        return a, a * (1.0 + 10.0 ** draw(st.floats(-16.0, 0.0)))
    a = complex(draw(unit), draw(unit)) * scale
    if kind == "long":
        return a, a + complex(draw(unit), draw(unit)) * scale * 10.0 ** draw(st.floats(1.0, 8.0))
    return a, complex(draw(unit), draw(unit)) * scale


@settings(settings.get_profile("derandomized"), max_examples=120)
@given(chord=chords(), slack=st.sampled_from([1.0, 1.0 + 2.0 ** -52, 2.0]))
def test_the_chord_bound_clears_no_flagged_track(chord, slack):
    a, b = chord
    if max(abs(a), abs(b)) >= 1e150 or a == 0 or b == 0:
        return
    tol = slack * monodromy._chord_distance_to_origin(a, b)
    ends = np.array([a, b])
    moduli = np.abs(ends)
    clears = monodromy._chord_clears(moduli[:1], moduli[1:], np.abs(ends[1:] - ends[:1]), tol)
    assert not clears[0]


def test_the_chord_bound_clears_a_short_step_far_from_zero():
    a, b = np.array([1.0 + 1.0j]), np.array([1.001 + 1.002j])
    assert monodromy._chord_clears(np.abs(a), np.abs(b), np.abs(b - a), 1e-7).all()
    assert not monodromy._chord_clears(np.abs(a), np.abs(b), np.abs(b - a), 1.42).any()


def _reference_assignment(cost):
    """assignment as it was before its 2 x 2 pass: the certificate, then
    the NaN and -inf check, then the shortest augmenting path solver."""
    cost = np.asarray(cost, dtype=float)
    p = cost.shape[0]
    cols = cost.argmin(axis=1)
    if (
        len(set(cols.tolist())) == p
        and np.count_nonzero(cost == cost.min(axis=1, keepdims=True)) == p
    ):
        return tuple(cols.tolist())
    if np.isnan(cost).any() or (cost == -np.inf).any():
        raise InputError("cost matrix contains NaN or -inf")
    return tuple(monodromy._shortest_augmenting_paths(cost.tolist()))


def _matching(solve, cost):
    try:
        return tuple(int(c) for c in solve(cost))
    except InputError as err:
        return str(err)


def test_assignment_validation():
    with pytest.raises(InputError, match="expected a square cost matrix"):
        assignment(np.zeros((2, 3)))
    # -inf at each entry, where the row minima share a column
    for cost in ([[-np.inf, 1.0], [2.0, 3.0]], [[1.0, -np.inf], [3.0, 2.0]],
                 [[2.0, 3.0], [-np.inf, 1.0]], [[3.0, 2.0], [1.0, -np.inf]]):
        with pytest.raises(InputError, match="NaN or -inf"):
            assignment(np.array(cost))


def test_a_certified_cost_skips_the_solver(monkeypatch):
    # row minima in distinct columns, each attained once, are the matching
    solves = count_calls(monkeypatch, "_shortest_augmenting_paths", monodromy)
    cost = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    assert assignment(cost).tolist() == [0, 1, 2] and solves == []
    cost[0, 1] = 0.0
    assert assignment(cost).tolist() == [0, 1, 2] and len(solves) == 1


def test_two_rows_follow_the_solver_s_rounding():
    # c + b - a loses c, or d + a - b rounds below c, so the branches for
    # c >= d (a <= b) and c <= d (a > b) are not the other branch's
    # comparison: each cost takes the branch its matching needs
    tiny, up, down = 5e-324, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53
    for cost, cols in (([[1.0, 1.0], [tiny, tiny]], (0, 1)), ([[1.0, down], [up, up]], (1, 0))):
        cost = np.array(cost)
        assert _matching(assignment, cost) == _matching(_reference_assignment, cost) == cols


def test_two_rows_equal_the_solver_on_small_integer_costs():
    for entries in np.ndindex(4, 4, 4, 4):
        cost = np.array(entries, dtype=float).reshape(2, 2)
        assert _matching(monodromy.assignment, cost) == _matching(_reference_assignment, cost)


@st.composite
def near_tie_costs(draw):
    """2 x 2 costs around one value, a few ulps, a relative 1e-15 or a unit
    apart, with some entries inf, -inf or NaN."""
    base = draw(st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 3.7, 1e10, 1e300]))
    ulp = np.spacing(base) if base else 5e-324
    entries = []
    for _ in range(4):
        kind = draw(st.sampled_from(["ulps", "ulps", "ulps", "relative", "unit", "special"]))
        if kind == "ulps":
            entries.append(base + draw(st.integers(-3, 3)) * ulp)
        elif kind == "relative":
            entries.append(base * (1.0 + draw(st.floats(-1e-15, 1e-15))))
        elif kind == "unit":
            entries.append(base + draw(st.integers(-2, 2)))
        else:
            entries.append(draw(st.sampled_from([np.inf, np.inf, -np.inf, np.nan])))
    return np.array(entries).reshape(2, 2)


@settings(settings.get_profile("derandomized"), max_examples=100)
@given(cost=near_tie_costs())
def test_two_rows_equal_the_solver_on_near_ties(cost):
    assert _matching(monodromy.assignment, cost) == _matching(_reference_assignment, cost)
