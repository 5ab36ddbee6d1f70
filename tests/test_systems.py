from __future__ import annotations

import numpy as np
import pytest

from eqbundle import (
    EvaluationError,
    InputError,
    PointState,
    SystemSpec,
    builtin,
    check_first_integral_identity,
    eigen_dense,
    evaluate,
)
from eqbundle.systems import Domain, first_integral_violation

from conftest import rfmr_circulant_eigenvalues, strip_jacobians

ALL_BUILTIN_NAMES = ["planar", "example2", "rfmr"]


def _make(name):
    return builtin(name, n=3) if name == "rfmr" else builtin(name)


def test_planar_evaluate_origin(planar):
    ev = evaluate(planar, PointState([0.5], [0.0, 0.0]))
    assert np.allclose(ev.f_value, [-0.5, 0.0])
    assert np.allclose(ev.h_value, [0.0])
    assert np.allclose(ev.jac_x, [[-1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ev.jac_lambda, [[-1.0], [0.0]])
    assert ev.derivative_source == "analytic"


def test_planar_boundary_tangency(planar):
    # on the unit circle the field points inward or is tangent: f . x <= 0
    for theta in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        x = np.array([np.cos(theta), np.sin(theta)])
        v = planar.f(np.array([0.7]), x)
        assert v @ x <= 1e-12


def test_example2_evaluate_on_equilibrium_plane(example2):
    ev = evaluate(example2, PointState([1.0], [1.0, 1.0, 1.0]))
    assert np.allclose(ev.f_value, 0.0)
    assert np.allclose(ev.jac_x, [[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.allclose(ev.h_value, [3.0, 8.25])
    assert np.allclose(ev.jac_h, [[2.0, 2.0, 2.0], [8.0, 8.0, 0.5]])
    assert np.allclose(ev.jac_lambda, 0.0)


def test_rfmr_symmetric_point_is_equilibrium(rfmr3):
    for c in (0.3, 0.5, 0.7):
        ev = evaluate(rfmr3, PointState([1.0, 1.0, 1.0], [c, c, c]))
        assert np.allclose(ev.f_value, 0.0, atol=1e-15)
        assert ev.h_value[0] == pytest.approx(3 * c)


def test_rfmr_jacobian_matches_circulant_oracle(rfmr3):
    # circulant formula is the independent oracle for the symmetric point
    ev = evaluate(rfmr3, PointState([1.0, 1.0, 1.0], [0.5, 0.5, 0.5]))
    expected = np.array([[-1.0, 0.5, 0.5], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]])
    assert np.allclose(ev.jac_x, expected, atol=1e-15)

    oracle = np.sort_complex(rfmr_circulant_eigenvalues(1.0, 0.5, 3))
    assert np.allclose(oracle, [-1.5, -1.5, 0.0], atol=1e-12)
    computed = np.sort_complex(eigen_dense(ev.jac_x))
    assert np.allclose(computed, oracle, atol=1e-12)
    # the nonzero pair is a real double eigenvalue at -1.5
    assert np.allclose(computed.imag, 0.0, atol=1e-12)

    # kernel direction is the diagonal
    diag = np.ones(3) / np.sqrt(3)
    assert np.linalg.norm(ev.jac_x @ diag) < 1e-14


def test_rfmr_circulant_oracle_off_center(rfmr3):
    # away from c = 1/2 the circulant formula gives a genuine complex pair
    c = 0.3
    ev = evaluate(rfmr3, PointState([1.0, 1.0, 1.0], [c, c, c]))
    oracle = rfmr_circulant_eigenvalues(1.0, c, 3)
    computed = eigen_dense(ev.jac_x)
    assert np.allclose(
        np.sort_complex(computed), np.sort_complex(oracle), atol=1e-12
    )
    assert np.abs(oracle.imag).max() > 0.1


def test_rfmr_jacobian_columns_sum_to_zero(rfmr3):
    rng = np.random.default_rng(2)
    for _ in range(25):
        lam = 0.25 + 3.75 * rng.random(3)
        x = rng.random(3)
        ev = evaluate(rfmr3, PointState(lam, x))
        assert np.allclose(ev.jac_x.sum(axis=0), 0.0, atol=1e-14)
        assert np.allclose(ev.jac_lambda.sum(axis=0), 0.0, atol=1e-14)


@pytest.mark.parametrize("name", ALL_BUILTIN_NAMES)
def test_first_integral_identity(name):
    sys = _make(name)
    assert check_first_integral_identity(sys, samples=200, seed=0) < 1e-12


@pytest.mark.parametrize("name", ALL_BUILTIN_NAMES)
def test_first_integral_identity_deterministic(name):
    sys = _make(name)
    first = check_first_integral_identity(sys, samples=50, seed=123)
    second = check_first_integral_identity(sys, samples=50, seed=123)
    assert first == second


@pytest.mark.parametrize("name", ALL_BUILTIN_NAMES)
def test_finite_differences_match_analytic(name):
    sys = _make(name)
    fd_sys = strip_jacobians(sys)
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        lam = sys.parameter_box[:, 0] + (
            sys.parameter_box[:, 1] - sys.parameter_box[:, 0]
        ) * rng.random(sys.m)
        x = sys.domain.sample_box(rng, 1)[0]
        if not sys.domain.contains(x):
            continue
        checked += 1
        ev = evaluate(sys, PointState(lam, x))
        fd = evaluate(fd_sys, PointState(lam, x))
        assert fd.derivative_source == "finite-difference"
        scale = 1.0 + np.abs(ev.jac_x).max()
        assert np.abs(fd.jac_x - ev.jac_x).max() <= 1e-6 * scale
        assert np.abs(fd.jac_lambda - ev.jac_lambda).max() <= 1e-6 * (
            1.0 + np.abs(ev.jac_lambda).max()
        )
        assert np.abs(fd.jac_h - ev.jac_h).max() <= 1e-6 * (1.0 + np.abs(ev.jac_h).max())
        assert np.abs(fd.hess_h - ev.hess_h).max() <= 1e-6 * (
            1.0 + np.abs(ev.hess_h).max()
        )


def test_jac_h_full_rank_in_interior():
    from eqbundle import numeric_rank

    rng = np.random.default_rng(23)
    for name in ALL_BUILTIN_NAMES:
        sys = _make(name)
        checked = 0
        while checked < 100:
            x = sys.domain.sample_box(rng, 1)[0]
            if not sys.domain.contains(x):
                continue
            # example2 gradients become parallel on the plane z = 0 and the
            # line x = y = 0, both excluded from the independence claim
            if name == "example2" and abs(x[2]) < 0.1:
                continue
            checked += 1
            lam = sys.parameter_box[:, 0] + (
                sys.parameter_box[:, 1] - sys.parameter_box[:, 0]
            ) * rng.random(sys.m)
            ev = evaluate(sys, PointState(lam, x))
            assert numeric_rank(ev.jac_h).rank == sys.k


def test_evaluate_rejects_outside_domain(planar):
    with pytest.raises(InputError):
        evaluate(planar, PointState([0.5], [0.9, 0.9]))  # outside the disk
    with pytest.raises(InputError):
        evaluate(planar, PointState([2.0], [0.0, 0.0]))  # lambda outside box
    with pytest.raises(InputError):
        evaluate(planar, PointState([0.5, 0.5], [0.0, 0.0]))  # wrong m
    with pytest.raises(InputError):
        evaluate(planar, PointState([0.5], [0.0, 0.0, 0.0]))  # wrong n


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_evaluate_reports_non_finite():
    sys = SystemSpec(
        name="blowup", n=2, m=1, k=1,
        f=lambda lam, x: np.array([1.0 / x[0], 0.0]),
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
    )
    with pytest.raises(EvaluationError):
        evaluate(sys, PointState([0.5], [0.0, 0.0]))


def test_builtin_argument_validation():
    with pytest.raises(InputError):
        builtin("rfmr", n=2)
    with pytest.raises(InputError):
        builtin("rfmr")
    with pytest.raises(InputError):
        builtin("nope")
    with pytest.raises(InputError):
        builtin("planar", n=4)


def test_first_integral_violation_reports_location():
    # a field that visibly violates conservation of h = x1
    sys = SystemSpec(
        name="driftx", n=2, m=1, k=1,
        f=lambda lam, x: np.array([1.0, 0.0]),
        h=lambda x: np.array([x[0]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
    )
    worst = first_integral_violation(sys, samples=10, seed=0)
    assert worst.max_residual == pytest.approx(1.0)
    assert worst.integral_index == 0
    assert worst.x.shape == (2,)


def rotation_spec(calls: dict, hess_h_fn=None) -> SystemSpec:
    """Rotation xdot = lam (-x2, x1) with h = |x|^2, called row by row,
    with derivatives from finite differences and h's calls counted."""

    def h(x):
        calls["h"] += 1
        return np.array([x[0] ** 2 + x[1] ** 2])

    return SystemSpec(
        name="rotation", n=2, m=1, k=1,
        f=lambda lam, x: lam[0] * np.array([-x[1], x[0]]),
        h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.5, 2.0]]),
        hess_h_fn=hess_h_fn,
    )


def test_first_integral_violation_differences_h_only():
    # f . grad h needs dh/dx alone: 2n calls of h per sample, no h values
    # and no Hessian points
    calls = {"h": 0}
    worst = first_integral_violation(rotation_spec(calls), samples=7, seed=0)
    assert worst.max_residual < 1e-9
    assert calls["h"] == 2 * 2 * 7


def test_first_integral_violation_ignores_the_hessian():
    sys = rotation_spec({"h": 0}, hess_h_fn=lambda x: np.full((1, 2, 2), np.nan))
    assert first_integral_violation(sys, samples=5, seed=0).max_residual < 1e-9
    with pytest.raises(EvaluationError, match="hess_h"):
        evaluate(sys, PointState([1.0], [0.3, 0.4]))


def _rolled_rfmr(lam, x):
    """f, df/dx and df/dlambda of rfmr(n) with the sites shifted by np.roll."""
    n = x.shape[-1]
    idx = np.arange(n)
    xm, xp, lm = np.roll(x, 1, axis=-1), np.roll(x, -1, axis=-1), np.roll(lam, 1, axis=-1)
    f = lm * xm * (1.0 - x) - lam * x * (1.0 - xp)
    jac_x = np.zeros(x.shape + (n,))
    jac_x[..., idx, (idx - 1) % n] = lm * (1.0 - x)
    jac_x[..., idx, idx] = -lm * xm - lam * (1.0 - xp)
    jac_x[..., idx, (idx + 1) % n] = lam * x
    jac_lambda = np.zeros(x.shape + (n,))
    jac_lambda[..., idx, (idx - 1) % n] = xm * (1.0 - x)
    jac_lambda[..., idx, idx] += -x * (1.0 - xp)
    return f, jac_x, jac_lambda


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rfmr_equals_the_rolled_formula(n):
    # the builtin indexes the neighbouring sites; the values are bitwise
    # those of shifting the whole vector with np.roll
    sys = builtin("rfmr", n=n)
    rng = np.random.default_rng(n)
    lams = rng.uniform(0.25, 4.0, (7, n))
    xs = rng.uniform(0.0, 1.0, (7, n))
    cases = [(lams[0], xs[0]), (lams[0], xs), (lams, xs)]
    for lam, x in cases:
        expected = _rolled_rfmr(lam, x)
        got = (sys.f(lam, x), sys.jac_x_fn(lam, x), sys.jac_lambda_fn(lam, x))
        for ours, theirs in zip(got, expected):
            assert ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()
