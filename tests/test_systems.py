from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqbundle import (
    EvaluationError,
    InputError,
    PointState,
    SystemSpec,
    Tolerances,
    builtin,
    check_first_integral_identity,
    eigen_dense,
    enumerate_level_points,
    evaluate,
)
from eqbundle import systems
from eqbundle.expr import build_system_from_config
from eqbundle.finder import _continuation_start
from eqbundle.systems import Domain, _evaluate_rows, _in_domain_rows, first_integral_violation
from eqbundle.tolerances import DEFAULT_TOLERANCES

from conftest import central_blocks, rfmr_circulant_eigenvalues, ring_declaration, sample_box

ALL_BUILTIN_NAMES = ["planar", "example2", "rfmr"]


def _make(name):
    return builtin(name, n=3) if name == "rfmr" else builtin(name)


def test_planar_evaluate_origin(planar):
    ev = evaluate(planar, PointState([0.5], [0.0, 0.0]))
    assert np.allclose(ev.f_value, [-0.5, 0.0])
    assert np.allclose(ev.h_value, [0.0])
    assert np.allclose(ev.jac_x, [[-1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(ev.jac_lambda, [[-1.0], [0.0]])


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
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        lam = sys.parameter_box[:, 0] + (
            sys.parameter_box[:, 1] - sys.parameter_box[:, 0]
        ) * rng.random(sys.m)
        x = sample_box(sys.domain, rng, 1)[0]
        if not sys.domain.contains(x):
            continue
        checked += 1
        ev = evaluate(sys, PointState(lam, x))
        blocks = (ev.jac_x, ev.jac_lambda, ev.jac_h, ev.hess_h)
        for block, reference in zip(blocks, central_blocks(sys, lam, x)):
            assert np.abs(reference - block).max() <= 1e-6 * (1.0 + np.abs(block).max())


def test_jac_h_full_rank_in_interior():
    from eqbundle import numeric_rank

    rng = np.random.default_rng(23)
    for name in ALL_BUILTIN_NAMES:
        sys = _make(name)
        checked = 0
        while checked < 100:
            x = sample_box(sys.domain, rng, 1)[0]
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


def test_evaluate_accepts_every_point_find_returns(planar):
    # the level 1 + 1.5e-9 puts x = (1.5e-9, 1 + 1.5e-9) 3e-9 outside the
    # disk, within the domain slack scaled by 1 + diameter
    tols = Tolerances()
    points = enumerate_level_points(planar, [0.5], [1 + 1.5e-9], tols=tols)
    assert points and planar.domain.constraints[0](points[0].state.x) > 2e-9
    for point in points:
        assert evaluate(planar, point.state).point is point.state
        assert evaluate(planar, point.state, tols).point is point.state


def test_evaluate_tests_lambda_within_the_scaled_slack(planar):
    # the parameter box [0, 1] has diameter 1
    s = DEFAULT_TOLERANCES.domain_slack * 2
    evaluate(planar, PointState([1 + 0.5 * s], [0.0, 0.0]))
    with pytest.raises(InputError, match=r"lambda \[.*\] outside parameter box"):
        evaluate(planar, PointState([1 + 2 * s], [0.0, 0.0]))


def test_a_domain_computes_its_diameter_once(monkeypatch):
    # with its box check; a start check, which tests the box and then the
    # domain each within the slack, and contains at its default slack read
    # that value
    made = []
    diameter = systems._diameter

    def counted(box):
        made.append(box.tolist())
        return diameter(box)

    monkeypatch.setattr(systems, "_diameter", counted)
    planar = builtin("planar")
    assert made == [[[-1.0, 1.0], [-1.0, 1.0]]]
    x0, f0 = _continuation_start(planar, np.array([0.5]), [-0.5, 0.0], DEFAULT_TOLERANCES)
    assert planar.domain.contains(x0) and f0 == 0.0
    assert planar.domain.diameter() == diameter(planar.domain.box)
    assert len(made) == 1


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_evaluate_reports_non_finite():
    sys = SystemSpec(
        name="blowup", n=2, m=1, k=1,
        f=lambda lam, x: np.array([1.0 / x[0], 0.0]),
        h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.array([[-1.0 / x[0] ** 2, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
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
        jac_x_fn=lambda lam, x: np.zeros((2, 2)),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[1.0, 0.0]]),
        hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    worst = first_integral_violation(sys, samples=10, seed=0)
    assert worst.max_residual == pytest.approx(1.0)
    assert worst.integral_index == 0
    assert worst.x.shape == (2,)


def rotation_spec(calls: dict, hess_h_fn=lambda x: 2.0 * np.eye(2)[None]) -> SystemSpec:
    """Rotation xdot = lam (-x2, x1) with h = |x|^2, called row by row,
    with the calls of h and of dh/dx counted."""

    def h(x):
        calls["h"] += 1
        return np.array([x[0] ** 2 + x[1] ** 2])

    def jac_h(x):
        calls["jac_h"] += 1
        return np.array([2.0 * x])

    return SystemSpec(
        name="rotation", n=2, m=1, k=1,
        f=lambda lam, x: lam[0] * np.array([-x[1], x[0]]),
        h=h,
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.5, 2.0]]),
        jac_x_fn=lambda lam, x: lam[0] * np.array([[0.0, -1.0], [1.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.array([[-x[1]], [x[0]]]),
        jac_h_fn=jac_h,
        hess_h_fn=hess_h_fn,
    )


def test_first_integral_violation_differences_h_only():
    # f . grad h needs dh/dx alone: one dh/dx per sample, no h values and
    # no Hessians
    calls = {"h": 0, "jac_h": 0}
    worst = first_integral_violation(rotation_spec(calls), samples=7, seed=0)
    assert worst.max_residual < 1e-9
    assert calls == {"h": 0, "jac_h": 7}


def test_first_integral_violation_ignores_the_hessian():
    sys = rotation_spec({"h": 0, "jac_h": 0}, hess_h_fn=lambda x: np.full((1, 2, 2), np.nan))
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


def _violation_one_attempt_at_a_time(sys, samples, seed):
    """first_integral_violation as it drew before its blocks: per attempt
    m lambda draws, then one x from the box, kept when the domain holds it."""
    rng = np.random.default_rng(seed)
    pb = sys.parameter_box
    lams, xs = [], []
    attempts = 0
    max_attempts = max(1000 * samples, 10000)
    while len(xs) < samples and attempts < max_attempts:
        attempts += 1
        lam = pb[:, 0] + (pb[:, 1] - pb[:, 0]) * rng.random(sys.m)
        x = sample_box(sys.domain, rng, 1)[0]
        if sys.domain.contains(x):
            lams.append(lam)
            xs.append(x)
    if len(xs) < samples:
        return "cap"
    worst = (0.0, pb[:, 0].tolist(), sys.domain.box[:, 0].tolist(), 0)
    f, jac_h = _evaluate_rows(sys, np.array(lams), np.array(xs), ("f", "jac_h"))
    for i, (lam, x) in enumerate(zip(lams, xs)):
        residuals = np.abs(jac_h[i] @ f[i])
        l = int(np.argmax(residuals))
        if residuals[l] > worst[0]:
            worst = (float(residuals[l]), lam.tolist(), x.tolist(), l)
    return worst


def _sliver_spec() -> SystemSpec:
    """A drifting field (so the residuals differ), evaluated in stacks, on
    a box whose one constraint leaves a sliver of 1e-6 of it."""

    def block(x, shape, entries):
        out = np.zeros(x.shape[:-1] + shape)
        for at, value in entries.items():
            out[(...,) + at] = value
        return out

    return SystemSpec(
        name="sliver", n=2, m=2, k=1,
        f=lambda lam, x: np.stack([lam[..., 0] * x[..., 1], lam[..., 1] - x[..., 0]], axis=-1),
        h=lambda x: (x[..., 0] ** 2 + x[..., 1])[..., None],
        domain=Domain(
            box=np.array([[-1.0, 1.0], [0.0, 2.0]]),
            constraints=(lambda x: 0.999999 - x[..., 0],),
        ),
        parameter_box=np.array([[0.5, 2.0], [-1.0, 1.0]]),
        jac_x_fn=lambda lam, x: block(x, (2, 2), {(0, 1): lam[..., 0], (1, 0): -1.0}),
        jac_lambda_fn=lambda lam, x: block(x, (2, 2), {(0, 0): x[..., 1], (1, 1): 1.0}),
        jac_h_fn=lambda x: block(x, (1, 2), {(0, 0): 2.0 * x[..., 0], (0, 1): 1.0}),
        hess_h_fn=lambda x: block(x, (1, 2, 2), {(0, 0, 0): 2.0}),
        batched=True,
    )


IDENTITY_DOMAINS = {
    "box": lambda: builtin("rfmr", n=3),
    "constrained": lambda: builtin("example2"),
    "constrained-plain": lambda: dataclasses.replace(builtin("planar"), batched=False),
}


def assert_identity_samples_are_the_lone_attempts(sys, samples, seed):
    """first_integral_violation gives what the one-attempt loop gives;
    returns that."""
    expected = _violation_one_attempt_at_a_time(sys, samples, seed)
    if expected == "cap":
        with pytest.raises(InputError, match=f"could not draw {samples} domain points after"):
            first_integral_violation(sys, samples, seed)
        return expected
    worst = first_integral_violation(sys, samples, seed)
    assert (
        worst.max_residual, worst.lam.tolist(), worst.x.tolist(), worst.integral_index
    ) == expected
    return expected


@pytest.mark.parametrize("domain", sorted(IDENTITY_DOMAINS))
@settings(settings.get_profile("derandomized"), max_examples=8)
@given(samples=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_identity_samples_are_the_lone_attempts(domain, samples, seed):
    assert_identity_samples_are_the_lone_attempts(IDENTITY_DOMAINS[domain](), samples, seed)


@settings(settings.get_profile("derandomized"), max_examples=1)
@given(samples=st.integers(1, 10), seed=st.integers(0, 2**32))
def test_identity_sampling_hits_the_lone_attempts_cap(samples, seed):
    assert assert_identity_samples_are_the_lone_attempts(_sliver_spec(), samples, seed) == "cap"


# a point inside each domain, from which the rows below replace one
# coordinate by NaN or an infinity
INSIDE = {"rfmr": [0.5, 0.5, 0.5], "example2": [0.5, 1.0, 0.5], "planar": [0.2, 0.3]}


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "row-by-row"])
@pytest.mark.parametrize("name", ["rfmr", "example2", "planar"])
def test_contains_and_in_domain_rows_agree_on_non_finite_rows(name, batched):
    # rfmr's domain is a box alone, example2's and planar's have
    # constraints; both routes reject every row with a NaN or an infinity
    sys = dataclasses.replace(_make(name), batched=batched)
    base = np.array(INSIDE[name])
    rows = [base]
    for value in (np.nan, np.inf, -np.inf):
        for i in range(sys.n):
            row = base.copy()
            row[i] = value
            rows.append(row)
    inside, errors = _in_domain_rows(sys, np.array(rows), Tolerances(domain_slack=1e-9))
    assert not errors
    slack = 1e-9 * (1.0 + sys.domain.diameter())
    assert inside.tolist() == [sys.domain.contains(row, slack) for row in rows]
    assert inside.tolist() == sys.domain.contains(np.array(rows), slack).tolist()
    assert inside.tolist() == [True] + [False] * (len(rows) - 1)


def test_a_stack_tests_each_constraint_on_the_rows_still_inside():
    # as on a point, no constraint sees a row once a test has failed: the
    # huge row outside the box would overflow the disk constraint
    seen = []

    def disk(x):
        seen.append(x.tolist())
        return x[..., 0] ** 2 + x[..., 1] ** 2 - 1.0

    domain = Domain(box=[[-1.0, 1.0], [-1.0, 1.0]], constraints=(disk, disk))
    rows = np.array([[0.2, 0.3], [5e199, 1e100], [0.9, 0.9], [0.1, -0.2]])
    assert domain.contains(rows, 0.0).tolist() == [True, False, False, True]
    assert seen == [rows[[0, 2, 3]].tolist(), rows[[0, 3]].tolist()]
    assert [domain.contains(row, 0.0) for row in rows] == [True, False, False, True]
    seen.clear()
    assert domain.contains(rows[[0, 3]], 0.0).tolist() == [True, True]
    assert domain.contains(rows[[1]], 0.0).tolist() == [False]
    assert seen == [rows[[0, 3]].tolist()] * 2
    # a stack with two leading axes tests the same rows in the same order
    seen.clear()
    assert domain.contains(rows.reshape(2, 2, 2), 0.0).tolist() == [[True, False], [False, True]]
    assert seen == [rows[[0, 2, 3]].tolist(), rows[[0, 3]].tolist()]


@pytest.mark.parametrize("make", [
    lambda: build_system_from_config(ring_declaration(4)), lambda: builtin("example2"),
    lambda: builtin("rfmr", n=5),
], ids=["declared-ring4", "example2", "rfmr5"])
def test_identity_residuals_equal_the_sample_loop(make):
    # the stacked residuals and their argmax give the loop's worst sample
    # and integral bit for bit; example2 has k = 2
    assert_identity_samples_are_the_lone_attempts(make(), 2000, 7)


@pytest.mark.parametrize("case", ["tied", "zero"])
def test_identity_residual_ties_and_zeros_match_the_loop(case):
    # every residual equal: the first sample and its first integral; every
    # residual 0: the default result
    if case == "tied":
        f = lambda lam, x: np.array([1.0, 0.0, 0.0])
        jac_h = lambda x: np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    else:
        f = lambda lam, x: np.zeros(3)
        jac_h = lambda x: np.eye(3)[:2]
    sys = SystemSpec(
        name=case, n=3, m=1, k=2, f=f, h=lambda x: x[:2],
        domain=Domain(box=np.array([[-1.0, 1.0]] * 3)),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.zeros((3, 3)),
        jac_lambda_fn=lambda lam, x: np.zeros((3, 1)),
        jac_h_fn=jac_h,
        hess_h_fn=lambda x: np.zeros((2, 3, 3)),
    )
    expected = assert_identity_samples_are_the_lone_attempts(sys, 50, 3)
    if case == "tied":
        assert (expected[0], expected[3]) == (1.0, 0)
    else:
        assert expected == (0.0, [0.0], [-1.0, -1.0, -1.0], 0)


@settings(settings.get_profile("derandomized"), max_examples=300)
@given(data=st.data())
def test_the_margin_is_signed_as_contains_at_slack_0(data):
    # margin(x) >= 0 exactly when contains(x, 0.0), on points drawn at,
    # near and past the box faces and the constraint surfaces, with NaNs
    # and infinities; inside the box it is the plain min over the box and
    # every constraint, and outside it the box's alone
    name = data.draw(st.sampled_from(["rfmr", "example2", "planar"]), label="system")
    domain = _make(name).domain
    lo, hi = domain.box[:, 0], domain.box[:, 1]
    edges = [*lo.tolist(), *hi.tolist(), 1.0, -1.0, np.sqrt(0.5), 0.0]
    value = st.one_of(
        st.floats(-2.0, 2.0),
        st.sampled_from(edges).map(lambda v: v + data.draw(st.sampled_from([0.0, 1e-16, -1e-16]))),
        st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    x = np.array(data.draw(st.lists(value, min_size=domain.dim, max_size=domain.dim), label="x"))
    margin = domain.margin(x)
    assert (margin >= 0.0) == domain.contains(x, 0.0)
    assert np.isnan(margin) == np.isnan(x).any()
    if np.isfinite(x).all():
        box = min(*(x - lo).tolist(), *(hi - x).tolist())
        inside_box = np.all((lo <= x) & (x <= hi))
        constraints = [-float(g(x)) for g in domain.constraints] if inside_box else []
        assert margin == min([box, *constraints])


def test_the_row_routes_of_a_batched_block(rfmr3):
    # a stack whose values are all finite comes back as the callable made
    # it, with no copy; a lone row already in errors is not evaluated again
    made = []

    def jac_x(lam, x):
        made.append(rfmr3.jac_x_fn(lam, x))
        return made[-1]

    sys = dataclasses.replace(rfmr3, jac_x_fn=jac_x)
    lam, xs = np.ones(3), np.full((4, 3), 0.5)
    assert np.shares_memory(sys.jac_x(lam, xs), made[-1])
    failed = EvaluationError("earlier")
    errors = {0: failed}
    assert np.isnan(sys.jac_x(lam, xs[:1], errors)).all()
    assert len(made) == 1 and errors == {0: failed}


def test_a_failed_row_is_named_by_its_own_lambda(rfmr3):
    # with one lambda per row, the non-finite row's error names that row's
    lams = np.array([[1.0, 1.0, 1.0], [2.0, 3.0, 4.0]])
    xs = np.array([[0.5, 0.5, 0.5], [np.nan, 0.5, 0.5]])
    errors = {}
    _evaluate_rows(rfmr3, lams, xs, ("f",), errors)
    assert list(errors) == [1] and errors[1].where[0] == lams[1].tolist()


def test_identity_sampling_raises_a_constraint_s_error(planar):
    # a constraint tested row by row may raise; the first sample's error
    # ends the check
    def constraint(x):
        if x[0] > 0.5:
            raise EvaluationError("constraint undefined", where=x.tolist())
        return -1.0

    sys = dataclasses.replace(planar, batched=False, domain=Domain(box=planar.domain.box,
                                                                   constraints=(constraint,)))
    with pytest.raises(EvaluationError, match="^constraint undefined at "):
        first_integral_violation(sys, samples=50, seed=0)
