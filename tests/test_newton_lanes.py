"""The lockstep level-set Newton kernel: lane outcomes, lane independence,
the line search's rounds against a trial-by-trial search, and the work
enumerate_level_points does per kept point."""

import dataclasses
import json
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqbundle import builtin, finder, linalg
from eqbundle.errors import ConvergenceError, EvaluationError, InputError
from eqbundle.finder import (
    CONVERGED,
    EVALUATION_ERROR,
    LANE_OUTCOMES,
    enumerate_level_points,
    level_starts,
    newton_lanes,
    newton_on_level_set,
)
from eqbundle.systems import Domain, SystemSpec
from eqbundle.tolerances import DEFAULT_TOLERANCES
from eqbundle.transport import holonomy_loop, lift_curve

from conftest import count_calls


def assert_lane_alone_matches(sys, lam, level, starts, lanes, **kwargs):
    """Every lane of a batched run equals the same start run alone: its x
    and residual bytes (NaN where never evaluated), status, iteration and
    error."""
    for i in range(len(starts)):
        alone = newton_lanes(sys, lam, level, starts[i:i + 1], **kwargs)
        assert alone.x[0].tobytes() == lanes.x[i].tobytes()
        assert alone.residual[0].tobytes() == lanes.residual[i].tobytes()
        assert alone.status[0] == lanes.status[i]
        assert alone.iteration[0] == lanes.iteration[i]
        assert str(alone.error(0)) == str(lanes.error(i))


def assert_rounds_match_trial_by_trial(sys, lam, level, starts, lanes, **kwargs):
    """The line search's rounds end every lane where a search that
    evaluates one trial per stacked call ends it, errors included."""
    one_per_round = np.split(np.ldexp(1.0, -np.arange(25)), 25)
    with mock.patch.object(finder, "_ALPHA_ROUNDS", one_per_round):
        serial = newton_lanes(sys, lam, level, starts, **kwargs)
    assert serial.x.tobytes() == lanes.x.tobytes()
    assert serial.residual.tobytes() == lanes.residual.tobytes()
    assert serial.status.tolist() == lanes.status.tolist()
    assert serial.iteration.tolist() == lanes.iteration.tolist()
    assert [str(serial.error(i)) for i in range(len(starts))] == [
        str(lanes.error(i)) for i in range(len(starts))
    ]


def test_empty_level_outcome_counts(example2):
    # h2 > 4 h1: no point of the equilibrium plane x1 = x3 lies on the level
    level = [2.0, 10.0]
    lanes = newton_lanes(example2, [1.0], level, level_starts(example2, 200, 0))
    assert lanes.counts() == {
        "converged": 0,
        "start outside domain": 154,
        "non-finite residual": 0,
        "singular": 0,
        "line search stalled": 0,
        "max iterations": 0,
        "outside the domain at the end": 0,
        "evaluation error": 0,
        "no progress": 46,
    }
    assert list(lanes.counts()) == list(LANE_OUTCOMES)
    assert enumerate_level_points(example2, [1.0], level, budget=200, seed=0) == []


@pytest.mark.parametrize(
    "outcome, level, max_iter, kind, text",
    [
        ("start outside domain", [2.0, 10.0], 50, InputError, "is not in the domain"),
        (
            "no progress", [2.0, 10.0], 50, ConvergenceError,
            r"made no progress in 5 iterations, \|\|F\|\| = 8.356e-01 at iteration 9",
        ),
        # no lane can make no progress before iteration 5
        ("max iterations", [2.0, 10.0], 5, ConvergenceError, "did not converge in 5 iterations"),
        ("line search stalled", [3.0, 13.0], 50, ConvergenceError, "stalled at iteration 12"),
    ],
)
def test_empty_level_lane_raises_its_typed_error(example2, outcome, level, max_iter, kind, text):
    # the one-lane call raises the typed error of the first lane that ends so
    starts = level_starts(example2, 200, 0)
    lanes = newton_lanes(example2, [1.0], level, starts, max_iter=max_iter)
    lane = int(np.flatnonzero(lanes.status == LANE_OUTCOMES.index(outcome))[0])
    assert isinstance(lanes.error(lane), kind)
    with pytest.raises(kind, match=text) as err:
        newton_on_level_set(example2, [1.0], level, starts[lane], max_iter=max_iter)
    assert str(err.value) == str(lanes.error(lane))


def test_a_lane_can_make_no_progress_at_iteration_5(example2):
    # the stall test runs from the top of iteration 5 on
    x0 = [0.044474550134482094, 1.4768425411167914, -0.013699797087965981]
    with pytest.raises(ConvergenceError, match=r"no progress in 5 iterations, .* iteration 5$"):
        newton_on_level_set(example2, [1.0], [1.0, 8.0], x0)


def test_a_lane_exactly_at_the_stall_factor_goes_on(example2):
    # at this newton tolerance the lane above has ||F|| at iteration 5 of
    # exactly 1e3 times its target; the stall test is strict, and an
    # accepted step only lowers ||F||, so the lane never stalls
    x0 = [[0.044474550134482094, 1.4768425411167914, -0.013699797087965981]]
    tols = DEFAULT_TOLERANCES.replace(newton=0.0005608350310624553)
    at_5 = newton_lanes(example2, [1.0], [1.0, 8.0], x0, tols, max_iter=5)
    target = tols.newton * (1.0 + np.linalg.norm(x0[0]))
    assert finder._lane_norm(at_5.residual)[0] == finder._STALL_FACTOR * target
    lanes = newton_lanes(example2, [1.0], [1.0, 8.0], x0, tols, max_iter=7)
    assert LANE_OUTCOMES[lanes.status[0]] == "max iterations"


def test_a_start_at_a_root_converges_at_newton_tolerance_0(planar):
    # converged means ||F|| <= its target, here 0
    tols = DEFAULT_TOLERANCES.replace(newton=0.0)
    lanes = newton_lanes(planar, [0.5], [0.0], [[-0.5, 0.0]], tols)
    assert lanes.status.tolist() == [CONVERGED] and lanes.iteration.tolist() == [0]


def test_a_trial_that_keeps_f_is_not_taken():
    # F = [x1, 1, x2 - a] has a zero Newton step at (0, a), where ||F|| = 1:
    # no trial lowers ||F||, so the line search stalls at once
    sys = SystemSpec(
        name="flat", n=2, m=1, k=1,
        f=lambda lam, x: np.array([x[0], 1.0]), h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.5, 1.5]]),
        jac_x_fn=lambda lam, x: np.array([[1.0, 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]), hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    lanes = newton_lanes(sys, [1.0], [0.0], [[0.0, 0.0]])
    assert lanes.counts()["line search stalled"] == 1 and lanes.iteration.tolist() == [0]


def test_empty_level_line_search_runs_in_rounds(example2):
    calls = [0]
    f = example2.f

    def counting(lam, x):
        calls[0] += 1
        return f(lam, x)

    starts = level_starts(example2, 200, 0)
    counted = dataclasses.replace(example2, f=counting)
    lanes = newton_lanes(counted, [1.0], [2.0, 10.0], starts)
    assert lanes.counts()["start outside domain"] == 154
    assert lanes.counts()["no progress"] == 46
    # the first residual, then per iteration at most one stacked call for
    # each of the 3 rounds of line-search trials, until the last lane makes
    # no progress at iteration 39
    assert lanes.iteration.max() == 39
    assert calls[0] <= 87
    assert_rounds_match_trial_by_trial(example2, [1.0], [2.0, 10.0], starts, lanes)


def test_start_test_takes_the_domain_slack(planar):
    # the start test took 1e-9 * diameter whatever tols.domain_slack was.
    # These starts lie 5e-8 out along rays of the unit disk: their
    # constraint value, about 1e-7, is above the default slack times the
    # diameter 2 sqrt(2) and below 1e-6 times it
    starts = np.array([[0.6, 0.8], [-0.8, 0.6], [0.28, -0.96]]) * (1.0 + 5e-8)
    assert (planar.domain.constraints[0](starts) > 1e-9 * planar.domain.diameter()).all()
    lanes = newton_lanes(planar, [0.5], [0.3], starts)
    assert lanes.counts()["start outside domain"] == 3
    assert all("is not in the domain" in str(lanes.error(i)) for i in range(3))
    wide = DEFAULT_TOLERANCES.replace(domain_slack=1e-6)
    lanes = newton_lanes(planar, [0.5], [0.3], starts, wide)
    assert lanes.counts()["start outside domain"] == 0
    assert lanes.counts()["converged"] == 3


def atan_system(band):
    """A plain-callable spec with f = [atan(x1), 0] and h = x2 whose f
    raises for x1 inside the open interval band.  From [2, 0] the full
    Newton step overshoots, and the trials 1/2 and 1/4, which share a
    line-search round, both lower ||F||."""
    lo, hi = band

    def f(lam, x):
        if lo < x[0] < hi:
            raise EvaluationError("f is undefined in the band", where=x.tolist())
        return np.array([math.atan(x[0]), 0.0])

    return SystemSpec(
        name="atan", n=2, m=1, k=1,
        f=f, h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-10.0, 10.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.array([[1.0 / (1.0 + x[0] ** 2), 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]), hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )


# x1 = -0.767871794485226 is 2 - atan(2) (1 + 2^2) / 2, the Newton step's
# trial alpha = 1/2 from x1 = 2
@pytest.mark.parametrize(
    "band, outcome, x1",
    [
        # no trial raises: the lane takes alpha = 1/2, not 1/4
        ((50.0, 60.0), "max iterations", -0.767871794485226),
        # the alpha = 1/2 trial raises before alpha = 1/4 is reached
        ((-1.0, -0.5), "evaluation error", 2.0),
        # alpha = 1/4 raises, but a trial-by-trial search stops at 1/2
        ((0.5, 0.7), "max iterations", -0.767871794485226),
    ],
)
def test_line_search_takes_the_first_acceptable_trial(band, outcome, x1):
    sys = atan_system(band)
    lanes = newton_lanes(sys, [0.0], [0.0], [[2.0, 0.0]], max_iter=1)
    assert_rounds_match_trial_by_trial(sys, [0.0], [0.0], [[2.0, 0.0]], lanes, max_iter=1)
    assert LANE_OUTCOMES[lanes.status[0]] == outcome
    assert lanes.x[0].tolist() == [x1, 0.0]
    if outcome == "evaluation error":
        assert str(lanes.error(0)) == (
            "f is undefined in the band at [-0.767871794485226, 0.0]"
        )


# (starts, rows of each stacked residual call): the first call evaluates
# the starts, then each line-search round makes one call.  From |x1| < 1.39
# Newton on atan takes every full step, and from x1 = 2 the full step
# overshoots and the second round's 8 trials take alpha = 1/2.  The lanes
# converge at different iterations, so the running stack shrinks under both
# branches of the first round
FULL_STEP_CASES = [
    # every lane takes alpha = 1 in the first round of every iteration
    ([[0.5, 0.5], [-0.3, 0.0], [0.9, -0.5], [1.2, 0.25]], [4, 4, 4, 4, 2, 1]),
    # in iteration 0 the lane from x1 = 2 alone goes on to a second round
    ([[0.5, 0.5], [2.0, 0.0], [-0.3, 0.0], [0.9, -0.5]], [4, 4, 8, 4, 4, 2, 1]),
]


@pytest.mark.parametrize("starts, calls", FULL_STEP_CASES, ids=["every-lane", "all-but-one"])
def test_the_full_step_round_matches_each_lane_alone(monkeypatch, starts, calls):
    sys = atan_system((50.0, 60.0))
    rows = []
    level_set = finder._level_set

    def counted(spec):
        residual, system = level_set(spec)

        def counting(y, lam, a, errors):
            rows.append(len(y))
            return residual(y, lam, a, errors)

        return counting, system

    monkeypatch.setattr(finder, "_level_set", counted)
    lanes = newton_lanes(sys, [0.0], [0.0], starts)
    assert rows == calls
    assert lanes.counts()["converged"] == 4
    assert_lane_alone_matches(sys, [0.0], [0.0], starts, lanes)
    assert_rounds_match_trial_by_trial(sys, [0.0], [0.0], starts, lanes)


@pytest.mark.parametrize("max_iter", [-2, 0, 2.5, 3.0, True, "3"])
def test_newton_rejects_a_bad_iteration_cap(rfmr3, max_iter):
    # the start [0.5, 0.5, 0.5] is an exact solution, so only the cap can fail
    with pytest.raises(InputError, match="max_iter must be"):
        newton_on_level_set(rfmr3, [1.0, 1.0, 1.0], [1.5], [0.5] * 3, max_iter=max_iter)
    with pytest.raises(InputError, match="max_iter must be"):
        newton_lanes(rfmr3, [1.0, 1.0, 1.0], [1.5], [[0.5] * 3], max_iter=max_iter)


def test_newton_takes_a_numpy_iteration_cap(rfmr3):
    point = newton_on_level_set(
        rfmr3, [1.0, 1.0, 1.0], [1.5], [0.5] * 3, max_iter=np.int64(50)
    )
    np.testing.assert_allclose(point.state.x, [0.5] * 3, atol=1e-12)


@pytest.mark.parametrize("budget", [2.5, 20.0, True])
def test_enumerate_rejects_a_non_integer_budget(planar, budget):
    with pytest.raises(InputError, match="budget must be an integer"):
        enumerate_level_points(planar, [0.5], [0.0], budget=budget)
    points = enumerate_level_points(planar, [0.5], [0.0], budget=np.int32(20))
    assert [p.as_dict() for p in points] == [
        p.as_dict() for p in enumerate_level_points(planar, [0.5], [0.0], budget=20)
    ]


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3"])
def test_seed_must_be_a_non_negative_integer(planar, seed):
    with pytest.raises(InputError, match="seed must be"):
        enumerate_level_points(planar, [0.5], [0.2], budget=20, seed=seed)
    with pytest.raises(InputError, match="seed must be"):
        holonomy_loop(planar, [[0.5], [0.9], [0.5]], [0.2], budget=20, seed=seed)


def test_enumerate_takes_a_numpy_seed(planar):
    points = enumerate_level_points(planar, [0.5], [0.2], budget=20, seed=np.int64(3))
    assert [p.as_dict() for p in points] == [
        p.as_dict() for p in enumerate_level_points(planar, [0.5], [0.2], budget=20, seed=3)
    ]


def _draw_level(data, sys):
    if sys.name == "planar":
        return [data.draw(st.floats(-1.2, 1.2))]
    if sys.name == "example2":
        return [data.draw(st.floats(1.0, 3.0)), data.draw(st.floats(5.0, 15.0))]
    return [data.draw(st.floats(0.0, float(sys.n)))]


def _draw_problem(data, name):
    sys = builtin("rfmr", n=int(name[4:])) if name.startswith("rfmr") else builtin(name)
    box = sys.parameter_box
    lam = [data.draw(st.floats(lo, hi)) for lo, hi in box]
    return sys, lam, _draw_level(data, sys)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(["planar", "example2", "rfmr3", "rfmr4", "rfmr5", "rfmr6"]),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 24),
    data=st.data(),
)
def test_lane_is_independent_of_its_batch(name, seed, budget, data):
    sys, lam, level = _draw_problem(data, name)
    starts = level_starts(sys, budget, seed)
    lanes = newton_lanes(sys, lam, level, starts)
    assert_lane_alone_matches(sys, lam, level, starts, lanes)
    assert_rounds_match_trial_by_trial(sys, lam, level, starts, lanes)


@settings(settings.get_profile("derandomized"), max_examples=40)
@given(
    name=st.sampled_from(["planar", "example2", "rfmr3"]),
    seed=st.integers(0, 2**16),
    budget=st.integers(1, 80),
    data=st.data(),
)
def test_no_progress_rule_leaves_the_points_unchanged(name, seed, budget, data):
    # a window past max_iter turns the rule off: every point keeps its bits
    sys, lam, level = _draw_problem(data, name)
    found = enumerate_level_points(sys, lam, level, budget=budget, seed=seed)
    with mock.patch.object(finder, "_STALL_WINDOW", 51):
        without = enumerate_level_points(sys, lam, level, budget=budget, seed=seed)
    assert json.dumps([p.as_dict() for p in found]) == json.dumps(
        [p.as_dict() for p in without]
    )
    assert [p.state.x.tobytes() for p in found] == [p.state.x.tobytes() for p in without]


def banded_system():
    """A plain-callable spec (no batch support, no Jacobians) whose f
    raises inside the band 0 < x1 < 0.45.  Its equilibria on the level
    x2 = a sit at x1 = lam (a^2 - 1) <= 0, so lanes starting right of the
    band fail at once or when a Newton step lands in it."""

    def f(lam, x):
        if 0.0 < x[0] < 0.45:
            raise EvaluationError("f is undefined in the band", where=x.tolist())
        d = x[0] - lam[0] * (x[1] ** 2 - 1.0)
        return np.array([-d ** 3 - d, 0.0])

    def slope(lam, x):
        """-df1/dd = 3 d^2 + 1."""
        return 3.0 * (x[0] - lam[0] * (x[1] ** 2 - 1.0)) ** 2 + 1.0

    return SystemSpec(
        name="banded", n=2, m=1, k=1,
        f=f, h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        jac_x_fn=lambda lam, x: np.array(
            [[-slope(lam, x), slope(lam, x) * 2.0 * lam[0] * x[1]], [0.0, 0.0]]
        ),
        jac_lambda_fn=lambda lam, x: np.array([[slope(lam, x) * (x[1] ** 2 - 1.0)], [0.0]]),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]), hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )


def test_loop_adapter_fails_only_the_raising_lanes():
    sys = banded_system()
    lam, level = [0.5], [0.5]
    starts = level_starts(sys, 40, 3)
    lanes = newton_lanes(sys, lam, level, starts)
    assert_lane_alone_matches(sys, lam, level, starts, lanes)
    assert_rounds_match_trial_by_trial(sys, lam, level, starts, lanes)

    failed = np.flatnonzero(lanes.status == EVALUATION_ERROR)
    converged = np.flatnonzero(lanes.status == CONVERGED)
    assert failed.size and converged.size
    in_band = (starts[:, 0] > 0.0) & (starts[:, 0] < 0.45)
    # some lanes fail at the start, others only after a Newton step
    assert set(np.flatnonzero(in_band)) < set(failed)
    assert np.all(lanes.iteration[in_band] == 0)
    for lane in failed:
        assert isinstance(lanes.error(lane), EvaluationError)
        with pytest.raises(EvaluationError, match="undefined in the band"):
            newton_on_level_set(sys, lam, level, starts[lane])
    np.testing.assert_allclose(
        lanes.x[converged], np.tile([0.5 * (0.25 - 1.0), 0.5], (converged.size, 1)),
        atol=1e-9,
    )


def outcome_system():
    """A plain-callable spec with f = (g(x1), 0) and h = x2 on the box
    [-10, 10] x [-1, 1] cut at x1 <= 8, whose g picks a lane's outcome by
    the region of x1: it raises below -8, is NaN on [-8, -6), flat on
    [-6, -4) (a singular Jacobian), (x1 + 3)^2 + 1 on [-4, -2), (x1 -
    0.5)^3 on [-2, 2) (Newton converges slowly) and x1 - 8.5 from 2 on,
    whose root lies outside the domain."""

    def g(x1):
        # (g, dg/dx1)
        if x1 < -8.0:
            raise EvaluationError("f is undefined left of -8", where=[x1])
        if x1 < -6.0:
            return math.nan, 0.0
        if x1 < -4.0:
            return 1.0, 0.0
        if x1 < -2.0:
            return (x1 + 3.0) ** 2 + 1.0, 2.0 * (x1 + 3.0)
        if x1 < 2.0:
            return (x1 - 0.5) ** 3, 3.0 * (x1 - 0.5) ** 2
        return x1 - 8.5, 1.0

    return SystemSpec(
        name="outcomes", n=2, m=1, k=1,
        f=lambda lam, x: np.array([g(float(x[0]))[0], 0.0]),
        h=lambda x: np.array([x[1]]),
        domain=Domain(
            box=np.array([[-10.0, 10.0], [-1.0, 1.0]]),
            constraints=(lambda x: x[..., 0] - 8.0,),
        ),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=lambda lam, x: np.array([[g(float(x[0]))[1], 0.0], [0.0, 0.0]]),
        jac_lambda_fn=lambda lam, x: np.zeros((2, 1)),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]), hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )


def assert_residual_is_f_at_x(sys, lam, level, lanes):
    """Each lane's residual row holds F at its x, from a lone evaluation
    (NaN where F fails), and a lane that started outside the domain keeps
    a row of NaN."""
    residual = finder._level_set(sys)[0]
    lam, level = np.asarray(lam, dtype=float), np.asarray(level, dtype=float)
    for i, code in enumerate(lanes.status):
        if LANE_OUTCOMES[code] == "start outside domain":
            assert np.isnan(lanes.residual[i]).all()
        else:
            again = residual(lanes.x[i:i + 1], lam, level, {})
            assert again.tobytes() == lanes.residual[i:i + 1].tobytes()


def test_every_lane_outcome_survives_compaction(example2):
    # the running lanes are compact arrays, cut when lanes stop, and a
    # lane's x and F go to its output rows when it stops.  Over two mixed
    # batches every outcome is reached, lanes stop at many iterations, each
    # lane is its lone run, bytes and error included, and each residual
    # row is F at its lane's x
    starts = np.array([
        [-9.0, 0.0], [-7.0, 0.2], [-5.0, 0.0], [-2.5, 0.1], [-3.00001, 0.0], [1.5, 0.0],
        [0.51, -0.3], [1.0, 0.0], [7.0, 0.5], [9.0, 0.0], [-1.9, 0.0], [-2.1, 0.0],
        [-3.9, 0.0],
    ])
    sys = outcome_system()
    lanes = newton_lanes(sys, [0.5], [0.0], starts, max_iter=12)
    assert [(LANE_OUTCOMES[code], int(at)) for code, at in zip(lanes.status, lanes.iteration)] == [
        ("evaluation error", 0), ("non-finite residual", 0), ("singular", 0),
        ("max iterations", 12), ("outside the domain at the end", 2), ("max iterations", 12),
        ("converged", 8), ("max iterations", 12), ("outside the domain at the end", 1),
        ("start outside domain", 0), ("max iterations", 12), ("evaluation error", 2),
        ("singular", 2),
    ]
    assert_lane_alone_matches(sys, [0.5], [0.0], starts, lanes, max_iter=12)
    assert_residual_is_f_at_x(sys, [0.5], [0.0], lanes)
    reached = set(lanes.status)

    # start outside domain, line search stalled and no progress, the last
    # at 20 different iterations
    starts = level_starts(example2, 200, 0)
    lanes = newton_lanes(example2, [1.0], [3.0, 13.0], starts)
    assert lanes.counts()["line search stalled"] == 1
    assert lanes.counts()["no progress"] == 45
    assert np.bincount(lanes.iteration).tolist() == [
        154, 0, 0, 0, 0, 0, 0, 1, 0, 5, 7, 6, 6, 3, 2, 0, 1, 0, 2, 1, 0, 0, 0, 0, 2,
        0, 0, 1, 0, 1, 2, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1,
    ]
    assert_lane_alone_matches(example2, [1.0], [3.0, 13.0], starts, lanes)
    assert_residual_is_f_at_x(example2, [1.0], [3.0, 13.0], lanes)
    reached |= set(lanes.status)
    assert {LANE_OUTCOMES[code] for code in reached} == set(LANE_OUTCOMES)


def test_audit_and_stacked_rank_once_per_kept_point(monkeypatch, rfmr3, example2):
    calls = {"audit_point": 0, "numeric_rank": 0}

    def counting(name):
        real = getattr(finder, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(finder, name, counted)

    counting("audit_point")
    counting("numeric_rank")
    points = enumerate_level_points(rfmr3, [1.0, 1.0, 1.0], [1.5], budget=200, seed=0)
    assert len(points) == 1
    assert calls == {"audit_point": 1, "numeric_rank": 1}

    calls.update(audit_point=0, numeric_rank=0)
    points = enumerate_level_points(example2, [1.0], [2.0, 6.0], budget=200, seed=0)
    assert len(points) == 4
    assert calls == {"audit_point": 4, "numeric_rank": 4}


def test_one_evaluation_per_kept_point(rfmr3, example2):
    # the points' audits, stacked ranks and levels come from one stacked
    # evaluation, so each block of the system is called once, for one
    # point as for example2's four
    calls = []

    def counted(sys, name):
        real = getattr(sys, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    blocks = ("f", "h", "jac_x_fn", "jac_lambda_fn", "jac_h_fn", "hess_h_fn")
    sys = dataclasses.replace(rfmr3, **{name: counted(rfmr3, name) for name in blocks})
    point = finder._equilibrium_points(
        sys, np.ones(3), [(np.full(3, 0.5), 0.0)], finder.DEFAULT_TOLERANCES
    )[0]
    assert point.transversal and point.audit.is_equilibrium
    assert sorted(calls) == sorted(blocks)

    found = enumerate_level_points(example2, [1.0], [2.0, 6.0], budget=200, seed=0)
    assert len(found) == 4
    calls.clear()
    sys = dataclasses.replace(example2, **{name: counted(example2, name) for name in blocks})
    points = [(p.state.x, p.residual_f) for p in found]
    again = finder._equilibrium_points(sys, [1.0], points, finder.DEFAULT_TOLERANCES)
    assert sorted(calls) == sorted(blocks)
    assert [p.as_dict() for p in again] == [p.as_dict() for p in found]


def test_the_first_failing_kept_point_raises_its_error(example2):
    # the stacked evaluation raises what evaluating the points in turn
    # raises: the error of the first point that fails
    def h(x):
        if x[0] > 0.0:
            raise EvaluationError("h is undefined", where=x.tolist())
        return example2.h(x)

    sys = dataclasses.replace(example2, h=h, batched=False)
    points = [
        (np.array([-0.5, 0.0, -0.5]), 0.0),
        (np.array([0.5, 1.0, 0.5]), 0.0),
        (np.array([0.7, 1.0, 0.7]), 0.0),
    ]
    with pytest.raises(EvaluationError, match=r"^h is undefined at \[0.5, 1.0, 0.5\]$"):
        finder._equilibrium_points(sys, [1.0], points, DEFAULT_TOLERANCES)


def test_enumerate_rejects_wrong_lengths(planar):
    # a wrong length is an input error, not a level without equilibria
    with pytest.raises(InputError, match="lambda has length 2"):
        enumerate_level_points(planar, [0.5, 0.5], [0.0], budget=20)
    with pytest.raises(InputError, match="level a has length 2"):
        enumerate_level_points(planar, [0.5], [0.0, 0.0], budget=20)
    with pytest.raises(InputError, match=r"starts must have shape \(B, 2\)"):
        newton_lanes(planar, [0.5], [0.0], [0.0, 0.0])
    # one level for every lane: a (B, k) stack of levels is not a level
    with pytest.raises(InputError, match="level a has length 2"):
        newton_lanes(planar, [0.5], [[0.0], [0.1]], np.zeros((2, 2)))


@pytest.mark.parametrize(
    "call",
    [
        lambda sys: enumerate_level_points(sys, [0.5], "abc", budget=20),
        lambda sys: enumerate_level_points(sys, [0.5], [math.nan], budget=20),
        lambda sys: enumerate_level_points(sys, ["x"], [0.0], budget=20),
        lambda sys: holonomy_loop(sys, [[0.5], [0.9], [0.5]], [math.nan]),
        lambda sys: holonomy_loop(sys, [[0.5], [0.9], [0.5]], "abc"),
        lambda sys: newton_lanes(sys, [0.5], [[0.0], [math.inf]], np.zeros((2, 2))),
        lambda sys: newton_lanes(sys, [0.5], [0.0], [[0.0, math.nan]]),
        lambda sys: newton_on_level_set(sys, [0.5], [0.0], ["a", 0.0]),
    ],
)
def test_malformed_levels_are_input_errors(planar, call):
    # not a bare ValueError, nor "no equilibria found on level [nan]"
    with pytest.raises(InputError, match="must be an array of finite numbers"):
        call(planar)


def test_non_finite_jacobian_lane():
    # a plain-callable spec whose df/dx is infinite for x1 > 0.5 and raises
    # for x1 < -0.5: each lane ends as its lone solve does
    def f(lam, x):
        return np.array([x[0] ** 3 + x[0] - lam[0], 0.0])

    def jac_x(lam, x):
        if x[0] < -0.5:
            raise EvaluationError("df/dx is undefined", where=x.tolist())
        if x[0] > 0.5:
            return np.full((2, 2), np.inf)
        return np.array([[3.0 * x[0] ** 2 + 1.0, 0.0], [0.0, 0.0]])

    sys = SystemSpec(
        name="cubic", n=2, m=1, k=1,
        f=f, h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.0, 1.0]]),
        jac_x_fn=jac_x,
        jac_lambda_fn=lambda lam, x: np.array([[-1.0], [0.0]]),
        jac_h_fn=lambda x: np.array([[0.0, 1.0]]), hess_h_fn=lambda x: np.zeros((1, 2, 2)),
    )
    starts = np.array([[0.9, 0.0], [-0.9, 0.0], [0.1, 0.0]])
    lanes = newton_lanes(sys, [0.2], [0.0], starts)
    assert_lane_alone_matches(sys, [0.2], [0.0], starts, lanes)
    assert [LANE_OUTCOMES[code] for code in lanes.status] == [
        "evaluation error", "evaluation error", "converged",
    ]
    assert lanes.iteration.tolist()[:2] == [0, 0]

    inf_error = lanes.error(0)
    assert type(inf_error) is InputError
    assert str(inf_error) == "A must be an array of finite numbers"
    with pytest.raises(InputError, match="A must be an array of finite numbers"):
        newton_on_level_set(sys, [0.2], [0.0], starts[0])

    raised = lanes.error(1)
    assert type(raised) is EvaluationError
    assert str(raised) == "df/dx is undefined at [-0.9, 0.0]"

    alone = newton_on_level_set(sys, [0.2], [0.0], starts[2])
    assert alone.state.x.tobytes() == lanes.x[2].tobytes()
    assert np.linalg.norm(lanes.residual[2]) <= 1e-10 * (1.0 + np.linalg.norm(starts[2]))


def test_find_starts_no_thread():
    # an rfmr(20) find of the benchmark's shape: its 20-column Newton
    # stacks take the QR route, all on the calling thread
    before = threading.active_count()
    found = enumerate_level_points(builtin("rfmr", n=20), [1.7] * 20, [20 * 0.35])
    assert threading.active_count() == before
    assert [p.state.x.tolist() for p in found] == [pytest.approx([0.35] * 20)]


@pytest.mark.parametrize("system, lam, a", [
    ({"n": 3}, [1.0, 1.0, 1.0], [1.5]),     # the benchmark's first job
    ({"n": 10}, [1.7] * 10, [3.5]),
    ({"n": 20}, [1.7] * 20, [20 * 0.35]),
])
def test_every_newton_stack_takes_the_qr_route(monkeypatch, system, lam, a):
    # one route at every column count: each Newton solve factors its stack
    # by QR, and a stacked SVD (the audit's SVDs are of lone matrices) runs
    # only on the rows that the QR's certificate refused
    solves = count_calls(monkeypatch, "_solve_rows", finder)
    real_qr_rows, real_svd = linalg._qr_rows, np.linalg.svd
    refused, stacked = [], []

    def qr_rows(system, rank_tol):
        x, certified = real_qr_rows(system, rank_tol)
        refused.append(int(np.count_nonzero(~certified)))
        return x, certified

    def svd(A, *args, **kwargs):
        if np.ndim(A) == 3:
            stacked.append(len(A))
        return real_svd(A, *args, **kwargs)

    monkeypatch.setattr(linalg, "_qr_rows", qr_rows)
    monkeypatch.setattr(linalg.np.linalg, "svd", svd)
    n = system["n"]
    found = enumerate_level_points(builtin("rfmr", n=n), lam, a)
    assert [p.state.x.tolist() for p in found] == [pytest.approx([a[0] / n] * n)]
    assert solves and len(refused) == len(solves)
    assert stacked == [rows for rows in refused if rows]


@pytest.mark.parametrize("n", [10, 20])
def test_qr_route_lane_is_independent_of_its_batch(n):
    # wide stacks solve by numpy ufuncs, and a lane alone in Python floats
    sys = builtin("rfmr", n=n)
    lam, level, starts = [1.7] * n, [0.35 * n], level_starts(sys, 12, 3)
    lanes = newton_lanes(sys, lam, level, starts)
    assert np.count_nonzero(lanes.status == CONVERGED) >= 11
    assert_lane_alone_matches(sys, lam, level, starts, lanes)


@pytest.mark.parametrize("c", [0.5e-6, 2e-6, 5e-6])
def test_newton_and_the_lift_share_one_domain_slack(c):
    # x = (-sqrt(1 + c), 0) is an equilibrium of planar at lambda = sqrt(1 + c),
    # outside the unit disk by c in its constraint.  Newton's start test and
    # the lift's start test take the one slack, 1e-6 * (1 + 2 sqrt 2), so a
    # point that Newton keeps is a point the lift may start from.
    sys = builtin("planar")
    tols = DEFAULT_TOLERANCES.replace(domain_slack=1e-6)
    lam = math.sqrt(1.0 + c)
    x = [-lam, 0.0]
    lanes = newton_lanes(sys, [lam], [0.0], np.array([x]), tols)
    newton_keeps = LANE_OUTCOMES[lanes.status[0]] == "converged"
    try:
        lift_curve(sys, [[lam], [0.9]], x, tols)
        lift_starts = True
    except InputError as err:
        assert "is not in the domain" in str(err)
        lift_starts = False
    assert newton_keeps == lift_starts == (c < 1e-6 * (1.0 + 2.0 * math.sqrt(2.0)))
