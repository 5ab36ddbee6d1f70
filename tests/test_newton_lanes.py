"""The lockstep level-set Newton kernel: lane outcomes, lane independence,
the line search's rounds against a trial-by-trial search, and the work
enumerate_level_points does per kept point."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqbundle import builtin, finder
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
from eqbundle.transport import holonomy_loop


def assert_lane_alone_matches(sys, lam, level, starts, lanes):
    """Every lane of a batched run equals the same start run alone."""
    for i in range(len(starts)):
        alone = newton_lanes(sys, lam, level, starts[i:i + 1])
        assert alone.x[0].tobytes() == lanes.x[i].tobytes()
        assert alone.status[0] == lanes.status[i]
        assert alone.iteration[0] == lanes.iteration[i]


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
        "start outside domain": 152,
        "non-finite residual": 0,
        "singular": 0,
        "line search stalled": 1,
        "max iterations": 47,
        "outside the domain at the end": 0,
        "evaluation error": 0,
    }
    assert list(lanes.counts()) == list(LANE_OUTCOMES)
    assert enumerate_level_points(example2, [1.0], level, budget=200, seed=0) == []

    # the one-lane call raises the typed error of each outcome
    starts = level_starts(example2, 200, 0)
    for outcome, kind, text in (
        ("start outside domain", InputError, "is not in the domain"),
        ("line search stalled", ConvergenceError, "line search stalled at iteration 42"),
        ("max iterations", ConvergenceError, "did not converge in 50 iterations"),
    ):
        lane = int(np.flatnonzero(lanes.status == LANE_OUTCOMES.index(outcome))[0])
        assert isinstance(lanes.error(lane), kind)
        with pytest.raises(kind, match=text) as err:
            newton_on_level_set(example2, [1.0], level, starts[lane])
        assert str(err.value) == str(lanes.error(lane))


def test_empty_level_line_search_runs_in_rounds(example2):
    calls = [0]
    f = example2.f

    def counting(lam, x):
        calls[0] += 1
        return f(lam, x)

    starts = level_starts(example2, 200, 0)
    counted = dataclasses.replace(example2, f=counting)
    lanes = newton_lanes(counted, [1.0], [2.0, 10.0], starts)
    assert lanes.counts()["start outside domain"] == 152
    assert lanes.counts()["max iterations"] == 47
    assert lanes.counts()["line search stalled"] == 1
    # the first residual, then per iteration at most one stacked call for
    # each of the 5 rounds of line-search trials; trial by trial it was 1,106
    assert calls[0] <= 1 + 5 * 50
    assert_rounds_match_trial_by_trial(example2, [1.0], [2.0, 10.0], starts, lanes)


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
    )


@pytest.mark.parametrize(
    "band, outcome, x1",
    [
        # no trial raises: the lane takes alpha = 1/2, not 1/4
        ((50.0, 60.0), "max iterations", -0.7678717943946585),
        # the alpha = 1/2 trial raises before alpha = 1/4 is reached
        ((-1.0, -0.5), "evaluation error", 2.0),
        # alpha = 1/4 raises, but a trial-by-trial search stops at 1/2
        ((0.5, 0.7), "max iterations", -0.7678717943946585),
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
            "f is undefined in the band at [-0.7678717943946585, 0.0]"
        )


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


def _draw_problem(data, name):
    sys = builtin("rfmr", n=int(name[4:])) if name.startswith("rfmr") else builtin(name)
    box = sys.parameter_box
    lam = [data.draw(st.floats(lo, hi)) for lo, hi in box]
    if name == "planar":
        level = [data.draw(st.floats(-1.2, 1.2))]
    elif name == "example2":
        level = [data.draw(st.floats(1.0, 3.0)), data.draw(st.floats(5.0, 15.0))]
    else:
        level = [data.draw(st.floats(0.0, float(sys.n)))]
    return sys, lam, level


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

    return SystemSpec(
        name="banded", n=2, m=1, k=1,
        f=f, h=lambda x: np.array([x[1]]),
        domain=Domain(box=np.array([[-1.0, 1.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
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


def test_enumerate_rejects_wrong_lengths(planar):
    # a wrong length is an input error, not a level without equilibria
    with pytest.raises(InputError, match="lambda has length 2"):
        enumerate_level_points(planar, [0.5, 0.5], [0.0], budget=20)
    with pytest.raises(InputError, match="level a has length 2"):
        enumerate_level_points(planar, [0.5], [0.0, 0.0], budget=20)
    with pytest.raises(InputError, match=r"starts must have shape \(B, 2\)"):
        newton_lanes(planar, [0.5], [0.0], [0.0, 0.0])


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
    assert str(inf_error) == "A contains non-finite entries"
    with pytest.raises(InputError, match="A contains non-finite entries"):
        newton_on_level_set(sys, [0.2], [0.0], starts[0])

    raised = lanes.error(1)
    assert type(raised) is EvaluationError
    assert str(raised) == "df/dx is undefined at [-0.9, 0.0]"

    alone = newton_on_level_set(sys, [0.2], [0.0], starts[2])
    assert alone.state.x.tobytes() == lanes.x[2].tobytes()
    assert np.linalg.norm(lanes.residual[2]) <= 1e-10 * (1.0 + np.linalg.norm(starts[2]))
