"""The lockstep lift kernel: lanes equal lone lifts byte for byte, the first
failed lane's error wins in lane order, the work the lanes share, and the
checks of the step fractions."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from eqbundle import builtin, finder, transport
from eqbundle.cli import run_config
from eqbundle.config import config_from_dict
from eqbundle.errors import (
    ConvergenceError,
    DegeneracyError,
    EqBundleError,
    EvaluationError,
    InputError,
    TransportError,
)
from eqbundle.expr import build_system_from_config
from eqbundle.finder import _lane_norm, newton_on_level_set
from eqbundle.systems import Domain, SystemSpec
from eqbundle.tolerances import DEFAULT_TOLERANCES
from eqbundle.transport import check_cocycle, holonomy_loop, lift_curve, lift_lanes

RFMR3 = builtin("rfmr", n=3)
EXAMPLE2 = builtin("example2")
PLANAR = builtin("planar")
RATES = st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3)
# rfmr(3) declared as expressions: symbolic derivative blocks of compiled rows
RING3 = build_system_from_config({
    "n": 3, "m": 3, "k": 1, "domain_box": [[0.0, 1.0]] * 3, "h": ["x1+x2+x3"],
    "f": [f"l{(i - 1) % 3 + 1}*x{(i - 1) % 3 + 1}*(1-x{i + 1})"
          f" - l{i + 1}*x{i + 1}*(1-x{(i + 1) % 3 + 1})" for i in range(3)],
})


def first_row_system(name, f1, d1, domain, parameter_box) -> SystemSpec:
    """f = (f1(lam, x), 0) and h = x2, evaluated in stacks; d1(lam, x) gives
    df1/dx1, df1/dx2 and df1/dlam."""

    def f(lam, x):
        out = np.zeros(x.shape)
        out[..., 0] = f1(lam[..., 0], x[..., 0], x[..., 1])
        return out

    def jac(lam, x, columns):
        out = np.zeros(x.shape[:-1] + (2, columns))
        rates = d1(lam[..., 0], x[..., 0], x[..., 1])
        out[..., 0, :] = np.stack(rates[:2] if columns == 2 else rates[2:], axis=-1)
        return out

    def jac_h(x):
        out = np.zeros(x.shape[:-1] + (1, 2))
        out[..., 0, 1] = 1.0
        return out

    return SystemSpec(
        name=name, n=2, m=1, k=1,
        f=f, h=lambda x: x[..., [1]],
        domain=domain, parameter_box=np.array(parameter_box),
        jac_x_fn=lambda lam, x: jac(lam, x, 2),
        jac_lambda_fn=lambda lam, x: jac(lam, x, 1),
        jac_h_fn=jac_h, hess_h_fn=lambda x: np.zeros(x.shape[:-1] + (1, 2, 2)),
        batched=True,
    )


def two_roots() -> SystemSpec:
    """f1 = -(x1 - lam c)(x1 + 1.5 lam c), c = x2^2 - 1, f2 = 0, h = x2 on
    the unit disk: two equilibria per level, x1 = lam c < 0 and x1 = -1.5
    lam c > 0.  Raising lam drives both out of the disk, the positive one
    first."""

    def f1(lam, x1, x2):
        c = x2 ** 2 - 1.0
        return -(x1 - lam * c) * (x1 + 1.5 * lam * c)

    def d1(lam, x1, x2):
        c = x2 ** 2 - 1.0
        u, v = x1 - lam * c, x1 + 1.5 * lam * c
        return -(v + u), -(-2.0 * lam * x2 * v + 3.0 * lam * x2 * u), c * v - 1.5 * c * u

    return first_row_system("two-roots", f1, d1, PLANAR.domain, [[0.1, 4.0]])


STEP_CENTRE, STEP_SHARPNESS, STEP_HEIGHT = 1.0123, 2000.0, 0.3


def step_root(lam: float) -> float:
    return STEP_HEIGHT * np.tanh(STEP_SHARPNESS * (lam - STEP_CENTRE))


def step_system() -> SystemSpec:
    """f1 = x1 - 0.3 tanh(2000 (lam - 1.0123)), f2 = 0, h = x2: one
    equilibrium per level, which jumps by 0.6 across lam = 1.0123 within a
    width of about 1e-3.  An RK4 step whose stages all miss that width
    predicts no move, and its correction lands 0.6 away in one iteration."""

    def f1(lam, x1, x2):
        return x1 - STEP_HEIGHT * np.tanh(STEP_SHARPNESS * (lam - STEP_CENTRE))

    def d1(lam, x1, x2):
        slope = STEP_HEIGHT * STEP_SHARPNESS * (1.0 - np.tanh(STEP_SHARPNESS * (lam - STEP_CENTRE)) ** 2)
        return np.ones_like(x1), np.zeros_like(x1), -slope

    return first_row_system(
        "step", f1, d1, Domain(np.array([[-1.0, 1.0], [-1.0, 1.0]])), [[0.0, 2.0]]
    )


def same_result(a, b) -> bool:
    return (
        a.t.tobytes() == b.t.tobytes()
        and a.lambda_path.tobytes() == b.lambda_path.tobytes()
        and a.gamma.tobytes() == b.gamma.tobytes()
        and a.max_f_residual == b.max_f_residual
        and a.max_h_drift == b.max_h_drift
        and a.steps_taken == b.steps_taken
    )


def outcome(call):
    """(result, None) of a call, or (None, (type, message, t)) of its error."""
    try:
        return call(), None
    except EqBundleError as err:
        return None, (type(err), str(err), getattr(err, "t", None))


@st.composite
def rfmr_lane(draw):
    lam1, lam2 = draw(RATES), draw(RATES)
    level = draw(st.floats(0.6, 2.4))
    x0 = newton_on_level_set(RFMR3, lam1, [level], np.full(3, level / 3.0)).state.x
    return [lam1, lam2, lam1], x0


@st.composite
def example2_lane(draw):
    # a point (u, v, u) of the equilibrium plane inside both level bands
    u = draw(st.floats(0.5, 0.8)) * draw(st.sampled_from([-1.0, 1.0]))
    v = draw(st.floats(0.95, 1.1)) * draw(st.sampled_from([-1.0, 1.0]))
    path = [[draw(st.floats(0.5, 3.0))] for _ in range(draw(st.integers(2, 3)))]
    return path, [u, v, u]


@st.composite
def planar_lane(draw, far=1.0):
    y = draw(st.floats(-0.9, 0.9))
    lams = [draw(st.floats(0.1, far)) for _ in range(draw(st.integers(2, 3)))]
    return [[v] for v in lams], [lams[0] * (y * y - 1.0), y]


@st.composite
def step_lane(draw):
    # paths in [0.5, 1.5], most of them across the jump
    lams = [draw(st.floats(0.5, 1.5)) for _ in range(draw(st.integers(2, 3)))]
    return [[v] for v in lams], [step_root(lams[0]), draw(st.floats(-0.9, 0.9))]


@st.composite
def failing_lane(draw, name):
    """A lane that fails: off its equilibrium (validation), or on planar a
    path that drives it out of the unit disk."""
    if name == "planar" and draw(st.booleans()):
        y = draw(st.floats(-0.5, 0.5))
        return [[0.5], [draw(st.floats(2.5, 4.0))]], [0.5 * (y * y - 1.0), y]
    path, x0 = draw(SYSTEMS[name][1]())
    return path, np.asarray(x0) + np.array([0.25, -0.1, 0.0])[: len(x0)]


# the step system's lanes retry the steps that jump (step_system)
SYSTEMS = {"rfmr3": (RFMR3, rfmr_lane), "example2": (EXAMPLE2, example2_lane),
           "planar": (PLANAR, planar_lane), "step": (step_system(), step_lane)}


@settings(settings.get_profile("derandomized"), max_examples=27)
@given(data=st.data())
def test_lanes_equal_lone_lifts(data):
    name = data.draw(st.sampled_from(sorted(SYSTEMS)))
    sys, lane = SYSTEMS[name]
    # at the tight corrector target rfmr(3) lanes need different corrector
    # iterations, so their steps drift apart
    tols = DEFAULT_TOLERANCES.replace(newton=data.draw(st.sampled_from([1e-10, 1e-14])))
    lanes = data.draw(st.lists(lane(), min_size=1, max_size=4))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(lanes)))
        lanes.insert(at, data.draw(failing_lane(name)))
    paths = [path for path, _ in lanes]
    starts = [x0 for _, x0 in lanes]
    alone = [outcome(lambda p=p, x=x: lift_curve(sys, p, x, tols)) for p, x in lanes]
    first = next((i for i, (_, err) in enumerate(alone) if err is not None), None)
    together, error = outcome(lambda: lift_lanes(sys, paths, starts, tols))
    if first is None:
        assert error is None
        assert all(same_result(a, b) for (a, _), b in zip(alone, together))
    else:
        # the error of the first failed lane in lane order, t included
        assert error == alone[first][1]
        if first:
            ahead = lift_lanes(sys, paths[:first], starts[:first], tols)
            assert all(same_result(a, b) for (a, _), b in zip(alone, ahead))


def test_lift_retries_a_step_that_lands_far_beyond_its_increment(monkeypatch):
    # the first step across the jump has an RK4 increment of 0 and a
    # correction that moves 0.6: it is retried, every kept step lands
    # within twice its increment, and the lift still ends on the root
    sys = step_system()
    made = []       # per projection: (lambda, RK4 candidate, corrected point)
    correct = transport._correct

    def recorded(residual, jacobian, y0, tols, lam_next, a0):
        out = correct(residual, jacobian, y0, tols, lam_next, a0)
        made.append((lam_next[0].tobytes(), y0[0], out[0][0].tobytes()))
        return out

    monkeypatch.setattr(transport, "_correct", recorded)
    result = lift_curve(sys, [[0.5], [1.5]], [step_root(0.5), 0.2])
    # lambda rises along the path, so the projection that made step i is
    # the first one after step i - 1's at lambda_path[i + 1] and gamma[i + 1]
    kept, step = [], 0
    for lam, candidate, y in made:
        if (lam, y) == (result.lambda_path[step + 1].tobytes(), result.gamma[step + 1].tobytes()):
            kept.append(candidate)
            step += 1
    assert step == result.steps_taken
    for start, candidate, end in zip(result.gamma, kept, result.gamma[1:]):
        assert np.linalg.norm(end - start) <= 2.0 * np.linalg.norm(candidate - start)
    assert len(made) > step             # the steps across the jump were retried
    assert abs(result.gamma[-1][0] - step_root(1.5)) < 1e-12


@pytest.mark.parametrize("name, path, x0, end, tolerances", [
    # example2's equilibria do not move with lambda; planar's do not on
    # the path's first, constant segment
    ("example2", [[1.0], [2.5], [1.0]], [0.5, 1.0, 0.5 + 5e-10], [0.5, 1.0, 0.5], {}),
    ("planar", [[0.5], [0.5], [0.9]], [-0.455 + 5e-9, 0.3], [-0.819, 0.3], {}),
    # the loop ends on the equilibrium of x0's own level set h = h(x0)
    ("example2", [[1.0], [2.5], [1.0]], [0.5, 1.0, 0.5 + 1e-6], [0.500001, 0.9999995, 0.500001],
     {"equilibrium": 1e-6}),
    ("example2", [[1.0], [2.5], [1.0]], [0.5, 1.0, 0.5 + 5e-10], [0.5, 1.0, 0.5],
     {"cluster": 1e-12}),
])
def test_a_start_just_off_its_equilibrium_still_lifts(name, path, x0, end, tolerances):
    # the start's offset, up to what its equilibrium bound allows, is
    # corrected before the first step, whose RK4 increment is (near) zero:
    # no step lands farther than twice that, so none is retried to collapse
    tols = dataclasses.replace(DEFAULT_TOLERANCES, **tolerances)
    result = lift_curve(builtin(name), path, x0, tols)
    assert np.allclose(result.gamma[-1], end, rtol=0.0, atol=1e-8)


def test_lane_norm_is_the_lone_norm():
    # a lone norm is a BLAS dot; a pairwise row sum differs from it in some
    # rows of every length from 2 on
    rng = np.random.default_rng(0)
    for n in range(1, 41):
        rows = rng.standard_normal((50, n + 2)) * 10.0 ** rng.integers(-8, 3, size=(50, 1))
        for v in (rows, rows[:, 2:]):
            lone = np.array([np.linalg.norm(r) for r in v])
            assert _lane_norm(v).tobytes() == lone.tobytes()


def test_declared_lanes_equal_lone_lifts():
    # finite-difference blocks of compiled expressions, with a lam row per
    # lane; and the same spec called point by point, as plain callables are
    paths = [
        [[1.0] * 3, [2.0, 1.5, 1.0], [1.0] * 3],
        [[1.5] * 3, [0.75] * 3],
        [[1.0] * 3, [1.2] * 3],
    ]
    starts = [[0.3] * 3, [0.5] * 3, [0.45] * 3]
    alone = [lift_curve(RING3, p, x) for p, x in zip(paths, starts)]
    for sys in (RING3, dataclasses.replace(RING3, batched=False)):
        assert all(map(same_result, alone, lift_lanes(sys, paths, starts)))


def test_holonomy_raises_the_first_point_s_error():
    # the second point leaves the disk on the first segment, the first
    # point on the second; the first point's later failure is the one a
    # point-by-point run raises
    sys = two_roots()
    loop = [[0.4], [1.0], [2.0], [0.4]]
    found = transport.enumerate_level_points(sys, [0.4], [0.5], budget=64)
    points = [p.state.x for p in found]
    assert len(points) == 2 and points[0][0] < 0.0 < points[1][0]
    lone = [outcome(lambda x=x: lift_curve(sys, loop, x))[1] for x in points]
    assert lone[0][0] is TransportError and lone[1][0] is TransportError
    assert lone[0][2] > lone[1][2]
    assert outcome(lambda: holonomy_loop(sys, loop, [0.5], budget=64))[1] == lone[0]


def test_cocycle_raises_errors_in_lift_order():
    sys = two_roots()
    x0 = [1.125 * 0.4, 0.5]       # the positive equilibrium at lam = 0.4
    # both first legs fail, the 1 -> 2 leg earlier in lockstep; the
    # direct lift is the first of a sequential run
    direct = outcome(lambda: lift_curve(sys, [[0.4], [1.0]], x0))[1]
    via = outcome(lambda: lift_curve(sys, [[0.4], [2.0]], x0))[1]
    assert direct is not None and via is not None and direct != via
    assert outcome(lambda: check_cocycle(sys, [0.4], [2.0], [1.0], x0))[1] == direct
    # the direct lift succeeds: the 1 -> 2 leg's error
    assert outcome(lambda: lift_curve(sys, [[0.4], [0.5]], x0))[1] is None
    assert outcome(lambda: check_cocycle(sys, [0.4], [2.0], [0.5], x0))[1] == via


def lift_work(monkeypatch, sys):
    """A copy of sys whose analytic jac_x is counted, and a record of the
    np.linalg.qr and jac_x calls made inside each lift_lanes call: each
    stacked solve of the lift is one QR."""
    holder = SimpleNamespace(jac_x_fn=sys.jac_x_fn)
    jac_x = count_calls(monkeypatch, "jac_x_fn", holder)
    qr = count_calls(monkeypatch, "qr", np.linalg)
    real, per_call = transport.lift_lanes, []

    def counted(*args, **kwargs):
        before = len(qr), len(jac_x)
        result = real(*args, **kwargs)
        per_call.append((len(qr) - before[0], len(jac_x) - before[1]))
        return result

    monkeypatch.setattr(transport, "lift_lanes", counted)
    return dataclasses.replace(sys, jac_x_fn=holder.jac_x_fn), per_call


def test_holonomy_lifts_its_points_in_stacked_calls(monkeypatch, example2):
    # 4 points, 2 steps each (one per segment), 4 RK4 stages a step: one
    # QR and one jac_x call per stage for all 4 points (32 of each lifting
    # them one by one); the lift is stationary, so the corrector needs no step
    sys, per_call = lift_work(monkeypatch, example2)
    report = holonomy_loop(sys, [[1.0], [2.5], [1.0]], [2.0, 6.125], budget=200)
    assert len(report.points_before) == 4
    assert per_call == [(8, 8)]


def test_cocycle_legs_share_their_stacked_calls(monkeypatch, planar):
    # the direct and 1 -> 2 lifts of planar take the same steps, so the
    # two lanes cost what one lone lift costs; then the 2 -> 3 lift
    sys, per_call = lift_work(monkeypatch, planar)
    x0 = [-0.5, 0.0]
    lone = lift_curve(sys, [[0.5], [0.9]], x0)
    assert lift_curve(sys, [[0.5], [0.7]], x0).steps_taken == lone.steps_taken
    check_cocycle(sys, [0.5], [0.7], [0.9], x0)
    assert per_call[2] == per_call[0] == (4 * lone.steps_taken,) * 2


@pytest.mark.parametrize(
    "fractions, message",
    [
        ({"initial_fraction": 2.0}, "initial_fraction <= max_fraction"),
        ({"initial_fraction": 0.5, "max_fraction": 0.1}, "got 1e-10, 0.5, 0.1"),
        ({"min_fraction": 0.1, "initial_fraction": 0.05}, "0 < min_fraction <= initial_fraction"),
        ({"initial_fraction": float("nan")}, "must be finite"),
        ({"max_fraction": float("inf")}, "must be finite"),
        ({"min_fraction": 0.0}, "0 < min_fraction"),
    ],
)
def test_step_fractions_must_be_ordered(rfmr3, fractions, message):
    # each was accepted before: 2.0 crossed the segment in one step, 0.5
    # over a cap of 0.1 took a first step of 0.5, min 0.1 over the initial
    # 0.05 reported a collapsed step, and NaN a non-finite matrix
    with pytest.raises(InputError, match=message):
        lift_curve(rfmr3, [[1.0] * 3, [2.0] * 3], [0.4] * 3, **fractions)


def test_a_config_that_sets_only_max_fraction_runs():
    # the first step defaults to max_fraction; a separate default above
    # 0.1 would refuse this config
    config = config_from_dict({
        "system": {"builtin": "planar"}, "command": "transport",
        "path": [[0.2], [0.9]], "x0": [-0.15, 0.5], "max_fraction": 0.1,
    })
    assert config.settings["initial_fraction"] == config.settings["max_fraction"] == 0.1
    result, _ = run_config(config)
    # the last step ends exactly at the waypoint, however the sum of the
    # tenths rounds
    assert result["steps_taken"] == 10
    assert result["t"][-1] == 1.0 and result["lambda_path"][-1] == [0.9]


@pytest.mark.parametrize("path", [[[0.2], [0.9]], [[0.2], [0.9], [0.4]]])
def test_one_way_planar_lifts_take_one_step_per_segment(path):
    # planar's equilibria on the level x2 = a are x1 = lambda (a^2 - 1): by
    # default a lane tries each segment whole, and one step holds
    lift = lift_curve(PLANAR, path, [-0.15, 0.5])
    segments = len(path) - 1
    assert lift.steps_taken == segments
    np.testing.assert_array_equal(lift.t, np.linspace(0.0, 1.0, segments + 1))
    np.testing.assert_array_equal(lift.lambda_path, path)
    exact = np.column_stack([lift.lambda_path[:, 0] * (0.5**2 - 1.0), np.full(segments + 1, 0.5)])
    np.testing.assert_allclose(lift.gamma, exact, rtol=0.0, atol=1e-13)


def test_each_segment_starts_whole_and_ends_at_its_waypoint():
    # on [0.9, 1.1] the jump at 1.0123 forces retries, the step from 1.0
    # to 1.025 among them: its candidate, x1 = 8.26, lies outside the box.
    # The next segment starts again at initial_fraction, the whole of it,
    # and each segment ends exactly at its waypoint
    sys = step_system()
    lift = lift_curve(sys, [[0.9], [1.1], [1.3]], [step_root(0.9), 0.2])
    assert lift.steps_taken > 2
    assert lift.t[-2:].tolist() == [0.5, 1.0]
    assert lift.lambda_path[-2:, 0].tolist() == [1.1, 1.3]
    np.testing.assert_allclose(lift.gamma[-2:, 0], step_root(1.2), rtol=0.0, atol=1e-9)


def test_a_lift_that_leaves_the_domain_ends_at_its_boundary():
    # planar's branch x1 = -lambda on the level x2 = 0 leaves the unit disk
    # at lambda = 1, t = 0.2 of [0.5, 3.0]: steps whose candidates fall
    # outside are halved down to the boundary, and the step that cannot be
    # halved any more ends the lift there
    with pytest.raises(TransportError, match="exited the domain") as info:
        lift_curve(PLANAR, [[0.5], [3.0]], [-0.5, 0.0])
    assert info.value.t == pytest.approx(0.2, abs=1e-8)


BRANCH_HEIGHT, BRANCH_SHARPNESS, BRANCH_CENTRE, SIBLING = 0.5, 25.0, 0.975, 0.98


def branch_root(lam: float) -> float:
    return BRANCH_HEIGHT * np.tanh(BRANCH_SHARPNESS * (lam - BRANCH_CENTRE))


def two_branch() -> SystemSpec:
    """f1 = -(x1 - r(lam))(x1 - 0.98), r = 0.5 tanh(25 (lam - 0.975)), f2 =
    0, h = x2 on the box [-1, 1]^2: the branch x1 = r(lam) rises from
    -0.48 to 0.48 over lam in [0.9, 1.05], and its sibling x1 = 0.98 lies
    near the box's edge."""

    def f1(lam, x1, x2):
        root = BRANCH_HEIGHT * np.tanh(BRANCH_SHARPNESS * (lam - BRANCH_CENTRE))
        return -(x1 - root) * (x1 - SIBLING)

    def d1(lam, x1, x2):
        rise = np.tanh(BRANCH_SHARPNESS * (lam - BRANCH_CENTRE))
        root, slope = BRANCH_HEIGHT * rise, BRANCH_HEIGHT * BRANCH_SHARPNESS * (1.0 - rise ** 2)
        return -((x1 - SIBLING) + (x1 - root)), np.zeros_like(x1), (x1 - SIBLING) * slope

    return first_row_system(
        "two-branch", f1, d1, Domain(np.array([[-1.0, 1.0], [-1.0, 1.0]])), [[0.0, 2.0]]
    )


def test_a_step_whose_candidate_leaves_the_domain_is_retried(monkeypatch):
    # the whole step over [0.9, 1.05] overshoots to x1 = 1.0045, past the
    # box, and its correction lands on the sibling in 3 iterations, within
    # twice the predictor's length: _step_rule alone would keep it, and the
    # lift would end on the sibling with no error.  Retried at half length,
    # the lift stays on its branch
    sys = two_branch()
    made = []       # per projection: (RK4 candidate, corrected point, iterations)
    correct = transport._correct

    def recorded(residual, jacobian, y0, tols, lam_next, a0):
        out = correct(residual, jacobian, y0, tols, lam_next, a0)
        made.append((y0[0].copy(), out[0][0].copy(), int(out[1][0])))
        return out

    monkeypatch.setattr(transport, "_correct", recorded)
    x0 = np.array([branch_root(0.9), 0.2])
    result = lift_curve(sys, [[0.9], [1.05]], x0)
    candidate, landed, iterations = made[0]
    assert candidate[0] > 1.0 and abs(landed[0] - SIBLING) < 1e-9 and iterations <= 3
    assert np.linalg.norm(landed - x0) <= 2.0 * np.linalg.norm(candidate - x0)
    assert result.steps_taken == 2
    assert abs(result.gamma[-1][0] - branch_root(1.05)) < 1e-9


def _waypoint_rows(lift, segments: int) -> np.ndarray:
    """gamma at the waypoints, the samples at t = j / segments exactly."""
    rows = np.isin(lift.t, np.arange(segments + 1) / segments)
    assert rows.sum() == segments + 1
    return lift.gamma[rows]


@pytest.mark.parametrize("n", [3, 5])
def test_default_lifts_agree_with_fine_lifts(n):
    # seeded paths through three waypoints, lifted by default and in steps
    # of 0.002 of a segment; on rfmr(3) the declared ring's default lifts
    # of other paths are compared with the builtin's fine lifts of them
    rfmr = builtin("rfmr", n=n)
    rng = np.random.default_rng(n)
    paths, starts = [], []
    for _ in range(6 if n == 3 else 3):
        path = rng.uniform(0.5, 3.0, (3, n))
        level = rng.uniform(0.2, 0.8) * n
        starts.append(newton_on_level_set(rfmr, path[0], [level], np.full(n, level / n)).state.x)
        paths.append(path)
    fine = lift_lanes(rfmr, paths, starts, initial_fraction=0.002, max_fraction=0.002)
    coarse = lift_lanes(rfmr, paths[:3], starts[:3])
    if n == 3:
        coarse += lift_lanes(RING3, paths[3:], starts[3:])
    for a, b in zip(coarse, fine):
        np.testing.assert_allclose(_waypoint_rows(a, 2), _waypoint_rows(b, 2), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "steps, message",
    [
        ({"initial_step": 0.9, "max_step": 0.05}, "initial_step <= max_step"),
        ({"min_step": 0.1, "initial_step": 0.01}, "0 < min_step <= initial_step"),
        ({"max_step": float("inf")}, "must be finite"),
        ({"min_step": 0.0}, "0 < min_step"),
        ({"initial_step": "0.1x"}, "step bounds must be numbers"),
    ],
)
def test_trace_steps_must_be_ordered(steps, message):
    # the fiber tracer's steps follow the lift's rule; before, 0.9 over a
    # cap of 0.05 took a first step of 0.9, and a min_step over the
    # initial step reported a collapsed step (exit 2)
    with pytest.raises(InputError, match=message):
        finder.trace_fiber(PLANAR, [0.5], [-0.5, 0.0], **steps)


def test_lift_lanes_validates_its_lanes(planar):
    with pytest.raises(InputError, match="2 paths for 1 starting points"):
        lift_lanes(planar, [[[0.5], [0.9]]] * 2, [[-0.5, 0.0]])
    assert lift_lanes(planar, [], []) == []
    # a lane that fails validation after a lane that fails to lift: the
    # lift's error, as lifting them one after another raises it
    exits = ([[0.5], [3.0]], [-0.5, 0.0])
    with pytest.raises(TransportError, match="exited the domain"):
        lift_lanes(planar, [exits[0], [[0.5]]], [exits[1], [-0.5, 0.0]])


def test_lift_retries_a_correction_that_does_not_converge(monkeypatch):
    # with the corrector capped at 1 iteration, a correction that needs 2
    # ends marked for retry, and the lift retries that step at half length:
    # on the path from (1, 1, 1) to (1, 2, 3) lambda_2 - 1 is the path
    # parameter at the step's end
    made = []       # per step correction: (path parameter, marked for retry)
    correct = transport._correct

    def recorded(residual, jacobian, y0, tols, lam_next, a0):
        out = correct(residual, jacobian, y0, tols, lam_next, a0)
        made.append((lam_next[0, 1] - 1.0, bool(out[3][0])))
        return out

    monkeypatch.setattr(transport, "_correct", recorded)
    path, x0 = [[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]], [0.5, 0.5, 0.5]
    lift_curve(RFMR3, path, x0, initial_fraction=0.5, max_fraction=1.0)
    assert not any(marked for _, marked in made)     # uncapped, every lane converges
    made.clear()
    monkeypatch.setattr(finder, "_CORRECTOR_ITERATIONS", 1)
    result = lift_curve(RFMR3, path, x0, initial_fraction=0.5, max_fraction=1.0)
    assert result.t[-1] == 1.0
    assert any(marked for _, marked in made)
    start = 0.0
    for (t, marked), (t_next, _) in zip(made, made[1:]):
        if marked:
            assert t_next - start == pytest.approx(0.5 * (t - start), abs=1e-15)
        else:
            start = t
    assert len(made) == result.steps_taken + sum(marked for _, marked in made)


@pytest.mark.parametrize("error", [EvaluationError, ConvergenceError, DegeneracyError])
def test_an_evaluation_error_ends_the_lift(error):
    # an error raised by a plain callable, of any class, is the lane's
    # fatal error: the lift raises it and does not retry the step
    raised = []

    def f(lam, x):
        if lam[0] > 0.7:
            raised.append(error("the field is undefined past lambda = 0.7"))
            raise raised[-1]
        return PLANAR.f(lam, x)

    sys = dataclasses.replace(PLANAR, f=f, batched=False)
    with pytest.raises(error, match="undefined past") as caught:
        lift_curve(sys, [[0.5], [0.9]], [-0.455, 0.3])
    assert caught.value is raised[-1]
    assert len(raised) == 1


def test_an_rk4_stage_failure_ends_only_its_lane():
    # a plain spec whose jac_x is undefined near x2 = 0.8 past lambda = 0.6:
    # the middle lane, on the level x2 = 0.8, fails at an RK4 stage of its
    # first step.  Every callable records its calls, and f refuses a
    # non-finite row, which only a failed lane's row would be
    calls = []      # (lambda, x) of every call, or "raised" at the error

    def recorded(fn):
        def call(*args):
            calls.append(tuple(np.array(a, dtype=float) for a in args))
            return fn(*args)
        return call

    def f(lam, x):
        if not (np.isfinite(lam).all() and np.isfinite(x).all()):
            raise ValueError(f"f called on a non-finite row {lam}, {x}")
        return PLANAR.f(lam, x)

    def jac_x(lam, x):
        if lam[0] > 0.6 and abs(x[1] - 0.8) < 0.05:
            calls.append("raised")
            raise EvaluationError("jac_x is undefined here")
        return PLANAR.jac_x_fn(lam, x)

    constraints = tuple(map(recorded, PLANAR.domain.constraints))
    sys = dataclasses.replace(
        PLANAR, batched=False, f=recorded(f), h=recorded(PLANAR.h),
        jac_x_fn=recorded(jac_x), jac_lambda_fn=recorded(PLANAR.jac_lambda_fn),
        jac_h_fn=recorded(PLANAR.jac_h_fn), domain=Domain(PLANAR.domain.box, constraints),
    )
    path = [[0.5], [0.9]]
    starts = [[0.5 * (y * y - 1.0), y] for y in (0.3, 0.8, -0.4)]
    alone = [outcome(lambda x=x: lift_curve(sys, path, x)) for x in starts]
    assert [err is None for _, err in alone] == [True, False, True]
    assert alone[1][1][0] is EvaluationError
    calls.clear()
    assert outcome(lambda: lift_lanes(sys, [path] * 3, starts)) == (None, alone[1][1])
    assert calls.count("raised") == 1
    after = calls[calls.index("raised") + 1:]
    # the failed lane's row (x2 = 0.8 throughout) is never evaluated again,
    # and the lane after it still lifts to its end at lambda = 0.9
    assert all(np.isfinite(args[-1]).all() and abs(args[-1][1] - 0.8) > 0.05 for args in after)
    assert any(len(args) == 2 and args[0][0] == 0.9 and args[1][1] < 0.0 for args in after)
