"""One regression row per input that once ended without an answer or with a
wrong one: a matrix or fiber loop refined past float resolution, a lift whose
steps would leave a sliver of a segment, an audit whose ||f|| overflows,
a find or holonomy at a level whose residual norm overflows, a
declaration whose name is not a string, a config key that is not text,
and a size past numpy's array limit.  Each now ends in a report or
in a typed error, and the CLI writes an envelope for either.  Last, two
sweeps hold the golden configs to that contract: one with their numeric
entries set to +-1e308, one with their optional keys set to junk values."""

import dataclasses
import importlib.util
import json
import math
import os

import numpy as np
import pytest

from eqbundle.cli import main
from eqbundle.config import _COMMAND_KEYS, config_from_dict
from eqbundle.errors import COUNT_LIMIT, DIMENSION_LIMIT, STACK_LIMIT, InputError, stack_count
from eqbundle.expr import IDENTITY_DEFAULTS, build_system_from_config
from eqbundle.finder import enumerate_level_points, trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop, track_matrix_loop
from eqbundle.systems import builtin, check_first_integral_identity
from eqbundle.tolerances import Tolerances
from eqbundle.transport import lift_curve

_HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regenerate.py")
_spec = importlib.util.spec_from_file_location("golden_regenerate", _HERE)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ROTATION = golden.CONFIGS["track-matrix-loop-rotation"]


def run_main(tmp_path, capsys, config: dict) -> tuple:
    """(exit code, stdout envelope) of main on config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([config["command"], "--config", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("max_refine", [49, 10**30])
def test_rotation_loop_winds_at_any_refinement_depth(tmp_path, capsys, max_refine):
    # from depth 49 the blends of the rotation's exact ties repeat an
    # endpoint bit for bit; such a midpoint refines nothing, so the
    # windings stay those of depth 48, with no RecursionError
    report = track_matrix_loop(ROTATION["matrices"], k=0, max_refine=max_refine)
    assert report.windings == (-1, 1)
    assert report.samples_used == 215
    code, envelope = run_main(tmp_path, capsys, dict(ROTATION, max_refine=max_refine))
    assert code == 0
    assert envelope["result"]["windings"] == [-1, 1]
    assert envelope["result"]["samples_used"] == 215


# a fiber loop with the rotation's exact ties: at lambda = rho the Jacobian's
# nonzero eigenvalues are rho exp(+-i x3), a double real one at x3 = 0 and pi
TIES = build_system_from_config({
    "n": 3, "m": 1, "k": 1, "f": ["l1*x2", "-l1*x1 + 2*l1*cos(x3)*x2", "0"],
    "h": ["x3"], "domain_box": [[-1, 1], [-1, 1], [-1, 4]], "name": "ties",
})


@pytest.mark.parametrize("max_refine", [49, 10**30])
@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_fiber_loop_with_ties_winds_at_any_refinement_depth(max_refine, offset):
    # corrected midpoints reach float resolution too; an offset of 1e-9 puts
    # the loop points off the corrector's tolerance, inside the equilibrium
    # bound, so every midpoint next to one of them is projected
    points = [[offset, 0.0, s] for s in (0.0, 0.8, 1.6, 2.4, math.pi, 2.4, 1.6, 0.8, 0.0)]
    report = eigen_along_fiber_loop(TIES, [1.25], points, max_refine=max_refine)
    assert report.windings == (-1, 1) and report.samples_used == 152
    assert eigen_along_fiber_loop(TIES, [1.25], points).windings == (-1, 1)


def test_lift_runs_a_step_that_would_leave_a_sliver_to_the_waypoint(tmp_path, capsys):
    # 400 steps of 0.0025 sum to 1 - 1e-14, whose clipped last step was
    # below min_fraction: "transport step collapsed"
    lift = lift_curve(builtin("planar"), [[0.2], [0.9]], [-0.15, 0.5],
                      initial_fraction=0.0025, max_fraction=0.0025)
    assert lift.steps_taken == 400 and lift.t[-1] == 1.0
    code, envelope = run_main(tmp_path, capsys, {
        "system": {"builtin": "planar"}, "command": "transport",
        "path": [[0.2], [0.9]], "x0": [-0.15, 0.5],
        "initial_fraction": 0.0025, "max_fraction": 0.0025,
    })
    assert code == 0 and envelope["result"]["steps_taken"] == 400


@pytest.mark.parametrize("path", [[[0.2], [0.9]], [[0.2], [0.9], [0.4]]])
def test_a_lift_ends_every_segment_at_its_waypoint(path):
    # with min = initial = max = 0.6 a first step of 0.6 would leave 0.4,
    # less than min_fraction, so each segment is one step to its waypoint
    lift = lift_curve(builtin("planar"), path, [-0.15, 0.5], initial_fraction=0.6,
                      max_fraction=0.6, min_fraction=0.6)
    segments = len(path) - 1
    assert lift.steps_taken == segments
    np.testing.assert_array_equal(lift.t, np.linspace(0.0, 1.0, segments + 1))
    np.testing.assert_allclose(lift.lambda_path, path, rtol=1e-15)


def test_an_overflowing_residual_norm_is_an_evaluation_error(tmp_path, capsys):
    # every entry of f is finite (about 2.4e307), but ||f|| overflows
    config = dict(golden.CONFIGS["audit-rfmr3"], **{"lambda": [-1e308, 1.5, 1.5]})
    code, envelope = run_main(tmp_path, capsys, config)
    assert code == 2
    assert envelope["error"]["type"] == "EvaluationError"
    assert "||f|| is not finite" in envelope["error"]["message"]


@pytest.mark.parametrize("name, level, code", [
    ("find-rfmr3", [1e308], 0),
    ("find-rfmr3", [1e200], 0),
    ("find-rfmr3", [-1e308], 0),
    ("holonomy-example2", [1e308, 6.0], 1),
    ("holonomy-example2", [2.0, -1e308], 1),
])
def test_a_level_past_1e154_finds_nothing_without_an_overflow(tmp_path, capsys, name, level, code):
    # ||h(x) - a|| overflows to inf at every start, which no Newton step
    # lowers: every lane stalls, find reports no point and holonomy no base
    # point, and pytest turns numpy's overflow warning into an error
    config = dict(golden.CONFIGS[name], level=level)
    got, envelope = run_main(tmp_path, capsys, config)
    assert got == code
    if code == 0:
        assert envelope["result"]["count"] == 0
    else:
        assert envelope["error"]["type"] == "InputError"
        assert envelope["error"]["message"].startswith("no equilibria found on level")


def test_a_declaration_name_must_be_a_string(tmp_path, capsys):
    declaration = dict(golden._ring(3)["declaration"], name=float("nan"))
    code, envelope = run_main(tmp_path, capsys, {
        "system": {"declaration": declaration}, "command": "audit",
        "lambda": [1.5] * 3, "x": [0.4] * 3,
    })
    assert code == 1
    assert envelope["error"] == {
        "type": "InputError", "message": "declaration name must be a string",
    }


def test_a_key_that_is_not_text_is_an_unknown_key():
    # a mapping not read from JSON may mix key types, which sorted() alone
    # cannot order
    with pytest.raises(InputError, match=r"unknown configuration keys for 'find': \[1, 'zz'\]"):
        config_from_dict({"command": "find", 1: 2, "zz": 3})


# (golden config, the keys to a size field, its name in the error, its
# bound).  Only 10^30 and bound + 1 are run: each raises before any array
# is made, and 10^30 escaped as numpy's "Maximum allowed size exceeded"
# ValueError (max_points excepted, which no array is sized by)
SIZE_FIELDS = [
    ("find-rfmr3", ["budget"], "budget", COUNT_LIMIT),
    ("holonomy-example2", ["budget"], "budget", COUNT_LIMIT),
    ("trace-fiber-planar", ["max_points"], "max_points", COUNT_LIMIT),
    ("find-rfmr3", ["system", "n"], "n", DIMENSION_LIMIT),
    *(("transport-ring3", ["system", "declaration", key], f"declaration {key}", DIMENSION_LIMIT)
      for key in "nmk"),
    ("transport-ring3", ["system", "declaration", "identity_samples"], "identity_samples",
     COUNT_LIMIT),
]


@pytest.mark.parametrize("past", [False, True], ids=["1e30", "bound+1"])
@pytest.mark.parametrize(
    "name, keys, what, bound", SIZE_FIELDS,
    ids=[f"{name}-{keys[-1]}" for name, keys, *_ in SIZE_FIELDS],
)
def test_a_size_past_its_bound_is_an_input_error(name, keys, what, bound, past):
    config = json.loads(json.dumps(golden.CONFIGS[name]))
    field = config
    for key in keys[:-1]:
        field = field[key]
    field[keys[-1]] = bound + 1 if past else 10**30
    with pytest.raises(InputError, match=f"^{what} must be at most {bound}$"):
        config_from_dict(config)


@pytest.mark.parametrize("call, what, bound", [
    (lambda size: enumerate_level_points(builtin("planar"), [0.5], [0.3], budget=size),
     "budget", COUNT_LIMIT),
    (lambda size: trace_fiber(builtin("planar"), [0.5], [-0.455, 0.3], max_points=size),
     "max_points", COUNT_LIMIT),
    (lambda size: check_first_integral_identity(builtin("planar"), samples=size),
     "samples", COUNT_LIMIT),
    (lambda size: builtin("rfmr", n=size), "n", DIMENSION_LIMIT),
], ids=["budget", "max_points", "samples", "n"])
def test_the_library_keeps_the_same_bounds(call, what, bound):
    for size in (10**30, bound + 1):
        with pytest.raises(InputError, match=f"^{what} must be at most {bound}$"):
            call(size)


def test_a_budget_of_1e30_exits_1_with_an_envelope(tmp_path, capsys):
    code, envelope = run_main(tmp_path, capsys, dict(golden.CONFIGS["find-rfmr3"], budget=10**30))
    assert code == 1
    assert envelope["error"] == {
        "type": "InputError", "message": f"budget must be at most {COUNT_LIMIT}",
    }


@pytest.mark.parametrize("n", [2, 3, 13, 20, 100])
def test_a_count_of_stacked_matrices_is_bounded_at_its_edge(n):
    # budget starts (or identity samples) stack budget n x n Jacobians: up
    # to n = 6 COUNT_LIMIT binds, past it STACK_LIMIT // n**2
    edge = min(COUNT_LIMIT, STACK_LIMIT // n**2)
    assert stack_count(edge, "budget", n) == edge
    with pytest.raises(InputError, match=f"^budget must be at most {edge}$"):
        stack_count(edge + 1, "budget", n)


def test_a_budget_past_its_stack_is_refused_before_a_start_is_drawn():
    # rfmr(100): the config takes the edge, 419 starts, and it and the
    # library refuse 420; nothing here runs a multistart
    edge = STACK_LIMIT // 100**2
    raw = {"system": {"builtin": "rfmr", "n": 100}, "command": "find",
           "lambda": [1.5] * 100, "level": [35.0], "budget": edge}
    assert config_from_dict(raw).settings["budget"] == edge == 419
    runs = [
        lambda: config_from_dict(dict(raw, budget=edge + 1)),
        lambda: enumerate_level_points(
            builtin("rfmr", n=100), [1.5] * 100, [35.0], budget=edge + 1
        ),
    ]
    for run in runs:
        with pytest.raises(InputError, match=f"^budget must be at most {edge}$"):
            run()


def _with_leaf(value, path: tuple, leaf):
    """A copy of value with leaf at the keys and indices of path; a key
    that value lacks is added, holding an object until the path ends."""
    if not path:
        return leaf
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: _with_leaf(value.get(head, {}), rest, leaf)}
    return [_with_leaf(item, rest, leaf) if i == head else item for i, item in enumerate(value)]


def _numeric_leaves(value, path=()):
    """The paths to the numbers in value, bools left out, descending into
    the first, second and last entry of each list only."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i in sorted({0, 1, len(value) - 1} & set(range(len(value)))):
            yield from _numeric_leaves(value[i], path + (i,))


def test_every_golden_config_at_1e308_ends_in_a_report_or_a_typed_error(tmp_path, capsys):
    # Each numeric leaf of each golden config, set to +1e308 and to -1e308.
    # main runs config_from_dict, run_config, build_envelope and
    # canonical_json and catches an EqBundleError alone, so any other
    # exception fails the test, and pytest turns numpy's overflow warning
    # into an error.  Every entry of every list would be 1,282 configs and
    # about 9 s; the first, second and last entry of each list hold the
    # edges of every loop, path and box in 284 configs.  The junk values
    # of optional keys are the next test's.
    runs = [
        (f"{name} at {list(path)} = {leaf}", _with_leaf(raw, path, leaf))
        for name, raw in golden.CONFIGS.items()
        for path in _numeric_leaves(raw)
        for leaf in (1e308, -1e308)
    ]
    assert len(runs) == 284
    assert_every_run_ends_in_an_envelope(tmp_path, capsys, runs)


def assert_every_run_ends_in_an_envelope(tmp_path, capsys, runs: list) -> None:
    """main on each (where, raw config) of runs exits 0, 1 or 2 with a
    result or error envelope on stdout."""
    config_path = tmp_path / "config.json"
    for where, raw in runs:
        config_path.write_text(json.dumps(raw))
        code = main([raw["command"], "--config", str(config_path)])
        envelope = json.loads(capsys.readouterr().out)
        assert code in (0, 1, 2), where
        assert ("result" if code == 0 else "error") in envelope, where


# JSON values that no optional field takes as it stands: NaN, text, ints
# past the float range, negative zero, an empty list and object, a bool
# and null (which means the same as an absent key)
JUNK = [math.nan, "text", 10**400, -10**400, -0.0, [], {}, True, None]


def _optional_keys():
    """(golden config, path to a key): each command key that a golden
    config leaves out, each optional key of transport-ring3's declaration,
    and each tolerance on find-rfmr3."""
    for name, raw in golden.CONFIGS.items():
        for key in sorted(_COMMAND_KEYS[raw["command"]] - raw.keys()):
            yield name, (key,)
    for key in ("name", "parameter_box", *IDENTITY_DEFAULTS):
        yield "transport-ring3", ("system", "declaration", key)
    for field in dataclasses.fields(Tolerances):
        yield "find-rfmr3", ("tolerances", field.name)


def test_every_optional_key_set_to_junk_ends_in_a_report_or_a_typed_error(tmp_path, capsys):
    # Under the contract of the 1e308 sweep: every junk value at every
    # optional key, none left out.  An int past the float range once
    # escaped the step, fraction, tol_zero and identity_tolerance checks
    # as a bare OverflowError.
    runs = [
        (f"{name} at {list(path)} = {leaf!r:.20}",
         _with_leaf(golden.CONFIGS[name], path, leaf))
        for name, path in _optional_keys()
        for leaf in JUNK
    ]
    assert len(runs) == 387
    assert_every_run_ends_in_an_envelope(tmp_path, capsys, runs)
