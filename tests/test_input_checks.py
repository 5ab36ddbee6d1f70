"""One table of malformed inputs, each given to the config, to the CLI and to
the library entry point that takes the same value.

Every rule has one implementation (in eqbundle.errors, or Tolerances for
a tolerance and builtin for a builtin's parameters), so each case must
raise InputError with the same message (up to the input's name) on every
path, and the CLI must exit 1 with an `error:` line and an error envelope.
A second table holds the library arguments that no config field reaches.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from eqbundle import (
    DEFAULT_TOLERANCES, Domain, PointState, SystemSpec, Tolerances, builtin,
    check_first_integral_identity, config, connection_frame, eigen_dense, errors, kernel_basis,
    monodromy, numeric_rank, parse, solve_least_squares, vertical_projector,
)
from eqbundle.audit import audit_point
from eqbundle.cli import main
from eqbundle.config import config_from_dict
from eqbundle.errors import InputError
from eqbundle.finder import trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop, split_spectrum, track_matrix_loop
from eqbundle.transport import check_cocycle, holonomy_loop, lift_curve

NAN, INF = float("nan"), float("inf")
PLANAR = {"builtin": "planar"}
X0 = [-0.5, 0.0]
XEQ = [math.sqrt(8.0 / 15.0), math.sqrt(14.0 / 15.0), math.sqrt(8.0 / 15.0)]
I2, I3 = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# a valid config of each command; a case overrides some of its fields
BASE = {
    "find": {"system": PLANAR, "lambda": [0.5], "level": [0.0]},
    "trace-fiber": {"system": PLANAR, "lambda": [0.5], "x0": X0},
    "transport": {"system": PLANAR, "path": [[0.5], [0.9]], "x0": X0},
    "transport3": {
        "system": {"builtin": "rfmr", "n": 3},
        "path": [[1.0] * 3, [2.0] * 3],
        "x0": [0.4] * 3,
    },
    "holonomy": {"system": PLANAR, "loop": [[0.5], [0.9], [0.5]], "level": [0.0]},
    "cocycle": {
        "system": PLANAR, "lambda1": [0.5], "lambda2": [0.7], "lambda3": [0.9], "x0": X0,
    },
    "eigen-loop": {
        "system": {"builtin": "example2"}, "lambda": [1.0], "loop_points": [XEQ, XEQ, XEQ],
    },
    "track-matrix-loop": {"matrices": [I2, I2], "k": 0},
}

FINITE = "must be an array of finite numbers"
TWO = "needs at least two waypoints"
STEPS = r"step bounds must be finite with 0 < min_step <= initial_step <= max_step"
FRACTIONS = "0 < min_fraction <= initial_fraction <= max_fraction"
INTEGER = "must be an integer"
PATHS = "paths must hold exactly three parameter paths"
TOLERANCE = "must be a finite number >= 0, got"
TOL_ZERO = "tol_zero must be positive and finite"

# (base, overrides, message): the message is a regex that the config's and
# the library's error both match
CASES = [
    # a finite vector of length d
    ("trace-fiber", {"lambda": "abc"}, f"lambda {FINITE}"),
    ("trace-fiber", {"lambda": {"a": 1}}, f"lambda {FINITE}"),
    ("trace-fiber", {"lambda": [[1], [2, 3]]}, f"lambda {FINITE}"),
    ("trace-fiber", {"lambda": None}, f"lambda {FINITE}"),
    ("trace-fiber", {"x0": [NAN, 0.0]}, f"x0 {FINITE}"),
    ("trace-fiber", {"x0": [-0.5, 0.0, 0.0]}, "dimension mismatch: x0 has length 3"),
    ("trace-fiber", {"lambda": [[0.5]]}, r"dimension mismatch: lambda has shape \(1, 1\)"),
    ("transport", {"x0": [INF, 0.0]}, f"x0 {FINITE}"),
    ("transport", {"x0": "ab"}, f"x0 {FINITE}"),
    ("cocycle", {"lambda2": [0.7, 0.7]}, "dimension mismatch: lambda2 has length 2"),
    ("cocycle", {"lambda3": [True]}, f"lambda3 {FINITE}"),
    ("eigen-loop", {"lambda": "abc"}, f"lambda {FINITE}"),
    # a path of at least two waypoints
    ("transport", {"path": [[0.5]]}, TWO),
    ("transport", {"path": "ab"}, TWO),
    ("transport", {"path": {"a": 1}}, TWO),
    ("transport", {"path": None}, TWO),
    ("transport", {"path": [[0.5], [0.9, 1.0]]}, "waypoint 1 has length 2"),
    ("transport3", {"path": [[1.0] * 3, [2, "x", 1]]}, f"waypoint 1 {FINITE}"),
    ("holonomy", {"loop": [[0.5]]}, TWO),
    ("cocycle", {"paths": [[[0.5]], [[0.7], [0.9]], [[0.5], [0.9]]]}, TWO),
    ("eigen-loop", {"loop_points": [XEQ]}, TWO),
    ("eigen-loop", {"loop_points": [XEQ[:2], XEQ[:2]]}, "waypoint 0 has length 2"),
    # loop closure
    ("holonomy", {"loop": [[0.5], [0.9]]}, "loop must close: first and last waypoints"),
    ("eigen-loop", {"loop_points": [XEQ, [v + 0.2 for v in XEQ]]}, "loop must close"),
    ("track-matrix-loop", {"matrices": [I2, [[2.0, 0.0], [0.0, 2.0]]]}, "loop must close"),
    # a loop of equal, square, finite matrices
    ("track-matrix-loop", {"matrices": "ab"}, "a matrix loop needs at least two matrices"),
    ("track-matrix-loop", {"matrices": ["ab", "ab"]}, f"matrix 0 {FINITE}"),
    ("track-matrix-loop", {"matrices": [I2]}, "needs at least two matrices"),
    ("track-matrix-loop", {"matrices": [I2, I3, I2]}, "square with equal shape"),
    ("track-matrix-loop", {"matrices": [[[1.0, 0.0]], [[1.0, 0.0]]]}, "square"),
    ("track-matrix-loop", {"matrices": [I2, [[NAN, 0.0], [0.0, 1.0]]]}, f"matrix 1 {FINITE}"),
    ("track-matrix-loop", {"matrices": [I2, I2, [[1.0, INF], [0.0, 1.0]]]}, f"matrix 2 {FINITE}"),
    ("track-matrix-loop", {"matrices": [I2, [[True, False], [False, True]], I2]}, f"matrix 1 {FINITE}"),
    ("track-matrix-loop", {"matrices": [I2, [[1.0, 0.0], [0.0]], I2]}, f"matrix 1 {FINITE}"),
    ("track-matrix-loop", {"matrices": [I2, None, I2]}, f"matrix 1 {FINITE}"),
    ("track-matrix-loop", {"matrices": [[1.0, 0.0], [1.0, 0.0]]}, "square with equal shape"),
    # step bounds
    ("trace-fiber", {"initial_step": 0.9, "max_step": 0.05}, STEPS),
    ("trace-fiber", {"min_step": 0.1, "initial_step": 0.01}, STEPS),
    ("trace-fiber", {"max_step": NAN}, STEPS),
    ("trace-fiber", {"initial_step": "abc"}, "step bounds must be numbers"),
    ("transport", {"initial_fraction": 0.5, "max_fraction": 0.1}, FRACTIONS),
    ("transport", {"min_fraction": 0.0}, FRACTIONS),
    # counts
    ("trace-fiber", {"max_points": "3"}, f"max_points {INTEGER}"),
    ("trace-fiber", {"max_points": 2.5}, f"max_points {INTEGER}"),
    ("trace-fiber", {"max_points": True}, f"max_points {INTEGER}"),
    ("trace-fiber", {"max_points": [3]}, f"max_points {INTEGER}"),
    ("trace-fiber", {"max_points": 0}, "max_points must be positive"),
    ("trace-fiber", {"direction": "a"}, f"direction {INTEGER}"),
    ("trace-fiber", {"direction": 2}, "direction must be 1 or -1"),
    ("eigen-loop", {"max_refine": 2.5}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": "3"}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": 2.5}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": True}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": [3]}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": -1}, "max_refine must be non-negative"),
    ("track-matrix-loop", {"k": 1.5}, f"k {INTEGER}"),
    ("track-matrix-loop", {"k": 3}, "k = 3 is out of range for 2 x 2 matrices"),
    # cocycle's three paths
    ("cocycle", {"paths": 5}, PATHS),
    ("cocycle", {"paths": "abc"}, PATHS),
    ("cocycle", {"paths": [[[0.5], [0.7]], [[0.7], [0.9]]]}, PATHS),
    # tolerances: numbers, neither bools nor strings, with known names
    ("trace-fiber", {"tolerances": {"rank": True}}, f"tolerance 'rank' {TOLERANCE} True"),
    ("trace-fiber", {"tolerances": {"equilibrium": False}}, f"'equilibrium' {TOLERANCE} False"),
    ("transport", {"tolerances": {"newton": "1e-8"}}, f"tolerance 'newton' {TOLERANCE} '1e-8'"),
    ("holonomy", {"tolerances": {"cluster": None}}, f"tolerance 'cluster' {TOLERANCE} None"),
    ("eigen-loop", {"tolerances": {"wat": 1.0, "newton": 1.0}}, "unknown tolerance name: 'wat'"),
    # a builtin's parameters
    ("transport3", {"system": {"builtin": "rfmr", "n": 3.7}}, f"^n {INTEGER}"),
    ("transport3", {"system": {"builtin": "rfmr", "n": "5"}}, f"^n {INTEGER}"),
    ("transport3", {"system": {"builtin": "rfmr", "n": 0}}, "^n must be positive"),
    ("transport3", {"system": {"builtin": "rfmr", "n": 2}}, "rfmr needs n >= 3 sites"),
    ("transport3", {"system": {"builtin": "rfmr", "m": "x"}}, r"parameters for 'rfmr': \['m'\]"),
    ("transport3", {"system": {"builtin": "rfmr"}}, "'rfmr' requires the site count n"),
    ("transport", {"system": {"builtin": "planar", "n": 2}}, "'planar' takes no parameters"),
    # the zero threshold of a matrix loop
    ("track-matrix-loop", {"tol_zero": -1.0}, TOL_ZERO),
    ("track-matrix-loop", {"tol_zero": NAN}, TOL_ZERO),
    ("track-matrix-loop", {"tol_zero": "abc"}, "tol_zero must be a number"),
    # loop closure past the float range, tested without overflow
    ("track-matrix-loop", {"matrices": [[[1e308, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 1.0]], I2]},
     r"^loop must close: first and last matrices differ by 1\.000e\+308$"),
    ("eigen-loop", {"loop_points": [[1e200] * 3, XEQ, [-1e200] * 3]},
     r"^loop must close: first and last loop points differ by 3\.464e\+200$"),
    # an int past the float range is refused as +-inf is, not as an OverflowError
    ("trace-fiber", {"min_step": 10**400}, STEPS),
    ("trace-fiber", {"initial_step": -10**400}, STEPS),
    ("trace-fiber", {"max_step": 10**400}, STEPS),
    ("transport", {"min_fraction": -10**400}, FRACTIONS),
    ("transport", {"initial_fraction": 10**400}, FRACTIONS),
    ("transport", {"max_fraction": 10**400}, FRACTIONS),
    ("track-matrix-loop", {"tol_zero": 10**400}, TOL_ZERO),
    ("track-matrix-loop", {"tol_zero": -10**400}, TOL_ZERO),
    # a bool or a numeric string is not a number, as in a tolerance
    ("trace-fiber", {"max_step": True}, "step bounds must be numbers"),
    ("transport", {"initial_fraction": "0.1"}, "step bounds must be numbers"),
    ("track-matrix-loop", {"tol_zero": True}, "tol_zero must be a number"),
]


def raw_config(base: str, overrides: dict) -> dict:
    command = "transport" if base == "transport3" else base
    return dict(BASE[base], command=command, **overrides)


def call_library(raw: dict):
    """The library entry point of raw's command on raw's values, unchecked."""
    command = raw["command"]
    tols = DEFAULT_TOLERANCES.replace(**raw.get("tolerances", {}))
    if command == "track-matrix-loop":
        return track_matrix_loop(
            raw["matrices"], k=raw["k"], tol_zero=raw.get("tol_zero"), tols=tols,
            max_refine=raw.get("max_refine", 8),
        )
    spec = dict(raw["system"])
    sys = builtin(spec.pop("builtin"), **spec)
    if command == "trace-fiber":
        given = {
            key: raw[key]
            for key in ("initial_step", "max_step", "min_step", "max_points")
            if key in raw
        }
        return trace_fiber(
            sys, raw["lambda"], raw["x0"], tols=tols,
            initial_direction=raw.get("direction", 1), **given
        )
    if command == "transport":
        given = {
            key: raw[key]
            for key in ("initial_fraction", "max_fraction", "min_fraction")
            if key in raw
        }
        return lift_curve(sys, raw["path"], raw["x0"], tols=tols, **given)
    if command == "holonomy":
        return holonomy_loop(sys, raw["loop"], raw["level"], budget=20, tols=tols)
    if command == "cocycle":
        return check_cocycle(
            sys, raw["lambda1"], raw["lambda2"], raw["lambda3"], raw["x0"],
            paths=raw.get("paths"), tols=tols,
        )
    assert command == "eigen-loop"
    return eigen_along_fiber_loop(
        sys, raw["lambda"], raw["loop_points"], tols=tols, max_refine=raw.get("max_refine", 8)
    )


@pytest.mark.parametrize("base, overrides, message", CASES)
def test_each_rule_is_one_input_error(tmp_path, capsys, base, overrides, message):
    raw = raw_config(base, overrides)
    with pytest.raises(InputError, match=message):
        config_from_dict(raw)
    with pytest.raises(InputError, match=message):
        call_library(raw)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw, allow_nan=True))
    assert main([raw["command"], "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InputError"
    assert f"error: {error['message']}\n" == captured.err


# a declared planar system, and the overrides of its declaration that make
# it an input error: (overrides, message)
DECLARED = {
    "n": 2, "m": 1, "k": 1,
    "f": ["-x1 + l1*(x2^2 - 1)", "0"],
    "h": ["x2"],
    "domain_box": [[-1.0, 1.0], [-1.0, 1.0]],
}
DECLARED_CASES = [
    ({"parameter_box": [[1, 0]]}, "^parameter_box has lo > hi"),
    ({"domain_box": [[1.0, -1.0], [-1.0, 1.0]]}, "^domain_box has lo > hi"),
    # refused without numpy's overflow warning, which pytest turns into an error
    ({"domain_box": [[-1e308, 1e308], [-1.0, 1.0]]},
     "^domain_box has a diameter past the float range$"),
    ({"identity_tolerance": 10**400}, "^identity_tolerance must be positive and finite$"),
    ({"identity_tolerance": "0.5"}, "^identity_tolerance must be a number$"),
]


@pytest.mark.parametrize("overrides, message", DECLARED_CASES)
def test_each_declared_box_rule_is_one_input_error(tmp_path, capsys, overrides, message):
    raw = dict(BASE["find"], command="find", system={"declaration": dict(DECLARED, **overrides)})
    with pytest.raises(InputError, match=message):
        config_from_dict(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["find", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InputError"
    assert f"error: {error['message']}\n" == captured.err
    config_from_dict(dict(raw, system={"declaration": DECLARED}))


# library entry points whose arguments no config field reaches:
# (id, call, message)
LIBRARY_CASES = [
    ("split-tol-zero-negative", lambda: split_spectrum(np.eye(2), 0, tol_zero=-1.0), TOL_ZERO),
    ("split-tol-zero-nan", lambda: split_spectrum(np.eye(2), 0, tol_zero=NAN), TOL_ZERO),
    ("split-tol-zero-huge-int", lambda: split_spectrum(np.eye(2), 0, tol_zero=10**400),
     TOL_ZERO),
    ("split-tol-zero-bool", lambda: split_spectrum(np.eye(2), 0, tol_zero=True),
     "^tol_zero must be a number$"),
    # a point's int past the float range reads inf, which its entry refuses
    ("point-huge-int-lambda",
     lambda: connection_frame(builtin("planar"), PointState([10**400], X0)), f"^lambda {FINITE}"),
    ("point-huge-int-x",
     lambda: connection_frame(builtin("planar"), PointState([0.5], [-10**400, 0.0])),
     f"^x {FINITE}"),
    ("identity-samples-0", lambda: check_first_integral_identity(builtin("planar"), 0),
     "samples must be positive"),
    ("identity-samples-negative", lambda: check_first_integral_identity(builtin("planar"), -5),
     "samples must be positive"),
    ("identity-samples-fraction", lambda: check_first_integral_identity(builtin("planar"), 2.5),
     f"samples {INTEGER}"),
    ("identity-seed-negative",
     lambda: check_first_integral_identity(builtin("planar"), 10, seed=-1),
     "seed must be non-negative"),
    ("tolerances-bool", lambda: Tolerances(rank=True), f"tolerance 'rank' {TOLERANCE} True"),
    ("tolerances-numpy-bool", lambda: Tolerances(gap_min=np.True_),
     f"tolerance 'gap_min' {TOLERANCE} np.True_"),
    ("tolerances-huge-int", lambda: Tolerances(newton=10 ** 400), f"'newton' {TOLERANCE}"),
    # matrices and vectors of the linear algebra: finite numbers, not bools
    ("rank-text", lambda: numeric_rank("abc"), f"^matrix {FINITE}"),
    ("rank-ragged", lambda: numeric_rank([[1], [2, 3]]), f"^matrix {FINITE}"),
    ("rank-bool", lambda: numeric_rank([[True, False], [False, True]]), f"^matrix {FINITE}"),
    ("eigen-text", lambda: eigen_dense([["a"]]), f"^matrix {FINITE}"),
    ("solve-text-b", lambda: solve_least_squares(I2, ["x", "y"]), f"^b {FINITE}"),
    ("solve-bool-b", lambda: solve_least_squares(I2, [True, False]), f"^b {FINITE}"),
    ("projector-text", lambda: vertical_projector(_frame(), "ab"), f"^vector {FINITE}"),
    ("kernel-mapping", lambda: kernel_basis({"a": 1}), f"^matrix {FINITE}"),
    ("split-bool", lambda: split_spectrum([[True]], 0), f"^J {FINITE}"),
    # boxes: finite numbers, (rows, 2), lo <= hi
    ("domain-text", lambda: Domain(box="ab"), f"^domain_box {FINITE}"),
    ("domain-nan", lambda: Domain(box=[[0.0, NAN]]), f"^domain_box {FINITE}"),
    ("domain-inf", lambda: Domain(box=[[-1.0, INF], [-1.0, 1.0]]), f"^domain_box {FINITE}"),
    ("parameter-box-text", lambda: _spec(parameter_box="x"), f"^parameter_box {FINITE}"),
    ("parameter-box-nan", lambda: _spec(parameter_box=[[0.0, NAN]]), f"^parameter_box {FINITE}"),
    ("parameter-box-reversed", lambda: _spec(parameter_box=[[1.0, 0.0]]),
     "^parameter_box has lo > hi"),
    # a width, or the norm of the widths, past the float range
    ("domain-width-overflow", lambda: Domain(box=[[-1e308, 1e308], [0.0, 1.0]]),
     "^domain_box has a diameter past the float range$"),
    ("domain-diameter-overflow", lambda: Domain(box=[[0.0, 1.5e308], [0.0, 1.5e308]]),
     "^domain_box has a diameter past the float range$"),
    ("parameter-box-width-overflow", lambda: _spec(parameter_box=[[-1e308, 1e308]]),
     "^parameter_box has a diameter past the float range$"),
    # dimensions: positive integers, not bools
    ("parse-text-n", lambda: parse("x1", "a", 1), f"^n {INTEGER}"),
    ("parse-bool-n", lambda: parse("x1", True, 1), f"^n {INTEGER}"),
    ("spec-text-n", lambda: _spec(n="2"), f"^n {INTEGER}"),
    ("spec-k-equal-to-n", lambda: _spec(k=2), r"^need 1 <= k < n; got n=2, k=2$"),
    ("spec-domain-dimension", lambda: _spec(domain=Domain(box=[[0.0, 1.0]] * 3)),
     "^domain dimension 3 does not match n = 2$"),
    # the four derivative callables are required
    *((f"spec-no-{key}", lambda key=key: _spec(**{key: None}), f"^{key} must be callable$")
      for key in ("jac_x_fn", "jac_lambda_fn", "jac_h_fn", "hess_h_fn")),
    # points of a domain: numbers, with a last axis of length n
    ("contains-length", lambda: builtin("planar").domain.contains([0.1, 0.2, 0.3]),
     r"^dimension mismatch: x has shape \(3,\)"),
    ("contains-rows-length", lambda: builtin("planar").domain.contains([[0.1, 0.2, 0.3]]),
     r"^dimension mismatch: x has shape \(1, 3\)"),
    ("contains-text", lambda: builtin("planar").domain.contains("ab"),
     "^x must be an array of numbers"),
    ("contains-mapping", lambda: builtin("planar").domain.contains({"a": 1}),
     "^x must be an array of numbers"),
    ("boundary-distance-length",
     lambda: builtin("planar").domain.boundary_distance([0.1, 0.2, 0.3]),
     "^dimension mismatch: x has length 3"),
    ("boundary-distance-text", lambda: builtin("planar").domain.boundary_distance("ab"),
     f"^x {FINITE}"),
]


def _frame():
    """The connection frame of planar at lambda = 0.5, x = X0."""
    return connection_frame(builtin("planar"), PointState([0.5], X0))


def _spec(**fields) -> SystemSpec:
    """planar's spec built again with the given fields in place of its own."""
    spec = builtin("planar")
    given = {
        name: getattr(spec, name)
        for name in ("n", "m", "k", "domain", "parameter_box", "jac_x_fn", "jac_lambda_fn",
                     "jac_h_fn", "hess_h_fn")
    }
    return SystemSpec(name="planar", f=spec.f, h=spec.h, **dict(given, **fields))


@pytest.mark.parametrize(
    "call, message", [case[1:] for case in LIBRARY_CASES], ids=[case[0] for case in LIBRARY_CASES]
)
def test_each_library_rule_is_one_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


# every optional command field, which null leaves at its default
OPTIONAL_FIELDS = [
    *(("find", key) for key in ("budget", "seed")),
    *(("holonomy", key) for key in ("budget", "seed")),
    *(("trace-fiber", key)
      for key in ("min_step", "initial_step", "max_step", "max_points", "direction")),
    *(("transport", key) for key in ("min_fraction", "initial_fraction", "max_fraction")),
    ("cocycle", "paths"),
    ("eigen-loop", "max_refine"),
    *(("track-matrix-loop", key) for key in ("k", "tol_zero", "max_refine")),
]


@pytest.mark.parametrize("base, key", OPTIONAL_FIELDS)
def test_a_null_optional_field_is_the_field_left_out(base, key):
    # null and a missing key give the same run and the same echo; each
    # other command field is required
    raw = {name: value for name, value in raw_config(base, {}).items() if name != key}
    left_out = config_from_dict(raw)
    null = config_from_dict(dict(raw, **{key: None}))
    assert (null.settings, null.tolerances) == (left_out.settings, left_out.tolerances)
    optional = {name for command, name in OPTIONAL_FIELDS if command == base}
    for name in config._COMMAND_KEYS[base] - optional:
        with pytest.raises(InputError, match=f"requires the field '{name}'"):
            config_from_dict({k: v for k, v in raw.items() if k != name})


def test_tolerances_are_stored_as_floats():
    # an int is a number, which the config and the constructor keep as a float
    raw = raw_config("transport3", {"tolerances": {"newton": 1, "rank": 0}})
    echo = config_from_dict(raw).settings["tolerances"]
    assert (echo["newton"], echo["rank"]) == (1.0, 0.0) and type(echo["newton"]) is float
    tols = Tolerances(newton=np.int64(1), rank=None, gap_min=np.float32(0.5))
    assert (type(tols.newton), tols.rank, type(tols.gap_min)) == (float, None, float)
    assert tols == DEFAULT_TOLERANCES.replace(newton=1.0, gap_min=0.5)


def test_valid_bases_pass_the_checks():
    # the table's failures come from its overrides alone
    for base in BASE:
        config_from_dict(raw_config(base, {}))


def _matrix_loop_one_by_one(value, k) -> tuple:
    """errors.matrix_loop as it was before it checked the loop as one array:
    every matrix alone, then the shapes."""
    entries = errors._entries(value, "a matrix loop", "matrices")
    mats = [errors.finite_array(entry, f"matrix {i}") for i, entry in enumerate(entries)]
    n = len(mats[0]) if mats[0].ndim == 2 else -1
    if any(mat.shape != (n, n) for mat in mats):
        raise InputError("all loop matrices must be square with equal shape")
    errors.closed_loop(mats, "matrices", 1e-12)
    k = errors.non_negative_int(k, "k")
    if k > n:
        raise InputError(f"k = {k} is out of range for {n} x {n} matrices")
    return mats, k


MATRIX_ENTRIES = st.sampled_from([
    I2, I2, [[2.0, 1.0], [0.0, 3.0]], [[2, 1], [0, 3]], np.eye(2), np.eye(2, dtype=int),
    np.eye(2, dtype=bool), [[True, False], [False, True]], [[True, 0.5], [0.0, 1.0]],
    np.eye(2, dtype=np.float32), [[NAN, 0.0], [0.0, 1.0]], [[1.0, -INF], [0.0, 1.0]],
    I3, [[1.0, 0.0]], [[1.0, 0.0], [0.0]], [1.0, 0.0], None, "ab", [["a", 1.0], [0.0, 1.0]],
    np.eye(2) * (1.0 + 1.0j), [[0.0, 0.0], [0.0, 0.0]],
])


def _verdict(check, loop, k):
    try:
        mats, k = check(loop, k)
    except InputError as err:
        return str(err)
    return np.array(mats).tolist(), np.array(mats).dtype.str, k


@settings(settings.get_profile("derandomized"), max_examples=80)
@given(loop=st.lists(MATRIX_ENTRIES, min_size=0, max_size=5), k=st.integers(0, 3))
def test_matrix_loop_checks_as_each_matrix_alone(loop, k):
    # the loop closes on its first matrix, so each loop reaches the shapes
    if loop:
        loop = loop + [loop[0]]
    assert _verdict(errors.matrix_loop, loop, k) == _verdict(_matrix_loop_one_by_one, loop, k)


def test_a_valid_matrix_loop_takes_one_finiteness_test_per_check(tmp_path, capsys, monkeypatch):
    finite = count_calls(monkeypatch, "finite_array", errors)
    loops = count_calls(monkeypatch, "matrix_loop", config, monodromy)
    raw = raw_config("track-matrix-loop", {"matrices": [I2, [[0.0, 2.0], [-2.0, 0.0]], I2]})
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(raw))
    assert main([raw["command"], "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["permutation"] == [0, 1]
    assert len(loops) == 2 and len(finite) == len(loops)


@pytest.mark.parametrize("loop, gap", [
    ([[1e308, 0.0], [0.5, 0.0], [0.5, 0.0]], "1.000e+308"),
    ([[1e200], [0.0], [-1e200]], "2.000e+200"),
    ([[1e308], [0.0], [-1e308]], "inf"),
])
def test_a_loop_past_the_float_range_must_close_too(loop, gap):
    # the gap and the first point's norm would overflow to inf unscaled;
    # pytest turns numpy's overflow warning into an error
    with pytest.raises(InputError, match=rf"^loop must close: first and last points differ by {re.escape(gap)}$"):
        errors.closed_loop(loop, "points")


def test_a_loop_past_the_float_range_closes_on_an_equal_last_point():
    errors.closed_loop([[1e308, 0.0], [0.5, 0.0], [1e308, 0.0]], "points")
    errors.closed_loop([[[1e308, 0.0], [0.0, 1.0]], np.eye(2), [[1e308, 0.0], [0.0, 1.0]]],
                       "matrices", 1e-12)


@settings(settings.get_profile("derandomized"), max_examples=200)
@given(
    v=st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=6),
    exponent=st.integers(-1100, 1024),
)
def test_the_scaled_norm_is_numpys_norm_until_it_would_overflow(v, exponent):
    v = np.ldexp(np.array(v), exponent)
    norm = errors._scaled_norm(v)
    if np.abs(v).max() <= errors._NORM_SAFE:
        assert np.float64(norm).tobytes() == np.linalg.norm(v).tobytes()
    else:
        assert norm == pytest.approx(math.hypot(*v.tolist()), rel=4e-15)


def wide_planar():
    """planar on the box [-1e300, 1e300] x [-1, 1] with no disk, so that a
    point as far as x1 = 1e200 is in the box and f is evaluated there."""
    return dataclasses.replace(builtin("planar"), domain=Domain(box=[[-1e300, 1e300], [-1.0, 1.0]]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: trace_fiber(builtin("planar"), [0.5], [0.5 * (1e200 - 1), 1e100]),
                 r"^x0 \[5e\+199, 1e\+100\] is not in the domain$", id="trace-x0-outside"),
    pytest.param(lambda: trace_fiber(wide_planar(), [0.5], [1e200, 0.0]),
                 r"^x0 is not an equilibrium: \|\|f\|\| = 1\.000e\+200$", id="trace-f"),
    pytest.param(lambda: lift_curve(wide_planar(), [[0.5], [0.6]], [1e200, 0.0]),
                 r"^x0 is not an equilibrium: \|\|f\|\| = 1\.000e\+200$", id="lift-f"),
    pytest.param(lambda: eigen_along_fiber_loop(wide_planar(), [0.5],
                                                [[-0.375, 0.5], [1e200, 0.0], [-0.375, 0.5]]),
                 r"^loop point 1 is not an equilibrium: \|\|f\|\| = 1\.000e\+200$",
                 id="eigen-loop-f"),
    # off the equilibrium set and outside the box: the box is tested
    # first, so f, whose square of 1e308 overflows, never sees the point
    pytest.param(lambda: trace_fiber(builtin("planar"), [0.5], [0.0, 1e308]),
                 r"^x0 \[0\.0, 1e\+308\] is not in the domain$", id="trace-box"),
    pytest.param(lambda: lift_curve(builtin("planar"), [[0.5], [0.6]], [1e200, 0.0]),
                 r"^x0 \[1e\+200, 0\.0\] is not in the domain$", id="lift-box"),
    pytest.param(lambda: eigen_along_fiber_loop(builtin("planar"), [0.5],
                                                [[-0.375, 0.5], [0.0, 1e308], [-0.375, 0.5]]),
                 r"^loop point 1 \[0\.0, 1e\+308\] is not in the domain$",
                 id="eigen-loop-box"),
    pytest.param(lambda: eigen_along_fiber_loop(builtin("planar"), [0.5],
                                                [[0.3, 0.0], [0.0, 1e308], [0.3, 0.0]]),
                 r"^loop point 0 is not an equilibrium: \|\|f\|\| = 8\.000e-01$",
                 id="eigen-loop-earlier-point-first"),
    pytest.param(lambda: eigen_along_fiber_loop(builtin("planar"), [0.5],
                                                [[-0.375, 0.5], [5e199, 1e100], [-0.375, 0.5]]),
                 r"^loop point 1 \[5e\+199, 1e\+100\] is not in the domain$",
                 id="eigen-loop-outside"),
])
def test_a_huge_finite_point_is_refused_without_an_overflow(call, message):
    # ||x||, ||f|| and the planar disk constraint would overflow here; pytest
    # turns numpy's overflow warning into an error
    with pytest.raises(InputError, match=message):
        call()


def test_a_box_near_the_float_range_has_its_diameter_without_an_overflow():
    # ||hi - lo|| would overflow unscaled; pytest turns numpy's overflow
    # warning into an error
    assert Domain(box=[[0.0, 1e308], [0.0, 1.0]]).diameter() == 1e308
    assert Domain(box=[[0.0, 1e308], [0.0, 1e308]]).diameter() == pytest.approx(
        math.sqrt(2.0) * 1e308, rel=1e-15
    )


def test_an_audit_at_a_huge_finite_point_takes_its_norm_without_an_overflow():
    # f vanishes there, but ||x|| would overflow unscaled
    report = audit_point(builtin("planar"), PointState([0.5], [0.5 * (1e200 - 1), 1e100]))
    assert report.is_equilibrium
    assert report.residual == 0.0


# a lambda outside the parameter box, for each command that takes one:
# (base, overrides, message).  The library entry points do not test it.
OUTSIDE_BOX = "outside parameter box$"
LAMBDA_CASES = [
    ("find", {"lambda": [7.5]}, rf"^lambda \[7\.5\] {OUTSIDE_BOX}"),
    ("trace-fiber", {"lambda": [-0.5]}, rf"^lambda \[-0\.5\] {OUTSIDE_BOX}"),
    ("transport", {"path": [[0.5], [3.0]]}, rf"^path waypoint 1 \[3\.0\] {OUTSIDE_BOX}"),
    ("holonomy", {"loop": [[0.5], [3.0], [0.5]]}, rf"^loop waypoint 1 \[3\.0\] {OUTSIDE_BOX}"),
    ("cocycle", {"lambda2": [1.5]}, rf"^lambda2 \[1\.5\] {OUTSIDE_BOX}"),
    ("cocycle", {"paths": [[[0.5], [3.0], [0.7]], [[0.7], [0.9]], [[0.5], [0.9]]]},
     rf"^paths\[0\] waypoint 1 \[3\.0\] {OUTSIDE_BOX}"),
    ("eigen-loop", {"lambda": [5.0]}, rf"^lambda \[5\.0\] {OUTSIDE_BOX}"),
]


@pytest.mark.parametrize(
    "base, overrides, message", LAMBDA_CASES,
    ids=[f"{base}-{next(iter(overrides))}" for base, overrides, _ in LAMBDA_CASES],
)
def test_a_command_takes_lambda_only_inside_the_parameter_box(
    tmp_path, capsys, base, overrides, message
):
    raw = raw_config(base, overrides)
    with pytest.raises(InputError, match=message):
        config_from_dict(raw)
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(raw))
    assert main([raw["command"], "--config", str(path)]) == 1
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    assert envelope["config"] == raw and envelope["tolerances_used"] is None
    assert envelope["error"]["type"] == "InputError"
    assert captured.err == f"error: {envelope['error']['message']}\n"


@pytest.mark.parametrize("tolerances", [{}, {"domain_slack": 1e-3}])
def test_a_command_tests_lambda_within_the_scaled_slack_of_its_run(tolerances):
    # the slack of evaluate's test at the run's tolerances; planar's
    # parameter box [0, 1] has diameter 1
    s = DEFAULT_TOLERANCES.replace(**tolerances).domain_slack * 2
    config_from_dict(raw_config("find", {"lambda": [1 + 0.5 * s], "tolerances": tolerances}))
    with pytest.raises(InputError, match=rf"^lambda \[.*\] {OUTSIDE_BOX}"):
        config_from_dict(raw_config("find", {"lambda": [1 + 2 * s], "tolerances": tolerances}))


def test_audit_takes_a_lambda_outside_the_parameter_box(tmp_path, capsys):
    # an audit diagnoses any point
    raw = {"system": PLANAR, "command": "audit", "lambda": [7.5], "x": X0}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(raw))
    assert main(["audit", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["lambda"] == [7.5]
