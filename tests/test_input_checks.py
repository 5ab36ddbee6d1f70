"""One table of malformed inputs, each given to the config, to the CLI and to
the library entry point that takes the same value.

Every rule has one implementation in eqbundle.errors, so each case must
raise InputError with the same message (up to the input's name) on every
path, and the CLI must exit 1 with an `error:` line and an error envelope.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from eqbundle import builtin, config, errors, monodromy
from eqbundle.cli import main
from eqbundle.config import config_from_dict
from eqbundle.errors import InputError
from eqbundle.finder import trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop, track_matrix_loop
from eqbundle.transport import check_cocycle, holonomy_loop, lift_curve

NAN, INF = float("nan"), float("inf")
PLANAR = {"builtin": "planar"}
X0 = [-0.5, 0.0]
XEQ = [math.sqrt(8.0 / 15.0), math.sqrt(14.0 / 15.0), math.sqrt(8.0 / 15.0)]
I2, I3 = [[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# a valid config of each command; a case overrides some of its fields
BASE = {
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
    ("trace-fiber", {"max_points": None}, f"max_points {INTEGER}"),
    ("trace-fiber", {"max_points": 0}, "max_points must be positive"),
    ("trace-fiber", {"direction": "a"}, f"direction {INTEGER}"),
    ("trace-fiber", {"direction": 2}, "direction must be 1 or -1"),
    ("eigen-loop", {"max_refine": 2.5}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": "3"}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": 2.5}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": True}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": None}, f"max_refine {INTEGER}"),
    ("track-matrix-loop", {"max_refine": -1}, "max_refine must be non-negative"),
    ("track-matrix-loop", {"k": 1.5}, f"k {INTEGER}"),
    ("track-matrix-loop", {"k": 3}, "k = 3 is out of range for 2 x 2 matrices"),
    # cocycle's three paths
    ("cocycle", {"paths": 5}, PATHS),
    ("cocycle", {"paths": "abc"}, PATHS),
    ("cocycle", {"paths": [[[0.5], [0.7]], [[0.7], [0.9]]]}, PATHS),
]


def raw_config(base: str, overrides: dict) -> dict:
    command = "transport" if base == "transport3" else base
    return dict(BASE[base], command=command, **overrides)


def call_library(raw: dict):
    """The library entry point of raw's command on raw's values, unchecked."""
    command = raw["command"]
    if command == "track-matrix-loop":
        return track_matrix_loop(
            raw["matrices"], k=raw["k"], max_refine=raw.get("max_refine", 8)
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
            sys, raw["lambda"], raw["x0"], initial_direction=raw.get("direction", 1), **given
        )
    if command == "transport":
        given = {
            key: raw[key]
            for key in ("initial_fraction", "max_fraction", "min_fraction")
            if key in raw
        }
        return lift_curve(sys, raw["path"], raw["x0"], **given)
    if command == "holonomy":
        return holonomy_loop(sys, raw["loop"], raw["level"], budget=20)
    if command == "cocycle":
        return check_cocycle(
            sys, raw["lambda1"], raw["lambda2"], raw["lambda3"], raw["x0"],
            paths=raw.get("paths"),
        )
    assert command == "eigen-loop"
    return eigen_along_fiber_loop(
        sys, raw["lambda"], raw["loop_points"], max_refine=raw.get("max_refine", 8)
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
