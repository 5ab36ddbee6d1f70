"""Run configuration: parsing, validation, and default materialization.

A run is described by one JSON object: the system (a named builtin or an
expression declaration), a command, the command's inputs, optional tolerance
overrides, and an output target.  Validation resolves every default, so the
echoed configuration in a report is self-contained and reproduces the run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    COUNT_LIMIT, InputError, closed_loop, cocycle_paths, finite_vector, known_keys, matrix_loop,
    non_negative_int, positive_float, positive_int, stack_count, unit_sign, waypoint_path,
)
from .finder import DEFAULT_BUDGET, DEFAULT_SEED, INITIAL_DIRECTION, MAX_FIBER_POINTS, fiber_steps
from .reports import CSV_RENDERERS
from .systems import SystemSpec, _admit_lambda, builtin
from .tolerances import DEFAULT_TOLERANCES, Tolerances
from .transport import MAX_FRACTION, MIN_FRACTION, lift_fractions

_TOP_LEVEL_KEYS = {"system", "command", "tolerances", "output"}
_COMMAND_KEYS = {
    "audit": {"lambda", "x"},
    "find": {"lambda", "level", "budget", "seed"},
    "trace-fiber": {
        "lambda", "x0", "initial_step", "max_step", "min_step",
        "max_points", "direction",
    },
    "transport": {
        "path", "x0", "initial_fraction", "max_fraction", "min_fraction",
    },
    "holonomy": {"loop", "level", "budget", "seed"},
    "cocycle": {"lambda1", "lambda2", "lambda3", "x0", "paths"},
    "eigen-loop": {"lambda", "loop_points", "max_refine"},
    "track-matrix-loop": {"matrices", "k", "tol_zero", "max_refine"},
}
COMMANDS = tuple(_COMMAND_KEYS)

__all__ = ["COMMANDS", "RunConfig", "config_from_dict", "load_config", "load_config_dict"]


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the command, the built system (absent only for
    matrix-loop runs given without one), the effective tolerances, and the
    fully materialized settings dict that reports echo back.  A matrix-loop
    run made by config_from_dict also keeps the checked (W, n, n) stack
    that its settings echo as nested lists; a RunConfig built any other
    way, dataclasses.replace included, has none, and run_config reads
    the stack from the settings."""

    command: str
    system: Optional[SystemSpec]
    tolerances: Tolerances
    settings: dict
    _matrices: Optional[np.ndarray] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )


def _require(data: dict, key: str, command: str):
    if key not in data:
        raise InputError(f"command {command!r} requires the field {key!r}")
    return data[key]


def _optional(data: dict, key: str, default):
    """The value of an optional field; null means the same as absent."""
    value = data.get(key)
    return default if value is None else value


def _parameter(value, system: SystemSpec, tols: Tolerances, what: str) -> list:
    """A lambda of the command: a finite vector of length m in the
    parameter box, as _admit_lambda admits it."""
    lam = finite_vector(value, system.m, what, "m")
    _admit_lambda(system, lam, tols, what)
    return lam.tolist()


def _parameter_path(value, system: SystemSpec, tols: Tolerances, what: str) -> list:
    """A waypoint_path of lambdas, each waypoint admitted as _parameter
    admits a lambda and named as waypoint_path names it."""
    path = waypoint_path(value, system.m, what, "m")
    for i, lam in enumerate(path):
        _admit_lambda(system, lam, tols, f"{what} waypoint {i}")
    return path.tolist()


def _build_system(spec, command: str) -> tuple:
    """The system of a config's 'system' entry and the entry's echo: (None,
    None) without one, which only track-matrix-loop may omit.  A builtin
    echoes its name and n; a declaration echoes itself with its name,
    parameter box and identity-check defaults filled in."""
    if spec is None:
        if command != "track-matrix-loop":
            raise InputError(f"command {command!r} requires a 'system' entry")
        return None, None
    if not isinstance(spec, dict):
        raise InputError("'system' must be an object")
    if ("builtin" in spec) == ("declaration" in spec):
        raise InputError(
            "'system' must contain exactly one of 'builtin' or 'declaration'"
        )
    if "builtin" in spec:
        # a dict not read from JSON may have other keys than strings
        params = {str(key): value for key, value in spec.items() if key != "builtin"}
        system = builtin(str(spec["builtin"]), **params)
        echo = {"builtin": str(spec["builtin"])}
        if "n" in spec:
            echo["n"] = int(spec["n"])
        return system, echo
    known_keys(spec, {"declaration"}, "system keys")
    # the expression language serves declarations only
    from .expr import IDENTITY_DEFAULTS, build_system_from_config

    system = build_system_from_config(spec["declaration"])
    decl = dict(spec["declaration"])
    decl.setdefault("name", system.name)
    decl.setdefault("parameter_box", [[float(a), float(b)] for a, b in system.parameter_box])
    for key, value in IDENTITY_DEFAULTS.items():
        decl.setdefault(key, value)
    return system, {"declaration": decl}


def _materialize_tolerances(overrides) -> tuple[Tolerances, dict]:
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise InputError("'tolerances' must be an object")
    tols = DEFAULT_TOLERANCES.replace(**{str(key): value for key, value in overrides.items()})
    return tols, tols.as_dict()


def _materialize_output(value, command: str) -> dict:
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise InputError("'output' must be an object")
    known_keys(value, {"path", "format"}, "output keys")
    path = value.get("path")
    if path is not None and not isinstance(path, str):
        raise InputError("output path must be a string")
    fmt = value.get("format", "json")
    if fmt not in ("json", "csv", "both"):
        raise InputError(f"unknown output format {fmt!r} (json, csv, or both)")
    if fmt in ("csv", "both") and command not in CSV_RENDERERS:
        raise InputError(f"csv output is only available for {' and '.join(CSV_RENDERERS)}")
    if fmt == "both" and path is None:
        raise InputError("output format 'both' requires an output path")
    return {"path": path, "format": fmt}


def _materialize_command_fields(
    data: dict, command: str, system: Optional[SystemSpec], tols: Tolerances
) -> dict:
    fields: dict = {}
    if command == "track-matrix-loop":
        from .monodromy import MAX_REFINE

        default_k = system.k if system is not None else 0
        matrices, fields["k"] = matrix_loop(
            _require(data, "matrices", command), _optional(data, "k", default_k)
        )
        size = matrices.shape[1]
        if system is not None and size != system.n:
            raise InputError(
                f"dimension mismatch: matrices are {size} x {size}, "
                f"the system has n = {system.n}"
            )
        fields["matrices"] = matrices
        tol_zero = data.get("tol_zero")
        fields["tol_zero"] = None if tol_zero is None else positive_float(tol_zero, "tol_zero")
        fields["max_refine"] = non_negative_int(
            _optional(data, "max_refine", MAX_REFINE), "max_refine"
        )
        return fields

    assert system is not None
    n, m, k = system.n, system.m, system.k
    if command == "audit":
        fields["lambda"] = finite_vector(
            _require(data, "lambda", command), m, "lambda", "m"
        ).tolist()
        fields["x"] = finite_vector(_require(data, "x", command), n, "x", "n").tolist()
    elif command == "find":
        fields["lambda"] = _parameter(_require(data, "lambda", command), system, tols, "lambda")
        fields["level"] = finite_vector(_require(data, "level", command), k, "level", "k").tolist()
        fields["budget"] = stack_count(_optional(data, "budget", DEFAULT_BUDGET), "budget", n)
        fields["seed"] = non_negative_int(_optional(data, "seed", DEFAULT_SEED), "seed")
    elif command == "trace-fiber":
        fields["lambda"] = _parameter(_require(data, "lambda", command), system, tols, "lambda")
        fields["x0"] = finite_vector(_require(data, "x0", command), n, "x0", "n").tolist()
        fields["min_step"], fields["initial_step"], fields["max_step"] = fiber_steps(
            system, data.get("min_step"), data.get("initial_step"), data.get("max_step")
        )
        fields["max_points"] = positive_int(
            _optional(data, "max_points", MAX_FIBER_POINTS), "max_points", COUNT_LIMIT
        )
        fields["direction"] = unit_sign(
            _optional(data, "direction", INITIAL_DIRECTION), "direction"
        )
    elif command == "transport":
        fields["path"] = _parameter_path(_require(data, "path", command), system, tols, "path")
        fields["x0"] = finite_vector(_require(data, "x0", command), n, "x0", "n").tolist()
        fields["min_fraction"], fields["initial_fraction"], fields["max_fraction"] = (
            lift_fractions(
                _optional(data, "min_fraction", MIN_FRACTION),
                _optional(data, "initial_fraction", None),
                _optional(data, "max_fraction", MAX_FRACTION),
            )
        )
    elif command == "holonomy":
        loop = _parameter_path(_require(data, "loop", command), system, tols, "loop")
        closed_loop(loop, "waypoints")
        fields["loop"] = loop
        fields["level"] = finite_vector(_require(data, "level", command), k, "level", "k").tolist()
        fields["budget"] = stack_count(_optional(data, "budget", DEFAULT_BUDGET), "budget", n)
        fields["seed"] = non_negative_int(_optional(data, "seed", DEFAULT_SEED), "seed")
    elif command == "cocycle":
        for key in ("lambda1", "lambda2", "lambda3"):
            fields[key] = _parameter(_require(data, key, command), system, tols, key)
        fields["x0"] = finite_vector(_require(data, "x0", command), n, "x0", "n").tolist()
        paths = data.get("paths")
        if paths is None:
            fields["paths"] = None
        else:
            fields["paths"] = [
                _parameter_path(p, system, tols, f"paths[{i}]")
                for i, p in enumerate(cocycle_paths(paths))
            ]
    elif command == "eigen-loop":
        from .monodromy import MAX_REFINE

        fields["lambda"] = _parameter(_require(data, "lambda", command), system, tols, "lambda")
        points = waypoint_path(
            _require(data, "loop_points", command), n, "loop_points", "n"
        ).tolist()
        closed_loop(points, "loop points")
        fields["loop_points"] = points
        fields["max_refine"] = non_negative_int(
            _optional(data, "max_refine", MAX_REFINE), "max_refine"
        )
    return fields


def config_from_dict(data) -> RunConfig:
    """Validate a raw configuration object and materialize every default."""
    if not isinstance(data, dict):
        raise InputError("configuration must be a JSON object")
    command = data.get("command")
    if command is None:
        raise InputError("configuration needs a 'command' field")
    if command not in COMMANDS:
        raise InputError(
            f"unknown command {command!r} (expected one of {', '.join(COMMANDS)})"
        )
    allowed = _TOP_LEVEL_KEYS | _COMMAND_KEYS[command]
    known_keys(data, allowed, f"configuration keys for {command!r}")

    system, system_echo = _build_system(data.get("system"), command)
    tolerances, tol_echo = _materialize_tolerances(data.get("tolerances"))
    output = _materialize_output(data.get("output"), command)
    fields = _materialize_command_fields(data, command, system, tolerances)
    matrices = fields.get("matrices")
    if matrices is not None:
        fields["matrices"] = matrices.tolist()

    settings = {"command": command}
    if system_echo is not None:
        settings["system"] = system_echo
    settings.update(fields)
    settings["tolerances"] = tol_echo
    settings["output"] = output
    config = RunConfig(
        command=command, system=system, tolerances=tolerances, settings=settings
    )
    object.__setattr__(config, "_matrices", matrices)
    return config


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration from a file."""
    return config_from_dict(load_config_dict(path))


def load_config_dict(path: str) -> dict:
    """Read a configuration file into a raw dict, with parse locations in
    error messages; validation happens in config_from_dict."""
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise InputError("configuration must be a JSON object")
    return data
