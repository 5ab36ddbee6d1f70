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

from .errors import InputError, non_negative_int, positive_float, positive_int
from .expr import IDENTITY_DEFAULTS, build_system_from_config
from .systems import SystemSpec, builtin
from .tolerances import DEFAULT_TOLERANCES, Tolerances

COMMANDS = (
    "audit",
    "find",
    "trace-fiber",
    "transport",
    "holonomy",
    "cocycle",
    "eigen-loop",
    "track-matrix-loop",
)

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

__all__ = ["COMMANDS", "RunConfig", "config_from_dict", "load_config", "load_config_dict"]


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the command, the built system (absent only for
    matrix-loop runs given without one), the effective tolerances, and the
    fully materialized settings dict that reports echo back."""

    command: str
    system: Optional[SystemSpec]
    tolerances: Tolerances
    settings: dict


def _require(data: dict, key: str, command: str):
    if key not in data:
        raise InputError(f"command {command!r} requires the field {key!r}")
    return data[key]


def _vector(value, length: int, what: str, dim_name: str) -> list:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1 or arr.size != length:
        raise InputError(
            f"dimension mismatch: {what} has shape {arr.shape}, "
            f"expected a vector of length {dim_name} = {length}"
        )
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return [float(v) for v in arr]


def _waypoints(value, m: int, what: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise InputError(f"{what} needs at least two waypoints")
    return [_vector(row, m, f"{what} waypoint {i}", "m") for i, row in enumerate(value)]


def _closed(points: list, what: str) -> None:
    first = np.asarray(points[0])
    gap = float(np.linalg.norm(first - np.asarray(points[-1])))
    if gap > 1e-9 * (1.0 + float(np.linalg.norm(first))):
        raise InputError(
            f"loop must close: first and last {what} differ by {gap:.3e}"
        )


def _build_system(spec, command: str) -> Optional[SystemSpec]:
    if spec is None:
        if command != "track-matrix-loop":
            raise InputError(f"command {command!r} requires a 'system' entry")
        return None
    if not isinstance(spec, dict):
        raise InputError("'system' must be an object")
    if ("builtin" in spec) == ("declaration" in spec):
        raise InputError(
            "'system' must contain exactly one of 'builtin' or 'declaration'"
        )
    if "builtin" in spec:
        params = {key: value for key, value in spec.items() if key != "builtin"}
        for key, value in params.items():
            if key != "n":
                raise InputError(f"unknown builtin parameter {key!r}")
            params[key] = positive_int(value, "system.n")
        return builtin(str(spec["builtin"]), **params)
    extra = set(spec) - {"declaration"}
    if extra:
        raise InputError(f"unknown system keys: {sorted(extra)}")
    return build_system_from_config(spec["declaration"])


def _echo_system(spec, system: Optional[SystemSpec]) -> Optional[dict]:
    if spec is None:
        return None
    if "builtin" in spec:
        echo = {"builtin": str(spec["builtin"])}
        if "n" in spec:
            echo["n"] = int(spec["n"])
        return echo
    decl = dict(spec["declaration"])
    assert system is not None
    decl.setdefault("name", system.name)
    decl.setdefault("parameter_box", [[float(a), float(b)] for a, b in system.parameter_box])
    for key, value in IDENTITY_DEFAULTS.items():
        decl.setdefault(key, value)
    return {"declaration": decl}


def _materialize_tolerances(overrides) -> tuple[Tolerances, dict]:
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise InputError("'tolerances' must be an object")
    valid = {field.name for field in dataclasses.fields(Tolerances)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise InputError(f"unknown tolerance names: {unknown}")
    cleaned = {}
    for key, value in overrides.items():
        if value is None:
            cleaned[key] = None
        else:
            try:
                cleaned[key] = float(value)
            except (TypeError, ValueError):
                raise InputError(f"tolerance {key!r} must be a number") from None
    tols = DEFAULT_TOLERANCES.replace(**cleaned)
    return tols, tols.as_dict()


def _materialize_output(value, command: str) -> dict:
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise InputError("'output' must be an object")
    unknown = sorted(set(value) - {"path", "format"})
    if unknown:
        raise InputError(f"unknown output keys: {unknown}")
    path = value.get("path")
    if path is not None and not isinstance(path, str):
        raise InputError("output path must be a string")
    fmt = value.get("format", "json")
    if fmt not in ("json", "csv", "both"):
        raise InputError(f"unknown output format {fmt!r} (json, csv, or both)")
    if fmt in ("csv", "both") and command not in ("trace-fiber", "transport"):
        raise InputError(
            "csv output is only available for trace-fiber and transport"
        )
    if fmt == "both" and path is None:
        raise InputError("output format 'both' requires an output path")
    return {"path": path, "format": fmt}


def _materialize_command_fields(data: dict, command: str, system: Optional[SystemSpec]) -> dict:
    fields: dict = {}
    if command == "track-matrix-loop":
        raw = _require(data, "matrices", command)
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            raise InputError("'matrices' needs at least two entries")
        matrices = []
        size = None
        for i, entry in enumerate(raw):
            mat = np.asarray(entry, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise InputError(f"matrix {i} is not square")
            if size is None:
                size = mat.shape[0]
            elif mat.shape[0] != size:
                raise InputError("all matrices must share one shape")
            if not np.all(np.isfinite(mat)):
                raise InputError(f"matrix {i} has non-finite entries")
            matrices.append([[float(v) for v in row] for row in mat])
        if system is not None and size != system.n:
            raise InputError(
                f"dimension mismatch: matrices are {size} x {size}, "
                f"the system has n = {system.n}"
            )
        default_k = system.k if system is not None else 0
        k = data.get("k", default_k)
        k = non_negative_int(k, "k")
        if k > size:
            raise InputError(f"k = {k} is out of range for {size} x {size} matrices")
        fields["matrices"] = matrices
        fields["k"] = k
        tol_zero = data.get("tol_zero")
        fields["tol_zero"] = None if tol_zero is None else positive_float(tol_zero, "tol_zero")
        fields["max_refine"] = non_negative_int(data.get("max_refine", 8), "max_refine")
        return fields

    assert system is not None
    n, m, k = system.n, system.m, system.k
    if command == "audit":
        fields["lambda"] = _vector(_require(data, "lambda", command), m, "lambda", "m")
        fields["x"] = _vector(_require(data, "x", command), n, "x", "n")
    elif command == "find":
        fields["lambda"] = _vector(_require(data, "lambda", command), m, "lambda", "m")
        fields["level"] = _vector(_require(data, "level", command), k, "level", "k")
        fields["budget"] = positive_int(data.get("budget", 200), "budget")
        fields["seed"] = non_negative_int(data.get("seed", 0), "seed")
    elif command == "trace-fiber":
        fields["lambda"] = _vector(_require(data, "lambda", command), m, "lambda", "m")
        fields["x0"] = _vector(_require(data, "x0", command), n, "x0", "n")
        diameter = system.domain.diameter()
        fields["initial_step"] = positive_float(
            data.get("initial_step", 0.01 * diameter), "initial_step"
        )
        fields["max_step"] = positive_float(
            data.get("max_step", 0.05 * diameter), "max_step"
        )
        fields["min_step"] = positive_float(
            data.get("min_step", 1e-12 * diameter), "min_step"
        )
        fields["max_points"] = positive_int(data.get("max_points", 20000), "max_points")
        direction = data.get("direction", 1)
        if direction not in (1, -1):
            raise InputError("direction must be 1 or -1")
        fields["direction"] = int(direction)
    elif command == "transport":
        fields["path"] = _waypoints(_require(data, "path", command), m, "path")
        fields["x0"] = _vector(_require(data, "x0", command), n, "x0", "n")
        fields["initial_fraction"] = positive_float(
            data.get("initial_fraction", 0.05), "initial_fraction"
        )
        fields["max_fraction"] = positive_float(
            data.get("max_fraction", 0.25), "max_fraction"
        )
        fields["min_fraction"] = positive_float(
            data.get("min_fraction", 1e-10), "min_fraction"
        )
    elif command == "holonomy":
        loop = _waypoints(_require(data, "loop", command), m, "loop")
        _closed(loop, "waypoints")
        fields["loop"] = loop
        fields["level"] = _vector(_require(data, "level", command), k, "level", "k")
        fields["budget"] = positive_int(data.get("budget", 200), "budget")
        fields["seed"] = non_negative_int(data.get("seed", 0), "seed")
    elif command == "cocycle":
        for key in ("lambda1", "lambda2", "lambda3"):
            fields[key] = _vector(_require(data, key, command), m, key, "m")
        fields["x0"] = _vector(_require(data, "x0", command), n, "x0", "n")
        paths = data.get("paths")
        if paths is None:
            fields["paths"] = None
        else:
            if not isinstance(paths, (list, tuple)) or len(paths) != 3:
                raise InputError("'paths' must hold exactly three parameter paths")
            fields["paths"] = [_waypoints(p, m, f"paths[{i}]") for i, p in enumerate(paths)]
    elif command == "eigen-loop":
        fields["lambda"] = _vector(_require(data, "lambda", command), m, "lambda", "m")
        raw = _require(data, "loop_points", command)
        if not isinstance(raw, (list, tuple)) or len(raw) < 2:
            raise InputError("'loop_points' needs at least two points")
        points = [
            _vector(row, n, f"loop point {i}", "n") for i, row in enumerate(raw)
        ]
        _closed(points, "loop points")
        fields["loop_points"] = points
        fields["max_refine"] = non_negative_int(data.get("max_refine", 8), "max_refine")
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
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown configuration keys for {command!r}: {unknown}")

    system = _build_system(data.get("system"), command)
    tolerances, tol_echo = _materialize_tolerances(data.get("tolerances"))
    output = _materialize_output(data.get("output"), command)
    fields = _materialize_command_fields(data, command, system)

    settings = {"command": command}
    echoed_system = _echo_system(data.get("system"), system)
    if echoed_system is not None:
        settings["system"] = echoed_system
    settings.update(fields)
    settings["tolerances"] = tol_echo
    settings["output"] = output
    return RunConfig(
        command=command, system=system, tolerances=tolerances, settings=settings
    )


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
