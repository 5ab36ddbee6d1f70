"""Command-line front end.

Usage: eqbundle <command> --config <path> [--output <path>] [--seed <int>]
[--tol-<name> <value>]

All eight commands take the same flags, which `eqbundle --help` lists.
The config file is a JSON object holding the system, the command, and its
inputs; flags override the matching config scalars (flag > config >
default).  A flag's text is read as the config value it spells and checked
as one.  The report envelope, a result or an error, goes to the output
path when one is set (<path>.json for the format "both"), otherwise to
stdout, as does the error envelope of a csv run.  Exit codes: 0 success,
1 invalid input, 2 a degeneracy or numerical failure detected by the
computation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import Optional

import numpy as np

from .audit import audit_point
from .config import (
    COMMANDS, RunConfig, _materialize_output, config_from_dict, load_config_dict,
)
from .errors import EqBundleError, InputError
from .finder import enumerate_level_points, trace_fiber
from .reports import CSV_RENDERERS, build_envelope, canonical_json, write_text_atomic
from .systems import PointState
from .tolerances import Tolerances
from .transport import check_cocycle, holonomy_loop, lift_curve

__all__ = ["main", "run_config"]


# each tolerance's name and its flag, --tol-<name> with dashes for underscores
_TOLERANCE_FLAGS = {
    field.name: f"--tol-{field.name.replace('_', '-')}" for field in dataclasses.fields(Tolerances)
}
# the flags whose value may start with one "-" (_joined_flag_values)
_VALUE_FLAGS = frozenset({"--seed", *_TOLERANCE_FLAGS.values()})


def _build_parser() -> argparse.ArgumentParser:
    # one parser for every command; a flag's value stays text, and flags
    # are spelled in full: --tol-newt is no flag, and gets no value
    parser = argparse.ArgumentParser(
        prog="eqbundle",
        description="equilibrium bundles: audits, fibers, transport, monodromy",
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=COMMANDS, help="the command to run")
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--output", help="override the output path")
    parser.add_argument("--seed", help="override the seed")
    for name, flag in _TOLERANCE_FLAGS.items():
        parser.add_argument(flag, help=f"override tolerance {name!r}")
    return parser


def _joined_flag_values(argv: list) -> list:
    """argv with --seed or --tol-<name> and a next argument that starts with
    one "-" joined as --flag=value: argparse reads -1e-3 or -inf after a
    flag as an option, and after "=" as the flag's value."""
    joined: list = []
    for arg in argv:
        if joined and joined[-1] in _VALUE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _flag_value(text: str):
    """The config value a flag's text spells: an int, else a float, else
    null for the word null, else the text itself.  config_from_dict then
    checks it as it checks the same value in the file."""
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return None if text == "null" else text


def _apply_flag_overrides(raw: dict, args: argparse.Namespace) -> None:
    """Merge the flags, read by _flag_value, into the config's blocks.  A
    block that is present and neither null nor an object is left for
    config_from_dict to reject."""

    def merge(block: str, values: dict) -> None:
        current = raw.get(block)
        if values and (current is None or isinstance(current, dict)):
            raw[block] = {**(current or {}), **values}

    if args.seed is not None:
        raw["seed"] = _flag_value(args.seed)
    merge("output", {} if args.output is None else {"path": args.output})
    flags = {name: getattr(args, f"tol_{name}") for name in _TOLERANCE_FLAGS}
    merge("tolerances", {name: _flag_value(v) for name, v in flags.items() if v is not None})


def run_config(config: RunConfig):
    """Execute a validated run.  Returns (result payload, raw artifact);
    the artifact backs CSV rendering for trace-fiber and transport."""
    fields = config.settings
    sys_spec = config.system
    tols = config.tolerances
    command = config.command
    if command == "audit":
        report = audit_point(
            sys_spec, PointState(fields["lambda"], fields["x"]), tols=tols
        )
        return report.as_dict(), None
    if command == "find":
        points = enumerate_level_points(
            sys_spec,
            fields["lambda"],
            fields["level"],
            budget=fields["budget"],
            seed=fields["seed"],
            tols=tols,
        )
        return {"count": len(points), "points": [p.as_dict() for p in points]}, None
    if command == "trace-fiber":
        trace = trace_fiber(
            sys_spec,
            fields["lambda"],
            fields["x0"],
            tols=tols,
            initial_step=fields["initial_step"],
            max_step=fields["max_step"],
            min_step=fields["min_step"],
            max_points=fields["max_points"],
            initial_direction=fields["direction"],
        )
        return trace.as_dict(), trace
    if command == "transport":
        result = lift_curve(
            sys_spec,
            fields["path"],
            fields["x0"],
            tols=tols,
            initial_fraction=fields["initial_fraction"],
            max_fraction=fields["max_fraction"],
            min_fraction=fields["min_fraction"],
        )
        return result.as_dict(), result
    if command == "holonomy":
        report = holonomy_loop(
            sys_spec,
            fields["loop"],
            fields["level"],
            budget=fields["budget"],
            seed=fields["seed"],
            tols=tols,
        )
        return report.as_dict(), None
    if command == "cocycle":
        paths = fields["paths"]
        deviation = check_cocycle(
            sys_spec,
            fields["lambda1"],
            fields["lambda2"],
            fields["lambda3"],
            fields["x0"],
            paths=None if paths is None else [np.asarray(p) for p in paths],
            tols=tols,
        )
        return {"deviation": deviation}, None
    # the loop commands alone need monodromy: it is imported for them only
    if command == "eigen-loop":
        from .monodromy import eigen_along_fiber_loop

        report = eigen_along_fiber_loop(
            sys_spec,
            fields["lambda"],
            fields["loop_points"],
            tols=tols,
            max_refine=fields["max_refine"],
        )
        return report.as_dict(), None
    if command == "track-matrix-loop":
        from .monodromy import track_matrix_loop

        matrices = config._matrices
        if matrices is None:
            matrices = np.asarray(fields["matrices"])
        report = track_matrix_loop(
            matrices,
            k=fields["k"],
            tol_zero=fields["tol_zero"],
            tols=tols,
            max_refine=fields["max_refine"],
        )
        return report.as_dict(), None
    raise InputError(f"unknown command {command!r}")


def _write(output: dict, kind: str, text: str) -> None:
    """Text of a kind, "json" or "csv", to <path>.<kind> for the format
    both, to the path for the format kind, and otherwise to stdout: without
    a path, and for the envelope of a csv run."""
    path, fmt = output["path"], output["format"]
    if path is None or fmt not in (kind, "both"):
        sys.stdout.write(text)
    else:
        write_text_atomic(f"{path}.{kind}" if fmt == "both" else path, text)


def _emit(config: RunConfig, result: dict, artifact) -> None:
    output = config.settings["output"]
    if output["format"] != "csv":
        envelope = build_envelope(
            config.command, config.settings, config.tolerances, result=result
        )
        _write(output, "json", canonical_json(envelope))
    if output["format"] != "json":
        _write(output, "csv", CSV_RENDERERS[config.command](artifact))


def _error_payload(exc: EqBundleError) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    report = getattr(exc, "report", None)
    if report is not None:
        payload["report"] = report.as_dict()
    location = getattr(exc, "location", None)
    if location is not None:
        payload["location"] = {
            "lambda": np.asarray(location.lam).tolist(),
            "x": np.asarray(location.x).tolist(),
        }
    segment = getattr(exc, "segment", None)
    if segment is not None:
        payload["segment"] = list(segment)
    t = getattr(exc, "t", None)
    if t is not None:
        payload["t"] = float(t)
    return payload


def _emit_error(
    config: Optional[RunConfig], raw: Optional[dict], args: argparse.Namespace, exc: EqBundleError
) -> None:
    """The error envelope of a run.  Without a validated config it echoes
    the raw config (null if unread or not valid JSON) and null tolerances,
    and goes where the raw output block says, else to the --output path,
    else to stdout.  For the format both it removes an existing
    <path>.csv, which an earlier run left."""
    command = args.command
    sys.stderr.write(f"error: {exc}\n")
    if config is not None:
        envelope = build_envelope(
            command, config.settings, config.tolerances, error=_error_payload(exc)
        )
        output = config.settings["output"]
    else:
        envelope = build_envelope(command, raw, None, error=_error_payload(exc))
        try:
            canonical_json(envelope)
        except ValueError:          # a NaN or infinite value in the raw config
            envelope["config"] = None
        output = {"path": args.output, "format": "json"}
        if raw is not None:
            try:
                output = _materialize_output(raw.get("output"), command)
            except InputError:
                pass
    _write(output, "json", canonical_json(envelope))
    if output["format"] == "both" and output["path"] is not None:
        # <path>.json and <path>.csv describe one run: drop an earlier run's CSV
        with contextlib.suppress(FileNotFoundError):
            os.remove(output["path"] + ".csv")


def main(argv=None) -> int:
    args = _build_parser().parse_args(
        _joined_flag_values(sys.argv[1:] if argv is None else argv)
    )
    config: Optional[RunConfig] = None
    raw = None
    try:
        raw = load_config_dict(args.config)
        _apply_flag_overrides(raw, args)
        if raw.get("command") not in (None, args.command):
            raise InputError(
                f"config command {raw.get('command')!r} does not match "
                f"the invoked subcommand {args.command!r}"
            )
        config = config_from_dict(raw)
        result, artifact = run_config(config)
        _emit(config, result, artifact)
        return 0
    except EqBundleError as exc:
        _emit_error(config, raw, args, exc)
        return 1 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    sys.exit(main())
