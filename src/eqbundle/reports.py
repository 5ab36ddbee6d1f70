"""Report envelopes, canonical JSON, CSV rendering, and atomic file output.

Every run writes one envelope: schema version, the fully materialized
configuration that produced the result, the tolerances in effect, and either
the result payload or a structured error.  JSON is canonical (sorted keys,
fixed indentation, no NaN/Inf) so identical runs are byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .finder import FiberTrace
from .tolerances import Tolerances
from .transport import TransportResult

SCHEMA_VERSION = 1

__all__ = [
    "CSV_RENDERERS",
    "SCHEMA_VERSION",
    "build_envelope",
    "canonical_json",
    "fiber_trace_csv",
    "transport_csv",
    "write_text_atomic",
]


def canonical_json(payload: dict) -> str:
    """Serialize to deterministic JSON: sorted keys, 2-space indent,
    trailing newline, non-finite numbers rejected.

    The text is byte for byte json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) + "\\n".  Dicts with str keys, lists, tuples and JSON
    scalars are walked here with the stdlib's own scalar encoders; anything
    else (a NaN or inf, a key that is not a str, a type JSON lacks, a
    cycle) is left to json.dumps, which raises its ValueError or TypeError.
    """
    try:
        return _encode(payload, "\n") + "\n"
    except (_Unwalked, TypeError, RecursionError):
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Unwalked(Exception):
    """A value that canonical_json leaves to json.dumps."""


def _encode(value, newline: str) -> str:
    """The JSON text of value nested at the indent that newline ends in,
    with the type tests of the stdlib encoder in its order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        if "n" in text:             # nan, inf or -inf
            raise _Unwalked
        return text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        body = None
        if isinstance(value[0], float):
            # a list of floats in one join, the rest item by item
            try:
                body = ("," + inner).join(map(float.__repr__, value))
            except TypeError:
                pass
            else:
                if "n" in body:
                    raise _Unwalked
        if body is None:
            body = ("," + inner).join([_encode(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        # TypeError from encode_basestring_ascii at a key that is not a str
        body = ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _encode(item, inner)
            for key, item in sorted(value.items())
        ])
        return "{" + inner + body + newline + "}"
    raise _Unwalked


def build_envelope(
    command: str,
    config: Optional[dict],
    tolerances: Optional[Tolerances],
    result: Optional[dict] = None,
    error: Optional[dict] = None,
) -> dict:
    """The envelope of a run; config and tolerances are None only in the
    error envelope of a rejected config."""
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "tolerances_used": None if tolerances is None else tolerances.as_dict(),
    }
    if error is not None:
        envelope["error"] = error
    else:
        envelope["result"] = result
    return envelope


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the destination directory plus rename, so a
    crash never leaves a half-written report.  The report gets the mode
    open(path, "w") gives: an existing file's, else 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eqbundle-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _g17(value: float) -> str:
    return format(float(value), ".17g")


def fiber_trace_csv(trace: FiberTrace) -> str:
    """One row per traced point, columns x1..xn; metadata as '#' comments."""
    n = trace.points.shape[1]
    lines = [
        f"# fiber trace at lambda = [{', '.join(_g17(v) for v in trace.lam)}]",
        f"# topology = {trace.topology}",
        f"# arclength = {_g17(trace.arclength)}",
        f"# max_f_residual = {_g17(trace.max_f_residual)}",
    ]
    if trace.endpoint_boundary_distances is not None:
        joined = ", ".join(_g17(v) for v in trace.endpoint_boundary_distances)
        lines.append(f"# endpoint_boundary_distances = [{joined}]")
    lines.append(",".join(f"x{i + 1}" for i in range(n)))
    for row in trace.points:
        lines.append(",".join(_g17(v) for v in row))
    return "\n".join(lines) + "\n"


def transport_csv(result: TransportResult) -> str:
    """One row per accepted step: t, the parameter values, then the lifted
    point; metadata as '#' comments."""
    m = result.lambda_path.shape[1]
    n = result.gamma.shape[1]
    lines = [
        f"# parameter path lift, {result.steps_taken} steps",
        f"# max_f_residual = {_g17(result.max_f_residual)}",
        f"# max_h_drift = {_g17(result.max_h_drift)}",
        ",".join(
            ["t"]
            + [f"l{j + 1}" for j in range(m)]
            + [f"x{i + 1}" for i in range(n)]
        ),
    ]
    for t, lam, x in zip(result.t, result.lambda_path, result.gamma):
        values = np.concatenate([[t], lam, x])
        lines.append(",".join(_g17(v) for v in values))
    return "\n".join(lines) + "\n"


# the commands that write CSV, each with its renderer of run_config's artifact
CSV_RENDERERS = {"trace-fiber": fiber_trace_csv, "transport": transport_csv}
