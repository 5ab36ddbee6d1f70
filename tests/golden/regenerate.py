"""Golden envelopes: one CLI run per file, compared by tests/test_golden.py.

Each entry of CONFIGS is a raw config; its golden file <name>.json holds
the envelope that `eqbundle <command> --config <file>` prints for it.
Rewriting a golden file is a deliberate output change, to be logged in
CHANGES.md with the fields that moved.

Usage: PYTHONPATH=src python tests/golden/regenerate.py [name ...]
(every entry when no name is given).

    PYTHONPATH=src python tests/golden/regenerate.py --config name file [format]

writes the config CONFIGS[name] to file instead, with the output format
given, for a run of the installed `eqbundle` on it, and

    PYTHONPATH=src python tests/golden/regenerate.py --list

prints one line per entry, its name and its command, and

    PYTHONPATH=src python tests/golden/regenerate.py --check [name ...]

runs each named entry (every entry when no name is given) and prints
"<name> same" when its envelope has the golden file's bytes, or "<name>
differs"; it writes nothing and exits 0.  Run at two revisions, it shows
whether a change keeps the goldens' bytes.  Under a "differs" line, one
indented line per moved field (moved_fields) names the field, how many of
its leaves moved, and the leaves with the largest absolute and relative
moves: the moved-field list of a deliberate output change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

from eqbundle.cli import main

GOLDEN = os.path.dirname(os.path.abspath(__file__))


def _ring(n: int) -> dict:
    """The rfmr(n) ring declared as expressions."""
    f = [
        f"l{(i - 1) % n + 1}*x{(i - 1) % n + 1}*(1-x{i + 1})"
        f" - l{i + 1}*x{i + 1}*(1-x{(i + 1) % n + 1})"
        for i in range(n)
    ]
    return {"declaration": {
        "n": n, "m": n, "k": 1, "f": f,
        "h": ["+".join(f"x{i + 1}" for i in range(n))],
        "domain_box": [[0.0, 1.0]] * n, "name": f"ring{n}",
    }}


def _rotation(rho: float, samples: int) -> list:
    """A loop of 2 x 2 matrices with eigenvalues rho exp(+-i s), s = 2 pi j /
    samples: the pair is a double real eigenvalue at s = 0 and s = pi, so
    the tracker meets exact ties there."""
    return [
        [[0.0, rho], [-rho, 2.0 * rho * math.cos(2.0 * math.pi * (j % samples) / samples)]]
        for j in range(samples + 1)
    ]


def _rfmr_jacobians(n: int, samples: int) -> list:
    """df/dx of rfmr(n) at uniform rate r and fill c, around the (r, c) loop
    r = 1.8 + 0.6 cos t, c = 0.3 + 0.1 sin t."""
    loop = []
    for j in range(samples + 1):
        t = 2.0 * math.pi * (j % samples) / samples
        r, c = 1.8 + 0.6 * math.cos(t), 0.3 + 0.1 * math.sin(t)
        loop.append([
            [r * (1.0 - c) if col == (row - 1) % n else -r if col == row
             else r * c if col == (row + 1) % n else 0.0 for col in range(n)]
            for row in range(n)
        ])
    return loop


RFMR3 = {"builtin": "rfmr", "n": 3}

CONFIGS = {
    "trace-fiber-planar": {
        "system": {"builtin": "planar"}, "command": "trace-fiber",
        "lambda": [0.5], "x0": [-0.455, 0.3],
    },
    "trace-fiber-rfmr3": {
        "system": RFMR3, "command": "trace-fiber",
        "lambda": [1.5] * 3, "x0": [0.4] * 3,
    },
    "transport-rfmr3": {
        "system": RFMR3, "command": "transport",
        "path": [[1.2] * 3, [2.0, 1.0, 1.6], [1.2] * 3], "x0": [0.4] * 3,
    },
    "transport-ring3": {
        "system": _ring(3), "command": "transport",
        "path": [[1.2] * 3, [2.0, 1.0, 1.6], [1.2] * 3], "x0": [0.4] * 3,
    },
    "holonomy-example2": {
        "system": {"builtin": "example2"}, "command": "holonomy",
        "loop": [[1.0], [2.5], [1.0]], "level": [2.0, 6.125], "budget": 32,
    },
    "cocycle-rfmr3": {
        "system": RFMR3, "command": "cocycle",
        "lambda1": [1.5] * 3, "lambda2": [2.0, 1.0, 2.5], "lambda3": [0.8, 1.7, 1.2],
        "x0": [0.4] * 3,
    },
    "eigen-loop-rfmr3": {
        "system": RFMR3, "command": "eigen-loop",
        "lambda": [1.5] * 3,
        "loop_points": [[c] * 3 for c in (0.15, 0.275, 0.4, 0.275, 0.15)],
    },
    "track-matrix-loop-rotation": {
        "command": "track-matrix-loop", "matrices": _rotation(1.25, 24), "k": 0,
    },
    "track-matrix-loop-rfmr5": {
        "command": "track-matrix-loop", "matrices": _rfmr_jacobians(5, 16), "k": 1,
    },
    "find-rfmr3": {
        "system": RFMR3, "command": "find", "lambda": [1.5] * 3, "level": [1.2],
        "budget": 40,
    },
    # ten columns: the wide Newton stacks solve as numpy ufuncs (linalg._qr_rows)
    "find-rfmr10": {
        "system": {"builtin": "rfmr", "n": 10}, "command": "find",
        "lambda": [1.7] * 10, "level": [3.5],
    },
    "find-example2": {
        "system": {"builtin": "example2"}, "command": "find", "lambda": [1.5],
        "level": [2.0, 6.125], "budget": 40,
    },
    # h2 > 4 h1: the level carries no equilibria, so the envelope has count 0
    "find-example2-empty": {
        "system": {"builtin": "example2"}, "command": "find", "lambda": [1.0],
        "level": [2.0, 10.0],
    },
    "audit-rfmr3": {
        "system": RFMR3, "command": "audit", "lambda": [1.5] * 3, "x": [0.4] * 3,
    },
}


def envelope(name: str) -> str:
    """The envelope text that the CLI prints for CONFIGS[name]; it must exit 0."""
    raw = CONFIGS[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        write_config(name, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([raw["command"], "--config", path])
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}\n{out.getvalue()}")
    return out.getvalue()


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.json")


def write_config(name: str, path: str, fmt=None) -> None:
    """CONFIGS[name] as JSON to path, with the output format fmt if given."""
    raw = CONFIGS[name] if fmt is None else dict(CONFIGS[name], output={"format": fmt})
    with open(path, "w") as handle:
        json.dump(raw, handle)


def _moves(old, new, where="$") -> list:
    """(leaf path, absolute move, relative move) for each leaf at which new
    differs from old; both moves are None where the two are not numbers
    of one kind, or where the keys or a list's length changed."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [m for key in old for m in _moves(old[key], new[key], f"{where}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, pair in enumerate(zip(old, new)) for m in _moves(*pair, f"{where}[{i}]")]
    if type(old) is type(new) and old == new:
        return []
    if type(old) is type(new) and type(old) in (int, float):
        move = abs(new - old)
        return [(where, move, move / abs(old) if old else math.inf)]
    return [(where, None, None)]


def moved_fields(old, new) -> list:
    """One line per field at which the envelope new differs from old, in
    the envelope's order: its path with every list index as [*], then how
    many of its leaves moved and the largest absolute and relative moves
    with their leaves, or "changed" for a field whose moves are not
    numbers (_moves)."""
    fields: dict = {}
    for leaf in _moves(old, new):
        fields.setdefault(re.sub(r"\[\d+\]", "[*]", leaf[0]), []).append(leaf)
    lines = []
    for field, leaves in fields.items():
        if any(move is None for _, move, _ in leaves):
            lines.append(f"{field} changed at {leaves[0][0]}")
            continue
        absolute = max(leaves, key=lambda leaf: leaf[1])
        relative = max(leaves, key=lambda leaf: leaf[2])
        lines.append(
            f"{field} {len(leaves)} moved, largest {absolute[1]:.3g} absolute at "
            f"{absolute[0]}, {relative[2]:.3g} relative at {relative[0]}"
        )
    return lines


if __name__ == "__main__":
    if sys.argv[1:2] == ["--config"]:
        write_config(*sys.argv[2:])
        sys.exit()
    if sys.argv[1:] == ["--list"]:
        for name, raw in CONFIGS.items():
            print(name, raw["command"])
        sys.exit()
    if sys.argv[1:2] == ["--check"]:
        for name in sys.argv[2:] or CONFIGS:
            with open(golden_path(name)) as handle:
                old = handle.read()
            new = envelope(name)
            print(name, "same" if old == new else "differs")
            if old != new:
                for line in moved_fields(json.loads(old), json.loads(new)):
                    print(" ", line)
        sys.exit()
    for name in sys.argv[1:] or CONFIGS:
        with open(golden_path(name), "w") as handle:
            handle.write(envelope(name))
        print(f"wrote {golden_path(name)}")
