"""Golden envelopes: each CLI run of tests/golden/regenerate.py's CONFIGS
must print its golden file's envelope.

Structure, strings, integers, flags and nulls must match exactly, and
floats to 1e-12 relative.  The fields of RESIDUALS, which the solvers
control only down to the Newton tolerance, also match within that
tolerance (the envelope's tolerances_used.newton): their golden values
are rounding noise (1e-16 to 1e-10) that a BLAS which rounds differently
moves.  So are an audit's rank cutoffs at a solved point, eps-scaled
largest singular values: where the matrix vanishes on the equilibrium
set (example2's df/dlambda) the cutoff is noise of 1e-30, and the rank
decisions they feed are compared exactly.  A missing golden file is a
failure.
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BLAS_THREAD_VARIABLES

_HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regenerate.py")
_spec = importlib.util.spec_from_file_location("golden_regenerate", _HERE)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


# residuals, drifts and displacements of converged solves, and the rank
# cutoffs of an audit at a solved point
RESIDUALS = frozenset({
    "max_f_residual", "max_h_drift", "deviation", "max_roundtrip_displacement",
    "residual", "residual_f", "structural_identity_residual",
    "rank_full_jacobian", "rank_jac_lambda", "rank_jac_x", "rank_kernel_image",
})


def mismatches(expected, actual, where="$", newton=0.0) -> list:
    """The paths at which actual differs from expected under the golden
    rule, with newton the absolute tolerance of the RESIDUALS fields."""
    if isinstance(expected, float) and type(actual) is float:
        floor = newton if where.rsplit(".", 1)[-1] in RESIDUALS else 0.0
        if math.isclose(expected, actual, rel_tol=1e-12, abs_tol=floor):
            return []
        return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{where}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [
            m for key in expected
            for m in mismatches(expected[key], actual[key], f"{where}.{key}", newton)
        ]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [
            m for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{where}[{i}]", newton)
        ]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


@pytest.mark.parametrize("name", sorted(golden.CONFIGS))
def test_envelope_matches_its_golden_file(name):
    path = golden.golden_path(name)
    assert os.path.exists(path), f"missing golden file {path}"
    with open(path) as handle:
        expected = json.load(handle)
    newton = expected["tolerances_used"]["newton"]
    assert mismatches(expected, json.loads(golden.envelope(name)), newton=newton) == []


def test_the_declared_ring_transports_as_the_builtin():
    # transport-ring3 is transport-rfmr3 on rfmr(3) declared as expressions,
    # whose symbolic derivatives are the builtin's
    ring, rfmr = (json.loads(golden.envelope(name)) for name in ("transport-ring3", "transport-rfmr3"))
    newton = rfmr["tolerances_used"]["newton"]
    assert mismatches(rfmr["result"], ring["result"], newton=newton) == []


def test_rule_is_relative_and_strict_on_the_rest():
    same = {"a": [1.0, 2, "s", True, None]}
    assert mismatches(same, {"a": [1.0 + 1e-13, 2, "s", True, None]}) == []
    assert mismatches(1.0, 1.0 + 1e-11)
    assert mismatches(0.0, 1e-300)
    assert mismatches(2, 2.0) and mismatches(True, 1) and mismatches("s", "t")
    assert mismatches({"a": 1}, {"a": 1, "b": 2}) and mismatches([1], [1, 1])
    # a residual field has room up to the Newton tolerance, no other field
    drift = {"r": {"max_h_drift": 2.2e-16, "gamma": [0.4]}}
    assert mismatches(drift, {"r": {"max_h_drift": 9e-11, "gamma": [0.4]}}, newton=1e-10) == []
    assert mismatches(drift, {"r": {"max_h_drift": 2e-10, "gamma": [0.4]}}, newton=1e-10)
    assert mismatches(drift, {"r": {"max_h_drift": 2.2e-16, "gamma": [0.4 + 1e-11]}}, newton=1e-10)


_SRC = os.path.abspath(os.path.join(os.path.dirname(_HERE), os.pardir, os.pardir, "src"))


def _python(args: list, **env) -> subprocess.Popen:
    """A fresh interpreter on args, with src on its path and env set at
    its start, and none of the BLAS thread variables that env does not
    set; its stdout piped."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    return subprocess.Popen(
        [sys.executable, *args], env=dict(inherited, PYTHONPATH=path, **env),
        stdout=subprocess.PIPE, text=True,
    )


def _output(process: subprocess.Popen) -> str:
    out, _ = process.communicate(timeout=120)
    assert process.returncode == 0
    return out


def test_config_mode_writes_the_named_config(tmp_path):
    # the mode that CI's entry-point step runs before `eqbundle`
    out = tmp_path / "trace.json"
    _output(_python([_HERE, "--config", "trace-fiber-planar", str(out), "both"]))
    expected = dict(golden.CONFIGS["trace-fiber-planar"], output={"format": "both"})
    assert json.loads(out.read_text()) == expected


def test_list_mode_names_every_golden_file_and_its_command():
    # CI's entry-point step loops over these lines
    rows = [line.split(" ") for line in _output(_python([_HERE, "--list"])).splitlines()]
    files = sorted(name[:-5] for name in os.listdir(golden.GOLDEN) if name.endswith(".json"))
    assert sorted(name for name, _ in rows) == files
    assert dict(rows) == {name: raw["command"] for name, raw in golden.CONFIGS.items()}


def test_check_mode_compares_the_bytes_and_writes_nothing(tmp_path):
    # one line "<name> same|differs" per named golden, in order, each
    # "differs" line followed by its moved fields.  It runs on a copy of
    # the goldens holding this run's envelopes, one coordinate of
    # find-rfmr3's point moved by 1e-3
    copy = tmp_path / "golden"
    shutil.copytree(golden.GOLDEN, copy)
    names = ["find-rfmr3", "audit-rfmr3"]
    envelopes = {name: golden.envelope(name) for name in names}
    moved = json.loads(envelopes["find-rfmr3"])
    moved["result"]["points"][0]["x"][1] += 1e-3
    (copy / "find-rfmr3.json").write_text(json.dumps(moved))
    (copy / "audit-rfmr3.json").write_text(envelopes["audit-rfmr3"])
    before = {name: (copy / f"{name}.json").read_text() for name in names}
    lines = _output(_python([str(copy / "regenerate.py"), "--check", *names])).splitlines()
    assert lines == [
        "find-rfmr3 differs",
        "  $.result.points[*].x[*] 1 moved, largest 0.001 absolute at $.result.points[0].x[1], "
        "0.00249 relative at $.result.points[0].x[1]",
        "audit-rfmr3 same",
    ]
    for name in names:
        assert (copy / f"{name}.json").read_text() == before[name]


# goldens whose lanes share batched LAPACK calls: Newton stacks of ten
# columns, multistart lanes, fiber correctors and eigenvalue stacks
THREAD_GOLDENS = [
    "find-rfmr10", "find-example2", "trace-fiber-planar", "trace-fiber-rfmr3",
    "eigen-loop-rfmr3", "track-matrix-loop-rfmr5",
]


# OpenBLAS's own thread count in the interpreter that runs it, or None
# where no OpenBLAS is loaded (found as bench/stream.py finds it)
_BLAS_THREADS = """
def blas_threads():
    import ctypes
    if not os.path.exists("/proc/self/maps"):
        return None
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                count = getattr(lib, symbol)
                count.argtypes, count.restype = [], ctypes.c_int
                return count()
    return None
"""


def test_envelopes_are_the_same_bytes_at_one_and_two_blas_threads():
    # a lane's bits depend neither on the other lanes nor on the thread
    # count.  Each interpreter gets OPENBLAS_NUM_THREADS at its start, so
    # before numpy loads; a BLAS other than OpenBLAS ignores it.  The third
    # sets none, so regenerate.py's first import, eqbundle.cli, sets the
    # CLI's default of one thread.  Each prints OpenBLAS's count: the "2"
    # run's is 2 where the process may use two CPUs (OpenBLAS takes no
    # more threads than that)
    script = (
        "import json, os, runpy\n"
        f"envelope = runpy.run_path({_HERE!r})['envelope']\n"
        f"{_BLAS_THREADS}"
        f"print(json.dumps([blas_threads(), [envelope(name) for name in {THREAD_GOLDENS!r}]]))"
    )
    runs = [_python(["-c", script], OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
    runs.append(_python(["-c", script]))
    (one_threads, one), (two_threads, two), (default_threads, default) = (
        json.loads(_output(run)) for run in runs
    )
    assert len(one) == len(THREAD_GOLDENS)
    for name, a, b in zip(THREAD_GOLDENS, one, two):
        assert a == b, name
    assert default == one
    if None in (one_threads, two_threads, default_threads):
        pytest.skip("no OpenBLAS loaded: its thread counts cannot be read")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert (one_threads, two_threads, default_threads) == (1, min(2, cpus), 1)
