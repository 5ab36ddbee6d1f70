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
import subprocess
import sys

import pytest

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


def test_config_mode_writes_the_named_config(tmp_path):
    # the mode that the console-script steps of CI run before `eqbundle`
    src = os.path.abspath(os.path.join(os.path.dirname(_HERE), os.pardir, os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, _HERE, "--config", "trace-fiber-planar", str(out), "both"],
        env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60,
    )
    expected = dict(golden.CONFIGS["trace-fiber-planar"], output={"format": "both"})
    assert json.loads(out.read_text()) == expected
