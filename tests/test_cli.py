import argparse
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import BLAS_THREAD_VARIABLES, count_calls
from eqbundle import cli, expr, monodromy
from eqbundle.cli import main
from eqbundle.config import COMMANDS, RunConfig, config_from_dict, load_config
from eqbundle.errors import InputError
from eqbundle.linalg import EPS
from eqbundle.finder import enumerate_level_points, trace_fiber
from eqbundle.monodromy import eigen_along_fiber_loop, track_matrix_loop
from eqbundle.reports import canonical_json
from eqbundle.systems import builtin
from eqbundle.tolerances import DEFAULT_TOLERANCES, Tolerances
from eqbundle.transport import holonomy_loop, lift_curve, lift_fractions

RFMR3_DECL = {
    "n": 3,
    "m": 3,
    "k": 1,
    "f": [
        "l3*x3*(1-x1) - l1*x1*(1-x2)",
        "l1*x1*(1-x2) - l2*x2*(1-x3)",
        "l2*x2*(1-x3) - l3*x3*(1-x1)",
    ],
    "h": ["x1+x2+x3"],
    "domain_box": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rotation_config(samples=256):
    s = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    mats = [[[0.0, 1.0], [-1.0, 2.0 * float(np.cos(si))]] for si in s]
    return {"command": "track-matrix-loop", "matrices": mats, "k": 0}


FIND_RFMR = {
    "system": {"builtin": "rfmr", "n": 3},
    "command": "find",
    "lambda": [1, 1, 1],
    "level": [1.5],
}


def test_find_minimal_defaults(tmp_path, capsys):
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 1
    assert data["command"] == "find"
    echo = data["config"]
    assert echo["budget"] == 200 and echo["seed"] == 0
    assert echo["output"] == {"path": None, "format": "json"}
    assert echo["tolerances"]["equilibrium"] == 1e-9
    assert data["tolerances_used"] == echo["tolerances"]
    result = data["result"]
    assert result["count"] == 1
    assert np.allclose(result["points"][0]["x"], [0.5, 0.5, 0.5], atol=1e-9)


HOLONOMY_EXAMPLE2 = {
    "system": {"builtin": "example2"},
    "command": "holonomy",
    "loop": [[1.0], [2.5], [1.0]],
    "level": [2.0, 6.125],
    "budget": 32,
}

COCYCLE_RFMR = {
    "system": {"builtin": "rfmr", "n": 3},
    "command": "cocycle",
    "lambda1": [1.0, 1.0, 1.0],
    "lambda2": [1.2, 1.0, 1.0],
    "lambda3": [1.1, 1.3, 1.0],
    "x0": [0.5, 0.5, 0.5],
}


def test_byte_identical_runs(tmp_path):
    # the second run is a fresh interpreter with another hash seed; the
    # holonomy and cocycle runs go through the lockstep lift
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="271828")
    for name, payload in (
        ("find", FIND_RFMR), ("holonomy", HOLONOMY_EXAMPLE2), ("cocycle", COCYCLE_RFMR)
    ):
        cfg = write_config(tmp_path, f"{name}.json", payload)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main([name, "--config", cfg, "--output", out1]) == 0
        subprocess.run(
            [sys.executable, "-m", "eqbundle.cli", name, "--config", cfg, "--output", out2],
            env=env, check=True, timeout=120,
        )
        blob1 = open(out1, "rb").read()
        blob2 = open(out2, "rb").read()
        assert b'"result"' in blob1
        # the echoed output path differs; normalize it before comparing
        assert blob1.replace(b"a.json", b"x.json") == blob2.replace(b"b.json", b"x.json")


def test_audit_example2_cond_i_warning(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "audit.json",
        {
            "system": {"builtin": "example2"},
            "command": "audit",
            "lambda": [1],
            "x": [1, 1, 1],
        },
    )
    assert main(["audit", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    report = data["result"]
    assert report["is_equilibrium"] is True
    assert report["cond_i"]["passed"] is False
    assert report["cond_ii"]["passed"] is True
    assert report["cond_iii"]["passed"] is True
    assert len(report["warnings"]) == 1


def test_track_matrix_loop_rotation(tmp_path, capsys):
    cfg = write_config(tmp_path, "rot.json", rotation_config(256))
    assert main(["track-matrix-loop", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert sorted(result["windings"]) == [-1, 1]
    assert result["permutation"] == [0, 1]
    assert result["crossings"] == [2, 2]


def test_matrix_loop_run_config_built_directly(monkeypatch):
    # a RunConfig made by its constructor or by dataclasses.replace has no
    # checked stack of its own, and runs from the matrices in its settings
    parsed = config_from_dict(rotation_config(64))
    stacks = []
    real = monodromy.track_matrix_loop
    monkeypatch.setattr(
        monodromy, "track_matrix_loop", lambda mats, **kw: stacks.append(mats) or real(mats, **kw)
    )
    built = RunConfig(
        command=parsed.command, system=parsed.system,
        tolerances=parsed.tolerances, settings=parsed.settings,
    )
    results = [
        cli.run_config(run)[0]
        for run in (parsed, built, dataclasses.replace(parsed, tolerances=parsed.tolerances))
    ]
    assert results[0] == results[1] == results[2]
    assert stacks[0] is parsed._matrices
    assert all(np.array_equal(stack, stacks[0]) for stack in stacks[1:])


def test_dimension_mismatch_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "system": {"builtin": "planar"},
            "command": "audit",
            "lambda": [1, 2],
            "x": [0, 0],
        },
    )
    assert main(["audit", "--config", cfg]) == 1
    assert "dimension mismatch" in capsys.readouterr().err


def test_holonomy_open_loop_rejected(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "loop.json",
        {
            "system": {"builtin": "planar"},
            "command": "holonomy",
            "loop": [[0.5], [0.9]],
            "level": [0.0],
        },
    )
    assert main(["holonomy", "--config", cfg]) == 1
    assert "loop must close" in capsys.readouterr().err


def test_eigen_loop_point_outside_the_domain_exit1(tmp_path, capsys):
    # every point is an equilibrium at lambda 0.5; the second and third are
    # outside the box [-1, 1]^2
    cfg = write_config(
        tmp_path,
        "loop.json",
        {
            "system": {"builtin": "planar"},
            "command": "eigen-loop",
            "lambda": [0.5],
            "loop_points": [[-0.375, 0.5], [0.22, 1.2], [0.625, -1.5], [-0.375, 0.5]],
        },
    )
    assert main(["eigen-loop", "--config", cfg]) == 1
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error == {"type": "InputError",
                     "message": "loop point 1 [0.22, 1.2] is not in the domain"}
    assert captured.err == f"error: {error['message']}\n"


def test_holonomy_identity(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "loop.json",
        {
            "system": {"builtin": "example2"},
            "command": "holonomy",
            "loop": [[1.0], [2.0], [1.0]],
            "level": [2.0, 6.0],
            "budget": 200,
        },
    )
    assert main(["holonomy", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["permutation"] == [0, 1, 2, 3]
    assert result["max_roundtrip_displacement"] < 1e-6


def test_cocycle_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "coc.json",
        {
            "system": {"builtin": "planar"},
            "command": "cocycle",
            "lambda1": [0.5],
            "lambda2": [0.7],
            "lambda3": [0.9],
            "x0": [-0.5, 0.0],
        },
    )
    assert main(["cocycle", "--config", cfg]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["deviation"] < 1e-8


def test_eigen_loop_degeneracy_exit2(tmp_path, capsys):
    ys = np.concatenate([np.linspace(0.5, -0.5, 11), np.linspace(-0.5, 0.5, 11)[1:]])
    pts = [[1.15, float(y), 1.15] for y in ys]
    pts[-1] = pts[0]
    out = str(tmp_path / "eig.json")
    cfg = write_config(
        tmp_path,
        "eig_cfg.json",
        {
            "system": {"builtin": "example2"},
            "command": "eigen-loop",
            "lambda": [1],
            "loop_points": pts,
            "output": {"path": out, "format": "json"},
        },
    )
    assert main(["eigen-loop", "--config", cfg]) == 2
    assert "path leaves C*" in capsys.readouterr().err
    envelope = json.loads(open(out).read())
    assert envelope["error"]["type"] == "TrackingError"
    assert "path leaves C*" in envelope["error"]["message"]
    assert envelope["error"]["segment"] == [4, 5]
    assert "result" not in envelope


def test_a_loop_sample_lapack_fails_on_exits2_with_its_segment(monkeypatch, tmp_path, capsys):
    # LAPACK does not converge on the loop's second matrix, which holds a 7:
    # the fold raises a TrackingError of that segment, not numpy's error
    real = monodromy.eigen_dense

    def eigen_dense(M):
        if (np.asarray(M) == 7.0).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(M)

    monkeypatch.setattr(monodromy, "eigen_dense", eigen_dense)
    out = str(tmp_path / "loop.json")
    base = [[1.0, 0.0], [0.0, 2.0]]
    cfg = write_config(tmp_path, "loop_cfg.json", {
        "command": "track-matrix-loop", "matrices": [base, [[7.0, 0.0], [0.0, 2.0]], base],
        "k": 0, "output": {"path": out, "format": "json"},
    })
    assert main(["track-matrix-loop", "--config", cfg]) == 2
    assert "did not converge" in capsys.readouterr().err
    envelope = json.loads(open(out).read())
    assert envelope["error"]["type"] == "TrackingError"
    assert envelope["error"]["segment"] == [0, 1]


def test_dsl_declaration_find(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "dsl.json",
        {
            "system": {"declaration": RFMR3_DECL},
            "command": "find",
            "lambda": [1, 1, 1],
            "level": [1.5],
        },
    )
    assert main(["find", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["count"] == 1
    assert np.allclose(data["result"]["points"][0]["x"], [0.5, 0.5, 0.5], atol=1e-8)
    # declaration defaults are materialized into the echo
    decl = data["config"]["system"]["declaration"]
    assert decl["parameter_box"] == [[0.25, 4.0]] * 3
    assert decl["identity_samples"] == 200


def test_declaration_wrong_f_count(tmp_path, capsys):
    bad = dict(RFMR3_DECL, f=RFMR3_DECL["f"][:2])
    cfg = write_config(
        tmp_path,
        "bad_dsl.json",
        {
            "system": {"declaration": bad},
            "command": "find",
            "lambda": [1, 1, 1],
            "level": [1.5],
        },
    )
    assert main(["find", "--config", cfg]) == 1
    assert "expected" in capsys.readouterr().err


def test_trace_fiber_csv_round_trip(tmp_path):
    base = str(tmp_path / "trace")
    cfg = write_config(
        tmp_path,
        "trace.json",
        {
            "system": {"builtin": "planar"},
            "command": "trace-fiber",
            "lambda": [0.5],
            "x0": [-0.5, 0.0],
            "output": {"path": base, "format": "both"},
        },
    )
    assert main(["trace-fiber", "--config", cfg]) == 0
    report = json.loads(open(base + ".json").read())["result"]
    assert report["topology"] == "segment"
    lines = open(base + ".csv").read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert "# topology = segment" in comments
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x1,x2"
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    assert len(rows) == len(report["points"])
    # 17 significant digits round-trip exactly
    assert rows[0] == report["points"][0]
    assert rows[-1] == report["points"][-1]


def test_error_envelopes_go_where_the_result_goes(tmp_path, capsys):
    base = str(tmp_path / "trace")
    trace = {
        "system": {"builtin": "planar"},
        "command": "trace-fiber",
        "lambda": [0.5],
        "x0": [-0.5, 0.0],
        "output": {"path": base, "format": "both"},
    }
    cfg = write_config(tmp_path, "trace.json", trace)
    assert main(["trace-fiber", "--config", cfg]) == 0
    assert "result" in json.loads(open(base + ".json").read())
    # a failed run's envelope replaces the result in <path>.json
    cfg = write_config(tmp_path, "short.json", dict(trace, max_points=3))
    assert main(["trace-fiber", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(open(base + ".json").read())["error"]
    assert error["type"] == "ConvergenceError"
    assert captured.err == f"error: {error['message']}\n"
    # csv puts the CSV at the path, so the envelope goes to stdout
    out = str(tmp_path / "short.csv")
    short_csv = dict(trace, max_points=3, output={"path": out, "format": "csv"})
    cfg = write_config(tmp_path, "short_csv.json", short_csv)
    assert main(["trace-fiber", "--config", cfg]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ConvergenceError"
    assert not os.path.exists(out)


def test_failed_run_leaves_no_stale_csv(tmp_path, capsys):
    # with the format both, <path>.json and <path>.csv describe one run
    base = str(tmp_path / "trace")
    trace = {
        "system": {"builtin": "planar"},
        "command": "trace-fiber",
        "lambda": [0.5],
        "x0": [-0.5, 0.0],
        "output": {"path": base, "format": "both"},
    }
    assert main(["trace-fiber", "--config", write_config(tmp_path, "a.json", trace)]) == 0
    assert os.path.exists(base + ".csv")
    cfg = write_config(tmp_path, "short.json", dict(trace, max_points=3))
    assert main(["trace-fiber", "--config", cfg]) == 2
    assert json.loads(open(base + ".json").read())["error"]["type"] == "ConvergenceError"
    assert not os.path.exists(base + ".csv")
    # and a failure with no earlier CSV writes the envelope alone
    assert main(["trace-fiber", "--config", cfg]) == 2
    assert not os.path.exists(base + ".csv")
    # a failure in the format json leaves <path>.csv, which is no file of its run
    open(base + ".csv", "w").close()
    json_only = dict(trace, max_points=3, output={"path": base, "format": "json"})
    assert main(["trace-fiber", "--config", write_config(tmp_path, "json.json", json_only)]) == 2
    assert json.loads(open(base).read())["error"]["type"] == "ConvergenceError"
    assert os.path.exists(base + ".csv")
    capsys.readouterr()


@pytest.mark.parametrize("huge", [1e200, 1.5e308])
def test_matrix_loop_too_large_to_track_exit1(tmp_path, capsys, huge):
    # the fold squares eigenvalue distances, which overflowed a Python float
    mats = [[[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, huge]],
            [[-1.0, 0.0], [0.0, huge]], [[1.0, 0.0], [0.0, 2.0]]]
    with pytest.raises(InputError, match=r"moduli below 1e\+150.*between samples 0 and 1"):
        track_matrix_loop([np.array(m) for m in mats], k=0, tol_zero=1e-3)
    raw = {"command": "track-matrix-loop", "matrices": mats, "k": 0, "tol_zero": 1e-3}
    assert main(["track-matrix-loop", "--config", write_config(tmp_path, "big.json", raw)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    error = json.loads(captured.out)["error"]
    assert error["type"] == "InputError" and f"error: {error['message']}\n" == captured.err


def test_rejected_config_envelope(tmp_path, capsys):
    out = str(tmp_path / "out.json")
    bad = dict(FIND_RFMR, budget=0, output={"path": out})
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["find", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: budget must be positive\n"
    envelope = json.loads(open(out).read())
    assert envelope["config"] == bad and envelope["tolerances_used"] is None
    assert envelope["error"] == {"type": "InputError", "message": "budget must be positive"}
    # a config canonical JSON cannot encode echoes as null; a config that
    # cannot be read has none
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(FIND_RFMR, level=[float("nan")]), allow_nan=True))
    assert main(["find", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["config"] is None
    assert main(["find", "--config", str(tmp_path / "missing.json")]) == 1
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["config"] is None and envelope["command"] == "find"


def test_transport_csv_columns(tmp_path):
    # a column for t, then one for each parameter and each coordinate
    out = str(tmp_path / "rfmr.csv")
    rfmr = {
        "system": {"builtin": "rfmr", "n": 3}, "command": "transport",
        "path": [[1.2] * 3, [2.0, 1.0, 1.6], [1.2] * 3], "x0": [0.4] * 3,
        "output": {"path": out, "format": "csv"},
    }
    assert main(["transport", "--config", write_config(tmp_path, "rfmr.json", rfmr)]) == 0
    lines = open(out).read().splitlines()
    assert [ln for ln in lines if not ln.startswith("#")][0] == "t,l1,l2,l3,x1,x2,x3"
    out = str(tmp_path / "lift.csv")
    cfg = write_config(
        tmp_path,
        "lift.json",
        {
            "system": {"builtin": "planar"},
            "command": "transport",
            "path": [[0.5], [0.9]],
            "x0": [-0.5, 0.0],
            "output": {"path": out, "format": "csv"},
        },
    )
    assert main(["transport", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "t,l1,x1,x2"
    last = [float(v) for v in body[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[1] == pytest.approx(0.9)
    assert np.allclose(last[2:], [-0.9, 0.0], atol=1e-8)


def test_transport_rejects_unordered_step_fractions(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "lift.json",
        {
            "system": {"builtin": "rfmr", "n": 3},
            "command": "transport",
            "path": [[1.0] * 3, [2.0] * 3],
            "x0": [0.4] * 3,
            "initial_fraction": 2.0,
        },
    )
    assert main(["transport", "--config", cfg]) == 1
    assert "initial_fraction <= max_fraction" in capsys.readouterr().err


def test_csv_rejected_for_pointwise_commands(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "bad_fmt.json",
        dict(FIND_RFMR, output={"path": "x.csv", "format": "csv"}),
    )
    assert main(["find", "--config", cfg]) == 1
    assert "csv output is only available" in capsys.readouterr().err


def test_subcommand_must_match_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["audit", "--config", cfg]) == 1
    assert "does not match" in capsys.readouterr().err


def test_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg, "--seed", "5", "--tol-cluster", "1e-3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["seed"] == 5
    assert data["tolerances_used"]["cluster"] == 1e-3
    assert data["result"]["count"] == 1


@pytest.mark.parametrize("block, flag", [("tolerances", "--tol-newton"), ("output", "--output")])
def test_a_flag_leaves_a_malformed_block_to_be_rejected(tmp_path, capsys, block, flag):
    # a flag merges into a block that is an object or absent; it used to
    # replace any other value with a fresh object, so the run exited 0
    cfg = write_config(tmp_path, "find.json", dict(FIND_RFMR, **{block: 5}))
    value = str(tmp_path / "out.json") if block == "output" else "1e-8"
    assert main(["find", "--config", cfg, flag, value]) == 1
    assert capsys.readouterr().err == f"error: '{block}' must be an object\n"


def test_a_config_file_that_holds_no_object_is_an_input_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "list.json", [FIND_RFMR])
    assert main(["find", "--config", cfg, "--seed", "5"]) == 1
    assert capsys.readouterr().err == "error: configuration must be a JSON object\n"


def test_an_unreadable_output_block_sends_the_error_to_the_output_flag(tmp_path, capsys):
    # the error envelope went to stdout whenever the output block was
    # malformed, though --output named a path; a config that cannot be
    # read goes to that path too
    out = tmp_path / "flag.json"
    cfg = write_config(tmp_path, "find.json", dict(FIND_RFMR, output=5))
    assert main(["find", "--config", cfg, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: 'output' must be an object\n"
    envelope = json.loads(out.read_text())
    assert envelope["error"] == {"type": "InputError", "message": "'output' must be an object"}
    assert envelope["config"] == dict(FIND_RFMR, output=5)
    missing = str(tmp_path / "missing.json")
    assert main(["find", "--config", missing, "--output", str(out)]) == 1
    assert capsys.readouterr().out == ""
    envelope = json.loads(out.read_text())
    assert envelope["config"] is None and envelope["error"]["type"] == "InputError"


def test_bad_declaration_size_is_an_input_error(tmp_path, capsys):
    # "n": "two" used to escape main as a bare ValueError
    cfg = write_config(
        tmp_path,
        "bad_n.json",
        {
            "system": {"declaration": dict(RFMR3_DECL, n="two")},
            "command": "find",
            "lambda": [1, 1, 1],
            "level": [1.5],
        },
    )
    assert main(["find", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: declaration n must be an integer\n"
    assert json.loads(captured.out) == {
        "schema_version": 1,
        "command": "find",
        "config": json.loads(open(cfg).read()),
        "tolerances_used": None,
        "error": {"type": "InputError", "message": "declaration n must be an integer"},
    }


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-3"])
def test_non_finite_or_negative_tolerance_exits_1(tmp_path, capsys, value):
    # a NaN tolerance used to run the command and then fail to serialize
    # the envelope with a bare ValueError
    message = (
        f"error: tolerance 'newton' must be a finite number >= 0, got {float(value)!r}\n"
    )
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg, f"--tol-newton={value}"]) == 1
    assert capsys.readouterr().err == message
    path = tmp_path / "tol.json"
    path.write_text(
        json.dumps(dict(FIND_RFMR, tolerances={"newton": float(value)}), allow_nan=True)
    )
    assert main(["find", "--config", str(path)]) == 1
    assert capsys.readouterr().err == message


def test_a_flag_that_spells_no_number_is_an_input_error(tmp_path, capsys):
    # argparse converted the flag, so "abc" was a usage error: exit 2, no
    # error line and no envelope; the config's check now names it
    message = "tolerance 'newton' must be a finite number >= 0, got 'abc'"
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg, "--tol-newton", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    envelope = json.loads(captured.out)
    assert envelope["error"] == {"type": "InputError", "message": message}
    assert envelope["config"] == dict(FIND_RFMR, tolerances={"newton": "abc"})
    assert main(["find", "--config", cfg, "--seed", "2.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be an integer\n"
    assert json.loads(captured.out)["config"] == dict(FIND_RFMR, seed=2.5)


@pytest.mark.parametrize("flag, value, message", [
    ("--tol-newton", "-1e-3", "tolerance 'newton' must be a finite number >= 0, got -0.001"),
    ("--tol-newton", "-inf", "tolerance 'newton' must be a finite number >= 0, got -inf"),
    ("--seed", "-1", "seed must be non-negative"),
])
def test_a_flag_value_with_a_leading_minus_reaches_the_config(
    tmp_path, capsys, flag, value, message
):
    # argparse read -1e-3 or -inf after a flag as an option: exit 2 with
    # usage text, no error line and no envelope.  Either spelling now
    # gives the config's error and envelope.
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert json.loads(captured.out)["error"] == {"type": "InputError", "message": message}
    assert main(["find", "--config", cfg, f"{flag}={value}"]) == 1
    assert capsys.readouterr() == captured


@pytest.mark.parametrize("value", ["1e-3", "-1e-3"])
def test_an_abbreviated_flag_is_a_usage_error(tmp_path, capsys, value):
    # flags are spelled in full: an abbreviation is an unrecognized
    # argument whatever its value, exit 2 with nothing on stdout, so a
    # value that starts with "-" cannot make it mean something else
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    with pytest.raises(SystemExit) as usage:
        main(["find", "--config", cfg, "--tol-newt", value])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --tol-newt" in captured.err
    assert main(["find", "--config", cfg, "--tol-newton", "-1e-3"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "InputError"


def test_a_flag_sets_rank_back_to_null(tmp_path, capsys):
    cfg = write_config(tmp_path, "find.json", dict(FIND_RFMR, tolerances={"rank": 1e-12}))
    assert main(["find", "--config", cfg, "--tol-rank", "null"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tolerances_used"]["rank"] is None
    assert '"rank": null' in canonical_json(data)


def test_a_flag_value_runs_as_the_same_value_in_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    assert main(["find", "--config", cfg, "--tol-newton", "1e-8", "--seed", "3"]) == 0
    by_flag = capsys.readouterr().out
    cfg = write_config(
        tmp_path, "file.json", dict(FIND_RFMR, seed=3, tolerances={"newton": 1e-8})
    )
    assert main(["find", "--config", cfg]) == 0
    assert capsys.readouterr().out == by_flag


def test_the_parser_keeps_every_override_as_text():
    # no argparse converter: the config's checks are the only rules
    names = [field.name for field in dataclasses.fields(Tolerances)]
    argv = ["find", "--config", "c.json", "--seed", "2.5"]
    for name in names:
        argv += [f"--tol-{name.replace('_', '-')}", "abc"]
    args = cli._build_parser().parse_args(argv)
    assert args.seed == "2.5"
    assert [getattr(args, f"tol_{name}") for name in names] == ["abc"] * len(names)


def test_one_main_call_builds_one_parser(tmp_path, capsys, monkeypatch):
    # every command takes the same flags, so one parser holds them all
    cfg = write_config(tmp_path, "find.json", FIND_RFMR)
    parsers = count_calls(monkeypatch, "__init__", argparse.ArgumentParser)
    assert main(["find", "--config", cfg, "--tol-newton", "1e-8", "--seed", "3"]) == 0
    assert len(parsers) == 1


@pytest.mark.parametrize("argv", [["--help"], ["find", "--help"]])
def test_help_names_every_command_and_flag(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    text = capsys.readouterr().out
    flags = [f"--tol-{field.name.replace('_', '-')}" for field in dataclasses.fields(Tolerances)]
    for word in ("{" + ",".join(COMMANDS) + "}", "--config", "--output", "--seed", *flags):
        assert word in text


def test_tolerances_are_finite_and_non_negative():
    for name in ("newton", "rank", "cluster", "gap_min"):
        for value in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InputError, match=f"tolerance '{name}' must be"):
                Tolerances(**{name: value})
            with pytest.raises(InputError, match=f"tolerance '{name}' must be"):
                DEFAULT_TOLERANCES.replace(**{name: value})
    with pytest.raises(InputError, match="tolerance 'newton' must be"):
        config_from_dict(dict(FIND_RFMR, tolerances={"newton": "nan"}))
    with pytest.raises(InputError, match="tolerance 'cluster' must be"):
        config_from_dict(dict(FIND_RFMR, tolerances={"cluster": None}))
    # 0 is a valid value, and rank alone may be None
    assert DEFAULT_TOLERANCES.replace(cluster=0.0, rank=0.0).cluster == 0.0
    assert DEFAULT_TOLERANCES.replace(rank=None).rank is None


def test_tolerances_as_dict_is_dataclasses_asdict():
    # the same keys in the same order with the same values, so the echo and
    # tolerances_used print the same bytes
    for tols in (DEFAULT_TOLERANCES, DEFAULT_TOLERANCES.replace(rank=1e-12, newton=1e-8)):
        assert list(tols.as_dict().items()) == list(dataclasses.asdict(tols).items())


def test_parse_error_reports_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "command": ,\n}')
    assert main(["find", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_config_validation_errors():
    with pytest.raises(InputError, match="unknown command"):
        config_from_dict({"command": "solve"})
    with pytest.raises(InputError, match="requires the field"):
        config_from_dict(
            {"system": {"builtin": "planar"}, "command": "audit", "lambda": [1]}
        )
    with pytest.raises(InputError, match="unknown configuration keys"):
        config_from_dict(
            {
                "system": {"builtin": "planar"},
                "command": "audit",
                "lambda": [1],
                "x": [0, 0],
                "extra": 1,
            }
        )
    with pytest.raises(InputError, match="unknown tolerance"):
        config_from_dict(
            {
                "system": {"builtin": "planar"},
                "command": "audit",
                "lambda": [1],
                "x": [0, 0],
                "tolerances": {"wat": 1.0},
            }
        )
    with pytest.raises(InputError, match="requires a 'system'"):
        config_from_dict({"command": "audit", "lambda": [1], "x": [0, 0]})
    for system in (["builtin"], "builtin", 5):
        with pytest.raises(InputError, match="^'system' must be an object$"):
            config_from_dict({"system": system, "command": "audit", "lambda": [1], "x": [0, 0]})
    for system in ({}, {"builtin": "planar", "declaration": {}}):
        with pytest.raises(InputError, match="^'system' must contain exactly one of 'builtin'"):
            config_from_dict({"system": system, "command": "audit", "lambda": [1], "x": [0, 0]})
    for data in ([1], "find", None):
        with pytest.raises(InputError, match="^configuration must be a JSON object$"):
            config_from_dict(data)
    with pytest.raises(InputError, match="^configuration needs a 'command' field$"):
        config_from_dict({"system": {"builtin": "planar"}, "lambda": [1], "x": [0, 0]})
    transport = {"system": {"builtin": "planar"}, "command": "transport",
                 "path": [[0.5], [0.9]], "x0": [-0.5, 0.0]}
    for output, message in (
        ({"path": 5}, "^output path must be a string$"),
        ({"format": "xml"}, r"^unknown output format 'xml' \(json, csv, or both\)$"),
        ({"format": "both"}, "^output format 'both' requires an output path$"),
    ):
        with pytest.raises(InputError, match=message):
            config_from_dict(dict(transport, output=output))
    with pytest.raises(InputError, match="dimension mismatch"):
        config_from_dict(
            {
                "system": {"builtin": "planar"},
                "command": "track-matrix-loop",
                "matrices": [np.eye(3).tolist()] * 2,
            }
        )


def _declared(f: list, parameter_box: list) -> dict:
    """A declared system on the box [-1, 1]^2 with h = x2."""
    return {"declaration": {
        "n": 2, "m": 1, "k": 1, "f": f, "h": ["x2"],
        "domain_box": [[-1, 1], [-1, 1]], "parameter_box": parameter_box,
    }}


# at l1 = 1 the fiber of x1^2 = l1 x2^2 is two lines crossing at the origin;
# the fiber of x1^3 = l1 x2^2 through (0.25, 0.125) ends in a cusp there
CROSS = _declared(["x1*x1 - l1*x2*x2", "0"], [[-1, 1]])
CUSP = _declared(["x1*x1*x1 - l1*x2*x2", "0"], [[0.5, 1]])
# two equilibria per level, x1 = l1 c < 0 and x1 = -1.5 l1 c > 0 with
# c = x2^2 - 1: raising l1 drives the positive one out of the box first
TWO_ROOTS = _declared(["-(x1 - l1*(x2^2 - 1))*(x1 + 1.5*l1*(x2^2 - 1))", "0"], [[0.25, 4]])

# (config, error type, message prefix, evidence): runs that fail in the
# computation, with the error envelope's fields besides type and message
FAILED_RUNS = [
    ({"system": CROSS, "command": "trace-fiber", "lambda": [1], "x0": [0, 0]},
     "BranchPointError", "kernel of df/dx has dimension 2, expected 1 at the starting point",
     {"location": {"lambda": [1.0], "x": [0.0, 0.0]}}),
    # the lift's velocity solve: A = [df/dx; dh/dx] is 3 x 2 and of rank 1
    ({"system": CROSS, "command": "transport", "path": [[0], [1]], "x0": [0, 0.5]},
     "TransportError", "stacked Jacobian lost full column rank: least squares matrix is "
     "column rank deficient (rank 1 < 2) (t = 0.5)",
     {"t": 0.5, "report": {"rank": 1, "singular_values": [pytest.approx(1.0), 0.0],
                             "tol": pytest.approx(3 * EPS)}}),
    # a step landing on the singular l1 = 0 loses rank, as above; the path
    # to -0.5 steps across it, and the step collapses there
    ({"system": CROSS, "command": "transport", "path": [[1], [-0.5]], "x0": [0.5, 0.5]},
     "TransportError", "transport step collapsed (t = 0.666666666", {"t": pytest.approx(2 / 3)}),
    ({"system": CUSP, "command": "trace-fiber", "lambda": [1], "x0": [0.25, 0.125]},
     "ConvergenceError", "fiber step collapsed below 2.8e-12 near x = ", {}),
    ({"command": "track-matrix-loop", "matrices": [[[1, 0], [0, 1e-9]]] * 2, "k": 0},
     "TrackingError", "winding undefined, path leaves C*: a base nonzero eigenvalue "
     "already has modulus <= tol_zero = 1.000e-07 (between samples 0 and 0)",
     {"segment": [0, 0]}),
    # point 1 leaves the box while point 0 lifts: the run ends with point 1's error
    ({"system": TWO_ROOTS, "command": "holonomy", "loop": [[0.4], [1.0], [0.4]],
      "level": [0.5], "budget": 64},
     "TransportError", "lift exited the domain at x = ", {"t": 0.40740741026820615}),
]


@pytest.mark.parametrize(
    "raw, kind, message, evidence", FAILED_RUNS,
    ids=[f"{raw['command']}-{kind}" for raw, kind, *_ in FAILED_RUNS],
)
def test_a_failed_computation_exits_2_with_its_evidence(
    tmp_path, capsys, raw, kind, message, evidence
):
    cfg = write_config(tmp_path, "failed.json", raw)
    assert main([raw["command"], "--config", cfg]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert captured.err == f"error: {error['message']}\n"
    assert error.pop("type") == kind and error.pop("message").startswith(message)
    assert error == evidence


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.json"))


def test_matrix_loop_without_system(tmp_path, capsys):
    cfg = write_config(tmp_path, "rot8.json", rotation_config(8))
    assert main(["track-matrix-loop", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "system" not in data["config"]
    assert sorted(data["result"]["windings"]) == [-1, 1]


HOLONOMY_EXAMPLE2 = {
    "system": {"builtin": "example2"}, "command": "holonomy",
    "loop": [[1.0], [2.5], [1.0]], "level": [2.0, 6.125],
}
EIGEN_LOOP_RFMR = {
    "system": {"builtin": "rfmr", "n": 3}, "command": "eigen-loop",
    "lambda": [1.5] * 3, "loop_points": [[c] * 3 for c in (0.15, 0.275, 0.4, 0.275, 0.15)],
}

# (step, the import or the config a fresh interpreter runs in turn): each
# step's modules add to the earlier steps'
IMPORT_STEPS = [
    ("import eqbundle", "eqbundle"),
    ("import eqbundle.cli", "eqbundle.cli"),
    ("find on a builtin", FIND_RFMR),
    ("holonomy on a builtin", HOLONOMY_EXAMPLE2),
    ("find on a declaration", {**FIND_RFMR, "system": {"declaration": RFMR3_DECL}}),
    ("eigen-loop", EIGEN_LOOP_RFMR),
]


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only.  numpy.random is loaded only by a
    # declared system's first-integral check (systems.first_integral_violation):
    # the multistart draws its shift in Python (finder._pcg64_random), so the
    # import and the builtin runs do not pay the 7-12 ms that loading it takes.
    # A run loads the expression language only for a declared system and
    # monodromy only for the loop commands; import eqbundle loads no
    # submodule at all
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    lines = ["import contextlib, io, json, sys"]
    for i, (_, step) in enumerate(IMPORT_STEPS):
        if isinstance(step, str):
            lines.append(f"import {step}")
        else:
            argv = [step["command"], "--config", write_config(tmp_path, f"{i}.json", step)]
            lines += [
                "with contextlib.redirect_stdout(io.StringIO()):",
                f"    assert eqbundle.cli.main({argv!r}) == 0",
            ]
        lines.append("print(json.dumps(sorted(sys.modules)))")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.splitlines()
    assert len(out) == len(IMPORT_STEPS)
    loaded = {step: set(json.loads(line)) for (step, _), line in zip(IMPORT_STEPS, out)}
    assert {m for m in loaded["import eqbundle"] if m.startswith("eqbundle")} == {"eqbundle"}
    cli_modules = loaded["import eqbundle.cli"]
    assert not {m for m in cli_modules if m == "scipy" or m.startswith("scipy.")}
    for step in ("import eqbundle.cli", "find on a builtin", "holonomy on a builtin"):
        assert not {"eqbundle.expr", "eqbundle.monodromy", "numpy.random"} & loaded[step], step
    assert "numpy.random" in loaded["find on a declaration"]
    assert "eqbundle.expr" in loaded["find on a declaration"]
    assert "eqbundle.monodromy" not in loaded["find on a declaration"]
    assert "eqbundle.monodromy" in loaded["eigen-loop"]


# the records that the modules of import eqbundle.cli define as NamedTuples:
# (module, class)
IMPORT_PATH_RECORDS = [
    ("audit", "CheckResult"), ("audit", "AuditReport"),
    ("finder", "EquilibriumPoint"), ("finder", "FiberTrace"), ("finder", "NewtonLanes"),
    ("linalg", "RankReport"),
    ("systems", "Evaluation"), ("systems", "FirstIntegralViolation"),
    ("transport", "ConnectionFrame"), ("transport", "TransportResult"),
    ("transport", "HolonomyReport"),
]


def test_the_import_path_defines_five_dataclasses():
    # building a dataclass execs its generated methods, about 0.7 ms of every
    # start each on Python 3.11, against about 0.14 ms for a NamedTuple.  The
    # five kept are the ones that callers pass to dataclasses.replace or
    # fields (Tolerances, RunConfig, SystemSpec, Domain) or that convert
    # their fields in __post_init__ (PointState)
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    script = "\n".join([
        "import dataclasses, json, sys",
        "import eqbundle.cli",
        "print(json.dumps(sorted(",
        "    f'{name}.{key}' for name, module in list(sys.modules.items())",
        "    if name.startswith('eqbundle.') for key, value in vars(module).items()",
        "    if isinstance(value, type) and value.__module__ == name",
        "    and dataclasses.is_dataclass(value))))",
    ])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert json.loads(out) == [
        "eqbundle.config.RunConfig", "eqbundle.systems.Domain", "eqbundle.systems.PointState",
        "eqbundle.systems.SystemSpec", "eqbundle.tolerances.Tolerances",
    ]


@pytest.mark.parametrize("module, name", IMPORT_PATH_RECORDS)
def test_a_record_refuses_assignment_as_its_frozen_dataclass_did(module, name):
    record_type = getattr(importlib.import_module(f"eqbundle.{module}"), name)
    assert issubclass(record_type, tuple) and not dataclasses.is_dataclass(record_type)
    # a field named as a tuple method would hide that method
    assert not {"count", "index"} & set(record_type._fields)
    record = record_type(*[None] * len(record_type._fields))
    for field in (*record_type._fields, "added"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)


@pytest.mark.parametrize("preset, imports, expected", [
    ({}, "import eqbundle.cli", {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, "import eqbundle.cli", {"OPENBLAS_NUM_THREADS": "2"}),
    ({"GOTO_NUM_THREADS": "2"}, "import eqbundle.cli", {"GOTO_NUM_THREADS": "2"}),
    ({"OMP_NUM_THREADS": "3"}, "import eqbundle.cli", {"OMP_NUM_THREADS": "3"}),
    ({}, "import eqbundle.finder", {}),
    ({}, "import numpy, eqbundle.cli", {}),
], ids=["default", "openblas-set", "goto-set", "omp-set", "library", "numpy-first"])
def test_a_cli_process_takes_one_blas_thread_unless_one_is_set(preset, imports, expected):
    # OpenBLAS reads its thread count once, as numpy loads: cli sets one
    # thread before that unless the user set a count, and neither the
    # library modules nor a cli imported after numpy touch the environment
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    script = "\n".join([
        "import json, os",
        imports,
        f"print(json.dumps({{k: os.environ[k] for k in {BLAS_THREAD_VARIABLES!r} "
        "if k in os.environ}))",
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 0)",
    ])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env={**env, **preset}, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert json.loads(out[0]) == expected
    if preset or imports != "import eqbundle.cli":
        return
    if out[1] == "0":
        pytest.skip("no /proc/self/task: the process's threads cannot be counted")
    assert out[1] == "1"


def test_each_package_name_is_its_home_modules_object():
    # the names resolve on first use, each to its home module's object
    import eqbundle

    for name in eqbundle.__all__:
        home = importlib.import_module(f"eqbundle.{eqbundle._HOME[name]}")
        value = getattr(eqbundle, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert "__all__" in dir(eqbundle) and set(eqbundle.__all__) <= set(dir(eqbundle))
    namespace: dict = {}
    exec("from eqbundle import *", namespace)
    assert set(eqbundle.__all__) <= set(namespace)
    assert eqbundle.monodromy is sys.modules["eqbundle.monodromy"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        eqbundle.no_such_name
    assert not hasattr(eqbundle, "no_such_name")


def test_a_home_module_is_imported_on_first_use_as_a_package_attribute():
    # in a fresh interpreter no submodule is loaded yet, so the attribute
    # comes from the package's __getattr__
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    script = "\n".join([
        "import sys, eqbundle",
        "assert 'eqbundle.expr' not in sys.modules",
        "assert eqbundle.expr is sys.modules['eqbundle.expr']",
    ])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                   check=True, timeout=60)


def test_the_readme_names_each_public_name_once_with_its_home_and_role():
    # a public name is added or removed together with its README row: the
    # commands that reach it, or why the library keeps it
    import eqbundle

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as handle:
        section = handle.read().split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    names = [name.strip("`") for name, _, _ in rows]
    assert sorted(names) == eqbundle.__all__
    for name, home, role in rows:
        assert home == eqbundle._HOME[name.strip("`")], name
        assert role, name


def _find_rfmr():
    points = enumerate_level_points(builtin("rfmr", n=3), [1, 1, 1], [1.5])
    return {"count": len(points), "points": [p.as_dict() for p in points]}


FIBER_LOOP = [[c] * 3 for c in (0.15, 0.275, 0.4, 0.275, 0.15)]
LIFT_PATH = [[1.2] * 3, [2.0, 1.0, 1.6]]

# (minimal config, the library call with no optional argument): the result
# of a run whose config gives no optional field is the library's default run
MINIMAL_RUNS = [
    (FIND_RFMR, _find_rfmr),
    ({"system": {"builtin": "planar"}, "command": "trace-fiber",
      "lambda": [0.5], "x0": [-0.455, 0.3]},
     lambda: trace_fiber(builtin("planar"), [0.5], [-0.455, 0.3]).as_dict()),
    ({"system": {"builtin": "rfmr", "n": 3}, "command": "transport",
      "path": LIFT_PATH, "x0": [0.4] * 3},
     lambda: lift_curve(builtin("rfmr", n=3), LIFT_PATH, [0.4] * 3).as_dict()),
    ({"system": {"builtin": "example2"}, "command": "holonomy",
      "loop": [[1.0], [2.5], [1.0]], "level": [2.0, 6.125]},
     lambda: holonomy_loop(builtin("example2"), [[1.0], [2.5], [1.0]], [2.0, 6.125]).as_dict()),
    ({"system": {"builtin": "rfmr", "n": 3}, "command": "eigen-loop",
      "lambda": [1.5] * 3, "loop_points": FIBER_LOOP},
     lambda: eigen_along_fiber_loop(builtin("rfmr", n=3), [1.5] * 3, FIBER_LOOP).as_dict()),
    (rotation_config(8),
     lambda: track_matrix_loop(rotation_config(8)["matrices"]).as_dict()),
]
MINIMAL_IDS = [raw["command"] for raw, _ in MINIMAL_RUNS]


@pytest.mark.parametrize("raw, library", MINIMAL_RUNS, ids=MINIMAL_IDS)
def test_the_echoed_defaults_are_the_library_defaults(raw, library):
    result, _ = cli.run_config(config_from_dict(raw))
    assert canonical_json(result) == canonical_json(library())


# command: (library function, {echoed field: its parameter})
SIGNATURE_DEFAULTS = {
    "find": (enumerate_level_points, {"budget": "budget", "seed": "seed"}),
    "trace-fiber": (trace_fiber, {"max_points": "max_points", "direction": "initial_direction"}),
    "transport": (lift_curve, {
        "min_fraction": "min_fraction", "initial_fraction": "initial_fraction",
        "max_fraction": "max_fraction",
    }),
    "holonomy": (holonomy_loop, {"budget": "budget", "seed": "seed"}),
    "eigen-loop": (eigen_along_fiber_loop, {"max_refine": "max_refine"}),
    "track-matrix-loop": (track_matrix_loop, {
        "k": "k", "tol_zero": "tol_zero", "max_refine": "max_refine",
    }),
}


@pytest.mark.parametrize("raw", [raw for raw, _ in MINIMAL_RUNS], ids=MINIMAL_IDS)
def test_each_echoed_default_is_the_signature_default(raw):
    function, fields = SIGNATURE_DEFAULTS[raw["command"]]
    parameters = inspect.signature(function).parameters
    settings = config_from_dict(raw).settings
    defaults = {field: parameters[param].default for field, param in fields.items()}
    if raw["command"] == "transport":
        # lift_curve's initial_fraction of None is resolved by lift_fractions
        defaults = dict(zip(defaults, lift_fractions(*defaults.values())))
    assert {field: settings[field] for field in fields} == defaults


def test_the_subcommand_is_checked_before_the_config(tmp_path, capsys, monkeypatch):
    # a transport config whose declared h is no first integral of f, run as
    # find: the mismatch is reported, and no system is built
    raw = {
        "system": {"declaration": {
            "n": 2, "m": 1, "k": 1, "f": ["x2", "0"], "h": ["x1"],
            "domain_box": [[-1, 1], [-1, 1]],
        }},
        "command": "transport", "path": [[0.5], [0.9]], "x0": [0.0, 0.5],
    }
    with pytest.raises(InputError, match="declared h is not a first integral"):
        config_from_dict(raw)
    builds = count_calls(monkeypatch, "build_system_from_config", expr)
    cfg = write_config(tmp_path, "transport.json", raw)
    assert main(["find", "--config", cfg]) == 1
    message = "config command 'transport' does not match the invoked subcommand 'find'"
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    envelope = json.loads(captured.out)
    assert envelope["error"] == {"type": "InputError", "message": message}
    assert envelope["config"] == raw and envelope["tolerances_used"] is None
    assert builds == []
