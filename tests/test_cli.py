import json
import os
import subprocess
import sys

import numpy as np
import pytest

from eqbundle.cli import main
from eqbundle.config import config_from_dict, load_config
from eqbundle.errors import InputError
from eqbundle.tolerances import DEFAULT_TOLERANCES, Tolerances

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
    lines = open(base + ".csv").read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("topology = segment" in ln for ln in comments)
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "x1,x2"
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    assert len(rows) == len(report["points"])
    # 17 significant digits round-trip exactly
    assert rows[0] == report["points"][0]
    assert rows[-1] == report["points"][-1]


def test_transport_csv_columns(tmp_path):
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
    assert captured.out == ""


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
    with pytest.raises(InputError, match="dimension mismatch"):
        config_from_dict(
            {
                "system": {"builtin": "planar"},
                "command": "track-matrix-loop",
                "matrices": [np.eye(3).tolist()] * 2,
            }
        )


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.json"))


def test_matrix_loop_without_system(tmp_path, capsys):
    cfg = write_config(tmp_path, "rot8.json", rotation_config(8))
    assert main(["track-matrix-loop", "--config", cfg]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "system" not in data["config"]
    assert sorted(data["result"]["windings"]) == [-1, 1]


def test_import_loads_no_scipy():
    # scipy is a test dependency only; numpy.random is imported eagerly so
    # that the first find does not pay for its import
    import eqbundle

    src = os.path.dirname(os.path.dirname(eqbundle.__file__))
    probe = (
        "import sys, eqbundle, eqbundle.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "print('numpy.random' in sys.modules)"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split("\n")
    assert out[0] == "[]"
    assert out[1] == "True"
