"""Declared systems on the batched path: the same reports and lane outcomes
as evaluating them point by point, and far fewer calls of the compiled f."""

import dataclasses

import numpy as np
import pytest

from conftest import ring_declaration
from eqbundle import cli, config, reports
from eqbundle.errors import ExprDomainError
from eqbundle.expr import _derivative_fns, compile_asts, parse
from eqbundle.finder import (
    CONVERGED,
    EVALUATION_ERROR,
    enumerate_level_points,
    level_starts,
    newton_lanes,
)
from eqbundle.systems import Domain, SystemSpec

R = float(np.sqrt(3.0))
EXAMPLE2 = {
    "n": 3, "m": 1, "k": 2,
    "f": ["-l1*x2*(x3-x1)", "l1*x1*(x3-x1)", "0"],
    "h": ["x1^2+x2^2+x3^2", "4*x1^2+4*x2^2+x3^2/4"],
    "domain_box": [[-R, R]] * 3,
}


def ring_runs(n: int) -> list:
    c, r = 0.2 + 0.1 * n, 0.5 + 0.25 * n
    diagonal = [c] * n
    return [
        {"command": "find", "lambda": [r] * n, "level": [n * c]},
        {"command": "transport", "path": [[r] * n, [1.5] * (n - 1) + [2.0], [r] * n],
         "x0": diagonal},
        {"command": "trace-fiber", "lambda": [r] * n, "x0": diagonal},
        {"command": "eigen-loop", "lambda": [r] * n,
         "loop_points": [[0.3] * n, [0.4] * n, [0.3] * n]},
    ]


# (u, v) = (x1^2, x2^2) on the plane x1 = x3: level (2u + v, 4.25u + 4v)
U, V = 0.4, 0.9
EXAMPLE2_RUNS = [
    {"command": "find", "lambda": [1.5], "level": [2 * U + V, 4.25 * U + 4 * V]},
    {"command": "transport", "path": [[1.0], [2.5], [0.75]],
     "x0": [float(np.sqrt(U)), float(np.sqrt(V)), float(np.sqrt(U))]},
]

CASES = [(ring_declaration(n), run) for n in (3, 4, 5, 6) for run in ring_runs(n)] + [
    (EXAMPLE2, run) for run in EXAMPLE2_RUNS
]


def envelope(run: config.RunConfig) -> str:
    result, _ = cli.run_config(run)
    return reports.canonical_json(
        reports.build_envelope(run.command, run.settings, run.tolerances, result=result)
    )


@pytest.mark.parametrize(
    "declaration, command", CASES, ids=[f"n{d['n']}-{c['command']}" for d, c in CASES]
)
def test_batched_reports_equal_point_by_point(declaration, command):
    run = config.config_from_dict({"system": {"declaration": declaration}, **command})
    assert run.system.batched
    lone = dataclasses.replace(
        run, system=dataclasses.replace(run.system, batched=False)
    )
    assert envelope(run) == envelope(lone)


def log_band_system(batched: bool) -> SystemSpec:
    """f1 = log(x1) - l1 x2 on a box where x1 crosses 0; h = x2.  The
    equilibrium on the level x2 = a is x1 = exp(l1 a).  Its derivatives
    are those of a declaration."""
    f_asts, h_asts = [parse("log(x1) - l1*x2", 2, 1), parse("0", 2, 1)], [parse("x2", 2, 1)]
    h = compile_asts(h_asts, 2, 1)
    return SystemSpec(
        name="log-band", n=2, m=1, k=1,
        f=compile_asts(f_asts, 2, 1), h=lambda x: h(np.zeros(1), x),
        domain=Domain(box=np.array([[-1.0, 3.0], [-1.0, 1.0]])),
        parameter_box=np.array([[0.25, 4.0]]),
        **_derivative_fns([ast.root for ast in f_asts], [ast.root for ast in h_asts], 2, 1),
        batched=batched,
    )


def test_faulting_lanes_match_point_by_point():
    lam, level = [0.5], [0.5]
    starts = level_starts(log_band_system(True), 60, 2)
    batched = newton_lanes(log_band_system(True), lam, level, starts)
    lone = newton_lanes(log_band_system(False), lam, level, starts)
    assert batched.counts() == lone.counts()
    assert batched.counts()["evaluation error"] > 0
    assert batched.counts()["converged"] > 0
    assert batched.x.tobytes() == lone.x.tobytes()
    assert batched.iteration.tolist() == lone.iteration.tolist()
    for lane in np.flatnonzero(batched.status == EVALUATION_ERROR):
        assert isinstance(batched.error(lane), ExprDomainError)
        assert str(batched.error(lane)) == str(lone.error(lane))
    np.testing.assert_allclose(
        batched.x[batched.status == CONVERGED, 0], np.exp(0.25), rtol=1e-9
    )


def counted_f(sys: SystemSpec):
    calls = [0]
    f = sys.f

    def counting(lam, x):
        calls[0] += 1
        return f(lam, x)

    return dataclasses.replace(sys, f=counting), calls


def test_declared_find_calls_f_per_iteration_not_per_lane():
    sys = config.config_from_dict(
        {"system": {"declaration": ring_declaration(3)}, "command": "find",
         "lambda": [1.0] * 3, "level": [1.5]}
    ).system
    lam, level = [1.0] * 3, [1.5]
    iterations = int(newton_lanes(sys, lam, level, level_starts(sys, 200, 0)).iteration.max())

    batched, calls = counted_f(sys)
    points = enumerate_level_points(batched, lam, level, budget=200, seed=0)
    assert len(points) == 1
    # the first residual; per iteration at most 25 line-search trials; per
    # kept point the audit's evaluate.  The derivatives call no f.
    assert calls[0] <= 1 + 25 * iterations + len(points)

    lone, lone_calls = counted_f(dataclasses.replace(sys, batched=False))
    again = enumerate_level_points(lone, lam, level, budget=200, seed=0)
    assert [p.as_dict() for p in again] == [p.as_dict() for p in points]
    # lane by lane: every lane and trial
    assert lone_calls[0] > 100 * calls[0]
