"""Seeded job streams for the two workloads, with an oracle per job.

Every job is a CLI-shaped run config plus the outcome it must produce.
Inputs are drawn only where the answer is known in closed form:

* rfmr(n) at uniform rates lambda = (r, ..., r) has the unique equilibrium
  x = (c, ..., c) on the level sum(x) = n c, its fiber is the diagonal
  segment of [0, 1]^n, and its Jacobian there is circulant;
* example2 has its equilibria on the plane x1 = x3, independent of
  lambda, so a level (h1, h2) meets them in the 4 points
  (+-sqrt(u), +-sqrt(v), +-sqrt(u)) with h1 = 2u + v, h2 = 4.25u + 4v;
* planar has the single equilibrium (lambda (a^2 - 1), a) on the level
  x2 = a, and its fiber is that parabola inside the unit disk.

Job i of a workload is a pure function of (workload, seed, i).  Its class
comes from a fixed cyclic schedule and its system size cycles with the
class's occurrence count, so every run sees the same mix; its parameters
come from a generator seeded by the string "workload:seed:i".
This module uses only the standard library, so the oracle shares no code
with the package it checks.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("find", "paths")


def _interleave(weights: dict) -> tuple:
    """One period of a smooth weighted round robin over the classes, so
    every stretch of the stream carries close to the full mix."""
    current = {cls: 0 for cls in weights}
    total = sum(weights.values())
    order = []
    for _ in range(total):
        for cls, weight in weights.items():
            current[cls] += weight
        pick = max(current, key=lambda cls: current[cls])
        current[pick] -= total
        order.append(pick)
    return tuple(order)


# Class weights per workload.  Each workload's p50 and p90 ranks fall in
# the middle of one class's latency band, not on the edge between two, so
# a speed change moves them instead of swapping which class they sample:
#   find   p50 in rfmr3 (40-75 %), p90 in the empty levels (81-95 %);
#          find on declared systems, the costliest class, above it
#   paths  p90 in eigen-loop on rfmr(20) (77-95 %); the jobs on declared
#          systems, ten times the cost of a builtin one, above it
# Systems declared in the expression language ride in both workloads at a
# low weight: find on ring(3), ring(4) and example2 in `find`, the path
# commands on ring(3..6) and example2 in `paths`.  They are about a tenth
# of `find`'s job time and a third of `paths`'s.
_FIND = {
    "find.example2": 8,
    "find.planar": 8,
    "find.rfmr3": 14,
    "find.rfmr10": 2,
    "find.rfmr20": 2,
    "find.empty": 6,
    "find.ring": 1,
    "find.example2-expr": 1,
}
_PATHS = {
    "transport.rfmr": 12,
    "transport.planar": 4,
    "transport.example2": 4,
    "cocycle.rfmr": 8,
    "cocycle.planar": 4,
    "holonomy.example2": 8,
    "holonomy.planar": 4,
    "trace-fiber.rfmr": 8,
    "trace-fiber.planar": 4,
    "eigen-loop.rfmr": 16,
    "track-matrix-loop.rotation": 8,
    "track-matrix-loop.rfmr": 4,
    "trace-fiber.ring": 1,
    "transport.ring": 1,
    "transport.example2-expr": 1,
    "eigen-loop.ring": 1,
}
SCHEDULES = {"find": _interleave(_FIND), "paths": _interleave(_PATHS)}

EX2_RADIUS = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


def ring_declaration(n: int) -> dict:
    """The rfmr(n) ring written in the expression language."""
    f = []
    for i in range(n):
        im, ip = (i - 1) % n, (i + 1) % n
        f.append(
            f"l{im + 1}*x{im + 1}*(1-x{i + 1}) - l{i + 1}*x{i + 1}*(1-x{ip + 1})"
        )
    return {
        "declaration": {
            "n": n,
            "m": n,
            "k": 1,
            "f": f,
            "h": ["+".join(f"x{i + 1}" for i in range(n))],
            "domain_box": [[0.0, 1.0]] * n,
            "name": f"ring{n}",
        }
    }


EXAMPLE2_DECLARATION = {
    "declaration": {
        "n": 3,
        "m": 1,
        "k": 2,
        "f": ["-l1*x2*(x3-x1)", "l1*x1*(x3-x1)", "0"],
        "h": ["x1^2+x2^2+x3^2", "4*x1^2+4*x2^2+x3^2/4"],
        "domain_box": [[-EX2_RADIUS, EX2_RADIUS]] * 3,
        "name": "example2-expr",
    }
}


def _rfmr(n: int) -> dict:
    return {"builtin": "rfmr", "n": n}


def _example2_level(rng: random.Random):
    """A level (h1, h2) inside example2's domain bands [1, 3] x [5, 15]
    that meets the equilibrium plane, with its 4 equilibria."""
    while True:
        u = rng.uniform(0.05, 1.4)
        v = rng.uniform(0.05, 2.8)
        a1, a2 = 2.0 * u + v, 4.25 * u + 4.0 * v
        if 1.1 <= a1 <= 2.9 and 5.2 <= a2 <= 14.8:
            break
    su, sv = math.sqrt(u), math.sqrt(v)
    points = [[s1 * su, s2 * sv, s1 * su] for s1 in (-1, 1) for s2 in (-1, 1)]
    return [a1, a2], points


def _example2_empty_level(rng: random.Random):
    """A level inside the domain bands with h2 > 4 h1, where no point of
    the plane x1 = x3 (nor the x3 axis) satisfies both integrals."""
    a1 = rng.uniform(1.1, 2.5)
    a2 = rng.uniform(4.0 * a1 + 0.5, 14.8)
    return [a1, a2]


def _planar_point(lam: float, a: float) -> list:
    return [lam * (a * a - 1.0), a]


def _diagonal(n: int, c: float) -> list:
    return [c] * n


def _one_side_of_half(rng: random.Random, width: float):
    """Two fill levels on the same side of 1/2, at least `width` apart;
    conjugate rfmr eigenvalue pairs only meet at c = 1/2."""
    if rng.random() < 0.5:
        lo, hi = 0.08, 0.45
    else:
        lo, hi = 0.55, 0.92
    c0 = rng.uniform(lo, hi - width)
    c1 = rng.uniform(c0 + width, hi)
    return (c0, c1) if rng.random() < 0.5 else (c1, c0)


def _out_and_back(c0: float, c1: float, legs: int) -> list:
    out = [c0 + (c1 - c0) * j / legs for j in range(legs + 1)]
    return out + out[-2::-1]


def _circulant_jacobian(n: int, r: float, c: float) -> list:
    """df/dx of rfmr(n) at lambda = (r, ..., r), x = (c, ..., c)."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        row[(i - 1) % n] = r * (1.0 - c)
        row[i] = -r
        row[(i + 1) % n] = r * c
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# job classes: each returns (raw config, expected outcome)
# ---------------------------------------------------------------------------


def _find_rfmr(rng, n, system=None):
    r = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.15, 0.85)
    raw = {
        "system": system if system is not None else _rfmr(n),
        "command": "find",
        "lambda": [r] * n,
        "level": [n * c],
    }
    return raw, {"points": [_diagonal(n, c)]}


def _find_example2(rng, system=None):
    level, points = _example2_level(rng)
    raw = {
        "system": system if system is not None else {"builtin": "example2"},
        "command": "find",
        "lambda": [rng.uniform(0.5, 3.0)],
        "level": level,
    }
    return raw, {"points": points}


def _find_planar(rng):
    lam = rng.uniform(0.1, 1.0)
    a = rng.uniform(-0.9, 0.9)
    raw = {
        "system": {"builtin": "planar"},
        "command": "find",
        "lambda": [lam],
        "level": [a],
    }
    return raw, {"points": [_planar_point(lam, a)]}


def _find_empty(rng):
    raw = {
        "system": {"builtin": "example2"},
        "command": "find",
        "lambda": [rng.uniform(0.5, 3.0)],
        "level": _example2_empty_level(rng),
    }
    return raw, {"points": []}


def _transport_rfmr(rng, n, system=None):
    r = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.2, 0.8)
    base = [r] * n
    far = [rng.uniform(0.5, 3.0) for _ in range(n)]
    raw = {
        "system": system if system is not None else _rfmr(n),
        "command": "transport",
        "path": [base, far, base],
        "x0": _diagonal(n, c),
    }
    # out and back along a contractible path returns to the start
    return raw, {"end": _diagonal(n, c)}


def _transport_planar(rng):
    lams = [rng.uniform(0.1, 1.0) for _ in range(3)]
    a = rng.uniform(-0.9, 0.9)
    raw = {
        "system": {"builtin": "planar"},
        "command": "transport",
        "path": [[v] for v in lams],
        "x0": _planar_point(lams[0], a),
    }
    return raw, {"end": _planar_point(lams[-1], a)}


def _transport_example2(rng, system=None):
    _, points = _example2_level(rng)
    x0 = points[rng.randrange(4)]
    raw = {
        "system": system if system is not None else {"builtin": "example2"},
        "command": "transport",
        "path": [[rng.uniform(0.5, 3.0)] for _ in range(3)],
        "x0": x0,
    }
    # the equilibrium plane does not move with lambda
    return raw, {"end": x0}


def _cocycle_rfmr(rng, n):
    r = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.2, 0.8)
    raw = {
        "system": _rfmr(n),
        "command": "cocycle",
        "lambda1": [r] * n,
        "lambda2": [rng.uniform(0.5, 3.0) for _ in range(n)],
        "lambda3": [rng.uniform(0.5, 3.0) for _ in range(n)],
        "x0": _diagonal(n, c),
    }
    return raw, {"max_deviation": 1e-8}


def _cocycle_planar(rng):
    lams = [rng.uniform(0.1, 1.0) for _ in range(3)]
    a = rng.uniform(-0.9, 0.9)
    raw = {
        "system": {"builtin": "planar"},
        "command": "cocycle",
        "lambda1": [lams[0]],
        "lambda2": [lams[1]],
        "lambda3": [lams[2]],
        "x0": _planar_point(lams[0], a),
    }
    return raw, {"max_deviation": 1e-8}


def _holonomy_example2(rng):
    level, points = _example2_level(rng)
    base, turn = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    raw = {
        "system": {"builtin": "example2"},
        "command": "holonomy",
        "loop": [[base], [turn], [base]],
        "level": level,
        "budget": 32,
    }
    return raw, {"points": points}


def _holonomy_planar(rng):
    base, turn = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
    a = rng.uniform(-0.9, 0.9)
    raw = {
        "system": {"builtin": "planar"},
        "command": "holonomy",
        "loop": [[base], [turn], [base]],
        "level": [a],
        "budget": 16,
    }
    return raw, {"points": [_planar_point(base, a)]}


def _trace_rfmr(rng, n, system=None):
    raw = {
        "system": system if system is not None else _rfmr(n),
        "command": "trace-fiber",
        "lambda": [rng.uniform(0.5, 3.0)] * n,
        "x0": _diagonal(n, rng.uniform(0.15, 0.85)),
    }
    return raw, {"topology": "segment", "fiber": "diagonal"}


def _trace_planar(rng):
    lam = rng.uniform(0.1, 1.0)
    raw = {
        "system": {"builtin": "planar"},
        "command": "trace-fiber",
        "lambda": [lam],
        "x0": _planar_point(lam, rng.uniform(-0.9, 0.9)),
    }
    return raw, {"topology": "segment", "fiber": "parabola", "lambda": lam}


def _eigen_loop_rfmr(rng, n, system=None):
    r = rng.uniform(0.5, 3.0)
    c0, c1 = _one_side_of_half(rng, 0.3)
    # coarse legs, so tracking refines to several times its input samples
    cs = _out_and_back(c0, c1, rng.randint(1, 2))
    raw = {
        "system": system if system is not None else _rfmr(n),
        "command": "eigen-loop",
        "lambda": [r] * n,
        "loop_points": [_diagonal(n, c) for c in cs],
    }
    return raw, {"permutation": "identity", "windings": [0] * (n - 1)}


def _track_rotation(rng):
    rho = rng.uniform(0.5, 2.0)
    samples = 2 * rng.randint(12, 80)
    mats = []
    for j in range(samples + 1):
        s = 2.0 * math.pi * (j % samples) / samples
        mats.append([[0.0, rho], [-rho, 2.0 * rho * math.cos(s)]])
    raw = {"command": "track-matrix-loop", "matrices": mats, "k": 0}
    # eigenvalues rho exp(+-i s): one turn each way, two sign changes of Re.
    # The two eigenvalues meet at s = 0 and s = pi; only a loop sampled at
    # both points crosses there, a linear blend across either one keeps the
    # pair complex and the tracks turn back, so samples is even.
    return raw, {"windings_sorted": [-1, 1], "crossings": [2, 2]}


def _track_rfmr(rng, n):
    c0, _ = _one_side_of_half(rng, 0.15)
    room = min(c0 - 0.05, 0.45 - c0) if c0 < 0.5 else min(c0 - 0.55, 0.95 - c0)
    rc = rng.uniform(0.3, 0.9) * room
    r0 = rng.uniform(1.0, 2.5)
    rr = rng.uniform(0.2, 0.8) * (r0 - 0.3)
    samples = rng.randint(12, 48)
    mats = []
    for j in range(samples + 1):
        t = 2.0 * math.pi * (j % samples) / samples
        mats.append(
            _circulant_jacobian(n, r0 + rr * math.cos(t), c0 + rc * math.sin(t))
        )
    raw = {"command": "track-matrix-loop", "matrices": mats, "k": 1}
    return raw, {"permutation": "identity", "windings": [0] * (n - 1)}


def _sized(make, sizes, declared=False):
    """A class whose system size cycles through `sizes` with the class's
    occurrence count, so every run sees the same size mix."""

    def build(rng, k):
        n = sizes[k % len(sizes)]
        if declared:
            return make(rng, n, ring_declaration(n))
        return make(rng, n)

    return build


def _plain(make, *extra):
    return lambda rng, k: make(rng, *extra)


RING_SIZES = (3, 4, 5, 6)
FIND_RING_SIZES = (3, 4)

CLASSES = {
    "find.rfmr3": _sized(_find_rfmr, (3,)),
    "find.rfmr10": _sized(_find_rfmr, (10,)),
    "find.rfmr20": _sized(_find_rfmr, (20,)),
    "find.example2": _plain(_find_example2),
    "find.planar": _plain(_find_planar),
    "find.empty": _plain(_find_empty),
    "transport.rfmr": _sized(_transport_rfmr, (3, 5, 10)),
    "transport.planar": _plain(_transport_planar),
    "transport.example2": _plain(_transport_example2),
    "cocycle.rfmr": _sized(_cocycle_rfmr, (3, 5, 10)),
    "cocycle.planar": _plain(_cocycle_planar),
    "holonomy.example2": _plain(_holonomy_example2),
    "holonomy.planar": _plain(_holonomy_planar),
    "trace-fiber.rfmr": _sized(_trace_rfmr, (3, 10, 20)),
    "trace-fiber.planar": _plain(_trace_planar),
    "eigen-loop.rfmr": _sized(_eigen_loop_rfmr, (20,)),
    "track-matrix-loop.rotation": _plain(_track_rotation),
    "track-matrix-loop.rfmr": _sized(_track_rfmr, (5, 10, 20)),
    "find.ring": _sized(_find_rfmr, FIND_RING_SIZES, declared=True),
    "find.example2-expr": _plain(_find_example2, EXAMPLE2_DECLARATION),
    "trace-fiber.ring": _sized(_trace_rfmr, RING_SIZES, declared=True),
    "transport.ring": _sized(_transport_rfmr, RING_SIZES, declared=True),
    "transport.example2-expr": _plain(_transport_example2, EXAMPLE2_DECLARATION),
    "eigen-loop.ring": _sized(_eigen_loop_rfmr, RING_SIZES, declared=True),
}


def job(workload: str, seed: int, index: int) -> dict:
    """Job `index` of the seeded stream: {"cls", "raw", "expect"}."""
    schedule = SCHEDULES[workload]
    period = len(schedule)
    cls = schedule[index % period]
    occurrence = (index // period) * schedule.count(cls) + schedule[: index % period].count(cls)
    rng = random.Random(f"{workload}:{seed}:{index}")
    raw, expect = CLASSES[cls](rng, occurrence)
    return {"cls": cls, "raw": raw, "expect": expect}


# fixed per-workload configs for the first job of a fresh process and for
# the real CLI subprocess; they do not depend on the seed
REPRESENTATIVE = {
    "find": {
        "cls": "find.rfmr3",
        "raw": {
            "system": _rfmr(3),
            "command": "find",
            "lambda": [1.0, 1.0, 1.0],
            "level": [1.5],
        },
        "expect": {"points": [[0.5, 0.5, 0.5]]},
    },
    "paths": {
        "cls": "holonomy.example2",
        "raw": {
            "system": {"builtin": "example2"},
            "command": "holonomy",
            "loop": [[1.0], [3.0], [1.0]],
            "level": [2.0, 6.125],
            "budget": 32,
        },
        "expect": {
            "points": [
                [s1 * math.sqrt(0.5), s2, s1 * math.sqrt(0.5)]
                for s1 in (-1, 1)
                for s2 in (-1, 1)
            ]
        },
    },
}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

EQ_TOL = 1e-9          # the package default: |f| <= 1e-9 (1 + |x|)
POINT_TOL = 1e-6       # distance to the closed-form point
DRIFT_TOL = 1e-8       # transport drift of h and residual of f


def _dist(a, b) -> float:
    return math.sqrt(sum((p - q) ** 2 for p, q in zip(a, b)))


def _norm(a) -> float:
    return math.sqrt(sum(p * p for p in a))


def _match_points(found, expected, what: str, subset: bool = False) -> list:
    """Each found point is a distinct expected one; with subset=False the
    counts must agree as well."""
    if len(found) > len(expected) or (not subset and len(found) != len(expected)):
        return [f"{what}: {len(found)} points, expected {len(expected)}"]
    if not found:
        return [f"{what}: no points"] if expected else []
    problems = []
    unused = list(range(len(expected)))
    for x in found:
        hit = next((j for j in unused if _dist(x, expected[j]) <= POINT_TOL), None)
        if hit is None:
            problems.append(f"{what}: {x} is not a known equilibrium")
        else:
            unused.remove(hit)
    return problems


def _check_find(result, expect):
    points = result["points"]
    problems = []
    if result["count"] != len(points):
        problems.append("count disagrees with the point list")
    problems += _match_points([p["x"] for p in points], expect["points"], "find")
    for p in points:
        x = p["x"]
        if p["residual_f"] > EQ_TOL * (1.0 + _norm(x)):
            problems.append(f"residual {p['residual_f']:.3e} at {x}")
        audit = p["audit"]
        if audit["cond_ii"]["passed"] is not True or audit["cond_iii"]["passed"] is not True:
            problems.append(f"audit cond_ii/iii failed at {x}")
    return problems


def _check_level(result, raw):
    """Every found point lies on the requested level."""
    problems = []
    for p in result.get("points", []):
        level = p["level"]
        if _dist(level, raw["level"]) > 1e-8 * (1.0 + _norm(raw["level"])):
            problems.append(f"level {level} misses {raw['level']}")
    return problems


def _check_holonomy(result, expect):
    # a small budget may miss a basin, so the base set may be a subset
    n = len(result["points_before"])
    problems = _match_points(
        result["points_before"], expect["points"], "holonomy", subset=True
    )
    if result["permutation"] != list(range(n)):
        problems.append(f"permutation {result['permutation']} is not the identity")
    return problems


def _check_transport(result, expect):
    problems = []
    if result["max_h_drift"] > DRIFT_TOL:
        problems.append(f"max_h_drift {result['max_h_drift']:.3e}")
    if result["max_f_residual"] > DRIFT_TOL:
        problems.append(f"max_f_residual {result['max_f_residual']:.3e}")
    end = result["gamma"][-1]
    if _dist(end, expect["end"]) > POINT_TOL:
        problems.append(f"lift ends at {end}, expected {expect['end']}")
    return problems


def _check_cocycle(result, expect):
    if result["deviation"] > expect["max_deviation"]:
        return [f"cocycle deviation {result['deviation']:.3e}"]
    return []


def _check_trace(result, expect):
    problems = []
    if result["topology"] != expect["topology"]:
        problems.append(f"topology {result['topology']!r}, expected {expect['topology']!r}")
    for x in result["points"]:
        if expect["fiber"] == "diagonal":
            off = max(x) - min(x)
        else:
            off = abs(x[0] - expect["lambda"] * (x[1] * x[1] - 1.0))
        if off > POINT_TOL:
            problems.append(f"traced point {x} is off the fiber by {off:.3e}")
            break
    if result["max_f_residual"] > DRIFT_TOL:
        problems.append(f"max_f_residual {result['max_f_residual']:.3e}")
    return problems


def _check_monodromy(result, expect):
    problems = []
    perm = result["permutation"]
    if expect.get("permutation") == "identity" and perm != list(range(len(perm))):
        problems.append(f"permutation {perm} is not the identity")
    if "windings" in expect and result["windings"] != expect["windings"]:
        problems.append(f"windings {result['windings']}, expected {expect['windings']}")
    if "windings_sorted" in expect and sorted(result["windings"]) != expect["windings_sorted"]:
        problems.append(f"windings {result['windings']}, expected {expect['windings_sorted']}")
    if "crossings" in expect and result["crossings"] != expect["crossings"]:
        problems.append(f"crossings {result['crossings']}, expected {expect['crossings']}")
    return problems


def check(job_spec: dict, envelope: dict) -> list:
    """Problems with one job's envelope; an empty list means it passed."""
    if "error" in envelope:
        return [f"raised {envelope['error']}"]
    result = envelope.get("result")
    if result is None:
        return ["no result in the envelope"]
    command = job_spec["raw"]["command"]
    expect = job_spec["expect"]
    try:
        if command == "find":
            return _check_find(result, expect) + _check_level(result, job_spec["raw"])
        if command == "holonomy":
            return _check_holonomy(result, expect)
        if command == "transport":
            return _check_transport(result, expect)
        if command == "cocycle":
            return _check_cocycle(result, expect)
        if command == "trace-fiber":
            return _check_trace(result, expect)
        if command in ("eigen-loop", "track-matrix-loop"):
            return _check_monodromy(result, expect)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed result: {type(exc).__name__}: {exc}"]
    return [f"no oracle for command {command!r}"]
