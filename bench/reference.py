"""Fixed pieces of reference work that measure the machine's current speed.

On a shared machine other tenants change the speed of the cores from one
second to the next: a fixed pure-Python loop on the 2-core VM the
benchmark was built on took anywhere from 57 to 86 ms within a few
seconds, and whole runs slowed by 30-80 % for minutes.  Wall times taken
there mostly measure the neighbours.

The benchmark therefore times a reference next to every timed piece of
the program and reports each time scaled to a machine on which that
reference takes its nominal time:

    scaled = wall * nominal / reference_wall

Two references cover the two kinds of work the benchmark times:

COMPUTE  what a job spends its time on: interpreted Python (float
         arithmetic, small lists), numpy calls on small arrays, and small
         dense LAPACK calls (SVD, least squares, eigenvalues).  It scales
         the stream's jobs and the first job of a fresh process.
STARTUP  what starting the package spends its time on: loading cached
         bytecode of pure-Python modules and running their bodies.  It
         re-executes private copies of a fixed set of standard-library
         modules, and scales the spawn of a fresh interpreter and the
         real CLI run.  Against process starts it tracks the machine's
         speed far better than COMPUTE does.

Neither imports anything from eqbundle, so no change to the package can
change them.
"""

from __future__ import annotations

import importlib.util
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20250409)
_MATRICES = [_rng.standard_normal((n, n)) for n in (3, 6, 10, 20)]
_RHS = [_rng.standard_normal(n) for n in (3, 6, 10, 20)]
_SMALL = _rng.standard_normal((6, 6))
_VECTOR = _rng.standard_normal(6)


def _python_part() -> float:
    acc = 0.0
    point = [0.1, 0.2, 0.3, 0.4]
    for i in range(2500):
        point = [x * 0.999 + 0.001 * i for x in point]
        acc += sum(point) / (1.0 + abs(acc))
    return acc


def _small_array_part() -> float:
    x = _VECTOR.copy()
    for _ in range(150):
        y = _SMALL @ x
        x = y / np.linalg.norm(y) + 0.01 * np.abs(x)
        x = np.concatenate((x, y))[:6]
    return float(x[0])


def _lapack_part() -> float:
    acc = 0.0
    for a, b in 4 * list(zip(_MATRICES, _RHS)):
        acc += float(np.linalg.svd(a, compute_uv=False)[0])
        acc += float(np.linalg.lstsq(a, b, rcond=None)[0][0])
        acc += float(abs(np.linalg.eigvals(a)).max())
    return acc


def _compute_work() -> None:
    _python_part()
    _small_array_part()
    _lapack_part()


_STARTUP_MODULES = (
    "argparse", "calendar", "difflib", "email.message", "http.client",
    "inspect", "pydoc", "tarfile", "xml.dom.minidom", "_pydecimal",
)
_startup_files: list = []


def _startup_work() -> None:
    # resolved on first use: finding a submodule imports its package, and
    # the workload process must not import anything before its first job
    if not _startup_files:
        _startup_files.extend(
            importlib.util.find_spec(name).origin for name in _STARTUP_MODULES
        )
    for index, path in enumerate(_startup_files):
        spec = importlib.util.spec_from_file_location(f"_bench_reference_{index}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


class Reference:
    """One fixed piece of work and the time it takes on the nominal
    machine; the nominal times only fix the scale of the reported times
    and are close to the references' times when the VM runs fast.  The
    first pass in a process pays first-call costs, which the median of
    ``sample`` leaves out."""

    def __init__(self, work, nominal_s: float):
        self.work = work
        self.nominal_s = nominal_s

    def once(self) -> float:
        """Wall seconds of one pass."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def sample(self, repeats: int = 3) -> float:
        """Median wall seconds of a few back-to-back passes."""
        return statistics.median(self.once() for _ in range(repeats))

    def scale(self, wall: float, before: float, after: float) -> float:
        """A wall time scaled to the nominal machine, by the mean of the
        reference timed just before and just after it."""
        return wall * self.nominal_s / (0.5 * (before + after))


COMPUTE = Reference(_compute_work, 0.004)
STARTUP = Reference(_startup_work, 0.009)
