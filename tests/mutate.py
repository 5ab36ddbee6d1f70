"""Mutation audit: which one-site changes of a module do the tests notice?

Usage: python tests/mutate.py module [module ...]

Each module is src/eqbundle/<module>.py.  A mutant changes one site of it:

    cmp     a comparison operator: < and <=, > and >=, == and != swapped
    bool    every `and` of one boolean operation made `or`, or back
    raise   the `raise` of an `if` guard replaced by `pass`
    return  an early `return` (one inside an `if`, not the function's
            last statement) replaced by `pass`

Mutants are written into scratch copies of the repository, one copy per
worker, never into the tree itself.  Each mutant first runs the module's
own test files (_OWN_TESTS, else tests/test_<module>.py) with -x; a mutant
they do not kill runs all of tier-1 with -x.  The unmutated tree runs
both first, and must pass; a mutant run that takes more than 5 times as
long, plus 10 s, is stopped and counts as killed.  One line per mutant,
`file:line:col operator verdict`, and a kill rate per module are printed;
the verdict is killed (with the first failing test), survived or timeout.
Two workers run; monodromy, linalg and finder (200 sites) take about 15
minutes on two cores, and transport, errors, config and reports (137
sites) about 3 minutes.

--root, --package and --scratch point the runner at another tree (the
repository, src/eqbundle and a new temporary directory by default);
tests/test_mutate.py runs it on a small fixture that way.  pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}
_COMPARISONS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
                ast.NotEq: "!="}
# a module's own test files, where they are not tests/test_<module>.py alone
_OWN_TESTS = {
    "__init__": ("test_cli.py",),
    "audit": ("test_audit.py", "test_escapes.py"),
    "cli": ("test_cli.py", "test_escapes.py", "test_input_checks.py", "test_golden.py"),
    "config": ("test_input_checks.py", "test_cli.py", "test_escapes.py"),
    "errors": ("test_input_checks.py", "test_cli.py", "test_escapes.py"),
    "expr": ("test_expr.py", "test_declared_batched.py"),
    "finder": ("test_finder.py", "test_newton_lanes.py"),
    "reports": ("test_reports.py", "test_golden.py"),
    "tolerances": ("test_cli.py", "test_input_checks.py"),
    "transport": ("test_transport.py", "test_lift_lanes.py", "test_lift_properties.py"),
}
_WORKERS = 2
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                  ".bench_out", ".bench_build", "*.egg-info")


@dataclass(frozen=True)
class Mutant:
    """One site: replace source[start:end] (offsets into the text) by new."""

    module: str
    line: int
    col: int                    # 1-based
    operator: str
    start: int
    end: int
    new: str


def _offsets(source: str) -> list:
    """The text offset at which each line starts, 1-based by line."""
    starts, total = [0, 0], 0
    for line in source.splitlines(keepends=True):
        total += len(line)
        starts.append(total)
    return starts


def _tail_returns(body: list) -> set:
    """The Return nodes a function ends with: its last statement, through
    the branches of a closing if or the body of a closing with."""
    if not body:
        return set()
    last = body[-1]
    if isinstance(last, ast.Return):
        return {last}
    if isinstance(last, ast.If):
        return _tail_returns(last.body) | _tail_returns(last.orelse)
    if isinstance(last, ast.With):
        return _tail_returns(last.body)
    return set()


def sites(module: str, source: str) -> list:
    """Every mutant of the module's source, in source order."""
    tree = ast.parse(source)
    line_start = _offsets(source)
    lines = source.splitlines()

    def offset(line, col_bytes):
        # ast columns count UTF-8 bytes, the text counts characters
        return line_start[line] + len(lines[line - 1].encode()[:col_bytes].decode())

    tokens = [
        (line_start[tok.start[0]] + tok.start[1], line_start[tok.end[0]] + tok.end[1],
         tok.start, tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type in (tokenize.OP, tokenize.NAME)
    ]

    def token(lo_node, hi_node, texts):
        # the operator token between two operands, parentheses aside
        lo = offset(lo_node.end_lineno, lo_node.end_col_offset)
        hi = offset(hi_node.lineno, hi_node.col_offset)
        return next(t for t in tokens if lo <= t[0] and t[1] <= hi and t[3] in texts)

    found = []

    def add(start, end, at, operator, new):
        found.append(Mutant(module, at[0], at[1] + 1, operator, start, end, new))

    def drop(node, kind):
        start = offset(node.lineno, node.col_offset)
        end = offset(node.end_lineno, node.end_col_offset)
        add(start, end, (node.lineno, start - line_start[node.lineno]), f"{kind} -> pass",
            "pass")

    tails = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            tails |= _tail_returns(node.body)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                text = _COMPARISONS.get(type(op))
                if text is not None:
                    start, end, at, _ = token(operands[i], operands[i + 1], {text})
                    add(start, end, at, f"{text} -> {_SWAPS[text]}", _SWAPS[text])
        elif isinstance(node, ast.BoolOp):
            old = "and" if isinstance(node.op, ast.And) else "or"
            new = "or" if old == "and" else "and"
            ops = [token(a, b, {old}) for a, b in zip(node.values, node.values[1:])]
            found.append(_joined(module, source, ops, f"{old} -> {new}", new))
        elif isinstance(node, ast.If):
            for stmt in node.body + node.orelse:
                if isinstance(stmt, ast.Raise):
                    drop(stmt, "raise")
                elif isinstance(stmt, ast.Return) and stmt not in tails:
                    drop(stmt, "return")
    return sorted(found, key=lambda m: (m.start, m.operator))


def _joined(module, source, ops, operator, new) -> Mutant:
    """One mutant replacing every token of ops, the span from the first to
    the last rewritten as a whole."""
    start, end = ops[0][0], ops[-1][1]
    text = source[start:end]
    for lo, hi, _, _ in reversed(ops):
        text = text[: lo - start] + new + text[hi - start:]
    line, col = ops[0][2]
    return Mutant(module, line, col + 1, operator, start, end, text)


def _run(copy: str, source: str, tests: list, timeout) -> tuple:
    """(verdict, first failing test, seconds) of one pytest run of tests
    (tier-1 when empty) in copy, with copy/source first on the import
    path.  Plugins are not autoloaded, which saves about a second of
    entry-point discovery per run; hypothesis' plugin is loaded by name."""
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)
    path = os.pathsep.join(
        filter(None, [os.path.join(copy, source), os.environ.get("PYTHONPATH")])
    )
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1",
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-p", "_hypothesis_pytestplugin", *tests],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return "timeout", "", time.perf_counter() - began
    seconds = time.perf_counter() - began
    if process.returncode == 0:
        return "survived", "", seconds
    failed = next((line.split(" - ")[0] for line in out.splitlines()
                   if line.startswith(("FAILED ", "ERROR "))), "")
    return "killed", failed, seconds


def _own_tests(root: str, module: str) -> list:
    names = _OWN_TESTS.get(module, (f"test_{module}.py",))
    return [os.path.join("tests", name) for name in names
            if os.path.exists(os.path.join(root, "tests", name))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+")
    parser.add_argument("--root", default=ROOT)
    parser.add_argument("--package", default=os.path.join("src", "eqbundle"))
    parser.add_argument("--scratch", default=None)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    # the directory the package is imported from
    source_dir = os.path.dirname(os.path.normpath(args.package))

    mutants, sources = [], {}
    for module in args.modules:
        with open(os.path.join(root, args.package, f"{module}.py")) as handle:
            sources[module] = handle.read()
        mutants += sites(module, sources[module])

    scratch = tempfile.mkdtemp(prefix="mutate-", dir=args.scratch)
    try:
        results = _audit(mutants, sources, args, root, source_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if results is None:
        return 1
    print()
    for module in args.modules:
        verdicts = [v for m, v in results if m.module == module]
        dead = sum(v != "survived" for v in verdicts)
        rate = f"{100.0 * dead / len(verdicts):.1f} %" if verdicts else "-"
        print(f"{module}: {len(verdicts)} mutants, {verdicts.count('killed')} killed, "
              f"{verdicts.count('timeout')} timeout, {verdicts.count('survived')} survived; "
              f"kill rate {rate}")
    for m, verdict in results:
        if verdict == "survived":
            print(f"survived: {m.module}.py:{m.line}:{m.col} {m.operator}")
    return 0


def _audit(mutants, sources, args, root, source_dir, scratch):
    """[(mutant, verdict)] in the order of mutants, each mutant run in one
    of _WORKERS copies of root under scratch; None when the unmutated
    tests fail.  Each unmutated run of the module tests, and of tier-1,
    sets the timeout of its mutant runs: 5 times its time, plus 10 s."""
    copies: queue.Queue = queue.Queue()
    for i in range(_WORKERS):
        copy = os.path.join(scratch, f"tree{i}")
        shutil.copytree(root, copy, ignore=_IGNORED)
        copies.put(copy)
    copy = copies.get()
    limits = {}
    for module in [*args.modules, None]:
        tests = [] if module is None else _own_tests(root, module)
        verdict, failed, seconds = _run(copy, source_dir, tests, None)
        if verdict != "survived":
            print(f"{module or 'tier-1'}: the unmutated tests fail ({failed})")
            return None
        limits[module] = 5.0 * seconds + 10.0
    copies.put(copy)

    def audit(m: Mutant) -> tuple:
        copy = copies.get()
        path = os.path.join(copy, args.package, f"{m.module}.py")
        source = sources[m.module]
        try:
            with open(path, "w") as handle:
                handle.write(source[: m.start] + m.new + source[m.end:])
            own = _own_tests(root, m.module)
            verdict, failed, seconds = _run(copy, source_dir, own, limits[m.module])
            if verdict == "survived":
                verdict, failed, more = _run(copy, source_dir, [], limits[None])
                seconds += more
        finally:
            with open(path, "w") as handle:
                handle.write(source)
            copies.put(copy)
        print(f"{m.module}.py:{m.line}:{m.col} {m.operator} {verdict}"
              f"{' ' + failed if failed else ''} ({seconds:.1f} s)", flush=True)
        return m, verdict

    with ThreadPoolExecutor(max_workers=_WORKERS) as pool:
        return list(pool.map(audit, mutants))


if __name__ == "__main__":
    sys.exit(main())
