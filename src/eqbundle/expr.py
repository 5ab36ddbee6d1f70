"""Arithmetic expression DSL for defining systems in config files.

Grammar (frozen, also documented in the CLI README):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')'

Variables are x1..xn and l1..lm for the declared dimensions; functions are
sin, cos, exp, log, sqrt, abs; numbers are decimal literals with optional
fraction and exponent, finite as floats.  '^' binds tighter than unary
minus, so -x1^2 is -(x1^2).  Every failure carries a byte offset into the
source.

Declared systems carry exact derivatives: the nonzero entries of df/dx,
df/dlambda, dh/dx and the Hessians of h are differentiated symbolically
and compiled like f and h.  A derivative raises ExprDomainError where its
own expression is undefined: d|u| = (u/|u|) du and d sqrt(u) at u = 0,
and d(a^b), b depending on the variable, at a <= 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DIMENSION_LIMIT,
    ExprDomainError,
    ExprError,
    InputError,
    finite_vector,
    known_keys,
    non_negative_int,
    positive_float,
    positive_int,
    stack_count,
)
from .systems import IDENTITY_SAMPLES, IDENTITY_SEED, Domain, SystemSpec, first_integral_violation

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    kind: str          # "x" or "l"
    index: int         # 0-based
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str
    child: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ExprAst:
    """A parsed expression together with its declared dimensions."""

    root: object
    n: int
    m: int
    source: str = field(default="", compare=False)


@dataclass(frozen=True)
class _Token:
    kind: str    # "number" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = len(source) - len(stripped)
            raise ExprError(f"unexpected character {source[bad]!r}", bad)
        if match.lastgroup == "number":
            tokens.append(_Token("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "ident":
            tokens.append(_Token("ident", match.group("ident"), match.start("ident")))
        else:
            tokens.append(_Token("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


_VAR_RE = re.compile(r"^([xl])([1-9][0-9]*)$")


class _Parser:
    def __init__(self, source: str, n: int, m: int):
        self.source = source
        self.n = n
        self.m = m
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}", tok.pos)
        return self.next()

    def parse(self):
        root = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return root

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.next()
            node = Binary(tok.text, node, self.term(), pos=tok.pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.next()
            node = Binary(tok.text, node, self.unary(), pos=tok.pos)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Unary("-", self.unary(), pos=tok.pos)
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            node = Binary("^", node, self.unary(), pos=tok.pos)
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprError("number out of range", tok.pos)
            return Const(value, pos=tok.pos)
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.call(tok)
            return self.variable(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ExprError("unexpected end of input", tok.pos)
        raise ExprError(f"unexpected token {tok.text!r}", tok.pos)

    def call(self, name: _Token):
        if name.text not in FUNCTIONS:
            raise ExprError(f"unknown function {name.text!r}", name.pos)
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.next()
            args.append(self.expr())
        self.expect_op(")")
        if len(args) != 1:
            raise ExprError(
                f"function {name.text!r} takes 1 argument, got {len(args)}", name.pos
            )
        return Call(name.text, tuple(args), pos=name.pos)

    def variable(self, tok: _Token):
        match = _VAR_RE.match(tok.text)
        if match is None:
            raise ExprError(
                f"unknown identifier {tok.text!r} (expected x1..x{self.n}, "
                f"l1..l{self.m}, or a function name)",
                tok.pos,
            )
        kind, idx = match.group(1), int(match.group(2))
        limit = self.n if kind == "x" else self.m
        if idx > limit:
            raise ExprError(
                f"variable {tok.text!r} out of range (max {kind}{limit})", tok.pos
            )
        return Var(tok.text, kind, idx - 1, pos=tok.pos)


def parse(source: str, n: int, m: int) -> ExprAst:
    """Parse one expression for a system with n states and m parameters."""
    if not isinstance(source, str) or not source.strip():
        raise InputError("expression source must be a non-empty string")
    n, m = positive_int(n, "n"), positive_int(m, "m")
    return ExprAst(root=_Parser(source, n, m).parse(), n=n, m=m, source=source)


def _check_value(value: float, pos: int, what: str) -> float:
    if not math.isfinite(value):
        raise ExprDomainError(f"{what} produced a non-finite value", pos)
    return value


def _eval_node(node, lam, x) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index] if node.kind == "x" else lam[node.index])
    if isinstance(node, Unary):
        return -_eval_node(node.child, lam, x)
    if isinstance(node, Binary):
        a = _eval_node(node.left, lam, x)
        b = _eval_node(node.right, lam, x)
        if node.op == "+":
            return _check_value(a + b, node.pos, "addition")
        if node.op == "-":
            return _check_value(a - b, node.pos, "subtraction")
        if node.op == "*":
            return _check_value(a * b, node.pos, "multiplication")
        if node.op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", node.pos)
            return _check_value(a / b, node.pos, "division")
        # "^"
        if a < 0.0 and b != math.floor(b):
            raise ExprDomainError(
                "non-integer power of a negative base", node.pos
            )
        if a == 0.0 and b < 0.0:
            raise ExprDomainError("zero raised to a negative power", node.pos)
        try:
            return _check_value(math.pow(a, b), node.pos, "power")
        except OverflowError:
            raise ExprDomainError("power overflow", node.pos) from None
    if isinstance(node, Call):
        arg = _eval_node(node.args[0], lam, x)
        if node.fn == "log" and arg <= 0.0:
            raise ExprDomainError("log of a non-positive value", node.pos)
        if node.fn == "sqrt" and arg < 0.0:
            raise ExprDomainError("sqrt of a negative value", node.pos)
        try:
            return _check_value(FUNCTIONS[node.fn](arg), node.pos, node.fn)
        except (OverflowError, ValueError):
            raise ExprDomainError(f"{node.fn} domain violation", node.pos) from None
    raise TypeError(f"not an AST node: {node!r}")


def eval_ast(ast: ExprAst, lam, x) -> float:
    """Evaluate a parsed expression at (lam, x)."""
    lam = finite_vector(lam, ast.m, "lambda", "m")
    x = finite_vector(x, ast.n, "x", "n")
    return _eval_node(ast.root, lam, x)


# Compiled evaluation over stacks.  + - * /, negation, sqrt and abs are
# numpy ufuncs, which round exactly as the scalar operations do.  sin, cos,
# exp, log and ^ go through math.* element by element, because numpy's
# vectorized exp, log and power may differ from libm in the last bit, and
# np.power(x, 2.0) is x*x where math.pow is libm's pow.


def _libm(fn):
    """fn from math over an array; NaN where fn raises."""

    def lone(*args):
        try:
            return fn(*args)
        except (OverflowError, ValueError):
            return math.nan

    def apply(*args):
        columns = [a.tolist() for a in args]
        try:
            return np.fromiter(map(fn, *columns), float, len(columns[0]))
        except (OverflowError, ValueError):
            return np.fromiter(map(lone, *columns), float, len(columns[0]))

    return apply


_LIBM_POW = _libm(math.pow)


def _pow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^b per row through math.pow; NaN where _eval_node raises."""
    # _eval_node's checks: a negative base with a b that is not an integer
    # (its floor(b) raises for a non-finite b), and zero to a negative power
    bad = ((a < 0.0) & ~(np.isfinite(b) & (np.floor(b) == b))) | (
        (a == 0.0) & (b < 0.0)
    )
    if not bad.any():
        return _LIBM_POW(a, b)
    value = _LIBM_POW(np.where(bad, 1.0, a), b)
    value[bad] = np.nan
    return value


_COMPILED_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": _pow,
}
_COMPILED_CALLS = {
    "sin": _libm(math.sin),
    "cos": _libm(math.cos),
    "exp": _libm(math.exp),
    "log": _libm(math.log),
    "sqrt": np.sqrt,
    "abs": np.abs,
}


def _compile_node(node):
    """A closure (lam (B, m), x (B, n), ok (B,)) -> the node's value per row.

    It clears ok[i] wherever _eval_node raises at row i.  Every operation
    that _eval_node checks raises there exactly when its value here is not
    finite (a zero divisor gives inf or NaN; the libm calls give NaN where
    they raise), and a row stays cleared even when a later operation
    turns its value finite again, as 1/(1/0) does.
    """
    if isinstance(node, Const):
        value = node.value
        return lambda lam, x, ok: np.full(len(x), value)
    if isinstance(node, Var):
        index = node.index
        if node.kind == "x":
            return lambda lam, x, ok: x[:, index]
        return lambda lam, x, ok: lam[:, index]
    if isinstance(node, Unary):
        child = _compile_node(node.child)
        return lambda lam, x, ok: -child(lam, x, ok)
    if isinstance(node, Binary):
        op = _COMPILED_BINARY[node.op]
        left, right = _compile_node(node.left), _compile_node(node.right)

        def binary(lam, x, ok):
            value = op(left(lam, x, ok), right(lam, x, ok))
            ok &= np.isfinite(value)
            return value

        return binary
    if isinstance(node, Call):
        fn = _COMPILED_CALLS[node.fn]
        arg = _compile_node(node.args[0])

        def call(lam, x, ok):
            value = fn(arg(lam, x, ok))
            ok &= np.isfinite(value)
            return value

        return call
    raise TypeError(f"not an AST node: {node!r}")


def compile_asts(asts: list, n: int, m: int):
    """Compile expressions over the same x1..xn, l1..lm into one function.

    The result maps (lam, x) to the stacked values (..., len(asts)).  A
    1-D x is one point, evaluated by the tree-walker, which raises the
    ExprDomainError of the first failing expression.  A stack x of shape
    (..., n), with lam of shape (m,) or a stack that broadcasts against
    it, is evaluated by the compiled closures, and a row at which the
    tree-walker would raise comes back NaN.
    """
    roots = [ast.root for ast in asts]
    nodes = [_compile_node(root) for root in roots]

    def evaluate(lam, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.array([_eval_node(root, lam, x) for root in roots])
        lead = x.shape[:-1]
        x = x.reshape(-1, n)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), lead + (m,)).reshape(-1, m)
        ok = np.ones(len(x), dtype=bool)
        with np.errstate(all="ignore"):
            out = np.empty((len(x), len(nodes)))
            for column, node in enumerate(nodes):
                out[:, column] = node(lam, x, ok)
        out[~ok] = np.nan
        return out.reshape(lead + (len(nodes),))

    return evaluate


def to_source(node) -> str:
    """Canonical fully parenthesized form; reparsing gives an equal AST."""
    if isinstance(node, ExprAst):
        return to_source(node.root)
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"(-{to_source(node.child)})"
    if isinstance(node, Binary):
        return f"({to_source(node.left)}{node.op}{to_source(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.args[0])})"
    raise TypeError(f"not an AST node: {node!r}")


# Symbolic derivatives (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
# ch. 3).  Each node they make carries the pos of the source node being
# differentiated, so a derivative's ExprDomainError names a source offset.


_ZERO = Const(0.0)                  # equal to every Const 0, whatever its pos


def _neg(a, pos: int):
    if isinstance(a, Const):
        return Const(-a.value, pos)
    return a.child if isinstance(a, Unary) else Unary("-", a, pos)


def _op(op: str, a, b, pos: int):
    """Binary(op, a, b) with 0s and 1s folded, and a factor -1."""
    if op in "+-" and b == _ZERO:
        return a
    if op in "+-" and a == _ZERO:
        return b if op == "+" else _neg(b, pos)
    if op == "*" and (a == _ZERO or b == _ZERO):
        return Const(0.0, pos)
    if op == "*":
        for one, other in ((a, b), (b, a)):
            if isinstance(one, Const) and one.value in (1.0, -1.0):
                return other if one.value == 1.0 else _neg(other, pos)
    if op == "/" and a == _ZERO:
        return a
    if op == "^" and isinstance(b, Const) and b.value in (0.0, 1.0):
        return a if b.value == 1.0 else Const(1.0, pos)
    return Binary(op, a, b, pos)


def _variables(node) -> set:
    """The variables a tree contains, as Var nodes (equal by name)."""
    if isinstance(node, Var):
        return {node}
    if isinstance(node, Unary):
        return _variables(node.child)
    if isinstance(node, Binary):
        return _variables(node.left) | _variables(node.right)
    if isinstance(node, Call):
        return _variables(node.args[0])
    return set()


def _derivative(node, var: Var):
    """d node / d var as a tree."""
    if isinstance(node, (Const, Var)):
        return Const(1.0 if node == var else 0.0, node.pos)
    pos = node.pos
    if isinstance(node, Unary):
        return _neg(_derivative(node.child, var), pos)
    if isinstance(node, Call):
        u = node.args[0]
        du = _derivative(u, var)
        if node.fn in ("log", "sqrt"):
            return _op("/", du, u if node.fn == "log" else _op("*", Const(2.0, pos), node, pos), pos)
        outer = {
            "sin": Call("cos", (u,), pos),
            "cos": _neg(Call("sin", (u,), pos), pos),
            "exp": node,
            "abs": _op("/", u, node, pos),
        }[node.fn]
        return _op("*", outer, du, pos)
    a, b = node.left, node.right
    da, db = _derivative(a, var), _derivative(b, var)
    if node.op in "+-":
        return _op(node.op, da, db, pos)
    if node.op == "*":
        return _op("+", _op("*", da, b, pos), _op("*", a, db, pos), pos)
    if node.op == "/":
        # (da - (a/b) db) / b: the quotient is reused, and b is not squared
        return _op("/", _op("-", da, _op("*", node, db, pos), pos), b, pos)
    # "^": the power rule b a^(b-1) da, plus a^b log(a) db where the
    # exponent depends on var
    lowered = Const(b.value - 1.0, pos) if isinstance(b, Const) else _op("-", b, Const(1.0, pos), pos)
    d = _op("*", _op("*", b, _op("^", a, lowered, pos), pos), da, pos)
    if var in _variables(b):
        d = _op("+", d, _op("*", _op("*", node, Call("log", (a,), pos), pos), db, pos), pos)
    return d


def _partials(trees: dict, wanted) -> dict:
    """{key + (j,): d tree / d v} over the entries key: tree and the
    variables v of each tree, v's index j, for which wanted(key, v) holds;
    nonzero entries only."""
    entries = {}
    for key, tree in trees.items():
        for var in sorted(_variables(tree), key=lambda v: v.index):
            if wanted(key, var):
                d = _derivative(tree, var)
                if d != _ZERO:
                    entries[key + (var.index,)] = d
    return entries


def _compiled_block(entries: dict, shape: tuple, n: int, m: int, mirror: bool = False):
    """A callable (lam, x) -> the block of this shape at a point x (n,) or
    at every row of a stack x (..., n), evaluated as compile_asts does:
    zero but at the keys of entries, each its tree's value, and with
    mirror also at (l, j, i) for each key (l, i, j)."""
    values = compile_asts([ExprAst(root, n, m) for root in entries.values()], n, m)
    at = tuple(np.array(list(entries), dtype=int).reshape(-1, len(shape)).T)
    columns = np.arange(len(entries))
    if mirror:
        at = tuple(np.concatenate([a, b]) for a, b in zip(at, (at[0], at[2], at[1])))
        columns = np.concatenate([columns, columns])

    def block(lam, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + shape)
        out[(Ellipsis,) + at] = values(lam, x)[..., columns]
        return out

    return block


def _derivative_fns(f_roots: list, h_roots: list, n: int, m: int) -> dict:
    """SystemSpec's jac_x_fn, jac_lambda_fn, jac_h_fn and hess_h_fn for f
    and h given as trees over x1..xn and l1..lm, h free of parameters.  A
    Hessian entry (l, i, j) is built for j >= i only, and mirrored."""
    f_trees = {(row,): root for row, root in enumerate(f_roots)}
    gradients = _partials({(l,): root for l, root in enumerate(h_roots)}, lambda key, v: True)
    hessians = _partials(gradients, lambda key, v: v.index >= key[1])
    k, no_lambda = len(h_roots), np.zeros(m)
    jac_h = _compiled_block(gradients, (k, n), n, m)
    hess_h = _compiled_block(hessians, (k, n, n), n, m, mirror=True)
    jac_x, jac_lambda = (
        _compiled_block(_partials(f_trees, lambda key, v: v.kind == kind), (len(f_roots), d), n, m)
        for kind, d in (("x", n), ("l", m))
    )
    return dict(jac_x_fn=jac_x, jac_lambda_fn=jac_lambda, jac_h_fn=lambda x: jac_h(no_lambda, x),
                hess_h_fn=lambda x: hess_h(no_lambda, x))


# Defaults of the optional declaration keys that set the first-integral check;
# configs echo a declaration with them filled in.
IDENTITY_DEFAULTS = {
    "identity_tolerance": 1e-8,
    "identity_samples": IDENTITY_SAMPLES,
    "identity_seed": IDENTITY_SEED,
}


def build_system_from_config(decl: dict) -> SystemSpec:
    """Build a SystemSpec from a DSL declaration.

    Required keys: n, m, k (positive integers up to DIMENSION_LIMIT), f
    (a list of n expression strings), h (a list of k expression strings),
    domain_box ((n, 2) finite numbers, lo <= hi in each row).  Optional:
    name (a string), parameter_box ((m, 2) as domain_box, default [0.25,
    4] per coordinate), and the keys of IDENTITY_DEFAULTS:
    identity_tolerance (a positive finite number), identity_samples (a
    positive integer within errors.stack_count's bound at n) and
    identity_seed (an integer >= 0).  Anything else is an InputError.

    The declared h must actually be first integrals: the system is
    accepted only when the sampled max |f . grad h_l| stays below
    identity_tolerance, otherwise construction fails naming the worst
    sample.  f, h and their derivative blocks are compiled once and
    evaluate stacks of points in one call (compile_asts).
    """
    if not isinstance(decl, dict):
        raise InputError("system declaration must be a mapping")
    missing = [key for key in ("n", "m", "k", "f", "h", "domain_box") if key not in decl]
    if missing:
        raise InputError(f"system declaration missing keys: {missing}")
    known = {"n", "m", "k", "f", "h", "domain_box", "name", "parameter_box", *IDENTITY_DEFAULTS}
    known_keys(decl, known, "system declaration keys")

    n, m, k = (
        positive_int(decl[key], f"declaration {key}", DIMENSION_LIMIT) for key in "nmk"
    )
    name = decl.get("name", "expr-system")
    if not isinstance(name, str):
        raise InputError("declaration name must be a string")
    f_sources = _sources(decl["f"], n, "f")
    h_sources = _sources(decl["h"], k, "h")

    f_asts = [parse(src, n, m) for src in f_sources]
    h_asts = [parse(src, n, m) for src in h_sources]
    for ast in h_asts:
        if any(var.kind == "l" for var in _variables(ast.root)):
            raise InputError(
                "first integrals must not depend on parameters "
                f"(found one in {ast.source!r})"
            )

    h_of = compile_asts(h_asts, n, m)
    no_lambda = np.zeros(m)
    sys = SystemSpec(
        name=name,
        n=n, m=m, k=k,
        f=compile_asts(f_asts, n, m),
        h=lambda x: h_of(no_lambda, x),
        domain=Domain(box=decl["domain_box"]),
        parameter_box=decl.get("parameter_box", [[0.25, 4.0]] * m),
        **_derivative_fns([ast.root for ast in f_asts], [ast.root for ast in h_asts], n, m),
        batched=True,
    )

    tolerance, samples, seed = (decl.get(key, value) for key, value in IDENTITY_DEFAULTS.items())
    tolerance = positive_float(tolerance, "identity_tolerance")
    samples = stack_count(samples, "identity_samples", n)
    seed = non_negative_int(seed, "identity_seed")
    worst = first_integral_violation(sys, samples=samples, seed=seed)
    if worst.max_residual > tolerance:
        raise InputError(
            "declared h is not a first integral: max |f . grad h| = "
            f"{worst.max_residual:.3e} > {tolerance:.1e} at lambda = "
            f"{worst.lam.tolist()}, x = {worst.x.tolist()} "
            f"(integral index {worst.integral_index})"
        )
    return sys


def _sources(value, count: int, key: str) -> list:
    """The expression strings of f or h: a list of count strings."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(src, str) for src in value):
        raise InputError(f"declaration {key} must be a list of expression strings")
    if len(value) != count:
        raise InputError(f"expected {count} {key}-expressions, got {len(value)}")
    return list(value)

