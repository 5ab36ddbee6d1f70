import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqbundle.errors import ExprDomainError, ExprError, InputError
from eqbundle.expr import (
    FUNCTIONS,
    Binary,
    Call,
    Const,
    ExprAst,
    Unary,
    Var,
    _derivative,
    _derivative_fns,
    _eval_node,
    build_system_from_config,
    compile_asts,
    eval_ast,
    parse,
    to_source,
)
from eqbundle.systems import PointState, builtin, check_first_integral_identity, evaluate

from conftest import central_blocks, ring_declaration


def test_parse_eval_product():
    ast = parse("l1*x1*(1-x2)", 2, 1)
    assert eval_ast(ast, [2.0], [0.5, 0.5]) == pytest.approx(0.5)


def test_function_calls():
    cases = [("sin(0)", 0.0), ("cos(0)", 1.0), ("exp(0)", 1.0),
             ("log(1)", 0.0), ("sqrt(4)", 2.0), ("abs(0-3)", 3.0)]
    for src, expected in cases:
        assert eval_ast(parse(src, 1, 1), [0.0], [0.0]) == pytest.approx(expected)


def test_number_literals():
    for src, expected in [("3.5", 3.5), ("1e-3", 1e-3), (".5", 0.5),
                          ("2.5e+2", 250.0), ("7", 7.0)]:
        assert eval_ast(parse(src, 1, 1), [0.0], [0.0]) == expected


def test_sum_of_squares():
    ast = parse("x1^2+x2^2", 2, 1)
    assert eval_ast(ast, [0.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_power_right_associative():
    assert eval_ast(parse("2^3^2", 1, 1), [0.0], [0.0]) == 512.0
    assert eval_ast(parse("2^-3", 1, 1), [0.0], [0.0]) == 0.125


def test_unary_minus_binds_looser_than_power():
    assert eval_ast(parse("-x1^2", 1, 1), [0.0], [3.0]) == -9.0


def test_precedence_and_associativity():
    at = lambda src: eval_ast(parse(src, 1, 1), [0.0], [0.0])
    assert at("1+2*3") == 7.0
    assert at("(1+2)*3") == 9.0
    assert at("6/2/3") == 1.0
    assert at("1-2-3") == -4.0
    assert at("--2") == 2.0


def test_syntax_error_offsets():
    src = "x1*(1-x2"
    with pytest.raises(ExprError) as err:
        parse(src, 2, 1)
    assert err.value.offset == len(src)

    with pytest.raises(ExprError) as err:
        parse("x1 + * 2", 2, 1)
    assert err.value.offset == 5

    with pytest.raises(ExprError) as err:
        parse("x1 x2", 2, 1)
    assert err.value.offset == 3

    with pytest.raises(ExprError) as err:
        parse("1 + 2 ?", 1, 1)
    assert err.value.offset == 6

    with pytest.raises(ExprError, match=r"^expected '\)' \(offset 2\)"):
        parse("(1,2)", 1, 1)
    with pytest.raises(ExprError, match=r"^unexpected end of input \(offset 2\)"):
        parse("1+", 1, 1)

    # a literal past the float range would read as inf
    with pytest.raises(ExprError, match="number out of range") as err:
        parse("(0-x1)^1e400", 1, 1)
    assert err.value.offset == 7

    for blank in ("", "   "):
        with pytest.raises(InputError, match="^expression source must be a non-empty string$"):
            parse(blank, 1, 1)


def test_identifier_errors():
    with pytest.raises(ExprError, match="unknown identifier"):
        parse("y1+1", 2, 1)
    with pytest.raises(ExprError, match="out of range"):
        parse("x3+1", 2, 1)
    with pytest.raises(ExprError, match="out of range"):
        parse("l2", 2, 1)
    with pytest.raises(ExprError, match="unknown function"):
        parse("foo(1)", 1, 1)
    with pytest.raises(ExprError, match="takes 1 argument"):
        parse("sin(1, 2)", 1, 1)
    # x0 is not a valid variable name, so it is an unknown identifier
    with pytest.raises(ExprError, match="unknown identifier"):
        parse("x0", 2, 1)


def test_division_by_zero():
    ast = parse("1/x1", 1, 1)
    with pytest.raises(ExprDomainError, match="division by zero"):
        eval_ast(ast, [0.0], [0.0])
    assert eval_ast(ast, [0.0], [4.0]) == 0.25


def test_domain_errors():
    bad = {
        "log(0)": "log of a non-positive value", "log(0-1)": "log of a non-positive value",
        "sqrt(0-1)": "sqrt of a negative value", "(0-2)^0.5": "non-integer power of a negative base",
        "0^-1": "zero raised to a negative power",
    }
    for src, message in bad.items():
        with pytest.raises(ExprDomainError, match=f"^{re.escape(message)} "):
            eval_ast(parse(src, 1, 1), [0.0], [0.0])
    # overflow surfaces as a domain error, not as inf
    with pytest.raises(ExprDomainError):
        eval_ast(parse("exp(10000)", 1, 1), [0.0], [0.0])
    with pytest.raises(ExprDomainError):
        eval_ast(parse("(10^300)*(10^300)", 1, 1), [0.0], [0.0])


def test_eval_dimension_mismatch():
    ast = parse("x1+l1", 2, 1)
    with pytest.raises(InputError, match="dimension mismatch"):
        eval_ast(ast, [1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError, match="dimension mismatch"):
        eval_ast(ast, [1.0, 2.0], [1.0, 2.0])


def _random_tree(rng, depth, n, m, ops, fns):
    # Mirrors the parser's invariants: constants are non-negative literals,
    # negation is always a unary node.
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return Const(float(np.round(rng.uniform(0.0, 4.0), 3)))
        kind = "x" if rng.random() < 0.6 else "l"
        limit = n if kind == "x" else m
        idx = int(rng.integers(limit))
        return Var(f"{kind}{idx + 1}", kind, idx)
    r = rng.random()
    if r < 0.15:
        return Unary("-", _random_tree(rng, depth - 1, n, m, ops, fns))
    if r < 0.3 and fns:
        fn = fns[int(rng.integers(len(fns)))]
        return Call(fn, (_random_tree(rng, depth - 1, n, m, ops, fns),))
    op = ops[int(rng.integers(len(ops)))]
    left = _random_tree(rng, depth - 1, n, m, ops, fns)
    right = _random_tree(rng, depth - 1, n, m, ops, fns)
    return Binary(op, left, right)


def test_print_reparse_idempotent():
    rng = np.random.default_rng(20240817)
    ops = ["+", "-", "*", "/", "^"]
    fns = ["sin", "cos", "exp", "log", "sqrt", "abs"]
    for _ in range(200):
        tree = _random_tree(rng, 4, 3, 2, ops, fns)
        src = to_source(tree)
        reparsed = parse(src, 3, 2)
        assert reparsed.root == tree
        assert to_source(reparsed) == src


def _ref_eval(node, lam, x):
    # Independent reference evaluator used only by this test.
    table = {"sin": math.sin, "cos": math.cos, "abs": abs}
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x[node.index] if node.kind == "x" else lam[node.index]
    if isinstance(node, Unary):
        return -_ref_eval(node.child, lam, x)
    if isinstance(node, Call):
        return table[node.fn](_ref_eval(node.args[0], lam, x))
    a = _ref_eval(node.left, lam, x)
    b = _ref_eval(node.right, lam, x)
    return {"+": a + b, "-": a - b, "*": a * b}[node.op]


def test_matches_reference_evaluator():
    rng = np.random.default_rng(7)
    ops = ["+", "-", "*"]
    fns = ["sin", "cos", "abs"]
    for _ in range(300):
        tree = _random_tree(rng, 4, 3, 2, ops, fns)
        ast = parse(to_source(tree), 3, 2)
        lam = rng.uniform(-1.0, 1.0, size=2)
        x = rng.uniform(-1.0, 1.0, size=3)
        expected = _ref_eval(tree, lam, x)
        got = eval_ast(ast, lam, x)
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)


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


def test_ring_system_from_expressions():
    # the declared ring against the builtin rfmr(n): values and symbolic
    # derivative blocks within a few ulps, at a point and over a stack
    fields = ("f_value", "h_value", "jac_x", "jac_lambda", "jac_h", "hess_h")
    for n, decl in [(3, RFMR3_DECL)] + [(n, ring_declaration(n)) for n in (3, 4, 5, 6, 20)]:
        sys = build_system_from_config(decl)
        assert (sys.n, sys.m, sys.k) == (n, n, 1)
        assert check_first_integral_identity(sys, samples=100, seed=3) < 1e-10

        ref = builtin("rfmr", n=n)
        rng = np.random.default_rng(11)
        lams, xs = rng.uniform(0.5, 3.0, (20, n)), rng.uniform(0.05, 0.95, (20, n))
        for lam, x in zip(lams, xs):
            ours = evaluate(sys, PointState(lam, x))
            theirs = evaluate(ref, PointState(lam, x))
            for name in fields:
                np.testing.assert_array_max_ulp(getattr(ours, name), getattr(theirs, name), 4)
        for name in ("jac_x", "jac_lambda"):
            ours, theirs = getattr(sys, name)(lams, xs), getattr(ref, name)(lams, xs)
            np.testing.assert_array_max_ulp(ours, theirs, 4)
        for name in ("jac_h", "hess_h"):
            np.testing.assert_array_max_ulp(getattr(sys, name)(xs), getattr(ref, name)(xs), 4)


def test_rejects_fake_first_integral():
    decl = {"n": 2, "m": 1, "k": 1, "f": ["x2", "x1"], "h": ["x1"],
            "domain_box": [[-1.0, 1.0], [-1.0, 1.0]]}
    with pytest.raises(InputError) as err:
        build_system_from_config(decl)
    message = str(err.value)
    assert "not a first integral" in message
    # the worst sample is named so the user can reproduce the failure
    assert "lambda =" in message and "x =" in message


def test_accepts_rotational_field():
    decl = {"n": 2, "m": 1, "k": 1, "f": ["-x2", "x1"], "h": ["x1^2+x2^2"],
            "domain_box": [[-1.0, 1.0], [-1.0, 1.0]], "name": "rotation"}
    sys = build_system_from_config(decl)
    assert sys.name == "rotation"
    ev = evaluate(sys, PointState(np.array([1.0]), np.array([0.3, 0.4])))
    assert np.allclose(ev.f_value, [-0.4, 0.3])
    assert ev.h_value[0] == pytest.approx(0.25)


def test_first_integral_must_not_use_parameters():
    decl = {"n": 2, "m": 1, "k": 1, "f": ["-x2", "x1"], "h": ["l1*x1"],
            "domain_box": [[-1.0, 1.0], [-1.0, 1.0]]}
    with pytest.raises(InputError, match="must not depend on parameters"):
        build_system_from_config(decl)


def test_declaration_validation():
    with pytest.raises(InputError, match="missing keys"):
        build_system_from_config({"n": 2, "m": 1, "k": 1})
    base = dict(RFMR3_DECL)
    base["f"] = base["f"][:2]
    with pytest.raises(InputError, match="expected 3 f-expressions"):
        build_system_from_config(base)
    base = dict(RFMR3_DECL)
    base["bogus"] = 1
    with pytest.raises(InputError, match="unknown system declaration keys"):
        build_system_from_config(base)
    with pytest.raises(InputError, match="mapping"):
        build_system_from_config([1, 2, 3])


# planar's f with h = x1, which is not a first integral of it
PLANAR_FAKE_H = {
    "n": 2, "m": 1, "k": 1,
    "f": ["-x1 + l1*(x2^2 - 1)", "0"], "h": ["x1"],
    "domain_box": [[-1.0, 1.0], [-1.0, 1.0]],
}


def test_fake_first_integral_is_rejected_by_default():
    with pytest.raises(InputError, match=r"max \|f . grad h\| = 4.537e\+00"):
        build_system_from_config(PLANAR_FAKE_H)


@pytest.mark.parametrize(
    "key, value, text",
    [
        ("n", "two", "declaration n must be an integer"),
        ("n", 2.5, "declaration n must be an integer"),
        ("m", 0, "declaration m must be positive"),
        ("k", None, "declaration k must be an integer"),
    ],
)
def test_declaration_sizes_are_positive_integers(key, value, text):
    # a bare int() raised ValueError or TypeError here, or cut 2.5 to 2
    with pytest.raises(InputError, match=text):
        build_system_from_config(dict(PLANAR_FAKE_H, **{key: value}))


@pytest.mark.parametrize(
    "key, value, text",
    [
        ("identity_samples", 0, "identity_samples must be positive"),
        ("identity_samples", 2.5, "identity_samples must be an integer"),
        ("identity_tolerance", float("nan"), "identity_tolerance must be positive and finite"),
        ("identity_tolerance", "tiny", "identity_tolerance must be a number"),
        ("identity_seed", -1, "identity_seed must be non-negative"),
    ],
)
def test_identity_settings_are_checked(key, value, text):
    # no samples or a NaN tolerance accepted the fake first integral
    with pytest.raises(InputError, match=text):
        build_system_from_config(dict(PLANAR_FAKE_H, **{key: value}))


@pytest.mark.parametrize("value", [None, "-x2", ["-x2", 1], {"a": "x1"}])
def test_expressions_must_be_a_list_of_strings(value):
    with pytest.raises(InputError, match="declaration f must be a list of expression strings"):
        build_system_from_config(dict(RFMR3_DECL, f=value))
    with pytest.raises(InputError, match="declaration h must be a list of expression strings"):
        build_system_from_config(dict(RFMR3_DECL, h=value))


@pytest.mark.parametrize(
    "value",
    [
        [["a", 1.0], [0.0, 1.0], [0.0, 1.0]],
        [[0.0, 1.0], [0.0], [0.0, 1.0]],
        [[0.0, float("inf")], [0.0, 1.0], [0.0, 1.0]],
        [[False, True], [False, True], [False, True]],
        None,
    ],
)
def test_boxes_must_be_finite_numbers(value):
    with pytest.raises(InputError, match="domain_box must be an array of finite numbers"):
        build_system_from_config(dict(RFMR3_DECL, domain_box=value))
    with pytest.raises(InputError, match="parameter_box must be an array of finite numbers"):
        build_system_from_config(dict(RFMR3_DECL, parameter_box=value))


# ---------------------------------------------------------------------------
# compiled stacks against the tree-walker
# ---------------------------------------------------------------------------

# values that make the operations fault: zero divisors, log of a value
# <= 0, negative bases to fractional powers, overflow of exp and ^
AWKWARD = [0.0, -0.0, -1.5, -0.5, 0.5, 1.0, 2.5, 800.0, 1e200]

leaves = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1000.0]).map(Const),
    st.integers(0, 2).map(lambda i: Var(f"x{i + 1}", "x", i)),
    st.integers(0, 1).map(lambda i: Var(f"l{i + 1}", "l", i)),
)


def _extend(children):
    return st.one_of(
        children.map(lambda c: Unary("-", c)),
        st.builds(lambda fn, c: Call(fn, (c,)), st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from(list("+-*/^")), children, children),
    )


trees = st.recursive(leaves, _extend, max_leaves=10)
coordinates = st.one_of(st.sampled_from(AWKWARD), st.floats(-3.0, 3.0))


def assert_matches_tree_walker(roots, lam, x):
    """Every row of the compiled stack equals _eval_node bitwise, or is NaN
    where _eval_node raises, and the row as one point raises the same."""
    compiled = compile_asts([ExprAst(root, 3, 2) for root in roots], 3, 2)
    values = compiled(lam, x)
    assert values.shape == (len(x), len(roots))
    faults = 0
    for row in range(len(x)):
        try:
            expected = [_eval_node(root, lam[row], x[row]) for root in roots]
        except ExprDomainError as err:
            faults += 1
            assert np.isnan(values[row]).all()
            with pytest.raises(ExprDomainError) as again:
                compiled(lam[row], x[row])
            assert type(again.value) is type(err)
            assert str(again.value) == str(err)
            assert again.value.offset == err.offset
            continue
        assert np.array(expected).tobytes() == values[row].tobytes()
        assert compiled(lam[row], x[row]).tobytes() == values[row].tobytes()
    return faults


@settings(settings.get_profile("derandomized"), max_examples=300)
@given(
    roots=st.lists(trees, min_size=1, max_size=3),
    rows=st.lists(st.tuples(*[coordinates] * 5), min_size=1, max_size=16),
)
def test_compiled_rows_match_the_tree_walker(roots, rows):
    rows = np.array(rows)
    assert_matches_tree_walker(roots, rows[:, 3:], rows[:, :3])


@pytest.mark.parametrize(
    "source",
    [
        "1/x1",            # zero divisor
        "1/(1/x1)",        # a fault whose value ends finite
        "log(x1) + x2",    # log of a value <= 0
        "x1^0.5",          # negative base, fractional power
        "x1^(0-1)",        # zero to a negative power
        "exp(x2*x3)",      # overflow
        "x2^(x2*x3)",      # power overflow
        "sqrt(x1) - abs(x2)",
        "sin(x1)*cos(l1) - x3",
    ],
)
def test_compiled_faulting_rows(source):
    x = np.array([[0.0, 900.0, 1.0], [-0.0, 2.0, 1.0], [-2.0, 1.0, 0.5],
                  [4.0, 3.0, 2.0], [0.25, -1.5, 0.0]])
    lam = np.array([0.5, 1.0])
    roots = [parse(source, 3, 2).root, parse("x1*l2", 3, 2).root]
    faults = assert_matches_tree_walker(roots, np.tile(lam, (len(x), 1)), x)
    assert 0 < faults < len(x) or source.startswith("sin")
    # a shared lam and extra leading axes broadcast like a stack
    compiled = compile_asts([parse(source, 3, 2)], 3, 2)
    stacked = compiled(lam, x.reshape(5, 1, 3))
    assert stacked.shape == (5, 1, 1)
    assert stacked.tobytes() == compiled(np.tile(lam, (5, 1)), x).tobytes()


@pytest.mark.parametrize("source", ["sin(x1)", "cos(x1)", "exp(x1)", "log(x1)", "x1^x2", "x1^2"])
def test_compiled_functions_round_like_libm(source):
    # numpy's vectorized exp, log and power differ from libm in the last
    # bit on some inputs; the compiled stack must not
    rng = np.random.default_rng(5)
    x = np.column_stack([rng.uniform(0.01, 20.0, 4000), rng.uniform(-3.0, 3.0, 4000)])
    lam = np.zeros((len(x), 1))
    compiled = compile_asts([parse(source, 2, 1)], 2, 1)
    root = parse(source, 2, 1).root
    expected = np.array([_eval_node(root, lam[i], x[i]) for i in range(len(x))])
    assert compiled(lam, x)[:, 0].tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# symbolic derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source, var, derivative", [
    ("x1^2", "x1", "(2.0*x1)"),
    ("x1^3", "x1", "(3.0*(x1^2.0))"),
    ("x1^1", "x1", "1.0"),
    ("x1^l1", "x1", "(l1*(x1^(l1-1.0)))"),
    ("x1^x2", "x2", "((x1^x2)*log(x1))"),
    ("x1^x1", "x1", "((x1*(x1^(x1-1.0)))+((x1^x1)*log(x1)))"),
    ("sin(x1)", "x1", "cos(x1)"),
    ("cos(2*x1)", "x1", "((-sin((2.0*x1)))*2.0)"),
    ("exp(x1)", "x1", "exp(x1)"),
    ("log(x1)", "x1", "(1.0/x1)"),
    ("sqrt(x1)", "x1", "(1.0/(2.0*sqrt(x1)))"),
    ("abs(x1)", "x1", "(x1/abs(x1))"),
    ("x1/x2", "x1", "(1.0/x2)"),
    ("x1/x2", "x2", "((-(x1/x2))/x2)"),
    ("-x1", "x1", "-1.0"),
    ("-(-x1*x2)", "x1", "x2"),
    ("l1*x1*(1-x2)", "x2", "(-(l1*x1))"),
    ("l1*x1*(1-x2)", "l1", "(x1*(1.0-x2))"),
    ("x2 + sin(l1)", "x1", "0.0"),
    ("x1*log(x2)", "x1", "log(x2)"),
    ("x1*(x2/2)", "x1", "(x2/2.0)"),
])
def test_derivative_rules_and_folds(source, var, derivative):
    # the power rule where the exponent is free of var, the general rule
    # only where it is not; 0s, 1s and -1 factors folded
    at = parse(var, 2, 1).root
    assert to_source(_derivative(parse(source, 2, 1).root, at)) == derivative


def test_a_derivative_fault_names_its_source_offset():
    # d|u| = (u/|u|) du is undefined at u = 0, as is d sqrt(u)
    sys = build_system_from_config({
        "n": 2, "m": 1, "k": 1, "f": ["x1*abs(x1) - l1", "0"], "h": ["x2 + sqrt(x2)"],
        "domain_box": [[-1.0, 1.0], [0.5, 1.0]],
    })
    with pytest.raises(ExprDomainError, match=r"^division by zero \(offset 3\)") as err:
        sys.jac_x([1.0], [0.0, 0.5])
    with pytest.raises(ExprDomainError, match=r"^division by zero \(offset 3\)"):
        sys.jac_x([1.0], [[0.5, 0.5], [0.0, 0.5]])
    errors = {}
    rows = sys.jac_x([1.0], [[0.5, 0.5], [0.0, 0.5]], errors)
    assert np.isfinite(rows[0]).all() and np.isnan(rows[1]).all()
    assert str(errors[1]) == str(err.value) and list(errors) == [1]
    with pytest.raises(ExprDomainError, match=r"^division by zero \(offset 5\)"):
        sys.jac_h([0.5, 0.0])
    assert sys.hess_h([0.5, 0.25]).tolist() == [[[0.0, 0.0], [0.0, -2.0]]]


def test_only_nonzero_entries_are_compiled_and_hessians_mirror():
    # h1 = x1 x2^2: dh/dx = (x2^2, 2 x1 x2), and the Hessian's off-diagonal
    # entry, built once, mirrored
    fns = _derivative_fns(
        [parse("l1*x2", 2, 1).root, parse("0", 2, 1).root], [parse("x1*x2^2", 2, 1).root], 2, 1
    )
    lam, x = np.array([3.0]), np.array([2.0, 5.0])
    assert fns["jac_x_fn"](lam, x).tolist() == [[0.0, 3.0], [0.0, 0.0]]
    assert fns["jac_lambda_fn"](lam, x).tolist() == [[5.0], [0.0]]
    assert fns["jac_h_fn"](x).tolist() == [[25.0, 20.0]]
    assert fns["hess_h_fn"](x).tolist() == [[[0.0, 10.0], [10.0, 4.0]]]
    stack = np.array([x, [1.0, -1.0]])
    assert fns["hess_h_fn"](stack).tolist() == [[[[0.0, 10.0], [10.0, 4.0]]],
                                                 [[[0.0, -2.0], [-2.0, 2.0]]]]


# trees of every function and of ^ with a constant or a variable exponent,
# over x1..x3 and l1..l2 (x1..x3 alone for h), where differences are well
# scaled
smooth_constants = st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(Const)
smooth_states = st.integers(0, 2).map(lambda i: Var(f"x{i + 1}", "x", i))
smooth_parameters = st.integers(0, 1).map(lambda i: Var(f"l{i + 1}", "l", i))


def _smooth_extend(children):
    return st.one_of(
        children.map(lambda c: Unary("-", c)),
        st.builds(lambda fn, c: Call(fn, (c,)), st.sampled_from(sorted(FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from(list("+-*/")), children, children),
        st.builds(lambda c, p: Binary("^", c, Const(p)), children, st.sampled_from([2.0, 3.0, 0.5])),
        st.builds(lambda c, e: Binary("^", Call("abs", (c,)), e), children, children),
    )


f_trees = st.recursive(
    st.one_of(smooth_constants, smooth_states, smooth_parameters), _smooth_extend, max_leaves=6
)
h_trees = st.recursive(st.one_of(smooth_constants, smooth_states), _smooth_extend, max_leaves=6)


@settings(settings.get_profile("derandomized"), max_examples=100)
@given(
    f=st.lists(f_trees, min_size=3, max_size=3),
    h=st.lists(h_trees, min_size=1, max_size=2),
    point=st.tuples(*[st.floats(0.6, 1.8)] * 5),
)
def test_symbolic_blocks_match_central_differences(f, h, point):
    # where the tree-walker evaluates f, h and their derivatives, all four
    # symbolic blocks agree with central differences of f and h
    f_of, h_of = (compile_asts([ExprAst(root, 3, 2) for root in roots], 3, 2) for roots in (f, h))
    spec = SimpleNamespace(f=f_of, h=lambda x: h_of(np.zeros(2), x))
    fns = _derivative_fns(f, h, 3, 2)
    lam, x = np.array(point[3:]), np.array(point[:3])
    try:
        blocks = (fns["jac_x_fn"](lam, x), fns["jac_lambda_fn"](lam, x), fns["jac_h_fn"](x),
                  fns["hess_h_fn"](x))
        reference = central_blocks(spec, lam, x)
    except ExprDomainError:
        assume(False)
    for block, expected in zip(blocks, reference):
        assume(np.abs(block).max() < 1e6)
        assert np.abs(block - expected).max() <= 1e-5 * (1.0 + np.abs(block).max())
