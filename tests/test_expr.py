import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    _eval_node,
    build_system_from_config,
    compile_asts,
    eval_ast,
    parse,
    to_source,
)
from eqbundle.systems import PointState, builtin, check_first_integral_identity, evaluate


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

    with pytest.raises(InputError):
        parse("", 1, 1)
    with pytest.raises(InputError):
        parse("   ", 1, 1)


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
    bad = ["log(0)", "log(0-1)", "sqrt(0-1)", "(0-2)^0.5", "0^-1"]
    for src in bad:
        with pytest.raises(ExprDomainError):
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
    sys = build_system_from_config(RFMR3_DECL)
    assert (sys.n, sys.m, sys.k) == (3, 3, 1)
    assert check_first_integral_identity(sys, samples=100, seed=3) < 1e-10

    ref = builtin("rfmr", n=3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = rng.uniform(0.5, 3.0, size=3)
        x = rng.uniform(0.05, 0.95, size=3)
        ours = evaluate(sys, PointState(lam, x))
        theirs = evaluate(ref, PointState(lam, x))
        assert np.max(np.abs(ours.f_value - theirs.f_value)) < 1e-14
        assert np.max(np.abs(ours.h_value - theirs.h_value)) < 1e-14
        # finite-difference Jacobians against the builtin's analytic ones
        assert np.max(np.abs(ours.jac_x - theirs.jac_x)) < 1e-6
        assert np.max(np.abs(ours.jac_lambda - theirs.jac_lambda)) < 1e-6


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
