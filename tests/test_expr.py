"""Parser, derivative, and evaluation tests for the expression layer.

Derivatives are cross-checked against central finite differences, which is
an independent route to the same numbers: the symbolic rules never see the
step size and the difference quotient never sees the tree structure.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tractorlab.expr import (
    FUNCTION_NAMES,
    Add,
    Call,
    Div,
    Expr,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_exprs,
    eval_many,
    intern,
    num,
    parse,
    var,
)
from tractorlab.jets import JetSpace

from oracle import interpret, interpreted_jets

XY = ("x", "y")


def fd_partial(e, name, env, h=1e-6):
    hi = dict(env)
    lo = dict(env)
    hi[name] += h
    lo[name] -= h
    return (e.eval(hi) - e.eval(lo)) / (2 * h)


# -- parsing -------------------------------------------------------------------


def test_precedence_and_literals() -> None:
    e = parse("1 + 2*3^2", XY)
    assert e.eval({}) == 19.0
    assert parse("2*x + 1", XY).eval({"x": 3.0}) == 7.0
    assert parse("(1+2)*3", XY).eval({}) == 9.0
    assert parse("1.5e2", XY).eval({}) == 150.0
    assert parse(".5", XY).eval({}) == 0.5


def test_unary_minus_binds_outside_power() -> None:
    assert parse("-x^2", XY).eval({"x": 3.0}) == -9.0
    assert parse("(-x)^2", XY).eval({"x": 3.0}) == 9.0
    assert parse("--x", XY).eval({"x": 3.0}) == 3.0


def test_negative_exponent() -> None:
    assert parse("x^-2", XY).eval({"x": 2.0}) == 0.25


def test_division_chain_left_associative() -> None:
    assert parse("8/4/2", XY).eval({}) == 1.0
    assert parse("8-4-2", XY).eval({}) == 2.0


def test_functions() -> None:
    env = {"x": 0.7}
    for fn in ("sin", "cos", "tan", "exp", "log", "sqrt", "atan"):
        got = parse(f"{fn}(x)", XY).eval(env)
        assert got == pytest.approx(getattr(math, fn)(0.7), abs=1e-15)


def test_syntax_error_reports_position() -> None:
    with pytest.raises(ExprSyntaxError) as info:
        parse("2*(x +", XY)
    assert info.value.position == 6
    with pytest.raises(ExprSyntaxError):
        parse("1 2", XY)
    with pytest.raises(ExprSyntaxError):
        parse("x^y", XY)
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5", XY)
    with pytest.raises(ExprSyntaxError):
        parse("", XY)
    with pytest.raises(ExprSyntaxError):
        parse("x + $", XY)


def test_unknown_identifiers_rejected() -> None:
    with pytest.raises(ExprNameError) as info:
        parse("x + z", XY)
    assert info.value.name == "z"
    assert info.value.position == 4
    with pytest.raises(ExprNameError):
        parse("sinh(x)", XY)
    # function names are not usable as bare variables
    with pytest.raises(ExprNameError):
        parse("sin + 1", XY)
    with pytest.raises(ValueError):
        parse("x", ("sin", "x"))


# -- evaluation and domain handling --------------------------------------------


def test_domain_errors_never_nan() -> None:
    cases = ["log(x - 2)", "sqrt(-1 - x^2)", "1/(x - x)", "x^-1 - x^-1"]
    for text in cases:
        e = parse(text, XY)
        with pytest.raises(ExprDomainError):
            e.eval({"x": 0.0})


def test_overflow_is_an_error() -> None:
    e = parse("exp(x)", XY)
    with pytest.raises(ExprDomainError):
        e.eval({"x": 1e4})


def test_zero_over_expr_folds_but_literal_zero_division_does_not() -> None:
    e = parse("0/x", XY)
    assert e.eval({"x": 0.0}) == 0.0  # folded to the constant 0
    with pytest.raises(ExprDomainError):
        parse("1/0", XY).eval({})


# -- derivatives ---------------------------------------------------------------


def test_polynomial_derivatives_exact() -> None:
    e = parse("x^3 + 2*x*y - y^2", XY)
    dx = e.diff("x")
    dy = e.diff("y")
    for px, py in [(0.3, -1.2), (2.0, 0.5), (-1.1, 3.0)]:
        env = {"x": px, "y": py}
        assert dx.eval(env) == pytest.approx(3 * px**2 + 2 * py, rel=1e-14)
        assert dy.eval(env) == pytest.approx(2 * px - 2 * py, rel=1e-14)


def test_second_derivative_of_reciprocal() -> None:
    e = parse("1/x", XY)
    d2 = e.diff("x").diff("x")
    assert d2.eval({"x": 2.0}) == pytest.approx(2 / 8, rel=1e-14)


def test_function_chain_rules_match_finite_differences() -> None:
    texts = [
        "sin(x*y) + cos(x)^2",
        "exp(x - y^2)",
        "log(2 + x^2)",
        "sqrt(1 + x^2 + y^2)",
        "atan(x/(1 + y^2))",
        "tan(x*0.3)",
    ]
    env = {"x": 0.4, "y": -0.8}
    for text in texts:
        e = parse(text, XY)
        for name in XY:
            sym = e.diff(name).eval(env)
            ref = fd_partial(e, name, env)
            assert sym == pytest.approx(ref, rel=1e-6, abs=1e-8), text


def test_mixed_partials_commute() -> None:
    e = parse("sin(x*y)*exp(x) + x^2*y^3", XY)
    a = e.diff("x").diff("y")
    b = e.diff("y").diff("x")
    for px, py in [(0.2, 0.7), (-0.5, 0.3)]:
        env = {"x": px, "y": py}
        assert a.eval(env) == pytest.approx(b.eval(env), rel=1e-12)


def test_derivative_of_constant_tree_is_zero_node() -> None:
    e = parse("3*y + 7", XY)
    d = e.diff("x")
    assert d.is_zero()


# -- operator overloading (used by the tensor layers) ---------------------------


def test_operator_overloads_build_equivalent_trees() -> None:
    x, y = var("x"), var("y")
    e = (x + 2.0) * y - x / y
    env = {"x": 1.5, "y": 4.0}
    assert e.eval(env) == pytest.approx((1.5 + 2) * 4 - 1.5 / 4)
    assert (x**3).eval({"x": 2.0}) == 8.0
    with pytest.raises(TypeError):
        x ** 1.5  # noqa: B018
    assert (-x).eval({"x": 2.0}) == -2.0
    assert (1.0 - x).eval({"x": 0.25}) == 0.75


def test_folding_identities() -> None:
    x = var("x")
    assert x + 0.0 is x
    assert 0.0 + x is x
    assert x * 1.0 is x
    assert (x * 0.0).is_zero()
    assert (x**1) is x
    assert isinstance(x**0, Num) and (x**0).value == 1.0
    assert -(-x) is x


# -- round trip through rendering -----------------------------------------------


def test_to_string_round_trip() -> None:
    texts = [
        "x^3 + 2*x*y - y^2",
        "-x^2",
        "(x + y)/(x - y)",
        "sin(x*y)*exp(x)",
        "8/4/2",
        "1 - (2 - 3)",
        "x^-2",
    ]
    env = {"x": 0.37, "y": 1.21}
    for text in texts:
        e = parse(text, XY)
        back = parse(e.to_string(), XY)
        assert back.eval(env) == pytest.approx(e.eval(env), rel=1e-15)


# -- compiled evaluation ----------------------------------------------------------


def test_compiled_matches_tree_eval() -> None:
    texts = ["x^3 + 2*x*y", "sin(x)*cos(y)", "exp(-x^2 - y^2)", "1/(1 + x^2)"]
    exprs = [parse(t, XY) for t in texts]
    fn = compile_exprs(exprs, XY)
    for px, py in [(0.1, 0.2), (-1.0, 0.5), (2.0, -2.0)]:
        got = fn(px, py)
        want = [e.eval({"x": px, "y": py}) for e in exprs]
        assert np.allclose(got, want, rtol=1e-15, atol=0)


def test_compiled_domain_error() -> None:
    fn = compile_exprs([parse("log(x)", XY)], XY)
    with pytest.raises(ExprDomainError, match=r"log\(-1\.0\)"):
        fn(-1.0, 0.0)
    fn2 = compile_exprs([parse("1/x", XY)], XY)
    with pytest.raises(ExprDomainError, match="division by zero in"):
        fn2(0.0, 0.0)


def test_compiled_single_output_shape() -> None:
    fn = compile_exprs([parse("x + y", XY)], XY)
    out = fn(1.0, 2.0)
    assert out.shape == (1,)
    assert out[0] == 3.0


def test_compiled_numpy_scalar_input_raises_like_a_float() -> None:
    fn = compile_exprs([parse("1/x", ("x",))], ("x",))
    with pytest.raises(ExprDomainError, match=r"division by zero in '1/x'"):
        fn(np.float64(0.0))


def test_compiled_batch_equals_pointwise_bit_for_bit() -> None:
    texts = ["sin(x)*cos(y)", "tan(x - y)", "exp(-x^2 - y^2)", "log(2 + x*y)",
             "sqrt(3 + x)", "atan(x/(1 + y^2))", "x^-1 + y^-2", "(x + 2)^-3",
             "x^2 - 2*x*y^3", "1.5", "y"]
    exprs = [parse(t, XY) for t in texts]
    fn = compile_exprs(exprs, XY)
    pts = np.random.default_rng(0).uniform(-0.9, 0.9, size=(400, 2))
    got = fn(pts)
    want = np.array([interpret(exprs, {"x": px, "y": py}) for px, py in pts.tolist()])
    assert got.shape == (400, len(texts))
    assert got.tobytes() == want.tobytes()


def test_compiled_batch_with_one_bad_point_names_the_subexpression() -> None:
    fn = compile_exprs([parse("x + log(y)", XY), parse("1/(x - 0.25)", XY)], XY)
    with pytest.raises(ExprDomainError, match=r"division by zero in '1/\(x - 0\.25\)'") as err:
        fn(np.array([[0.1, 0.5], [0.25, 0.5], [0.3, 0.2]]))
    assert err.value.point == {"x": 0.25, "y": 0.5}
    with pytest.raises(ExprDomainError, match=r"log\(-0\.5\)") as err:
        fn(np.array([[0.1, 0.5], [0.3, -0.5]]))
    assert err.value.point == {"x": 0.3, "y": -0.5}


# -- property tests ----------------------------------------------------------------


def safe_trees():
    leaves = st.one_of(
        st.floats(min_value=-3, max_value=3, allow_nan=False).map(num),
        st.sampled_from([var("x"), var("y")]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            children.map(lambda a: -a),
            st.tuples(children, st.integers(min_value=1, max_value=3)).map(lambda ak: ak[0] ** ak[1]),
            children.map(lambda a: parse("sin(x)", XY) * a + parse("cos(y)", XY)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(e=safe_trees(), px=st.floats(-1.5, 1.5), py=st.floats(-1.5, 1.5))
def test_property_diff_matches_finite_differences(e: Expr, px: float, py: float) -> None:
    env = {"x": px, "y": py}
    try:
        base = e.eval(env)
        sym = e.diff("x").eval(env)
    except ExprDomainError:
        return
    if abs(base) > 1e6 or abs(sym) > 1e6:
        return  # steep trees lose FD accuracy; not informative
    ref = fd_partial(e, "x", env, h=1e-5)
    assert sym == pytest.approx(ref, rel=5e-4, abs=5e-4)


@settings(max_examples=60, deadline=None)
@given(e=safe_trees(), px=st.floats(-1.5, 1.5), py=st.floats(-1.5, 1.5))
def test_property_render_round_trip(e: Expr, px: float, py: float) -> None:
    env = {"x": px, "y": py}
    try:
        want = e.eval(env)
    except ExprDomainError:
        return
    got = parse(e.to_string(), XY).eval(env)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(e=safe_trees(), pts=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                                    min_size=1, max_size=4))
def test_property_program_and_interpreter_agree(e: Expr, pts: list) -> None:
    # at a point and on a batch, as interpreted: the same bits, or an ExprDomainError
    fn = compile_exprs([e], XY)
    try:
        want = np.array([interpret([e], {"x": px, "y": py}) for px, py in pts])
    except ExprDomainError:
        for call in (lambda: fn(np.array(pts)), lambda: [fn(*p) for p in pts]):
            with pytest.raises(ExprDomainError):
                call()
        return
    assert np.array([fn(*p) for p in pts]).tobytes() == want.tobytes()
    assert fn(np.array(pts)).tobytes() == want.tobytes()


def test_eval_many_matches_single_eval() -> None:
    e1 = parse("sin(x*y) + x^3/(1 + y^2)", XY)
    e2 = e1.diff("x")
    e3 = e2.diff("y")
    env = {"x": 0.7, "y": -0.4}
    got = interpret([e1, e2, e3, e1], env)
    want = [e1.eval(env), e2.eval(env), e3.eval(env), e1.eval(env)]
    assert got == pytest.approx(want, rel=1e-15)


def test_eval_many_propagates_domain_errors() -> None:
    bad = parse("log(x)", XY)
    with pytest.raises(ExprDomainError):
        eval_many([bad], {"x": -1.0, "y": 0.0})


def test_eval_many_survives_deep_chains() -> None:
    # a left-leaning chain far deeper than the recursion limit
    e = var("x")
    for _ in range(5000):
        e = e + num(1.0)
    assert eval_many([e], {"x": 0.5}) == [pytest.approx(5000.5)]
    assert e.eval({"x": 0.5}) == 5000.5
    fn = compile_exprs([e], ("x",))
    assert fn(0.5).tolist() == [5000.5]
    assert fn(np.array([[0.5], [1.5]])).tolist() == [[5000.5], [5001.5]]
    assert e.diff("x").eval({"x": 0.5}) == 1.0
    assert parse(e.to_string(), ("x",)).eval({"x": 0.5}) == 5000.5


def test_a_program_over_no_coordinates_runs() -> None:
    e = parse("2*3", ())
    assert compile_exprs([e], ())().tolist() == [6.0]
    assert eval_many([e], {}) == [6.0]
    assert e.eval({}) == 6.0


@pytest.mark.parametrize("node, field", [
    (Num(2.0), "value"), (Var("x"), "name"), (Add(var("x"), num(1.0)), "left"),
    (Sub(var("x"), num(1.0)), "right"), (Mul(var("x"), var("y")), "left"),
    (Div(var("x"), var("y")), "right"), (Neg(var("x")), "operand"),
    (Pow(var("x"), 3), "exponent"), (Call("sin", var("x")), "arg"),
])
def test_every_node_refuses_assignment(node, field) -> None:
    for name in (field, "other"):
        with pytest.raises(AttributeError, match="expressions are immutable"):
            setattr(node, name, num(0.0))


# -- hash-consing ----------------------------------------------------------------


def identity_count(exprs) -> int:
    """Nodes under `exprs`, counted by identity."""
    seen, stack = set(), list(exprs)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack += [getattr(e, a) for a in ("left", "right", "operand", "base", "arg")
                      if hasattr(e, a)]
    return len(seen)


def test_intern_merges_equal_subtrees() -> None:
    a = parse("sin(x*y) + 1/(1 + x^2)", XY)
    b = parse("cos(x*y) - 1/(1 + x^2)", XY)
    ia, ib = intern([a, b])
    assert a.right is not b.right and ia.right is ib.right
    assert ia.left.arg is ib.left.arg
    assert identity_count([ia, ib]) < identity_count([a, b])
    one, same = intern([num(1.0), num(1.0)])
    assert one is same


def test_intern_keeps_signed_zeros_apart() -> None:
    zero, minus_zero = intern([num(0.0), num(-0.0)])
    assert zero is not minus_zero
    assert math.copysign(1.0, minus_zero.value) == -1.0
    # x*0 and x*-0 print alike but differ in the sign of their value
    pos, neg = intern([Mul(var("x"), num(0.0)), Mul(var("x"), num(-0.0))])
    assert pos is not neg and pos.left is neg.left
    values = interpret([pos, neg], {"x": 1.0, "y": 0.0})
    assert [math.copysign(1.0, v) for v in values] == [1.0, -1.0]


@settings(max_examples=60, deadline=None)
@given(trees=st.lists(safe_trees(), min_size=1, max_size=4),
       px=st.floats(-1.5, 1.5), py=st.floats(-1.5, 1.5))
def test_property_intern_keeps_text_and_values(trees: list, px: float, py: float) -> None:
    # share subtrees between the roots too, as a chart's entries do
    roots = trees + [t * trees[0] for t in trees]
    interned = intern(roots)
    assert [e.to_string() for e in interned] == [e.to_string() for e in roots]
    assert [e is f for e, f in zip(intern(interned), interned)] == [True] * len(roots)
    assert identity_count(interned) <= identity_count(roots)
    env = {"x": px, "y": py}
    want = np.array(interpret(roots, env))
    assert np.array(eval_many(interned, env)).tobytes() == want.tobytes()


# -- domain errors on every scalar -----------------------------------------------

GOOD = [(0.9, 0.1), (0.7, 0.2)]  # points where every case below has a value

# expression, two points where it fails, its message on floats (None: a
# float has a value there) and on degree-2 jets; the strings are those the
# tree interpreter raised before the tape named its own failures
DOMAIN_CASES = [
    ("y/(x - y)", [(0.5, 0.5), (0.25, 0.25)],
     "division by zero in 'y/(x - y)'", "division by zero in 'y/(x - y)'"),
    ("(x - y)^-2", [(0.5, 0.5), (0.25, 0.25)],
     "zero raised to negative power in '(x - y)^-2'",
     "zero raised to negative power in '(x - y)^-2'"),
    ("log(x - y)", [(0.3, 0.5), (0.1, 0.6)],
     "log(-0.2) is outside the function domain in 'log(x - y)'",
     "log(-0.2) is outside the function domain in 'log(x - y)'"),
    ("sqrt(x - y)", [(0.3, 0.5), (0.1, 0.6)],
     "sqrt(-0.2) is outside the function domain in 'sqrt(x - y)'",
     "sqrt(-0.2) is outside the function domain in 'sqrt(x - y)'"),
    ("sqrt(x*y)", [(0.0, 0.5), (0.3, 0.0)],
     None, "sqrt has no derivatives at 0.0 in 'sqrt(x*y)'"),
    ("exp(x)", [(1e4, 0.0), (2e4, 0.0)], "overflow in exp(10000.0)", "overflow in exp(10000.0)"),
    ("x^2", [(1e200, 0.0), (2e200, 0.0)], "overflow in 'x^2'", "overflow in 'x^2'"),
    ("y/x", [(1e-200, 0.5), (2e-200, 0.5)], None, "overflow in 'y/x'"),
    ("x*z", [(0.5, 0.5), (0.25, 0.25)],
     "no value supplied for coordinate 'z'", "no value supplied for coordinate 'z'"),
]

# each scalar of the tape: (on jets, run at a point or a batch of points)
SCALARS = {
    "float point": (False, lambda e, p: eval_many([e], dict(zip(XY, p)))),
    "compiled point": (False, lambda e, p: compile_exprs([e], XY)(*p)),
    "column batch": (False, lambda e, pts: compile_exprs([e], XY)(np.array(pts))),
    "jet point": (True, lambda e, p: JetSpace.of(2, 2).evaluate(compile_exprs([e], XY), p)),
    "jet batch": (True, lambda e, pts: JetSpace.of(2, 2).evaluate(compile_exprs([e], XY), pts)),
}


@pytest.mark.parametrize("scalar", SCALARS)
@pytest.mark.parametrize("text, bad, on_floats, on_jets", DOMAIN_CASES)
def test_every_domain_message_on_every_scalar(scalar, text, bad, on_floats, on_jets):
    jets, run = SCALARS[scalar]
    e = var("x") * var("z") if "z" in text else parse(text, XY)
    batch = "batch" in scalar
    points = [GOOD[0], bad[0], GOOD[1], bad[1]] if batch else bad[0]
    message = on_jets if jets else on_floats
    if message is None:
        run(e, points)
        return
    with pytest.raises(ExprDomainError) as err:
        run(e, points)
    assert str(err.value) == message
    # a batch reports its first failing point; every point fails without z
    first = GOOD[0] if batch and "z" in text else bad[0]
    assert err.value.point == dict(zip(XY, first))
    assert err.value.space is (JetSpace.of(2, 2) if jets else None)


# -- the tape against the tree interpreter -------------------------------------------

CONSTANTS = [1.0, -1.5, 0.5, 2.0, 3.0, 1e200]
STEPS = ["+", "-", "*", "/", "neg", "pow", *sorted(FUNCTION_NAMES)]


@st.composite
def expression_dags(draw):
    """Up to three roots of a DAG over x, y, both zeros and other constants:
    each new node reads earlier ones, so subtrees are shared, built without
    folding so that x*-0.0 and x^-k stay in the tree."""
    nodes = [var("x"), var("y"), num(0.0), num(-0.0)]
    nodes += [num(draw(st.sampled_from(CONSTANTS))) for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(1, 10))):
        a, b = (nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(2))
        step = draw(st.sampled_from(STEPS))
        binary = {"+": Add, "-": Sub, "*": Mul, "/": Div}.get(step)
        nodes.append(binary(a, b) if binary else Neg(a) if step == "neg" else
                     Pow(a, draw(st.sampled_from([-3, -2, -1, 2, 3]))) if step == "pow" else
                     Call(step, a))
    return nodes[-draw(st.integers(1, 3)):]


def outcome(call):
    """The bytes of what `call` returns, or the message and point of its ExprDomainError."""
    try:
        return np.asarray(call(), dtype=float).tobytes()
    except ExprDomainError as err:
        return str(err), err.point


COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(roots=expression_dags(),
       pts=st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=3))
def test_property_tape_equals_the_interpreter_on_every_scalar(roots, pts):
    # floats, columns and degree-2 jets: the same bits, or the same message at the same point
    fn = compile_exprs(roots, XY)
    space = JetSpace.of(2, 2)
    per_point = [outcome(lambda: interpret(roots, dict(zip(XY, p)))) for p in pts]
    for p, want in zip(pts, per_point):
        assert outcome(lambda: eval_many(roots, dict(zip(XY, p)))) == want
        assert outcome(lambda: fn(*p)) == want
        assert outcome(lambda: space.evaluate(fn, p)) == outcome(
            lambda: interpreted_jets(roots, XY, space, p))
    failures = [w for w in per_point if isinstance(w, tuple)]
    column = failures[0] if failures else b"".join(per_point)
    assert outcome(lambda: fn(np.array(pts))) == column
    assert outcome(lambda: space.evaluate(fn, pts)) == outcome(
        lambda: interpreted_jets(roots, XY, space, pts))
