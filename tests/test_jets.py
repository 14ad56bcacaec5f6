"""Truncated Taylor jets against sympy.

sympy parses the same formulas and compiles them for mpmath, sympy's
arbitrary-precision backend, which differentiates them numerically at 40
digits; every Taylor coefficient d^alpha f(p) / alpha! is checked.  That
route shares no code with the jet tables, the series compositions or the
interpreter.
"""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
import sympy

from tractorlab.expr import ExprDomainError, compile_exprs, num, parse
from tractorlab.jets import Jet, JetSpace
from tractorlab.manifest import bundled_names, load_bundled

DEGREE = 5

CASES_2D = [
    "sin(x*y) + cos(x - y)",
    "tan(0.3*x + y)",
    "exp(x)*log(2 + y)",
    "sqrt(1.5 + x*y)",
    "atan(x/(1 + y^2))",
    "1/(2 - x*y)",
    "x^-1*y^2 + (x + 2)^-3",
    "exp(sin(x)*sqrt(2 + y))",
    "log(1 + atan(x*y)^2)",
    "tan(cos(x)/(2 + y))",
]

CASES_3D = [
    "sin(x*y*z)/(1 + z^2)",
    "sqrt(2 + x*y + z)^3*log(3 + x - z)",
    "atan(exp(x - y)*z)^-2",
    "cos(x + y^2)*tan(z)/sqrt(x + 3)",
]


def sympy_coefficients(text, coords, point, degree):
    """{multi-index: d^alpha f(p) / alpha!} for |alpha| <= degree, at 40 digits."""
    syms = sympy.symbols(coords)
    f = sympy.lambdify(syms, sympy.sympify(text.replace("^", "**"),
                                           locals=dict(zip(coords, syms))), "mpmath")
    out = {}
    with mpmath.workdps(40):
        p = [mpmath.mpf(float(v)) for v in point]
        for alpha in product(range(degree + 1), repeat=len(coords)):
            if sum(alpha) <= degree:
                scale = math.prod(math.factorial(a) for a in alpha)
                out[alpha] = float(mpmath.diff(f, p, alpha) / scale)
    return out


def monomial(space, alpha):
    """Index of the monomial alpha in a space's coefficient order."""
    c = np.zeros(space.size)
    c[0] = 1.0
    for i, a in enumerate(alpha):
        for _ in range(a):
            c = space.mul(c, space._variables[i])
    return int(np.argmax(c))


def check_against_sympy(text, coords, point):
    space = JetSpace(len(coords), DEGREE)
    got = space.evaluate(compile_exprs([parse(text, coords)], coords), point)[0]
    want = np.zeros(space.size)
    for alpha, value in sympy_coefficients(text, coords, point, DEGREE).items():
        want[monomial(space, alpha)] = value
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("text", CASES_2D)
def test_jets_match_sympy_in_two_variables(text):
    rng = np.random.default_rng(sum(map(ord, text)))
    check_against_sympy(text, ("x", "y"), rng.uniform(0.2, 0.6, size=2))


@pytest.mark.parametrize("text", CASES_3D)
def test_jets_match_sympy_in_three_variables(text):
    rng = np.random.default_rng(sum(map(ord, text)))
    check_against_sympy(text, ("x", "y", "z"), rng.uniform(0.2, 0.6, size=3))


def test_products_shifts_and_truncation_are_consistent():
    space = JetSpace(3, 4)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 5, space.size))
    # the product rule holds exactly one degree down
    lower = space.sizes[3]
    lhs = space.diff(space.mul(a, b), 1)[..., :lower]
    rhs = (space.mul(space.diff(a, 1), b) + space.mul(a, space.diff(b, 1)))[..., :lower]
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
    # a truncated product is the prefix of the full one
    np.testing.assert_array_equal(space.mul(a[:, :lower], b[:, :lower]),
                                  space.mul(a, b)[:, :lower])
    np.testing.assert_allclose(space.contract("i,i->", a, b), space.mul(a, b).sum(axis=0),
                               rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("text, point, message", [
    ("log(x - y)", (0.5, 0.5), r"log\(0\.0\) is outside the function domain in 'log\(x - y\)'"),
    ("x + log(x - y)", (0.3, 0.5), r"log\(-0\.2\d*\) is outside the function domain"),
    ("sqrt(x - y)", (0.3, 0.5), r"sqrt\(-0\.2\d*\) is outside the function domain"),
    ("sqrt(x*x + y*y)", (0.0, 0.0), r"sqrt has no derivatives at 0\.0 in 'sqrt\(x\*x \+ y\*y\)'"),
    ("y/(x - y)", (0.5, 0.5), r"division by zero in 'y/\(x - y\)'"),
    ("(x - y)^-2", (0.5, 0.5), r"zero raised to negative power in '\(x - y\)\^-2'"),
    ("y/x", (1e-200, 0.5), r"overflow in 'y/x'"),  # 1/x has a value; x^-2 overflows
])
@pytest.mark.parametrize("degree", [1, DEGREE])
def test_jet_domain_errors_name_the_subexpression(text, point, message, degree):
    space = JetSpace(2, degree)
    with pytest.raises(ExprDomainError, match=message) as err:
        space.evaluate(compile_exprs([parse(text, ("x", "y"))], ("x", "y")), point)
    assert err.value.point == {"x": point[0], "y": point[1]}


def test_sqrt_at_zero_has_a_value_but_no_derivatives():
    e = parse("sqrt(x*x + y*y)", ("x", "y"))
    at_zero = JetSpace(2, 0).evaluate(compile_exprs([e], ("x", "y")), (0.0, 0.0))
    assert at_zero[0].tolist() == [0.0]
    assert e.eval({"x": 0.0, "y": 0.0}) == 0.0


@pytest.mark.parametrize("name", bundled_names())
def test_interned_gamma_has_the_jets_of_its_separately_parsed_entries(name):
    # the chart shares each distinct subexpression of its entries; parsed one
    # by one they share nothing, and every jet coefficient must agree bit for bit
    m = load_bundled(name)
    chart = m.chart
    separate = np.full(chart.gamma.shape, num(0.0), dtype=object)
    for key, text in m.raw["gamma"].items():
        separate[tuple(int(s) for s in key.split(","))] = parse(text, chart.coords)
    space = JetSpace(chart.n, 3)
    pts = m.sample()[:8]
    want = space.evaluate(compile_exprs(separate.ravel(), chart.coords), pts)
    assert space.evaluate(chart.evaluator(chart.gamma), pts).tobytes() == want.tobytes()


# log of 1e-300 + (x - 0.5)^3 + x*y^3: at (0.5, 0) its argument has no
# non-constant coefficient at degree 2, and the log series overflows there, so
# the jet is log(1e-300) alone; at (0.5, 1e-110) the argument has a y
# coefficient, and the overflow is an error.
FLAT_LOG = "log(1e-300 + (x - 0.5)^3 + x*y^3)"


@pytest.mark.parametrize("points", [
    [(0.5, 0.0), (0.9, 0.0)],
    [(0.9, 0.0), (0.5, 0.0), (0.7, 0.2)],
    [(0.5, 0.0), (0.5, 0.0)],
])
def test_an_overflowing_constant_series_is_dropped_point_by_point(points):
    program = compile_exprs([parse(FLAT_LOG, ("x", "y"))], ("x", "y"))
    space = JetSpace.of(2, 2)
    alone = np.stack([space.evaluate(program, p) for p in points])
    assert space.evaluate(program, points).tobytes() == alone.tobytes()


def test_a_batch_raises_the_overflow_of_its_failing_point():
    program = compile_exprs([parse(FLAT_LOG, ("x", "y"))], ("x", "y"))
    space = JetSpace.of(2, 2)
    bad = (0.5, 1e-110)
    with pytest.raises(ExprDomainError) as alone:
        space.evaluate(program, bad)
    with pytest.raises(ExprDomainError) as err:
        space.evaluate(program, [(0.9, 0.0), (0.5, 0.0), bad, (0.7, 0.2)])
    assert str(err.value) == str(alone.value) == "overflow in log(1e-300)"
    assert err.value.point == {"x": 0.5, "y": 1e-110}


def special_values(rng, shape):
    """Normal numbers mixed with signed zeros, infinities, NaN and subnormals."""
    pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.5e-310, -1e-310])
    x = rng.normal(size=shape)
    pick = rng.random(shape) < 0.4
    x[pick] = rng.choice(pool, size=pick.sum())
    return x


@pytest.mark.parametrize("n, degree", [(2, 2), (3, 4)])
def test_jet_product_and_difference_are_the_routes_they_replace(n, degree):
    space = JetSpace.of(n, degree)
    rng = np.random.default_rng(degree)
    a, b = special_values(rng, (2, 64, space.size))
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (a, b[0]), (a[0], b), (a[:, : space.sizes[1]], b)):
            size = min(x.shape[-1], y.shape[-1])
            end = space._bounds[size]
            prod = np.einsum("...z,...z->...z", x[..., space._left[:end]], y[..., space._right[:end]])
            want = np.add.reduceat(prod, space._bounds[:size], axis=-1)
            got = (Jet(x, space) * Jet(y, space)).c
            assert got.tobytes() == want.tobytes()
        got, want = (Jet(a, space) - Jet(b, space)).c, a + -b
    # x - y is x + -y bit for bit, but for the sign of a NaN y: subtraction
    # returns y's NaN as it is, the float and column steps' `-` too
    assert np.array_equal(got, want, equal_nan=True)
    keep = ~np.isnan(b)
    assert got[keep].tobytes() == want[keep].tobytes()
