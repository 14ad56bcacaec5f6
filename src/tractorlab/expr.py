"""Closed-grammar symbolic expressions over chart coordinates.

Everything downstream (curvature, connection matrices, transport) needs
exact derivatives of user-supplied coefficient functions, to arbitrary
order.  A small fixed grammar keeps that tractable: numeric literals, named
coordinates, ``+ - * /``, integer powers written ``base^k``, and a closed
set of unary functions (``sin cos tan exp log sqrt atan``).

Expressions are immutable trees.  Differentiation (forward mode,
:func:`tangents`) returns new trees and is exact; the only simplification
performed is constant folding plus the additive/multiplicative identities,
which is enough to keep derivative towers from filling up with structural
zeros.  Nothing here recurses over a tree: every consumer of an expression
DAG (the interpreter, :func:`tangents` and the code emitter) runs on one
explicit-stack post-order walk memoised on node identity, and text is
written from an explicit stack of pieces, so depth is bounded by memory and
not by the recursion limit.  One interpreter, :func:`eval_many`, evaluates
expressions and is the one place that holds the domain rules.
:func:`compile_exprs` emits one plain Python program for hot paths such as
transport integration, which runs on floats at a point and on numpy columns
for a batch of points with the same results; when it fails at a point the
interpreter re-evaluates there to report the error.

Domain problems (``log`` of a non-positive number, division by zero, even
roots of negatives, overflow) raise :class:`ExprDomainError` naming the
failing subexpression -- results are never silently NaN.
"""

from __future__ import annotations

import math
import re
from itertools import repeat
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "ExprError",
    "ExprSyntaxError",
    "ExprNameError",
    "ExprDomainError",
    "parse",
    "num",
    "var",
    "compile_exprs",
    "eval_many",
    "tangents",
    "FUNCTION_NAMES",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprNameError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class ExprDomainError(ExprError):
    """Raised when evaluation leaves the domain of a subexpression.

    `point` maps each coordinate to its value where the error was raised,
    and `space` is the `jets.JetSpace` it was raised in (None on floats).
    """

    point: dict | None = None
    space = None


_MATH_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "atan": math.atan,
}

FUNCTION_NAMES = frozenset(_MATH_FUNCTIONS)


class Expr:
    """Abstract immutable expression node."""

    __slots__ = ()

    # -- arithmetic interface ------------------------------------------------

    def __add__(self, other):
        return _add(self, _as_expr(other))

    def __radd__(self, other):
        return _add(_as_expr(other), self)

    def __sub__(self, other):
        return _sub(self, _as_expr(other))

    def __rsub__(self, other):
        return _sub(_as_expr(other), self)

    def __mul__(self, other):
        return _mul(self, _as_expr(other))

    def __rmul__(self, other):
        return _mul(_as_expr(other), self)

    def __truediv__(self, other):
        return _div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return _div(_as_expr(other), self)

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer powers are supported")
        return _pow(self, k)

    # -- core operations -----------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Exact partial derivative with respect to the coordinate `name`."""
        return tangents([self], (name,))[0][0]

    def eval(self, env: Mapping[str, float]) -> float:
        return eval_many((self,), env)[0]

    def is_zero(self) -> bool:
        return isinstance(self, Num) and self.value == 0.0

    # -- rendering -----------------------------------------------------------

    _PREC = 0

    def to_string(self) -> str:
        """The expression as text that `parse` reads back to the same value."""
        return _render(self)

    def __repr__(self):
        return f"{type(self).__name__}<{self.to_string()}>"


class Num(Expr):
    __slots__ = ("value",)
    _PREC = 100

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("expressions are immutable")


class Var(Expr):
    __slots__ = ("name",)
    _PREC = 100

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")


class Add(_Binary):
    __slots__ = ()
    _PREC = 10


class Sub(_Binary):
    __slots__ = ()
    _PREC = 10


class Mul(_Binary):
    __slots__ = ()
    _PREC = 20


class Div(_Binary):
    __slots__ = ()
    _PREC = 20


class Neg(Expr):
    __slots__ = ("operand",)
    _PREC = 15

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _PREC = 30

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")


class Call(Expr):
    __slots__ = ("func", "arg")
    _PREC = 100

    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")


# -- the one walk ---------------------------------------------------------------


def _node_children(node: Expr):
    if isinstance(node, _Binary):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _postorder(roots: Iterable[Expr], memo: dict, visit: Callable) -> None:
    """Store `visit(node)` in `memo[id(node)]` for each node under `roots`
    that `memo` does not hold yet, children first.

    This is the one walk over an expression DAG: an explicit stack, so depth
    is bounded by memory and not by the recursion limit, memoised on node
    identity, so `visit` may read its children's results from `memo`.  A
    node whose children are not all in `memo` goes back on the stack under a
    marker, with those children above it pushed left to right, so the right
    one is visited first.
    """
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if node is None:  # the node below has all its children in memo
                node = stack.pop()
            elif id(node) in memo:
                continue
            else:
                pending = [c for c in _node_children(node) if id(c) not in memo]
                if pending:
                    stack += (node, None, *pending)
                    continue
            memo[id(node)] = visit(node)


_INFIX = {Add: (" + ", False), Sub: (" - ", True), Mul: ("*", False), Div: ("/", True)}


def _render(root: Expr) -> str:
    """Text of a tree, written from an explicit stack of pieces (strings and
    nodes still to write), so a shared subtree is written at each use.  A
    child is parenthesised when it binds looser than its parent, or as
    loosely on the strict side (the right of - and /, a negated operand, a
    power's base)."""

    def side(parent, child, strict):
        if child._PREC < parent._PREC or (strict and child._PREC == parent._PREC):
            return ("(", child, ")")
        return (child,)

    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        t = type(node)
        if t is str:
            out.append(node)
        elif t is Num:
            v = node.value
            out.append(str(int(v)) if math.isfinite(v) and v == int(v) and abs(v) < 1e16
                       else repr(v))
        elif t is Var:
            out.append(node.name)
        elif t is Call:
            stack += (")", node.arg, f"{node.func}(")
        elif t is Neg:
            stack += reversed(("-", *side(node, node.operand, True)))
        elif t is Pow:
            stack += reversed((*side(node, node.base, True), f"^{node.exponent}"))
        else:
            op, strict = _INFIX[t]
            stack += reversed((*side(node, node.left, False), op,
                               *side(node, node.right, strict)))
    return "".join(out)


_ZERO = Num(0.0)
_ONE = Num(1.0)


def num(value: float) -> Num:
    return Num(value)


def var(name: str) -> Var:
    return Var(name)


def _as_expr(obj) -> Expr:
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return Num(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as an expression")


# -- smart constructors (constant folding and identity removal only) ---------


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if b.is_zero():
        return a
    if a.is_zero():
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if a.is_zero() or b.is_zero():
        return _ZERO
    if isinstance(a, Num) and a.value == 1.0:
        return b
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value == 1.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return Num(a.value / b.value)
    if a.is_zero() and not (isinstance(b, Num) and b.value == 0.0):
        # 0/f stays zero wherever f is defined; degenerate denominators are
        # still reported because the fold is skipped when b is literally 0.
        return _ZERO
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return a
    if isinstance(a, Num) and not (a.value == 0.0 and k < 0):
        try:
            return Num(float(a.value ** k))
        except OverflowError:  # evaluation reports it
            pass
    return Pow(a, k)


def _tangent_factor(node: Call) -> Expr:
    """f'(u) of a call f(u), reusing the call's own node where f' allows."""
    f, u = node.func, node.arg
    if f == "sin":
        return Call("cos", u)
    if f == "cos":
        return _neg(Call("sin", u))
    if f == "tan":
        return _add(_ONE, _pow(node, 2))
    if f == "exp":
        return node
    if f == "log":
        return _div(_ONE, u)
    if f == "sqrt":
        return _div(Num(0.5), node)
    if f == "atan":
        return _div(_ONE, _add(_ONE, _pow(u, 2)))
    raise AssertionError(f"no derivative rule for '{f}'")


def tangents(exprs: Iterable[Expr], coords: Sequence[str]) -> list:
    """First partials of every expression in every coordinate, as Expr nodes.

    Forward mode by source transformation (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 3): one walk over the expressions as a DAG,
    memoised on node identity, gives each node its n tangents, built from
    its operands' tangents and the value nodes themselves, so values and
    tangents compiled together evaluate every shared node once.  A quotient
    q = a/b has tangent (da - q*db)/b, and tan, exp and sqrt reuse their own
    node; the constructors fold the zeros.  Returns one list per coordinate,
    in the order of `coords`, of the partials in the order of `exprs`.
    """
    index = {c: h for h, c in enumerate(coords)}
    zeros = (_ZERO,) * len(coords)
    memo: dict = {}

    def rule(node):
        t = type(node)
        if t is Num:
            return zeros
        if t is Var:
            h = index.get(node.name)
            return zeros if h is None else zeros[:h] + (_ONE,) + zeros[h + 1:]
        da = memo[id(_node_children(node)[0])]
        if t is Neg:
            return tuple(_neg(x) for x in da)
        if t is Pow or t is Call:
            factor = (_tangent_factor(node) if t is Call else
                      _mul(Num(node.exponent), _pow(node.base, node.exponent - 1)))
            return tuple(_mul(factor, x) for x in da)
        a, b, db = node.left, node.right, memo[id(node.right)]
        if t is Add:
            return tuple(_add(x, y) for x, y in zip(da, db))
        if t is Sub:
            return tuple(_sub(x, y) for x, y in zip(da, db))
        if t is Mul:
            return tuple(_add(_mul(x, b), _mul(a, y)) for x, y in zip(da, db))
        return tuple(_div(_sub(x, _mul(node, y)), b) for x, y in zip(da, db))  # Div

    roots = list(exprs)
    _postorder(roots, memo, rule)
    return [[memo[id(e)][h] for e in roots] for h in range(len(coords))]


# -- tokenizer ----------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < size and text[i + 1].isdigit()):
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i < size and text[i] == ".":
                i += 1
                while i < size and text[i].isdigit():
                    i += 1
            if i < size and text[i] in "eE":
                j = i + 1
                if j < size and text[j] in "+-":
                    j += 1
                if j < size and text[j].isdigit():
                    i = j
                    while i < size and text[i].isdigit():
                        i += 1
            tokens.append(("num", text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character '{ch}'", i)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens, coords: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.coords = set(coords)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected '{kind}', found '{tok[1] or 'end of input'}'", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.additive()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing input '{tok[1]}'", tok[2])
        return e

    def additive(self) -> Expr:
        start = self.peek()[2]
        e = self.multiplicative()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.multiplicative()
            e = _finite(_add(e, rhs) if op == "+" else _sub(e, rhs), start)
        return e

    def multiplicative(self) -> Expr:
        start = self.peek()[2]
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = _finite(_mul(e, rhs) if op == "*" else _div(e, rhs), start)
        return e

    def unary(self) -> Expr:
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            return _neg(self.unary())
        if tok[0] == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("num")
            text = tok[1]
            if any(c in text for c in ".eE"):
                raise ExprSyntaxError(f"exponent must be an integer, found '{text}'", tok[2])
            return _pow(base, sign * int(text))
        return base

    def atom(self) -> Expr:
        tok = self.advance()
        kind, text, pos = tok
        if kind == "num":
            return _finite(Num(float(text)), pos)
        if kind == "(":
            e = self.additive()
            self.expect(")")
            return e
        if kind == "name":
            if self.peek()[0] == "(":
                if text not in _MATH_FUNCTIONS:
                    raise ExprNameError(text, pos)
                self.advance()
                arg = self.additive()
                self.expect(")")
                return Call(text, arg)
            if text in self.coords:
                return Var(text)
            raise ExprNameError(text, pos)
        raise ExprSyntaxError(f"expected a value, found '{text or 'end of input'}'", pos)


def _finite(e: Expr, position: int) -> Expr:
    """`e`, unless it is a constant that is not finite (a literal beyond the
    float range, or one folded from literals)."""
    if isinstance(e, Num) and not math.isfinite(e.value):
        raise ExprSyntaxError("number out of range", position)
    return e


def parse(text: str, coords: Sequence[str]) -> Expr:
    """Parse `text` over the given coordinate names.

    Raises ExprSyntaxError (with position) for malformed input or a
    constant beyond the float range, and ExprNameError for identifiers that
    are neither coordinates nor one of the supported functions.
    """
    for c in coords:
        if c in _MATH_FUNCTIONS:
            raise ValueError(f"coordinate name '{c}' collides with a function name")
    return _Parser(_tokenize(text), coords).parse()


# -- compilation --------------------------------------------------------------


def _emit(node: Expr, names: dict, temps: dict) -> str:
    """How emitted code refers to `node`, given its children's references in
    `names` (keyed by node id): a literal, a coordinate, or the temporary that
    holds its right-hand side."""
    t = type(node)
    if t is Num:
        # folding can make inf or nan, which have no literal
        return repr(node.value) if math.isfinite(node.value) else f"float('{node.value}')"
    if t is Var:
        return node.name
    kids = [names[id(c)] for c in _node_children(node)]
    a, b = kids[0], kids[-1]
    if t is Add:
        rhs = f"{a} + {b}"
    elif t is Sub:
        rhs = f"{a} - ({b})"
    elif t is Mul:
        rhs = f"({a}) * ({b})"
    elif t is Div:
        rhs = f"({a}) / ({b})"
    elif t is Neg:
        rhs = f"-({a})"
    elif t is Pow:
        rhs = f"_pow({a}, {node.exponent})"
    else:
        rhs = f"_{node.func}({a})"
    # operands are references already, so equal text is an equal computation
    return temps.setdefault(rhs, f"_t{len(temps)}")


def _elementwise(fn: Callable) -> Callable:
    """`fn` applied to each element of a 1-d array, or to a plain float.

    Batched code calls the scalar `math` routines (and float `**`) point by
    point because numpy's vectorised sin, exp, power, ... may round
    differently; `+ - * /` and negation are exact in numpy and stay whole-array.
    """

    def apply(x, *args):
        if isinstance(x, np.ndarray):
            return np.array(list(map(fn, x.tolist(), *(repeat(a) for a in args))), dtype=float)
        return fn(x, *args)

    return apply


_NAMESPACE = {f"_{fn}": _elementwise(impl) for fn, impl in _MATH_FUNCTIONS.items()}
_NAMESPACE["_pow"] = _elementwise(pow)
_TEMP = re.compile(r"\b_t\d+\b")


def _source(exprs: list, coords: Sequence[str]) -> str:
    """Python source of `_compiled(*coords, _out)`, which stores expression j
    in `_out[j]` and returns `_out`."""
    names: dict = {}
    temps: dict = {}
    _postorder(exprs, names, lambda node: _emit(node, names, temps))
    refs = [names[id(e)] for e in exprs]
    lines = [f"    {ref} = {rhs}" for rhs, ref in temps.items()]
    # on a batch a temporary is a whole column: free it after its last use
    outputs = set(refs)
    last = {used: i for i, rhs in enumerate(temps) for used in _TEMP.findall(rhs)}
    for ref, i in last.items():
        if ref not in outputs:
            lines[i] += f"; del {ref}"
    return "\n".join([f"def _compiled({', '.join([*coords, '_out'])}):", *lines,
                      *(f"    _out[{j}] = {ref}" for j, ref in enumerate(refs)),
                      "    return _out"])


def _exec_source(exprs: list, coords: Sequence[str]) -> Callable:
    namespace = dict(_NAMESPACE)
    exec(_source(exprs, coords), namespace)
    return namespace["_compiled"]


_FAILURES = (ZeroDivisionError, ValueError, OverflowError)
_RESERVED = {"_out", *_NAMESPACE}


def compile_exprs(exprs: Iterable[Expr], coords: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile a flat sequence of expressions into one callable.

    Called with one value per coordinate, the result returns a 1-d float
    array of the k expressions, in order; the values are taken as Python
    floats, so a numpy scalar input fails like a float one.  Called with a
    single (B, n) array of points it returns a (B, k) array (the transpose
    of one contiguous row per expression).  Both run one emitted program:
    on floats at a point, on whole columns for a batch, where `+ - * /` and
    negation are exact numpy operations and functions and powers go element
    by element through the same scalar routines, so each row is bit for bit
    the point's values.  Shared subtrees, and subexpressions that are equal
    term by term, are evaluated once, and each temporary is freed after its
    last use, so a large batch keeps few columns alive.  The program is
    compiled on the first call.  A batch with a floating-point exception is
    rerun point by point; a domain failure at a point is re-evaluated there
    by eval_many, which raises the ExprDomainError naming the failing
    subexpression.
    """
    flat = list(exprs)
    for c in coords:
        if c in _MATH_FUNCTIONS or c in _RESERVED or c.startswith("_t"):
            raise ValueError(f"coordinate name '{c}' is reserved")
    count = len(flat)
    program = None

    def evaluate(*point) -> np.ndarray:
        nonlocal program
        if program is None:
            program = _exec_source(flat, coords)
        if len(point) == 1 and isinstance(point[0], np.ndarray) and point[0].ndim == 2:
            points = np.asarray(point[0], dtype=float)
            if points.shape[1] != len(coords):
                raise ValueError(f"points must have {len(coords)} columns")
            try:
                with np.errstate(divide="raise", invalid="raise", over="raise"):
                    return program(*points.T, np.empty((count, len(points)))).T
            except (FloatingPointError,) + _FAILURES:
                rows = [evaluate(*p) for p in points.tolist()]
                return np.array(rows, dtype=float).reshape(len(rows), count)
        values = [float(v) for v in point]
        try:
            return np.array(program(*values, [0.0] * count), dtype=float)
        except _FAILURES:
            eval_many(flat, dict(zip(coords, values)))
            raise

    evaluate.n_outputs = count  # type: ignore[attr-defined]
    return evaluate


def _value(x):
    """A scalar's value where the domain rules apply: a number as a float, a
    jet's value at its point (an array over a batch of points, where a rule
    must hold at every point)."""
    return float(x) if isinstance(x, (int, float, np.number)) else x.value


def _node_value(node: Expr, env: Mapping, memo: dict, space):
    t = type(node)
    if t is Num:
        return node.value if space is None else space.constant(node.value)
    if t is Var:
        try:
            x = env[node.name]
        except KeyError:
            raise ExprDomainError(f"no value supplied for coordinate '{node.name}'") from None
        return float(x) if space is None else x
    if t is Add:
        return memo[id(node.left)] + memo[id(node.right)]
    if t is Sub:
        return memo[id(node.left)] - memo[id(node.right)]
    if t is Mul:
        return memo[id(node.left)] * memo[id(node.right)]
    if t is Div:
        denom = memo[id(node.right)]
        if np.any(_value(denom) == 0.0):
            raise ExprDomainError(f"division by zero in '{node.to_string()}'")
        try:
            return memo[id(node.left)] / denom
        except OverflowError:
            raise ExprDomainError(f"overflow in '{node.to_string()}'") from None
    if t is Neg:
        return -memo[id(node.operand)]
    if t is Pow:
        b = memo[id(node.base)]
        if node.exponent < 0 and np.any(_value(b) == 0.0):
            raise ExprDomainError(f"zero raised to negative power in '{node.to_string()}'")
        try:
            return b ** node.exponent
        except OverflowError:
            raise ExprDomainError(f"overflow in '{node.to_string()}'") from None
    if t is Call:
        x = memo[id(node.arg)]
        try:
            return _MATH_FUNCTIONS[node.func](x) if space is None else space.call(node.func, x)
        except ValueError:
            raise ExprDomainError(f"{node.func}({_value(x)}) is outside the function domain "
                                  f"in '{node.to_string()}'") from None
        except OverflowError:
            raise ExprDomainError(f"overflow in {node.func}({_value(x)})") from None
        except ZeroDivisionError:
            raise ExprDomainError(f"{node.func} has no derivatives at {_value(x)} "
                                  f"in '{node.to_string()}'") from None
    raise AssertionError(f"unhandled node type {t}")


def eval_many(exprs: Iterable[Expr], env: Mapping, space=None) -> list:
    """Evaluate many expressions at once, sharing work across common subtrees.

    This is the one interpreter (Expr.eval calls it too).  It walks the
    collection as a DAG (memo keyed on node identity) with an explicit
    stack, so heavily shared trees evaluate in time proportional to the
    number of distinct nodes and never hit the recursion limit.

    The walk is generic over its scalar: Python floats with `space` None,
    or the jets of a `jets.JetSpace`, whose domain rules act on their values
    at the point, or at every point of a batch.  An ExprDomainError names
    the failing subexpression, and its `point` holds the coordinates (as
    floats at one point; `JetSpace.evaluate` narrows a batch to its first
    failing point).
    """
    roots = list(exprs)
    memo: dict = {}
    try:
        _postorder(roots, memo, lambda node: _node_value(node, env, memo, space))
    except ExprDomainError as err:
        err.point = {name: _value(x) for name, x in env.items()}
        err.space = space
        raise
    return [memo[id(e)] for e in roots]
