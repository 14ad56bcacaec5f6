"""Closed-grammar symbolic expressions over chart coordinates.

Everything downstream (curvature, connection matrices, transport) needs
exact derivatives of user-supplied coefficient functions, to arbitrary
order.  A small fixed grammar keeps that tractable: numeric literals, named
coordinates, ``+ - * /``, integer powers written ``base^k``, and a closed
set of unary functions (``sin cos tan exp log sqrt atan``).

Expressions are immutable trees.  Differentiation returns a new tree and is
exact; the only simplification performed is constant folding plus the
additive/multiplicative identities, which is enough to keep derivative
towers from filling up with structural zeros.  One interpreter,
:func:`eval_many`, evaluates expressions; it walks them as a DAG with an
explicit stack and is the one place that holds the domain rules.
:func:`compile_exprs` emits plain Python source using the ``math`` module
for hot paths such as transport integration, for one point or for a numpy
batch of points with the same results; when that code fails at a point it
re-evaluates there with the interpreter to report the error.

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
        return self._diff(name, {})

    def eval(self, env: Mapping[str, float]) -> float:
        return eval_many((self,), env)[0]

    def _diff(self, name: str, memo: dict) -> "Expr":
        key = id(self)
        hit = memo.get(key)
        if hit is None:
            hit = self._diff_impl(name, memo)
            memo[key] = hit
        return hit

    def _diff_impl(self, name: str, memo: dict) -> "Expr":
        raise NotImplementedError

    def is_zero(self) -> bool:
        return isinstance(self, Num) and self.value == 0.0

    # -- rendering -----------------------------------------------------------

    _PREC = 0

    def to_string(self) -> str:
        raise NotImplementedError

    def _paren(self, child: "Expr", strict: bool = False) -> str:
        s = child.to_string()
        if child._PREC < self._PREC or (strict and child._PREC == self._PREC):
            return f"({s})"
        return s

    def __repr__(self):
        return f"{type(self).__name__}<{self.to_string()}>"

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return _structurally_equal(self, other)

    __hash__ = None  # type: ignore[assignment]


class Num(Expr):
    __slots__ = ("value",)
    _PREC = 100

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("expressions are immutable")

    def _diff_impl(self, name, memo):
        return _ZERO

    def to_string(self):
        v = self.value
        if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


class Var(Expr):
    __slots__ = ("name",)
    _PREC = 100

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _diff_impl(self, name, memo):
        return _ONE if self.name == name else _ZERO

    def to_string(self):
        return self.name


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

    def _diff_impl(self, name, memo):
        return _add(self.left._diff(name, memo), self.right._diff(name, memo))

    def to_string(self):
        return f"{self._paren(self.left)} + {self._paren(self.right)}"


class Sub(_Binary):
    __slots__ = ()
    _PREC = 10

    def _diff_impl(self, name, memo):
        return _sub(self.left._diff(name, memo), self.right._diff(name, memo))

    def to_string(self):
        return f"{self._paren(self.left)} - {self._paren(self.right, strict=True)}"


class Mul(_Binary):
    __slots__ = ()
    _PREC = 20

    def _diff_impl(self, name, memo):
        da = self.left._diff(name, memo)
        db = self.right._diff(name, memo)
        return _add(_mul(da, self.right), _mul(self.left, db))

    def to_string(self):
        return f"{self._paren(self.left)}*{self._paren(self.right)}"


class Div(_Binary):
    __slots__ = ()
    _PREC = 20

    def _diff_impl(self, name, memo):
        da = self.left._diff(name, memo)
        db = self.right._diff(name, memo)
        numer = _sub(_mul(da, self.right), _mul(self.left, db))
        return _div(numer, _mul(self.right, self.right))

    def to_string(self):
        return f"{self._paren(self.left)}/{self._paren(self.right, strict=True)}"


class Neg(Expr):
    __slots__ = ("operand",)
    _PREC = 15

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _diff_impl(self, name, memo):
        return _neg(self.operand._diff(name, memo))

    def to_string(self):
        return f"-{self._paren(self.operand, strict=True)}"


class Pow(Expr):
    __slots__ = ("base", "exponent")
    _PREC = 30

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _diff_impl(self, name, memo):
        da = self.base._diff(name, memo)
        return _mul(_mul(Num(self.exponent), _pow(self.base, self.exponent - 1)), da)

    def to_string(self):
        return f"{self._paren(self.base, strict=True)}^{self.exponent}"


class Call(Expr):
    __slots__ = ("func", "arg")
    _PREC = 100

    def __init__(self, func: str, arg: Expr):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def _diff_impl(self, name, memo):
        da = self.arg._diff(name, memo)
        return _mul(_chain_rule(self.func, self.arg), da)

    def to_string(self):
        return f"{self.func}({self.arg.to_string()})"


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


def _chain_rule(func: str, u: Expr) -> Expr:
    if func == "sin":
        return Call("cos", u)
    if func == "cos":
        return _neg(Call("sin", u))
    if func == "tan":
        return _add(_ONE, _pow(Call("tan", u), 2))
    if func == "exp":
        return Call("exp", u)
    if func == "log":
        return _div(_ONE, u)
    if func == "sqrt":
        return _div(_ONE, _mul(Num(2.0), Call("sqrt", u)))
    if func == "atan":
        return _div(_ONE, _add(_ONE, _pow(u, 2)))
    raise AssertionError(f"no derivative rule for '{func}'")


def _structurally_equal(a: Expr, b: Expr) -> bool:
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Num):
        return a.value == b.value
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, _Binary):
        return _structurally_equal(a.left, b.left) and _structurally_equal(a.right, b.right)
    if isinstance(a, Neg):
        return _structurally_equal(a.operand, b.operand)
    if isinstance(a, Pow):
        return a.exponent == b.exponent and _structurally_equal(a.base, b.base)
    if isinstance(a, Call):
        return a.func == b.func and _structurally_equal(a.arg, b.arg)
    raise AssertionError(f"unhandled node type {type(a)}")


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


def _emit(node: Expr, names: dict, temps: dict, batch: bool) -> str:
    key = id(node)
    if key in names:
        return names[key]
    if isinstance(node, Num):
        # folding can make inf or nan, which have no literal
        ref = repr(node.value) if math.isfinite(node.value) else f"float('{node.value}')"
    elif isinstance(node, Var):
        ref = node.name
    else:
        def sub(child):
            return _emit(child, names, temps, batch)

        if isinstance(node, Add):
            rhs = f"{sub(node.left)} + {sub(node.right)}"
        elif isinstance(node, Sub):
            rhs = f"{sub(node.left)} - ({sub(node.right)})"
        elif isinstance(node, Mul):
            rhs = f"({sub(node.left)}) * ({sub(node.right)})"
        elif isinstance(node, Div):
            rhs = f"({sub(node.left)}) / ({sub(node.right)})"
        elif isinstance(node, Neg):
            rhs = f"-({sub(node.operand)})"
        elif isinstance(node, Pow):
            if batch:
                rhs = f"_pow({sub(node.base)}, {node.exponent})"
            else:
                rhs = f"({sub(node.base)}) ** ({node.exponent})"
        elif isinstance(node, Call):
            rhs = f"_{node.func}({sub(node.arg)})"
        else:
            raise AssertionError(f"unhandled node type {type(node)}")
        # operands are references already, so equal text is an equal computation
        ref = temps.setdefault(rhs, f"_t{len(temps)}")
    names[key] = ref
    return ref


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


_SCALAR_NAMESPACE = {f"_{fn}": impl for fn, impl in _MATH_FUNCTIONS.items()}
_BATCH_NAMESPACE = {name: _elementwise(impl) for name, impl in _SCALAR_NAMESPACE.items()}
_BATCH_NAMESPACE["_pow"] = _elementwise(pow)
_BATCH_NAMESPACE["_empty"] = np.empty
_TEMP = re.compile(r"\b_t\d+\b")


def _source(exprs: list, coords: Sequence[str], batch: bool) -> str:
    """Python source of `_compiled`, the function `_exec_source` returns."""
    names: dict = {}
    temps: dict = {}
    refs = [_emit(e, names, temps, batch) for e in exprs]
    lines = [f"    {ref} = {rhs}" for rhs, ref in temps.items()]
    if batch:
        # a temporary is a whole column: free it after its last use
        outputs = set(refs)
        last = {used: i for i, rhs in enumerate(temps) for used in _TEMP.findall(rhs)}
        for ref, i in last.items():
            if ref not in outputs:
                lines[i] += f"; del {ref}"
        src = ["def _compiled(_X):", f"    {', '.join(coords)}, = _X.T", *lines]
        src.append(f"    _out = _empty((_X.shape[0], {len(refs)}))")
        src.extend(f"    _out[:, {j}] = {ref}" for j, ref in enumerate(refs))
        src.append("    return _out")
    else:
        src = [f"def _compiled({', '.join(coords)}):"]
        src.extend(lines)
        src.append(f"    return ({', '.join(refs)}{',' if len(refs) == 1 else ''})")
    return "\n".join(src)


def _exec_source(exprs: list, coords: Sequence[str], batch: bool) -> Callable:
    namespace = dict(_BATCH_NAMESPACE if batch else _SCALAR_NAMESPACE)
    exec(_source(exprs, coords, batch), namespace)
    return namespace["_compiled"]


_FAILURES = (ZeroDivisionError, ValueError, OverflowError)
_RESERVED = {"_X", "_out", *_BATCH_NAMESPACE}


def compile_exprs(exprs: Iterable[Expr], coords: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile a flat sequence of expressions into one callable.

    Called with one value per coordinate, the result returns a 1-d float
    array of the k expressions, in order; the values are taken as Python
    floats, so a numpy scalar input fails like a float one.  Called with a
    single (B, n) array of points it returns a (B, k) array, bit for bit the
    rows the pointwise call gives: arithmetic runs on whole columns, while
    functions and powers go element by element through the same scalar
    routines.  Shared subtrees, and subexpressions that are equal term by
    term, are evaluated once; batch code frees each temporary column after
    its last use, so a large batch keeps few alive.  A domain failure is
    re-evaluated at the same point by eval_many, which raises the
    ExprDomainError naming the failing subexpression; a batch with a
    floating-point exception is re-evaluated point by point to find it.
    """
    flat = list(exprs)
    for c in coords:
        if c in _MATH_FUNCTIONS or c in _RESERVED or c.startswith("_t"):
            raise ValueError(f"coordinate name '{c}' is reserved")
    count = len(flat)
    raw = batched = None  # each source is compiled on its first call; most fields get one kind

    def evaluate_batch(points: np.ndarray) -> np.ndarray:
        nonlocal batched
        points = np.asarray(points, dtype=float)
        if points.shape[1] != len(coords):
            raise ValueError(f"points must have {len(coords)} columns")
        if batched is None:
            batched = _exec_source(flat, coords, batch=True)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return batched(points)
        except (FloatingPointError,) + _FAILURES:
            rows = [evaluate(*p) for p in points.tolist()]
            return np.array(rows, dtype=float).reshape(len(rows), count)

    def evaluate(*point) -> np.ndarray:
        nonlocal raw
        if len(point) == 1 and isinstance(point[0], np.ndarray) and point[0].ndim == 2:
            return evaluate_batch(point[0])
        values = [float(v) for v in point]
        if raw is None:
            raw = _exec_source(flat, coords, batch=False)
        try:
            return np.array(raw(*values), dtype=float)
        except _FAILURES:
            eval_many(flat, dict(zip(coords, values)))
            raise

    evaluate.n_outputs = count  # type: ignore[attr-defined]
    return evaluate


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
    memo: dict = {}
    out = []
    for root in exprs:
        if id(root) not in memo:
            stack = [root]
            while stack:
                node = stack[-1]
                key = id(node)
                if key in memo:
                    stack.pop()
                    continue
                pending = [c for c in _node_children(node) if id(c) not in memo]
                if pending:
                    stack.extend(pending)
                else:
                    stack.pop()
                    try:
                        memo[key] = _node_value(node, env, memo, space)
                    except ExprDomainError as err:
                        err.point = {name: _value(x) for name, x in env.items()}
                        err.space = space
                        raise
        out.append(memo[id(root)])
    return out
