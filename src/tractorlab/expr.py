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
DAG (:func:`tangents`, :func:`intern` and the tape builder) runs on one
explicit-stack post-order walk memoised on node identity, and text is
written from an explicit stack of pieces, so depth is bounded by memory and
not by the recursion limit.  A chart interns the arrays it takes, so in its
expressions identity equals structure and a walk does every distinct
subexpression once.

One evaluator values expressions: a register tape (`_tape`), whose steps
one loop sweeps on three scalars.  One compiled program
(:func:`compile_exprs`) runs on all three: Python floats at a point, numpy
columns for a batch, and the jets of `jets.JetSpace`; :func:`eval_many`
values one-off expressions on floats.  The domain rules are the scalar's
own: Python raises for a float, numpy under ``errstate`` for a column (the
batch is then swept point by point), a jet's Taylor series for a jet.  The
tape only names the node of the step that failed, in an
:class:`ExprDomainError` (``log`` of a non-positive number, division by
zero, overflow, ...); results are never silently NaN.  An interval scalar
that rounds outward would plug in as a jet does: the same steps call its
operators and its space's ``call``, which raise where its own rules fail.
"""

from __future__ import annotations

import math
import operator
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
    "intern",
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


def intern(exprs: Iterable[Expr]) -> list:
    """The expressions with one node for each distinct subexpression.

    Hash-consing (Filliâtre & Conchon, "Type-safe modular hash-consing",
    2006) on the one walk: each node is keyed on its type, its payload and
    the identities of its already-interned children, and the first node
    with a key stands for all of them, so a walk memoised on identity
    evaluates each distinct subexpression once.  A number is keyed by
    `float.hex`, which keeps 0.0 and -0.0 apart.  Text and values are
    unchanged, and interning interned expressions returns them as they are.
    """
    table: dict = {}
    memo: dict = {}

    def canonical(node):
        t = type(node)
        children = _node_children(node)
        kids = tuple(memo[id(c)] for c in children)
        payload = (node.value.hex() if t is Num else node.name if t is Var else
                   node.exponent if t is Pow else node.func if t is Call else None)
        key = (t, payload, *map(id, kids))
        if key not in table:
            if kids != children:  # Expr has no __eq__, so this compares identities
                node = (t(kids[0], payload) if t is Pow else t(payload, kids[0]) if t is Call
                        else t(*kids))
            table[key] = node
        return table[key]

    roots = list(exprs)
    _postorder(roots, memo, canonical)
    return [memo[id(e)] for e in roots]


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


# -- the tape ------------------------------------------------------------------


def _function_step(func: str) -> Callable:
    """The tape step `func(x)`, its second operand unused: on a float, on each
    element of a column (numpy's vectorised sin, exp, ... may round
    otherwise), or on a jet through its space."""
    fn = _MATH_FUNCTIONS[func]

    def apply(x, _):
        if isinstance(x, np.ndarray):
            return np.array(list(map(fn, x.tolist())), dtype=float)
        return fn(x) if isinstance(x, float) else x.space.call(func, x)

    return apply


def _power(x, k):
    """`**` by the integer k, on a float or a jet, or on each element of a column."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(pow, x.tolist(), repeat(k))), dtype=float)
    return pow(x, k)


def _unbound(name, _):  # the step of a coordinate that the tape was not built over
    raise KeyError(name)


# `+ - * /` and negation are exact in numpy, so a batch runs them on whole columns
_STEP_FNS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv,
             Neg: lambda x, _: -x, Pow: _power, Var: _unbound,
             **{f: _function_step(f) for f in _MATH_FUNCTIONS}}

# the message of a failing step, by the type of its node and of what the scalar raised
_MESSAGES = {
    (Var, KeyError): "no value supplied for coordinate '{node.name}'",
    (Div, ZeroDivisionError): "division by zero in '{text}'",
    (Div, OverflowError): "overflow in '{text}'",
    (Pow, ZeroDivisionError): "zero raised to negative power in '{text}'",
    (Pow, OverflowError): "overflow in '{text}'",
    (Call, ValueError): "{node.func}({x}) is outside the function domain in '{text}'",
    (Call, OverflowError): "overflow in {node.func}({x})",
    (Call, ZeroDivisionError): "{node.func} has no derivatives at {x} in '{text}'",
}
_FAILURES = tuple({exc for _, exc in _MESSAGES})


def _tape(exprs: list, coords: Sequence[str]) -> tuple:
    """The register tape of `exprs` over `coords`: (registers, steps, outputs, nodes).

    An evaluation tape (Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., ch. 1-3) built on the one walk: one step `(fn, a, b, out)`, r[out] =
    fn(r[a], r[b]), per distinct operation, keyed on its function and its
    operands' values, a constant by `repr` (so -0.0 stays apart from 0.0);
    `nodes[j]` is the first node that step j computes, which names it when
    it fails.  A coordinate not in `coords` is a step that fails.  The
    registers are the coordinates, then `registers`: the working ones, empty
    and each reused after its last read, and the constants from the end.
    """
    n = len(coords)
    # a value is i for coordinate i, the register -1 - k for constant k, n + j for step j
    constants: dict = {}  # key -> (register, constant)
    ops: dict = {}  # (fn, a, b) -> (value, node)

    def constant(key, c) -> int:
        return constants.setdefault(key, (~len(constants), c))[0]

    def number(node):
        t = type(node)
        if t is Num:
            return constant((Num, repr(node.value)), node.value)
        if t is Var and node.name in coords:
            return coords.index(node.name)
        a = (constant((Var, node.name), node.name) if t is Var else
             refs[id(_node_children(node)[0])])
        fn = _STEP_FNS[node.func if t is Call else t]
        b = (refs[id(node.right)] if isinstance(node, _Binary) else
             constant((Pow, node.exponent), node.exponent) if t is Pow else a)
        return ops.setdefault((fn, a, b), (n + len(ops), node))[0]

    refs: dict = {}
    _postorder(exprs, refs, number)
    outputs = [refs[id(e)] for e in exprs]
    last = {}  # value -> the step that reads it last
    for j, (_, a, b) in enumerate(ops):
        last[a] = last[b] = j
    last.update((v, len(ops)) for v in outputs)
    register: dict = {}  # the value of a step -> its working register
    free, steps, size = [], [], n
    for j, (fn, a, b) in enumerate(ops):
        ra, rb = register.get(a, a), register.get(b, b)
        free += {r for u, r in ((a, ra), (b, rb)) if u >= n and last[u] == j}
        out = register[n + j] = free.pop() if free else size
        size = max(size, out + 1)
        steps.append((fn, ra, rb, out))
    registers = [None] * (size - n) + [c for _, c in constants.values()][::-1]
    return registers, steps, [register.get(v, v) for v in outputs], [v[1] for v in ops.values()]


def _sweep(steps: list, regs: list) -> None:
    """The one loop: run the steps of a tape on the registers `regs`, in place."""
    for fn, a, b, r in steps:
        regs[r] = fn(regs[a], regs[b])


def _raise_named(steps: list, nodes: list, regs: list, coords: Sequence[str], space=None):
    """After a sweep from `regs` failed, sweep again one step at a time and
    raise the ExprDomainError of the first step that fails, named by its
    node; return if none does, or if its failure has no message.  A sweep
    writes only working registers, so `regs` still holds its inputs."""
    for (fn, a, b, r), node in zip(steps, nodes):
        try:
            regs[r] = fn(regs[a], regs[b])
        except _FAILURES as exc:
            message = _MESSAGES.get((type(node), type(exc)))
            if message is not None:
                x = getattr(regs[a], "value", regs[a])  # a jet's value at its point
                err = ExprDomainError(message.format(node=node, text=node.to_string(), x=x))
                err.point = {name: getattr(v, "value", v) for name, v in zip(coords, regs)}
                err.space = space
                raise err from None
            return


def compile_exprs(exprs: Iterable[Expr], coords: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile a flat sequence of expressions into one callable.

    Called with one value per coordinate, the result returns a 1-d float
    array of the k expressions, in order; the values are taken as Python
    floats, so a numpy scalar input fails like a float one.  Called with a
    single (B, n) array of points it returns a (B, k) array (the transpose
    of one contiguous row per expression), and with one `jets.Jet` per
    coordinate their (k, size), or (B, k, size), Taylor coefficients.  All
    three sweep one register tape (`_tape`), so each batch row is bit for bit
    the point's values.  A column batch that fails is swept again point by
    point, where the tape names the failing subexpression; jets keep numpy's
    default error state and raise by their own series rules.
    """
    flat = list(exprs)
    count, n = len(flat), len(coords)
    registers, steps, outputs, nodes = _tape(flat, coords)

    def evaluate(*point) -> np.ndarray:
        batch = len(point) == 1 and isinstance(point[0], np.ndarray) and point[0].ndim == 2
        if batch:
            points = np.asarray(point[0], dtype=float)
            if points.shape[1] != n:
                raise ValueError(f"points must have {n} columns")
            regs = [*points.T, *registers]
        elif len(point) != n:
            raise ValueError(f"a point must have {n} coordinates")
        elif hasattr(point[0], "space"):  # one jet per coordinate
            space = point[0].space
            regs = [*point, *(space.constant(c) if isinstance(c, float) else c
                              for c in registers)]
            try:
                _sweep(steps, regs)
            except _FAILURES:
                _raise_named(steps, nodes, regs, coords, space)
                raise
            shape = point[0].c.shape[:-1] + (space.size,)
            return np.stack([np.broadcast_to(regs[r].c, shape) for r in outputs], axis=-2)
        else:
            regs = [*map(float, point), *registers]
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                _sweep(steps, regs)
        except (FloatingPointError,) + _FAILURES:
            if not batch:
                _raise_named(steps, nodes, regs, coords)
                raise
            rows = [evaluate(*p) for p in points.tolist()]
            return np.array(rows, dtype=float).reshape(len(rows), count)
        out = np.empty((count, len(points)) if batch else count)
        for j, r in enumerate(outputs):
            out[j] = regs[r]
        return out.T

    evaluate.n_outputs = count  # type: ignore[attr-defined]
    return evaluate


def eval_many(exprs: Iterable[Expr], env: Mapping[str, float]) -> list:
    """The float values of expressions at `env`, from one sweep of a tape over
    the coordinates of `env`, for one-off expressions (Expr.eval calls it
    too).  An ExprDomainError names the failing subexpression, with the
    coordinates in `point`."""
    coords = list(env)
    registers, steps, outputs, nodes = _tape(list(exprs), coords)
    regs = [*map(float, env.values()), *registers]
    try:
        _sweep(steps, regs)
    except _FAILURES:
        _raise_named(steps, nodes, regs, coords)
        raise
    return [regs[r] for r in outputs]
