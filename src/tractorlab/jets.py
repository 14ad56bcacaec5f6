"""Truncated Taylor jets: derivatives at a point without symbolic differentiation.

A jet of degree d in n variables holds the Taylor coefficients
d^alpha f(p) / alpha! of a function at a point p for every |alpha| <= d
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), ordered by
total degree, so that a lower-degree jet is a prefix of the same array.  A
product is the truncated Cauchy product through one precomputed table of
index pairs; ``diff`` shifts coefficients and is exact one degree lower;
``1/b``, integer powers and the seven functions compose their univariate
Taylor series at b(p) with b - b(p).  `JetSpace` works on coefficient
arrays, vectorized over leading axes.  `Jet` is a scalar of the one
evaluator, the register tape of :func:`expr.eval_many`, and keeps its own
domain rules: its series raise at b(p) as a float does, and ``sqrt`` has
no derivatives at 0.

A jet may hold one point or a batch: coefficients of shape (size,) or
(B, size), composed point by point, with the domain rules at every point.
`JetSpace.evaluate` seeds the coordinates at a point or a (B, n) batch and
sweeps the tape once; this values the curvature fields at sample points
(`projective.point_fields`).  Transport instead compiles the Christoffel
symbols with their first partials (`expr.tangents`) and assembles the
tractor connection from those values at every stage.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .expr import _MATH_FUNCTIONS, ExprDomainError, eval_many

__all__ = ["Jet", "JetSpace"]


def _power_series(b0: float, p: float, degree: int) -> list:
    """Taylor coefficients binom(p, k) b0^(p - k) of b^p at b0."""
    out, binom = [], 1.0
    for k in range(degree + 1):
        out.append(binom * b0 ** (p - k) if binom else 0.0)
        binom *= (p - k) / (k + 1)
    return out


def _function_series(func: str, b0: float, degree: int) -> list:
    """Taylor coefficients a_0..a_degree of func at b0, func(b0 + s) = sum a_k s^k;
    a_0 is the float's own value, with its domain errors, and a derivative
    that does not exist raises ZeroDivisionError."""
    a0 = _MATH_FUNCTIONS[func](b0)
    ks = range(1, degree + 1)
    if func == "exp":
        return [a0 / math.factorial(k) for k in range(degree + 1)]
    if func == "log":
        return [a0] + [-(-1.0 / b0) ** k / k for k in ks]
    if func == "sqrt":
        return [a0] + _power_series(b0, 0.5, degree)[1:]
    if func in ("sin", "cos"):
        cycle = (math.sin(b0), math.cos(b0), -math.sin(b0), -math.cos(b0))
        return [cycle[(k + (func == "cos")) % 4] / math.factorial(k) for k in range(degree + 1)]
    if func == "tan":  # tan' = 1 + tan^2
        t = [a0]
        for k in range(degree):
            t.append(((k == 0) + sum(t[i] * t[k - i] for i in range(k + 1))) / (k + 1))
        return t
    # atan' = 1/q with q = 1 + (b0 + s)^2 = q0 + q1 s + s^2
    q0, q1 = 1.0 + b0 * b0, 2.0 * b0
    r = [1.0 / q0, -q1 / q0 ** 2]
    for _ in ks:
        r.append(-(q1 * r[-1] + r[-2]) / q0)
    return [a0] + [r[k - 1] / k for k in ks]


class JetSpace:
    """Jets of degree up to `degree` in `n` variables, and the tables that act on them."""

    def __init__(self, n: int, degree: int):
        monos = sorted((a for a in product(range(degree + 1), repeat=n) if sum(a) <= degree),
                       key=lambda a: (sum(a), [-x for x in a]))
        index = {a: k for k, a in enumerate(monos)}
        self.n = n
        self.size = len(monos)
        self.sizes = [sum(1 for a in monos if sum(a) <= d) for d in range(degree + 1)]
        pairs = sorted((index[tuple(x + y for x, y in zip(a, b))], i, j)
                       for i, a in enumerate(monos) for j, b in enumerate(monos)
                       if sum(a) + sum(b) <= degree)
        target, self._left, self._right = (np.array(col) for col in zip(*pairs))
        # the pairs of output coefficient k are _bounds[k]:_bounds[k + 1]
        self._bounds = np.append(np.searchsorted(target, np.arange(self.size)), len(pairs))
        self._shifts = []  # per variable: source index (size if none) and factor of d_i f
        for i in range(n):
            ups = [a[:i] + (a[i] + 1,) + a[i + 1:] for a in monos]
            self._shifts.append((np.array([index.get(u, self.size) for u in ups]),
                                 np.array([a[i] + 1.0 for a in monos])))
        self._variables = np.zeros((n, self.size))  # x_i - p_i
        for i in range(n if degree else 0):
            self._variables[i, index[tuple(int(j == i) for j in range(n))]] = 1.0

    @classmethod
    @lru_cache(maxsize=None)
    def of(cls, n: int, degree: int) -> "JetSpace":
        """The space of (n, degree), built once; its tables are never modified."""
        return cls(n, degree)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two jet arrays, broadcast over leading axes."""
        return self.contract("...,...->...", a, b)

    def contract(self, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.einsum(spec, a, b) over the tensor axes of two jet arrays, with jet
        products truncated to the lower of their two degrees."""
        size = min(a.shape[-1], b.shape[-1])
        end = self._bounds[size]
        (left, right), out = (side.split(",") for side in spec.split("->"))
        prod = np.einsum(f"{left}z,{right}z->{out[0]}z",
                         a[..., self._left[:end]], b[..., self._right[:end]])
        return np.add.reduceat(prod, self._bounds[:size], axis=-1)

    def grad(self, a: np.ndarray, rank: int, size: int) -> np.ndarray:
        """Partials of a jet array with `rank` tensor axes, as a new first tensor
        axis, keeping `size` coefficients (exact for one degree fewer)."""
        return np.stack([self.diff(a, i)[..., :size] for i in range(self.n)], axis=-2 - rank)

    def diff(self, a: np.ndarray, i: int) -> np.ndarray:
        """Partial derivative in variable i; its top-degree coefficients are zero."""
        size = a.shape[-1]
        src, fac = self._shifts[i][0][:size], self._shifts[i][1][:size]
        keep = src < size
        out = np.zeros_like(a)
        out[..., keep] = a[..., src[keep]] * fac[keep]
        return out

    def compose(self, b: np.ndarray, series) -> np.ndarray:
        """f(b) by Horner's rule in b - b(p), where series(b0, degree) gives the
        Taylor coefficients of f at one value b0; each point has its own.  A
        b with no non-constant coefficients zeroes every coefficient past
        f(b0), so one that overflows is dropped, not raised; the rules on
        f(b0) and on whether f has derivatives at b0 still apply."""
        degree, values = self.sizes.index(b.shape[-1]), b[..., 0].ravel().tolist()
        try:
            coeffs = np.array([series(b0, degree) for b0 in values])
        except OverflowError:
            if b[..., 1:].any():
                raise
            degree, coeffs = 0, np.array([series(b0, 0) for b0 in values])
        coeffs = coeffs.reshape(b.shape[:-1] + (degree + 1,))
        h = b.copy()
        h[..., 0] = 0.0
        out = np.zeros_like(b)
        out[..., 0] = coeffs[..., -1]
        for k in range(degree - 1, -1, -1):
            out = self.mul(out, h)
            out[..., 0] += coeffs[..., k]
        return out

    def constant(self, value: float) -> "Jet":
        c = np.zeros(self.size)
        c[0] = value
        return Jet(c, self)

    def call(self, func: str, x: "Jet") -> "Jet":
        return Jet(self.compose(x.c, lambda b0, d: _function_series(func, b0, d)), self)

    def evaluate(self, exprs, coords, points) -> np.ndarray:
        """Jets of an array of expressions over `coords` at a point (n,), shape
        exprs.shape + (size,), or at a batch of points (B, n), shape
        (B,) + exprs.shape + (size,), in one sweep of the tape.

        A domain error in a batch is raised again from the first point that
        fails, naming the subexpression, with that point in `err.point`.
        """
        exprs = np.asarray(exprs, dtype=object)
        points = np.asarray(points, dtype=float)
        lead = points.shape[:-1]
        env = {}
        for name, x, v in zip(coords, np.moveaxis(points, -1, 0), self._variables):
            c = np.broadcast_to(v, lead + (self.size,)).copy()
            c[..., 0] += x
            env[name] = Jet(c, self)
        try:
            values = eval_many(exprs.ravel(), env, self)
        except ExprDomainError:
            for p in points.reshape(-1, points.shape[-1]) if lead else ():
                self.evaluate(exprs, coords, p)
            raise
        out = np.stack([np.broadcast_to(j.c, lead + (self.size,)) for j in values], axis=-2)
        return out.reshape(lead + exprs.shape + (self.size,))


class Jet:
    """Truncated Taylor series, at one point or a batch of points, with the
    arithmetic operators of a scalar on the jets of its space."""

    __slots__ = ("c", "space")

    def __init__(self, c: np.ndarray, space: JetSpace):
        self.c = c
        self.space = space

    @property
    def value(self):
        """The value at the point: a float, or an array over a batch of points."""
        v = self.c[..., 0]
        return float(v) if v.ndim == 0 else v

    def __add__(self, other):
        return Jet(self.c + other.c, self.space)

    def __neg__(self):
        return Jet(-self.c, self.space)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        return Jet(self.space.mul(self.c, other.c), self.space)

    def __truediv__(self, other):
        return self * other ** -1

    def __pow__(self, k: int):
        return Jet(self.space.compose(self.c, lambda b0, d: _power_series(b0, k, d)), self.space)
