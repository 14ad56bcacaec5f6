"""Truncated Taylor jets: derivatives at a point without symbolic differentiation.

A jet of degree d in n variables holds the Taylor coefficients
d^alpha f(p) / alpha! of a function at a point p for every |alpha| <= d
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), ordered by
total degree, so that a lower-degree jet is a prefix of the same array.  A
product is the truncated Cauchy product through one precomputed table of
index pairs; ``diff`` shifts coefficients and is exact one degree lower;
``1/b``, integer powers and the seven functions compose their univariate
Taylor series at b(p) with b - b(p).  `JetSpace` works on coefficient
arrays, vectorized over leading axes; `Jet` gives one coefficient vector
the operators of a scalar, for ring-generic code and for
:func:`expr.eval_many`, which keeps its domain rules at b(p) and adds one:
``sqrt`` has no derivatives at 0.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .expr import _MATH_FUNCTIONS, eval_many

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
    a_0 is the interpreter's own value, with its domain errors, and a
    derivative that does not exist raises ZeroDivisionError."""
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

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated product of two jet arrays of one degree, broadcast over leading axes."""
        return self.contract("...,...->...", a, b)

    def contract(self, spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """np.einsum(spec, a, b) over the tensor axes of two jet arrays, with jet products."""
        size = a.shape[-1]
        end = self._bounds[size]
        (left, right), out = (side.split(",") for side in spec.split("->"))
        prod = np.einsum(f"{left}z,{right}z->{out[0]}z",
                         a[..., self._left[:end]], b[..., self._right[:end]])
        return np.add.reduceat(prod, self._bounds[:size], axis=-1)

    def diff(self, a: np.ndarray, i: int) -> np.ndarray:
        """Partial derivative in variable i; its top-degree coefficients are zero."""
        size = a.shape[-1]
        src, fac = self._shifts[i][0][:size], self._shifts[i][1][:size]
        keep = src < size
        out = np.zeros_like(a)
        out[..., keep] = a[..., src[keep]] * fac[keep]
        return out

    def compose(self, b: np.ndarray, coeffs) -> np.ndarray:
        """f(b) from the Taylor coefficients of f at b(p), by Horner's rule in b - b(p)."""
        h = b.copy()
        h[..., 0] = 0.0
        out = np.zeros_like(b)
        out[..., 0] = coeffs[-1]
        for c in coeffs[-2::-1]:
            out = self.mul(out, h)
            out[..., 0] += c
        return out

    def constant(self, value: float) -> "Jet":
        c = np.zeros(self.size)
        c[0] = value
        return Jet(c, self)

    def call(self, func: str, x: "Jet") -> "Jet":
        degree = self.sizes.index(x.c.size)
        return Jet(self.compose(x.c, _function_series(func, float(x), degree)), self)

    def wrap(self, a: np.ndarray) -> np.ndarray:
        """Object array of Jets over the leading axes of a coefficient array."""
        out = np.empty(a.shape[:-1], dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = Jet(a[idx], self)
        return out

    @staticmethod
    def unwrap(jets: np.ndarray) -> np.ndarray:
        """Coefficient array of an object array of Jets."""
        return np.array([j.c for j in jets.ravel()]).reshape(jets.shape + (-1,))

    def evaluate(self, exprs, coords, point) -> np.ndarray:
        """Jets at `point` of an array of expressions over `coords`, shape exprs.shape + (size,)."""
        exprs = np.asarray(exprs, dtype=object)
        env = {name: Jet(v, self) + x for name, x, v in zip(coords, point, self._variables)}
        return self.unwrap(np.array(eval_many(exprs.ravel(), env, self))).reshape(
            exprs.shape + (self.size,))


class Jet:
    """One truncated Taylor series with the arithmetic operators of a scalar."""

    __slots__ = ("c", "space")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators below

    def __init__(self, c: np.ndarray, space: JetSpace):
        self.c = c
        self.space = space

    def __float__(self) -> float:
        return float(self.c[0])

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.c + other.c, self.space)
        c = self.c.copy()
        c[0] += other
        return Jet(c, self.space)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.space)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.space.mul(self.c, other.c), self.space)
        return Jet(self.c * other, self.space)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other ** -1
        return Jet(self.c / other, self.space)

    def __pow__(self, k: int):
        degree = self.space.sizes.index(self.c.size)
        return Jet(self.space.compose(self.c, _power_series(float(self), k, degree)), self.space)
