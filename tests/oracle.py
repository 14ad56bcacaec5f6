"""References the tests compare the package against, and routes only tests call.

The package builds M from compiled Christoffel symbols and their first
partials, assembled in numpy (`tractor.connection_field`).  Here M is built
the long way, R -> Ric -> P -> M as expressions, and compiled.  Tensor
fields with symbolic components and their covariant derivatives serve the
same purpose for the jet-valued curvature fields, as do the pointwise
`curvature` and `ricci` (compiled symbolic fields) and
`assemble_tractor_curvature`.  `integrate_geodesic` solves the geodesic ODE
with the package's pointwise RK4 (`affine.rk4_adaptive`), which no command
uses.  `interpret` values expressions by walking their trees, with the
domain rules written out at each node, as an independent check of the
package's one evaluator, the register tape (`expr.compile_exprs`), and
`interpreted_jets` runs it where `jets.JetSpace.evaluate` runs a program.
`segment_components` writes a straight segment as the expressions its
closed form stands for.
"""

from dataclasses import dataclass

import numpy as np

from tractorlab.affine import (
    ChartModel,
    TensorValue,
    _as_expr_array,
    _rk4_grid,
    curvature_field,
    ricci_field,
    rk4_adaptive,
)
from tractorlab.expr import (
    _MATH_FUNCTIONS,
    Add,
    Call,
    Div,
    ExprDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _postorder,
    num,
    var,
)
from tractorlab.jets import Jet
from tractorlab.projective import rho_field


def _value(x):
    """A scalar's value where the domain rules apply: a number as a float, a
    jet's value at its point (an array over a batch of points, where a rule
    must hold at every point)."""
    return float(x) if isinstance(x, (int, float, np.number)) else x.value


def _node_value(node, env, memo: dict, space):
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


def interpret(exprs, env, space=None) -> list:
    """The values of expressions at `env` by a walk over their trees: Python
    floats with `space` None, or jets of the `jets.JetSpace` `space`.

    The tree interpreter the package used before its register tape, kept as
    the tape's reference: each node checks its own domain rule before it
    computes (a zero denominator or base, by the value at the point), where
    the tape leaves the rules to its scalar.  It raises the same
    ExprDomainError messages, with the coordinates in `point`.
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


def interpreted_jets(roots, coords, space, pts) -> np.ndarray:
    """The interpreter's counterpart of `JetSpace.evaluate` on the compiled
    `roots`: the same seeds, the coefficients stacked as the program stacks
    them, and a failing batch narrowed to its first failing point."""
    pts = np.asarray(pts, dtype=float)
    lead = pts.shape[:-1]
    env = {}
    for name, x, v in zip(coords, np.moveaxis(pts, -1, 0), space._variables):
        c = np.broadcast_to(v, lead + (space.size,)).copy()
        c[..., 0] += x
        env[name] = Jet(c, space)
    try:
        values = interpret(roots, env, space)
    except ExprDomainError:
        for p in pts if lead else ():
            interpreted_jets(roots, coords, space, p)
        raise
    return np.stack([np.broadcast_to(j.c, lead + (space.size,)) for j in values], axis=-2)


def segment_components(seg) -> tuple:
    """The expressions num(start_i) + delta_i*t of a straight segment
    (`Curve.segment`), which the package evaluates in closed form only."""
    t = var("t")
    return tuple(num(a) + d * t for a, d in zip(seg.start, seg.delta))


def curvature(chart: ChartModel, point) -> TensorValue:
    """Curvature tensor R[h,j,k,l] at a point (variance 'ddud')."""
    p = np.asarray(point, dtype=float)
    return TensorValue(p, chart.evaluator(curvature_field(chart))(p), "ddud")


def ricci(chart: ChartModel, point) -> TensorValue:
    """Ricci tensor Ric[j,l] at a point (not symmetrized)."""
    p = np.asarray(point, dtype=float)
    return TensorValue(p, chart.evaluator(ricci_field(chart))(p), "dd")


def assemble_tractor_curvature(W, CY) -> np.ndarray:
    """F[h,j] = [[W[h,j], 0], [CY[h,j], 0]], shape (n,n,n+1,n+1); floats or Expr."""
    n = W.shape[0]
    F = np.empty((n, n, n + 1, n + 1), dtype=W.dtype)
    F[...] = W[0, 0, 0, 0] * 0.0 + 0.0 if W.dtype == object else 0.0  # an Expr zero
    F[:, :, :n, :n] = W
    F[:, :, n, :n] = CY
    return F


@dataclass(frozen=True)
class GeodesicPath:
    """Sampled geodesic: times, points, velocities, and a truncation flag."""

    ts: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    exited_domain: bool
    converged: bool


def _rk4_record(f, y0, t0: float, t1: float, steps: int):
    """Times and states of fixed-step RK4 on the grid of `affine._rk4_grid`."""
    y = np.array(y0, dtype=float)
    h, grid = _rk4_grid(t0, t1, steps)
    h, grid = float(h), grid.tolist()
    ts, ys = [t0], [y.copy()]
    for t, t_mid, t_end in zip(grid[0:-1:2], grid[1::2], grid[2::2]):
        k1 = f(t, y)
        k2 = f(t_mid, y + h / 2 * k1)
        k3 = f(t_mid, y + h / 2 * k2)
        k4 = f(t_end, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ts.append(t_end)
        ys.append(y.copy())
    return np.array(ts), np.array(ys)


def integrate_geodesic(chart: ChartModel, point, velocity, t_end: float = 1.0,
                       tol: float = 1e-8, record_steps: int = 128) -> GeodesicPath:
    """Integrate the geodesic ODE xddot^k + Gamma^k_{ij} xdot^i xdot^j = 0.

    The path is truncated with a flag if it leaves the domain box.
    """
    n = chart.n
    p0 = np.asarray(point, dtype=float)
    v0 = np.asarray(velocity, dtype=float)
    gamma_at = chart.evaluator(chart.gamma)

    def f(t, y):
        x, v = y[:n], y[n:]
        g = gamma_at(x)
        acc = -np.einsum("kij,i,j->k", g, v, v)
        return np.concatenate([v, acc])

    y0 = np.concatenate([p0, v0])
    _, steps, converged = rk4_adaptive(f, y0, 0.0, t_end, tol=tol)
    ts, ys = _rk4_record(f, y0, 0.0, t_end, max(record_steps, steps))
    pts = ys[:, :n]
    vels = ys[:, n:]
    inside = np.array([chart.contains(p) for p in pts])
    if not inside.all():
        cut = int(np.argmin(inside))  # first step outside
        cut = max(cut, 1)
        return GeodesicPath(ts[:cut], pts[:cut], vels[:cut], True, converged)
    return GeodesicPath(ts, pts, vels, False, converged)


def assemble_connection_matrix(gamma, rho_comps) -> np.ndarray:
    """M_i from gamma[k,i,j] and P, shape (n, n+1, n+1); works on Expr or jets."""
    n = gamma.shape[0]
    zero = gamma[0, 0, 0] * 0.0 + 0.0  # the + 0.0 turns -0.0 into 0.0
    M = np.empty((n, n + 1, n + 1), dtype=object)
    for i in range(n):
        w = sum((gamma[m, i, m] for m in range(n)), zero) / float(-(n + 1))
        for k in range(n):
            for m in range(n):
                entry = gamma[k, i, m]
                if k == m:
                    entry = entry + w
                M[i, k, m] = entry
            M[i, k, n] = zero + 1.0 if k == i else zero
        for m in range(n):
            M[i, n, m] = rho_comps[i, m]
        M[i, n, n] = w
    return M


def connection_matrix_field(chart: ChartModel) -> np.ndarray:
    """Symbolic M_i, shape (n, n+1, n+1)."""
    return chart.symbolic("Mconn", lambda: assemble_connection_matrix(chart.gamma,
                                                                      rho_field(chart)))


@dataclass(frozen=True)
class TensorField:
    """Symbolic tensor field on a chart."""

    chart: ChartModel
    components: np.ndarray
    variance: str

    def __post_init__(self):
        raw = np.asarray(self.components, dtype=object)
        comps = _as_expr_array(raw, raw.shape)
        object.__setattr__(self, "components", comps)
        if comps.ndim != len(self.variance):
            raise ValueError("variance string must have one letter per tensor slot")
        if any(v not in "ud" for v in self.variance):
            raise ValueError("variance letters must be 'u' or 'd'")
        if comps.shape != (self.chart.n,) * comps.ndim:
            raise ValueError("tensor components must be n in every slot")

    def at(self, point) -> TensorValue:
        p = np.asarray(point, dtype=float)
        env = dict(zip(self.chart.coords, p))
        out = np.array(interpret(self.components.ravel(), env), dtype=float)
        return TensorValue(p, out.reshape(self.components.shape), self.variance)


def covariant_derivative(chart: ChartModel, tensor: TensorField) -> TensorField:
    """Covariant derivative; result gains a leading lower slot."""
    if tensor.chart is not chart:
        raise ValueError("tensor field belongs to a different chart")
    n = chart.n
    shape = tensor.components.shape
    out = np.empty((n,) + shape, dtype=object)
    for a in range(n):
        name = chart.coords[a]
        for idx in np.ndindex(*shape) if shape else [()]:
            term = tensor.components[idx].diff(name)
            for slot, letter in enumerate(tensor.variance):
                i_s = idx[slot]
                for m in range(n):
                    swapped = idx[:slot] + (m,) + idx[slot + 1 :]
                    if letter == "u":
                        term = term + chart.gamma[i_s, a, m] * tensor.components[swapped]
                    else:
                        term = term - chart.gamma[m, a, i_s] * tensor.components[swapped]
            out[(a,) + idx] = term
    return TensorField(chart, out, "d" + tensor.variance)
