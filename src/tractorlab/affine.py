"""Coordinate charts carrying a torsion-free affine connection.

A chart is a box in R^n with named coordinates and Christoffel symbols
Gamma^k_{ij} given as symbolic expressions.  This module provides the
affine-level operations: the symbolic curvature and Ricci fields,
projective change of connection, sampling, and the batched RK4 kernel
behind every linear transport.

Index conventions used throughout the package:

* ``gamma[k, i, j]`` is Gamma^k_{ij} (symmetric in i, j);
* curvature components ``R[h, j, k, l]`` satisfy
  ``R = d_h Gamma^k_{jl} - d_j Gamma^k_{hl}
  + Gamma^k_{hm} Gamma^m_{jl} - Gamma^k_{jm} Gamma^m_{hl}``,
  i.e. the first two slots are the plane of rotation;
* ``Ric[j, l]`` contracts the first and third slots, ``R[k, j, k, l]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import Expr, compile_exprs, eval_many, intern, num, parse, FUNCTION_NAMES

__all__ = [
    "ChartModel",
    "TensorValue",
    "OneFormField",
    "Curve",
    "symmetrize",
    "project_change",
    "sample_points",
    "max_abs",
]

# Freeing a 4 MB mmapped array raises glibc's mmap threshold to 4 MB and its trim
# threshold to 8 MB (mallopt(3), "M_MMAP_THRESHOLD ... dynamic adjustment"), so the
# kernel's per-level arrays stay on a heap not trimmed and re-faulted per transport.
np.empty(1 << 19)


def _as_expr_array(data, shape) -> np.ndarray:
    arr = np.empty(shape, dtype=object)
    src = np.asarray(data, dtype=object)
    if src.shape != shape:
        raise ValueError(f"expected component array of shape {shape}, got {src.shape}")
    it = np.nditer(src, flags=["multi_index", "refs_ok"])
    for item in it:
        val = item.item()
        if isinstance(val, Expr):
            arr[it.multi_index] = val
        elif isinstance(val, (int, float, np.integer, np.floating)):
            arr[it.multi_index] = num(float(val))
        else:
            raise TypeError(f"component {it.multi_index} is not an expression: {val!r}")
    arr.flat[:] = intern(arr.flat)
    return arr


def max_abs(arr) -> float:
    """Componentwise max-abs norm used for all residual reporting."""
    a = np.asarray(arr, dtype=float)
    return float(np.abs(a).max()) if a.size else 0.0


class ChartModel:
    """A coordinate box with Christoffel symbols as symbolic expressions.

    `gamma` and `metric` are interned (`expr.intern`) per array: equal
    subexpressions of their entries are one node, so every walk memoised on
    node identity -- jets, `tangents`, the tape builder -- does each of them
    once.  The sphere3 and hyperbolic3 Γ hold 31 distinct subexpressions.
    Values of the curvature fields at sample points come from Taylor jets
    of `gamma` (`projective.point_fields`), not from compiled fields.
    Derived arrays, and the transport connection, are built once per chart
    through `symbolic(key, builder)`; transport compiles `gamma` with the
    partials the curvature needs and assembles the tractor connection from
    them in numpy (`tractor.connection_field`).  `evaluator(field)` compiles a field the
    chart owns -- such an array, `gamma` or `metric` -- into one program,
    cached by the field itself, that maps a point or a batch of points to
    values of its shape.
    """

    def __init__(self, coords: Sequence[str], gamma, domain, metric=None, name: str = ""):
        coords = tuple(coords)
        n = len(coords)
        if n < 2:
            raise ValueError("charts need at least two coordinates")
        if len(set(coords)) != n:
            raise ValueError("coordinate names must be distinct")
        for c in coords:
            if c in FUNCTION_NAMES or not c.isidentifier():
                raise ValueError(f"invalid coordinate name '{c}'")
        self.coords = coords
        self.gamma = _as_expr_array(gamma, (n, n, n))
        dom = np.asarray(domain, dtype=float)
        if dom.shape != (n, 2) or not np.all(dom[:, 0] < dom[:, 1]):
            raise ValueError("domain must be an (n, 2) array of [lo, hi] pairs")
        self.domain = dom
        self.metric = None if metric is None else _as_expr_array(metric, (n, n))
        self.name = name
        self._evaluators: dict[int, tuple] = {}
        self._symbolic_cache: dict[str, object] = {}

    # -- basics ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.coords)

    def parse(self, text: str) -> Expr:
        return parse(text, self.coords)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.domain[:, 0]) and np.all(p <= self.domain[:, 1]))

    def center(self) -> np.ndarray:
        return self.domain.mean(axis=1)

    # -- compiled evaluators ----------------------------------------------------

    def evaluator(self, field: np.ndarray) -> Callable[..., np.ndarray]:
        """Compiled values of `field` at a point, at a batch of points, or on jets.

        `field` is a symbolic array this chart owns (a `symbolic` result,
        `gamma` or `metric`).  The callable maps a point of shape (n,) to
        values in `field.shape`, a batch of shape (B, n) to values in
        `(B,) + field.shape`, and one `jets.Jet` per coordinate (from
        `JetSpace.evaluate`) to coefficients in `field.shape + (size,)`,
        with a leading (B,) for a batch.  One compiled program
        (`compile_exprs`) runs on floats, columns and jets, so a batch row is
        bit for bit the point's values, and the jets of Gamma in
        `projective.point_fields` sweep the program compiled at load.  It is
        compiled on the first call for a field and cached under the field's
        identity; the cache holds the field too, so that identity is never
        reused.
        """
        hit = self._evaluators.get(id(field))
        if hit is None:
            fn = compile_exprs(field.ravel(), self.coords)
            shape = field.shape

            def at(*points) -> np.ndarray:
                if hasattr(points[0], "space"):  # one jet per coordinate
                    c = fn(*points)
                    return c.reshape(c.shape[:-2] + shape + c.shape[-1:])
                (p,) = points
                p = np.asarray(p, dtype=float)
                if p.ndim == 2:
                    return fn(p).reshape(p.shape[:1] + shape)
                return fn(*p.tolist()).reshape(shape)

            hit = (field, at)
            self._evaluators[id(field)] = hit
        return hit[1]

    def gamma_at(self, point) -> np.ndarray:
        return self.evaluator(self.gamma)(np.asarray(point, dtype=float))

    def dgamma_field(self) -> np.ndarray:
        """Symbolic first derivatives d_h Gamma^k_{ij}, shape (n, n, n, n)."""
        return self.symbolic("dgamma", lambda: np.array(
            [[e.diff(name) for e in self.gamma.ravel()] for name in self.coords],
            dtype=object).reshape((self.n,) * 4))

    def symbolic(self, key: str, builder: Callable[[], object]):
        val = self._symbolic_cache.get(key)
        if val is None:
            val = builder()
            self._symbolic_cache[key] = val
        return val

    def with_gamma(self, gamma, name=None, metric="keep") -> "ChartModel":
        return ChartModel(
            self.coords,
            gamma,
            self.domain,
            metric=self.metric if metric == "keep" else metric,
            name=self.name if name is None else name,
        )


@dataclass(frozen=True)
class TensorValue:
    """Tensor components evaluated at a point; variance is 'u'/'d' per slot."""

    point: np.ndarray
    components: np.ndarray
    variance: str

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        if self.components.ndim != len(self.variance):
            raise ValueError("variance string must have one letter per tensor slot")


@dataclass(frozen=True)
class OneFormField:
    """A one-form with symbolic components, e.g. a projective change."""

    chart: ChartModel
    components: np.ndarray

    def __post_init__(self):
        comps = _as_expr_array(self.components, (self.chart.n,))
        object.__setattr__(self, "components", comps)

    def at(self, points) -> np.ndarray:
        """The components at a point (n,), or at each point of a batch (B, n)."""
        return self.chart.evaluator(self.components)(points)


@dataclass(frozen=True, eq=False)
class Curve:
    """A parametric curve with symbolic components x(t), compared by identity.

    A straight segment (`Curve.segment`) is numbers only: x(t) = start +
    delta*t and xdot(t) = delta, which `point` and transport evaluate as
    such.  Its `components` are None.
    """

    components: tuple | None
    t0: float
    t1: float
    start: np.ndarray | None = field(default=None, repr=False)
    delta: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def from_strings(texts: Sequence[str], t0: float, t1: float) -> "Curve":
        return Curve(tuple(parse(t, ("t",)) for t in texts), float(t0), float(t1))

    @staticmethod
    def segment(a, b) -> "Curve":
        """Straight coordinate segment from a to b, parametrized on [0, 1].

        `start + delta*t` and `delta` equal, bit for bit at t >= 0, the
        simplified expressions a_i + d_i*t and their t-derivatives: a zero
        start is -0.0, since a + d*t simplifies to d*t there and -0.0 + z ==
        z for every z.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return Curve(None, 0.0, 1.0, np.where(a == 0.0, -0.0, a), (b - a) + 0.0)

    def velocity_exprs(self) -> tuple:
        return tuple(c.diff("t") for c in self.components)

    def point(self, t: float) -> np.ndarray:
        if self.delta is not None:
            return self.start + self.delta * t
        return np.array(eval_many(self.components, {"t": t}), dtype=float)


# -- curvature ------------------------------------------------------------------


def assemble_curvature(gamma, dgamma) -> np.ndarray:
    """R[h,j,k,l] from gamma[k,i,j] and dgamma[h,k,i,j]; works on floats or Expr."""
    n = gamma.shape[0]
    out = np.empty((n, n, n, n), dtype=gamma.dtype)
    for h in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    s = dgamma[h, k, j, l] - dgamma[j, k, h, l]
                    for m in range(n):
                        s = s + (gamma[k, h, m] * gamma[m, j, l] - gamma[k, j, m] * gamma[m, h, l])
                    out[h, j, k, l] = s
    return out


def assemble_ricci(curv) -> np.ndarray:
    """Ric[j,l] = R[k,j,k,l] (first and third slots contracted)."""
    n = curv.shape[0]
    out = np.empty((n, n), dtype=curv.dtype)
    for j in range(n):
        for l in range(n):
            s = curv[0, j, 0, l]
            for k in range(1, n):
                s = s + curv[k, j, k, l]
            out[j, l] = s
    return out


def curvature_field(chart: ChartModel) -> np.ndarray:
    return chart.symbolic("R", lambda: assemble_curvature(chart.gamma, chart.dgamma_field()))


def ricci_field(chart: ChartModel) -> np.ndarray:
    return chart.symbolic("Ric", lambda: assemble_ricci(curvature_field(chart)))


# -- connection-level operations ---------------------------------------------------


def symmetrize(chart: ChartModel) -> tuple[ChartModel, float]:
    """Return a torsion-free copy plus the max asymmetry found at samples."""
    n = chart.n
    sym = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                sym[k, i, j] = 0.5 * (chart.gamma[k, i, j] + chart.gamma[k, j, i])
    g = chart.evaluator(chart.gamma)(sample_points(chart, seed=0, n_random=10))
    return chart.with_gamma(sym, name=chart.name), max_abs(g - g.transpose(0, 1, 3, 2))


def project_change(chart: ChartModel, ups) -> ChartModel:
    """Projective change of connection by a one-form.

    New symbols: Gamma'^k_{ij} = Gamma^k_{ij} + Ups_i d^k_j + Ups_j d^k_i.
    The result describes the same unparametrized geodesics.
    """
    if isinstance(ups, OneFormField):
        comps = ups.components
    else:
        comps = _as_expr_array(ups, (chart.n,))
    n = chart.n
    out = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                term = chart.gamma[k, i, j]
                if k == j:
                    term = term + comps[i]
                if k == i:
                    term = term + comps[j]
                out[k, i, j] = term
    label = f"{chart.name}+change" if chart.name else "changed"
    return chart.with_gamma(out, name=label, metric=None)


# -- integration -------------------------------------------------------------------


_RK4_INITIAL_STEPS = 64
_RK4_MAX_STEPS = 65536
# Points per `field` call and step matrices per tile of the transport
# kernel.  A power of two, so a block of _CHUNK steps of one row is a
# subtree of the row's pairwise product.
_CHUNK = 2048


def _rk4_grid(t0, t1, steps: int):
    """Step sizes h and the 2*steps + 1 stage times t_0, t_0 + h/2, t_1, ..., t_steps.

    `t0` and `t1` are floats or arrays of shape (B,); the grid has shape
    (2*steps + 1,) + their shape, one column per row.  Step j uses entries
    2j, 2j + 1 and 2j + 2.  The step starts are the running sum t0, t0 + h,
    (t0 + h) + h, ..., accumulated in order, so every integrator sees the
    same floats.
    """
    t0 = np.asarray(t0, dtype=float)
    h = (t1 - t0) / steps
    grid = np.empty((2 * steps + 1,) + t0.shape)
    grid[0::2] = np.cumsum(np.concatenate([t0[None], np.broadcast_to(h, (steps,) + t0.shape)]),
                           axis=0)
    grid[1::2] = grid[0:-1:2] + h / 2
    return h, grid


def _rk4_fixed(f, y0: np.ndarray, t0: float, t1: float, steps: int):
    y = np.array(y0, dtype=float)
    h, grid = _rk4_grid(t0, t1, steps)
    h, grid = float(h), grid.tolist()
    for t, t_mid, t_end in zip(grid[0:-1:2], grid[1::2], grid[2::2]):
        k1 = f(t, y)
        k2 = f(t_mid, y + h / 2 * k1)
        k3 = f(t_mid, y + h / 2 * k2)
        k4 = f(t_end, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _rk4_doubling(run_level, rows: int, tol: float, initial_steps: int = _RK4_INITIAL_STEPS,
                  max_steps: int = _RK4_MAX_STEPS) -> list:
    """Double the RK4 step count of each row until two resolutions agree.

    `run_level(active, levels)` integrates the rows listed in `active` with
    each step count in `levels` and returns, level by level, their end
    states in that order.  No row converges at its first level, so the
    first call asks for the first two levels (the first alone if the second
    would pass `max_steps`) and each later call for the next one.  A row
    is converged at the first level whose state `cur` satisfies
    max_abs(cur - prev) <= tol * (1 + max_abs(cur)) against the level
    before, and then leaves the batch.  A row whose state is not finite
    leaves it at once, not converged: no finer level can mend it, and an
    infinite state would pass the test.  Returns (state, steps, converged)
    per row; a row still apart at the last level, initial_steps * 2^k <=
    `max_steps`, keeps its last state.
    """
    steps, active, prev, out = initial_steps, list(range(rows)), {}, [None] * rows
    levels = [steps, 2 * steps] if 2 * steps <= max_steps else [steps]
    while active and levels:
        for steps, states in zip(levels, run_level(active, levels)):
            for r, cur in zip(active, states):
                if out[r] is not None:  # left at the level before, in the same call
                    continue
                if not np.isfinite(cur).all():
                    out[r] = (cur, steps, False)
                elif r in prev and max_abs(cur - prev[r]) <= tol * (1.0 + max_abs(cur)):
                    out[r] = (cur, steps, True)
                else:
                    prev[r] = cur
            if all(out[r] is not None for r in active):  # a generator runs no more levels
                break
        active = [r for r in active if out[r] is None]
        levels = [2 * steps] if 2 * steps <= max_steps else []
    for r in active:
        out[r] = (prev[r], steps, False)
    return out


def rk4_adaptive(f, y0, t0: float, t1: float, tol: float = 1e-8,
                 initial_steps: int = _RK4_INITIAL_STEPS, max_steps: int = _RK4_MAX_STEPS):
    """Fixed-step RK4, halving the step until two resolutions agree.

    Returns (final_state, steps_used, converged).
    """
    return _rk4_doubling(lambda _active, levels: ([_rk4_fixed(f, y0, t0, t1, s)] for s in levels),
                         1, tol, initial_steps, max_steps)[0]


def _rk4_increments(even: np.ndarray, odd: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The increments D_j of k RK4 steps on y = I, each step being I + D_j.

    `even` holds -A at the step ends t_0, ..., t_k, shape (k + 1, B, m, m),
    `odd` at the midpoints, shape (k, B, m, m), and `h` the step sizes,
    shape (B, 1, 1) or, per step, (k, B, 1, 1); the RK4 formulas run once for
    all k steps of all B rows.
    """
    steps, m = len(odd), odd.shape[-1]
    k = even[:-1].copy()  # k1, then k2, k3, k4 of every step at once
    d, y = k.copy(), np.empty(k.shape)
    for a, c, w in ((odd, h / 2, 2.0), (odd, h / 2, 2.0), (even[1:], h, 1.0)):
        np.multiply(c, k, out=y)
        y.reshape(steps, -1, m * m)[..., ::m + 1] += 1.0  # y = I + c k
        np.matmul(a, y, out=k)
        np.multiply(w, k, out=y)
        d += y
    d *= h / 6
    return d


def _pairwise_product(d: np.ndarray) -> np.ndarray:
    """(I + D_{k-1}) ... (I + D_0) - I of increments stacked on axis 0.

    The steps are multiplied pairwise in increment form, (I + D')(I + D) =
    I + (D' + D + D'D), rounding no 1 + small before the end; an odd tail
    waits a round.  On an aligned block of 2^j steps the first j rounds
    pair within the block, so its product is a subtree of the whole one.
    """
    while len(d) > 1:
        later, earlier = d[1::2], d[0:-1:2]
        d = np.concatenate([later + earlier + later @ earlier, d[2 * len(later):]])
    return d[0]


def _linear_transport(field, curves: Sequence[Curve], y0, tol: float) -> list:
    """Integrate ydot = -A(xdot) y along each curve; returns [(y_at_end, steps, ok)].

    `field(X)` gives the matrices A_i at a batch of points X of shape
    (B, n), as an array of shape (B, n, m, m).  Every curve starts from
    the state y0: a length-m vector or an (m, m) matrix whose columns move
    together.

    The curves are the rows of consecutive groups of at most
    `_CHUNK // (4 * _RK4_INITIAL_STEPS + 1)` = 7, each run to convergence
    before the next starts.  In a group each row has its own step size and
    stage times and converges on its own under the doubling rule of
    `rk4_adaptive` (`_rk4_doubling`); converged rows leave the group.  A
    pass (a `run_level` call) evaluates -A(t) on the stage grid (`_rk4_grid`)
    of the level it integrates, time-major, into one table; nothing it
    computes outlives it.  No row converges at its first level, so a
    group's first pass integrates its first two levels (one chunk, for
    segments): the table holds the coarser level's stages, a spacer step
    and the finer grid, and the coarser stages are the finer step ends
    where the times agree bit for bit (on a dyadic interval, all) and are
    evaluated after the finer grid elsewhere; one `_rk4_increments` call
    serves both levels, and their pairwise trees go on as one once the
    finer one has halved.  Points go in chunks of at most `_CHUNK` through
    one path evaluation -- closed form for segments, a compile per kernel
    call for any other curve --, one `field` call and one einsum forming
    -A(t) = -xdot^i A_i(x(t)); the first point to fail raises, so of two
    groups that would raise a domain error, the earlier one does.  The ODE
    is linear, so each RK4 step is a matrix I + D_j: the RK4 formulas run
    on y = I (`_rk4_increments`) and the steps are multiplied pairwise
    (`_pairwise_product`), for a later level over tiles of rows holding at
    most `_CHUNK` steps, a deeper row cut into aligned blocks of `_CHUNK`
    steps whose products are subtrees of its own.  So the kernel holds one
    pass's stage table and buffers of one chunk.  Steps and flags are
    `rk4_adaptive`'s with a pointwise right-hand side, states agree with
    it to round-off, and a row's bits depend neither on its batch, nor on
    its group, nor on its tile.
    """
    if not curves:
        return []
    y0 = np.asarray(y0, dtype=float)
    state = y0.reshape(y0.shape[0], -1)
    m = state.shape[0]
    n = len(curves[0].components if curves[0].delta is None else curves[0].delta)
    t0 = np.array([c.t0 for c in curves])
    t1 = np.array([c.t1 for c in curves])
    start = np.array([np.zeros(n) if c.delta is None else c.start for c in curves])
    delta = np.array([np.zeros(n) if c.delta is None else c.delta for c in curves])
    paths = {r: compile_exprs(c.components + c.velocity_exprs(), ("t",))
             for r, c in enumerate(curves) if c.delta is None}

    def stage(t, r, out=None):  # -A at the times t of the rows r, shape (len(t), m, m)
        xv = np.concatenate([start[r] + delta[r] * t[:, None], delta[r]], axis=1)
        for row, path in paths.items():
            on = r == row
            if on.any():
                xv[on] = path(t[on][:, None])
        return np.negative(np.einsum("bi,bikl->bkl", xv[:, n:], field(xv[:, :n])), out=out)

    def run_level(active, levels):  # one pass: a group's first two levels, or one later level
        rows, steps, coarse_steps = group[active], levels[-1], levels[0]
        size, skip = len(rows), 2 * coarse_steps + 2 if len(levels) > 1 else 0
        h, ends = _rk4_grid(t0[rows], t1[rows], steps)
        ends, half = ends[0::2].copy(), h / 2  # the step ends; the midpoints are ends + half
        extra_t, extra_r = np.empty(0), np.empty(0, dtype=int)  # stages after the grid
        if skip:  # the coarse level's stages and a spacer step go first
            h_coarse, coarse = _rk4_grid(t0[rows], t1[rows], coarse_steps)
            fresh = coarse != ends  # coarse stages at times no fine step end repeats
            extra_t, extra_r = coarse[fresh], rows[fresh.nonzero()[1]]
        points = (2 * steps + 1) * size
        flat = np.empty((skip * size + points + len(extra_t), m, m))
        for s in range(0, points + len(extra_t), _CHUNK):  # time-major, then the extras
            e = min(s + _CHUNK, points)
            i = slice(s // (2 * size), -(-e // (2 * size)))  # the steps of the chunk's stages
            t = np.concatenate([ends[i], ends[i] + half], axis=1)  # a step's end, its midpoint
            on = slice(s - 2 * size * i.start, e - 2 * size * i.start)
            x = slice(max(s - points, 0), max(s + _CHUNK - points, 0))
            stage(np.concatenate([t.ravel()[on], extra_t[x]]),
                  np.concatenate([np.repeat(rows[None], 2 * len(t), 0).ravel()[on], extra_r[x]]),
                  flat[skip * size + s:][:_CHUNK])
        table = flat[:len(flat) - len(extra_t)].reshape(-1, size, m, m)
        even, odd = table[0::2], table[1::2]
        if skip:
            table[:skip - 1] = table[skip::2]
            table[:skip - 1][fresh] = flat[len(table) * size:]
            table[skip - 1] = 0.0  # the spacer step, from the coarse level's end to the fine start
            d = _rk4_increments(even, odd, np.repeat([h_coarse, h], [coarse_steps + 1, steps],
                                                     axis=0)[..., None, None])
            later, earlier = d[coarse_steps + 2::2], d[coarse_steps + 1::2]  # the fine tree's
            prods = _pairwise_product(np.concatenate(  # first round; then the trees go on as one
                [d[:coarse_steps], later + earlier + later @ earlier], axis=1))
        else:
            tile, block = max(1, _CHUNK // steps), min(steps, _CHUNK)  # rows a tile, steps a block
            prods = np.empty((size, m, m))
            for first in range(0, size, tile):
                on = slice(first, first + tile)
                prods[on] = _pairwise_product(np.array([
                    _pairwise_product(_rk4_increments(even[j:j + block + 1, on],
                                                      odd[j:j + block, on], h[on, None, None]))
                    for j in range(0, steps, block)]))
        return list((state + prods @ state).reshape((-1, size) + y0.shape))  # level by level

    out, size = [], max(1, _CHUNK // (4 * _RK4_INITIAL_STEPS + 1))
    for first in range(0, len(curves), size):
        group = np.arange(first, min(first + size, len(curves)))  # the rows `run_level` reads
        out += _rk4_doubling(run_level, len(group), tol)
    return out


# -- sampling ------------------------------------------------------------------------


def _van_der_corput(k: int, base: int) -> float:
    x, denom = 0.0, 1.0
    while k:
        k, rem = divmod(k, base)
        denom *= base
        x += rem / denom
    return x


_HALTON_BASES = (2, 3, 5, 7, 11, 13)
_SAMPLE_MARGIN = 0.05  # share of each side of the box kept clear of samples


def sample_points(chart: ChartModel, seed: int = 0, n_random: int = 50,
                  n_grid: int = 14) -> np.ndarray:
    """Deterministic sample set: Halton grid plus seeded uniform points.

    Points are drawn from the domain box shrunk inward by `_SAMPLE_MARGIN`
    so that finite flows and loops started at samples stay inside.
    """
    n = chart.n
    lo = chart.domain[:, 0]
    hi = chart.domain[:, 1]
    span = hi - lo
    lo_m = lo + _SAMPLE_MARGIN * span
    span_m = (1 - 2 * _SAMPLE_MARGIN) * span
    rows = []
    for k in range(1, n_grid + 1):
        u = np.array([_van_der_corput(k, _HALTON_BASES[d]) for d in range(n)])
        rows.append(lo_m + u * span_m)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        rows.append(lo_m + rng.random(n) * span_m)
    return np.array(rows)
