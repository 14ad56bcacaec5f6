"""The rank n+1 tractor bundle of a projective class.

In a chart splitting, a tractor has components (Y, a) with Y a tangent
vector and a a scalar.  The covariant derivative in coordinate direction i
acts through the matrix

    M_i = [[Gamma_i + w_i I,  e_i],
           [P[i, :],          w_i]],      w_i = -tr(Gamma_i)/(n+1),

so that parallel transport along x(t) solves vdot = -M(xdot) v.  The weight
term w_i makes every M_i trace free; transport operators therefore have
determinant one.  M needs Gamma and its first partials only: transport
compiles those once per chart and assembles P and M from their values in
numpy (`connection_field`), building no curvature symbolically.  The
curvature of this connection is block triangular,

    F_{hj} = [[W_{hj}, 0], [CY_{hj}, 0]],

with the projective Weyl tensor in the endomorphism block and the Cotton
tensor in the bottom row, whatever the representative connection.

Changing the representative by a one-form Ups rearranges the splitting:
components (Y, a) taken in the splitting of project_change(c, ups)
correspond to (Y, a + Ups(Y)) in the splitting of c.

Transport runs the RK4 doubling of `affine._linear_transport` to
`_TRANSPORT_TOL`; `parallel_transport`, `transport_operator` and
`spread_structure` always use it, the batched and loop routes take a
caller's `tol` too.  Loops, loop families, spreads, stencils and check
paths go through `transport_operators`, which within one `cli.run` (it
sets `_RECORD`) integrates each straight segment once per chart and tolerance,
so later chains reuse its row bit for bit.  The curvature routes read F
from `projective.point_fields`.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .affine import ChartModel, Curve, _linear_transport, max_abs
from .expr import Num, tangents
from .projective import point_fields

__all__ = [
    "connection_field",
    "connection_matrix",
    "splitting_matrix",
    "tractor_curvature",
    "tractor_curvature_from_connection",
    "parallel_transport",
    "transport_operator",
    "transport_operators",
    "loop_holonomy",
    "loop_holonomies",
    "spread_structure",
]


# -- connection matrices --------------------------------------------------------


def _connection_program(chart: ChartModel) -> np.ndarray:
    """Gamma^k_ij, then the derivative terms of R[k, j, k, l], d_k Gamma^k_jl -
    d_j Gamma^k_kl, as one flat array.  Each d_h comes from a forward-mode walk
    (`expr.tangents`) over the entries it applies to: Gamma^h_jl, Gamma^k_kl."""
    def build():
        n, flat = chart.n, list(chart.gamma.ravel())
        d = {}  # (h, e) -> d_h of flat[e], with e = (k*n + i)*n + j
        for h, name in enumerate(chart.coords):
            used = sorted({(h * n + j) * n + l for j in range(n) for l in range(n)}
                          | {(k * n + k) * n + l for k in range(n) for l in range(n)})
            d.update(((h, e), t) for e, t in zip(used, tangents([flat[e] for e in used],
                                                                 (name,))[0]))
        return np.array(flat + [d[k, (k * n + j) * n + l] - d[j, (k * n + k) * n + l]
                                for k, j, l in np.ndindex(n, n, n)], dtype=object)

    return chart.symbolic("Mprog", build)


def _assemble_connection(values: np.ndarray, steps: list, n: int) -> np.ndarray:
    """M_i (B, n, n+1, n+1) from rows of `_connection_program` values.

    The work runs on one row per entry, so each numpy call spans the batch,
    and M is written field-major: the result is the transposed view of an
    (n, n+1, n+1, B) array, so every write is contiguous.
    R[k, j, k, l], Ric and P are summed in the order of `assemble_curvature`,
    `assemble_ricci` and `assemble_rho`: the derivative terms, the m-terms
    one m = c at a time, then the sum over k.  `steps` lists (k, c, first,
    second): like the symbolic chain, a product whose factors are literal
    zeros is left out, so with the same derivatives this is its M bit for bit.
    """
    B, m = len(values), n + 1
    G = values[:, :n ** 3].T.reshape(n, n, n, B)  # G[k, i, j, b]
    A = values[:, n ** 3:].T.reshape(n, n, n, B)  # A[k, j, l, b], summed in place
    t1, t2 = np.empty((n, n, B)), np.empty((n, n, B))
    for k, c, first, second in steps:  # Gamma^k_kc Gamma^c_jl - Gamma^k_jc Gamma^c_kl
        if second:
            np.multiply(G[k, :, c, None], G[c, k, None], out=t2)
        if first:
            np.multiply(G[k, k, c], G[c], out=t1)
            if second:
                t1 -= t2
            A[k] += t1
        elif second:
            A[k] -= t2
    ric, tr = A[0], G[0, :, 0].copy()
    for k in range(1, n):
        ric += A[k]
        tr += G[k, :, k]
    Mt = np.empty((n, m, m, B))  # Mt[i, r, s] = M_i[r, s]
    Mt[:, :n, :n] = G.swapaxes(0, 1)
    w = np.divide(tr, float(-(n + 1)), out=Mt[:, n, n])
    Mt.reshape(n, m * m, B)[:, :n * m + n:m + 1] += w[:, None]  # Gamma_i's diagonal
    Mt[:, :n, n] = np.eye(n)[:, :, None]
    P = np.multiply(float(n), ric, out=t1)
    P += ric.swapaxes(0, 1)
    P *= -(1.0 / float(n * n - 1))
    Mt[:, n, :n] = P
    return Mt.transpose(3, 0, 1, 2)


def connection_field(chart: ChartModel) -> Callable[[np.ndarray], np.ndarray]:
    """M_i at a batch of points (B, n), shape (B, n, n+1, n+1).

    Gamma and the first partials the curvature needs are compiled once per
    chart as one program (`_connection_program`), and Ric, P and M are
    assembled from their values in numpy (`_assemble_connection`); no
    curvature is built symbolically.  The result is a field-major view.  A
    batch is evaluated whole; the transport kernel passes `affine._CHUNK`
    points at most, a 2.17 MB traced peak on sphere3 (1.90 MB at the 1,799
    points of a 7-row group's first pass).  Built once per chart.  Its
    `constant` is True when every program entry is a number (`Num`), as on
    a flat chart: the kernel then evaluates it once a row and pass.
    """
    def build():
        program, n = _connection_program(chart), chart.n
        values = chart.evaluator(program)
        zero = np.array([e.is_zero() for e in program[:n ** 3]]).reshape(n, n, n)
        steps = [(k, c, not (zero[k, k, c] or zero[c].all()),
                  not (zero[k, :, c].all() or zero[c, k].all())) for k, c in np.ndindex(n, n)]

        def field(points) -> np.ndarray:
            points = np.asarray(points, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as floats give
                return _assemble_connection(values(points), steps, n)

        field.constant = all(isinstance(e, Num) for e in program)
        return field

    return chart.symbolic("Mfield", build)


def connection_matrix(chart: ChartModel, point, direction) -> np.ndarray:
    """M(X) = X^i M_i at a point, bit for bit the row of a batch; vdot =
    -M(xdot) v transports tractors."""
    X = np.asarray(direction, dtype=float)
    M = connection_field(chart)(np.asarray(point, dtype=float)[None])[0]
    return np.einsum("i,ikl->kl", X, M)


# -- splitting changes -------------------------------------------------------------


def splitting_matrix(ups_value) -> np.ndarray:
    """Matrix [[I, 0], [Ups, 1]] taking components in the splitting of
    project_change(c, ups) to components in the splitting of c."""
    u = np.asarray(ups_value, dtype=float)
    n = u.shape[0]
    out = np.eye(n + 1)
    out[n, :n] = u
    return out


# -- curvature ---------------------------------------------------------------------


def tractor_curvature(chart: ChartModel, point) -> np.ndarray:
    """F[h,j] assembled from the Weyl and Cotton tensors at a point."""
    return point_fields(chart, np.asarray(point, dtype=float))["F"]


def tractor_curvature_from_connection(chart: ChartModel, point) -> np.ndarray:
    """F[h,j] = d_h M_j - d_j M_h + [M_h, M_j], straight from the matrices."""
    return point_fields(chart, np.asarray(point, dtype=float))["F_M"]


# -- transport ---------------------------------------------------------------------


_TRANSPORT_TOL = 1e-8  # RK4 doubling tolerance of every transport


def parallel_transport(chart: ChartModel, curve: Curve, v0):
    """Transport tractor components along a curve; returns (v1, steps, ok)."""
    return _linear_transport(connection_field(chart), [curve], v0, _TRANSPORT_TOL)[0]


# The straight segments one command integrated, as (id(chart), tol) -> (chart, {key:
# (T, steps, ok)}); `cli.run` sets it.  Holding the chart keeps its id from reuse.
_RECORD: ContextVar = ContextVar("transport_record", default=None)


def transport_operators(chart: ChartModel, curves: Sequence[Curve],
                        tol: float = _TRANSPORT_TOL) -> list:
    """Transport operators along several curves of one chart, integrated as
    one batch; returns [(T, steps, ok)] in the order of `curves`, T read-only.

    Under a `_RECORD`, a straight segment is integrated once per chart and
    tolerance, keyed on its bytes: a row the record holds, or repeated in
    `curves`, is reused, bit for bit a fresh one (`affine._linear_transport`).
    """
    field, eye, record = connection_field(chart), np.eye(chart.n + 1), _RECORD.get()
    if record is None:
        rows = _linear_transport(field, curves, eye, tol)
    else:  # an index keys a curve that is not a segment, integrated every time
        seen = record.setdefault((id(chart), tol), (chart, {}))[1]
        keys = [i if c.delta is None else (c.t0, c.t1, c.start.tobytes(), c.delta.tobytes())
                for i, c in enumerate(curves)]
        fresh = {key: c for key, c in zip(keys, curves) if key not in seen}
        seen.update(zip(fresh, _linear_transport(field, list(fresh.values()), eye, tol)))
        rows = [seen.pop(key) if type(key) is int else seen[key] for key in keys]
    for T, _, _ in rows:
        T.flags.writeable = False
    return rows


def transport_operator(chart: ChartModel, curve: Curve):
    """Full transport operator T along a curve: columns are transported frames."""
    return transport_operators(chart, [curve])[0]


def _loop_curves(loop) -> list:
    """The segments of a loop (one curve or chained segments), checked closed and chained."""
    curves = [loop] if isinstance(loop, Curve) else list(loop)
    start = curves[0].point(curves[0].t0)
    end = curves[-1].point(curves[-1].t1)
    if max_abs(end - start) > 1e-9:
        raise ValueError("loop is not closed")
    for prev, c in zip(curves, curves[1:]):
        if max_abs(c.point(c.t0) - prev.point(prev.t1)) > 1e-9:
            raise ValueError("curve segments do not chain")
    return curves


def loop_holonomies(chart: ChartModel, loops, tol: float = _TRANSPORT_TOL) -> list:
    """Holonomies of several closed loops; every segment of every loop is
    transported in one batch.  Returns [(H, report)] as `loop_holonomy` does."""
    loops = [_loop_curves(loop) for loop in loops]
    ops = iter(transport_operators(chart, [c for curves in loops for c in curves], tol))
    out = []
    for curves in loops:
        H = np.eye(chart.n + 1)
        ok_all = True
        for _ in curves:
            T, _, ok = next(ops)
            ok_all = ok_all and ok
            H = T @ H
        drift = abs(float(np.linalg.det(H)) - 1.0) if ok_all else np.inf
        out.append((H, {"det_drift": drift, "converged": ok_all}))
    return out


def loop_holonomy(chart: ChartModel, loop, tol: float = _TRANSPORT_TOL):
    """Holonomy of a closed loop (one curve or chained segments).

    Returns (H, report) with the determinant drift in the report, infinite if
    a transport did not converge; the connection is trace free so det H is 1.
    """
    return loop_holonomies(chart, [loop], tol)[0]


def square_loop(point, i: int, j: int, eps: float) -> list:
    """ccw coordinate square at a point: +eps e_i, +eps e_j, back."""
    p = np.asarray(point, dtype=float)
    ei = np.zeros_like(p)
    ej = np.zeros_like(p)
    ei[i] = eps
    ej[j] = eps
    corners = [p, p + ei, p + ei + ej, p + ej, p]
    return [Curve.segment(a, b) for a, b in zip(corners[:-1], corners[1:])]


# -- spreading fiber data over the chart ----------------------------------------------


def _apply_transport(kind: str, T: np.ndarray, value: np.ndarray) -> np.ndarray:
    if kind == "vector":
        return T @ value
    if kind == "endo":
        return T @ value @ np.linalg.inv(T)
    if kind == "bilinear":
        Tinv = np.linalg.inv(T)
        return Tinv.T @ value @ Tinv
    raise ValueError(f"unknown structure kind '{kind}'")


def spread_structure(chart: ChartModel, kind: str, value, base_point, points,
                     check_paths: int = 0, seed: int = 0):
    """Transport a fiber object from a base point to each target point.

    Transport runs along the straight coordinate segment to each target (a
    star-shaped spanning tree).  When `check_paths` > 0, that many targets
    are re-reached through a random intermediate corner and the worst
    disagreement is reported; for genuinely parallel structures it should
    sit at the ODE tolerance.
    """
    base = np.asarray(base_point, dtype=float)
    value = np.asarray(value, dtype=float)
    pts = np.asarray(points, dtype=float)
    mids = {}  # check-path target index -> intermediate corner, drawn before transport
    if check_paths > 0 and len(pts) > 0:
        rng = np.random.default_rng(seed)
        for idx in rng.choice(len(pts), size=min(check_paths, len(pts)), replace=False):
            lo = np.minimum(base, pts[idx])
            hi = np.maximum(base, pts[idx])
            mids[idx] = lo + rng.random(chart.n) * (hi - lo)
    curves = [Curve.segment(base, p) for p in pts]
    for idx, mid in mids.items():
        curves += [Curve.segment(base, mid), Curve.segment(mid, pts[idx])]
    results = transport_operators(chart, curves)
    ops = [T for T, _, _ in results]
    out = [_apply_transport(kind, T, value) for T in ops[:len(pts)]]
    # a transport that did not converge makes the residual fail
    worst = 0.0 if all(ok for _, _, ok in results) else np.inf
    report = {"max_path_residual": worst, "paths_checked": 0}
    if mids:
        halves = iter(ops[len(pts):])
        for idx in mids:
            T1, T2 = next(halves), next(halves)
            alt = _apply_transport(kind, T2 @ T1, value)
            scale = 1.0 + max_abs(out[idx])
            worst = max(worst, max_abs(alt - out[idx]) / scale)
        report = {"max_path_residual": worst, "paths_checked": len(mids)}
    return np.array(out), report
