"""The rank n+1 tractor bundle of a projective class.

In a chart splitting, a tractor has components (Y, a) with Y a tangent
vector and a a scalar.  The covariant derivative in coordinate direction i
acts through the matrix

    M_i = [[Gamma_i + w_i I,  e_i],
           [P[i, :],          w_i]],      w_i = -tr(Gamma_i)/(n+1),

so that parallel transport along x(t) solves vdot = -M(xdot) v.  The weight
term w_i makes every M_i trace free; transport operators therefore have
determinant one.  The curvature of this connection is block triangular,

    F_{hj} = [[W_{hj}, 0], [CY_{hj}, 0]],

with the projective Weyl tensor in the endomorphism block and the Cotton
tensor in the bottom row, whatever the representative connection.

Changing the representative by a one-form Ups rearranges the splitting:
components (Y, a) taken in the splitting of project_change(c, ups)
correspond to (Y, a + Ups(Y)) in the splitting of c.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .affine import ChartModel, Curve, _linear_transport, max_abs
from .projective import point_fields, rho_field

__all__ = [
    "connection_matrix",
    "connection_matrix_field",
    "assemble_connection_matrix",
    "splitting_matrix",
    "assemble_tractor_curvature",
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


def _zero_of(x):
    """The zero of the ring the scalar x belongs to: float, Expr or jet."""
    return x * 0.0 + 0.0  # the + 0.0 turns -0.0 into 0.0


def assemble_connection_matrix(gamma, rho_comps) -> np.ndarray:
    """M_i from gamma[k,i,j] and P, shape (n, n+1, n+1); works on Expr or jets."""
    n = gamma.shape[0]
    zero = _zero_of(gamma[0, 0, 0])
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


def connection_matrix(chart: ChartModel, point, direction) -> np.ndarray:
    """M(X) = X^i M_i at a point; vdot = -M(xdot) v transports tractors."""
    X = np.asarray(direction, dtype=float)
    M = chart.evaluator(connection_matrix_field(chart))(np.asarray(point, dtype=float))
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


def assemble_tractor_curvature(W, CY) -> np.ndarray:
    """F[h,j] = [[W[h,j], 0], [CY[h,j], 0]], shape (n,n,n+1,n+1); floats, Expr or jets."""
    n = W.shape[0]
    F = np.empty((n, n, n + 1, n + 1), dtype=W.dtype)
    F[...] = _zero_of(W[0, 0, 0, 0]) if W.dtype == object else 0.0
    F[:, :, :n, :n] = W
    F[:, :, n, :n] = CY
    return F


def tractor_curvature(chart: ChartModel, point) -> np.ndarray:
    """F[h,j] assembled from the Weyl and Cotton tensors at a point."""
    return point_fields(chart, np.asarray(point, dtype=float))["F"]


def tractor_curvature_from_connection(chart: ChartModel, point) -> np.ndarray:
    """F[h,j] = d_h M_j - d_j M_h + [M_h, M_j], straight from the matrices."""
    return point_fields(chart, np.asarray(point, dtype=float))["F_M"]


# -- transport ---------------------------------------------------------------------


def parallel_transport(chart: ChartModel, curve: Curve, v0, tol: float = 1e-8):
    """Transport tractor components along a curve; returns (v1, steps, ok)."""
    return _linear_transport(chart.evaluator(connection_matrix_field(chart)), [curve], v0, tol)[0]


def transport_operators(chart: ChartModel, curves: Sequence[Curve], tol: float = 1e-8) -> list:
    """Transport operators along several curves of one chart, integrated as
    one batch; returns [(T, steps, ok)] in the order of `curves`."""
    return _linear_transport(chart.evaluator(connection_matrix_field(chart)), curves,
                             np.eye(chart.n + 1), tol)


def transport_operator(chart: ChartModel, curve: Curve, tol: float = 1e-8):
    """Full transport operator T along a curve: columns are transported frames."""
    return transport_operators(chart, [curve], tol)[0]


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


def loop_holonomies(chart: ChartModel, loops, tol: float = 1e-8) -> list:
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


def loop_holonomy(chart: ChartModel, loop, tol: float = 1e-8):
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
    if kind == "covector":
        return value @ np.linalg.inv(T)
    if kind in ("endo", "projector"):
        return T @ value @ np.linalg.inv(T)
    if kind == "bilinear":
        Tinv = np.linalg.inv(T)
        return Tinv.T @ value @ Tinv
    raise ValueError(f"unknown structure kind '{kind}'")


def spread_structure(chart: ChartModel, kind: str, value, base_point, points,
                     tol: float = 1e-8, check_paths: int = 0, seed: int = 0):
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
    results = transport_operators(chart, curves, tol)
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
