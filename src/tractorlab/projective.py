"""Projective invariants of a torsion-free affine connection.

The central objects:

* ``rho`` (P): the unique tensor with nP_{jl} - P_{lj} = -Ric_{jl},
  explicitly P = -(n Ric + Ric^T)/(n^2 - 1);
* the projective Weyl tensor W, the totally trace-free part of curvature
  left after removing the rho terms, invariant under projective change;
* the Cotton tensor CY_{hjl} = grad_h P_{jl} - grad_j P_{hl}, which
  transforms by CY' = CY - Ups . W.
"""

from __future__ import annotations

import numpy as np

from .affine import (
    ChartModel,
    OneFormField,
    TensorValue,
    curvature_field,
    max_abs,
    project_change,
    ricci_field,
    sample_points,
)

__all__ = [
    "rho",
    "rho_field",
    "ricci_from_rho",
    "weyl",
    "weyl_field",
    "cotton",
    "cotton_field",
    "weyl_invariance_test",
]


def assemble_rho(ric, n: int) -> np.ndarray:
    """P[h,j] = -(n Ric[h,j] + Ric[j,h]) / (n^2 - 1); floats or Expr."""
    out = np.empty((n, n), dtype=ric.dtype)
    scale = 1.0 / float(n * n - 1)
    for h in range(n):
        for j in range(n):
            out[h, j] = -scale * (float(n) * ric[h, j] + ric[j, h])
    return out


def ricci_from_rho(rho_comps) -> np.ndarray:
    """Invert the rho map: Ric[j,l] = -n P[j,l] + P[l,j]."""
    P = np.asarray(rho_comps)
    n = P.shape[0]
    out = np.empty_like(P)
    for j in range(n):
        for l in range(n):
            out[j, l] = -float(n) * P[j, l] + P[l, j]
    return out


def assemble_weyl(curv, rho_comps) -> np.ndarray:
    """W = R - (P_{hl} d^k_j + P_{hj} d^k_l - P_{jl} d^k_h - P_{jh} d^k_l)."""
    n = rho_comps.shape[0]
    out = np.empty((n, n, n, n), dtype=curv.dtype)
    for h in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    term = curv[h, j, k, l]
                    if k == j:
                        term = term - rho_comps[h, l]
                    if k == l:
                        term = term - rho_comps[h, j] + rho_comps[j, h]
                    if k == h:
                        term = term + rho_comps[j, l]
                    out[h, j, k, l] = term
    return out


def assemble_cotton(rho_comps, drho, gamma) -> np.ndarray:
    """CY[h,j,l] = d_h P[j,l] - d_j P[h,l] + P[h,m] G^m_{jl} - P[j,m] G^m_{hl}.

    `drho[a, j, l]` holds the partials d_a P[j,l].
    """
    n = rho_comps.shape[0]
    out = np.empty((n, n, n), dtype=rho_comps.dtype)
    for h in range(n):
        for j in range(n):
            for l in range(n):
                term = drho[h, j, l] - drho[j, h, l]
                for m in range(n):
                    term = term + (rho_comps[h, m] * gamma[m, j, l]
                                   - rho_comps[j, m] * gamma[m, h, l])
                out[h, j, l] = term
    return out


def rho_field(chart: ChartModel) -> np.ndarray:
    return chart.symbolic("P", lambda: assemble_rho(ricci_field(chart), chart.n))


def weyl_field(chart: ChartModel) -> np.ndarray:
    return chart.symbolic(
        "W", lambda: assemble_weyl(curvature_field(chart), rho_field(chart))
    )


def cotton_field(chart: ChartModel) -> np.ndarray:
    def build():
        n = chart.n
        P = rho_field(chart)
        dP = np.empty((n, n, n), dtype=object)
        for a in range(n):
            for j in range(n):
                for l in range(n):
                    dP[a, j, l] = P[j, l].diff(chart.coords[a])
        return assemble_cotton(P, dP, chart.gamma)

    return chart.symbolic("CY", build)


def rho(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, chart.evaluator(rho_field(chart))(p), "dd")


def weyl(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, chart.evaluator(weyl_field(chart))(p), "ddud")


def cotton(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, chart.evaluator(cotton_field(chart))(p), "ddd")


def weyl_invariance_test(chart: ChartModel, ups, seed: int = 0,
                         n_points: int = 10) -> dict:
    """Measure how far the Weyl and Cotton tensors drift under a change.

    Weyl should be exactly invariant; Cotton should transform by
    CY' = CY - Ups . W.  Returns the max residuals over sample points.
    """
    if not isinstance(ups, OneFormField):
        ups = OneFormField(chart, np.asarray(ups, dtype=object))
    changed = project_change(chart, ups)
    w_fn = chart.evaluator(weyl_field(chart))
    w2_fn = changed.evaluator(weyl_field(changed))
    cy_fn = chart.evaluator(cotton_field(chart))
    cy2_fn = changed.evaluator(cotton_field(changed))
    pts = sample_points(chart, seed=seed, n_random=n_points, n_grid=4)
    worst_w = 0.0
    worst_cy = 0.0
    for p in pts:
        w1 = w_fn(p)
        w2 = w2_fn(p)
        scale = 1.0 + max_abs(w1)
        worst_w = max(worst_w, max_abs(w2 - w1) / scale)
        cy1 = cy_fn(p)
        cy2 = cy2_fn(p)
        uval = ups.at(p)
        expected = cy1 - np.einsum("k,hjkl->hjl", uval, w1)
        cscale = 1.0 + max_abs(expected)
        worst_cy = max(worst_cy, max_abs(cy2 - expected) / cscale)
    return {
        "max_weyl_residual": worst_w,
        "max_cotton_residual": worst_cy,
        "n_points": len(pts),
    }
