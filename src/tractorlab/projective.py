"""Projective invariants of a torsion-free affine connection.

The central objects:

* ``rho`` (P): the unique tensor with nP_{jl} - P_{lj} = -Ric_{jl},
  explicitly P = -(n Ric + Ric^T)/(n^2 - 1);
* the projective Weyl tensor W, the totally trace-free part of curvature
  left after removing the rho terms, invariant under projective change;
* the Cotton tensor CY_{hjl} = grad_h P_{jl} - grad_j P_{hl}, which
  transforms by CY' = CY - Ups . W.

Values at sample points come from Taylor jets (`point_fields`): the Christoffel
symbols are expanded to degree 2 at a batch of points in one sweep of the
program the chart compiled for them (`ChartModel.evaluator`).  The result is a
mapping; each field is a few vectorized contractions of those jets, computed on
its first read with the bits it has when all are read.  The symbolic fields
(`rho_field`, `weyl_field`, `cotton_field`) remain as a reference only: transport
assembles the tractor connection from compiled Christoffel symbols and their
first partials (`tractor.connection_field`), and nothing here compiles them.
"""

from __future__ import annotations

from collections.abc import Mapping

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
from .jets import JetSpace

__all__ = [
    "rho",
    "rho_field",
    "ricci_from_rho",
    "weyl",
    "weyl_field",
    "cotton",
    "cotton_field",
    "point_fields",
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


class _PointFields(Mapping):
    """`_rule` computes a field on its first read; no cycle, so the arrays die with it."""
    _KEYS = ("gamma", "R", "Ric", "P", "W", "CY", "M", "dRic", "nablaRic", "F", "F_M")

    def __init__(self, space: JetSpace, G: np.ndarray, jets: bool):
        self._space, self._jets, self._values = space, jets, {"gamma": G}

    def __getitem__(self, key):
        return self._jet(key) if self._jets else self._jet(key)[..., 0]

    def __contains__(self, key):  # without computing the field, as Mapping's would
        return key in self._KEYS

    def __iter__(self):
        return iter(self._KEYS)

    def __len__(self):
        return len(self._KEYS)

    def _jet(self, key):
        if key not in self._values:
            self._values[key] = self._rule(key)
        return self._values[key]

    def _rule(self, key):
        space, get, G = self._space, self._jet, self._values["gamma"]
        n, (s2, s1) = space.n, space.sizes[-3:-1]  # jet sizes at degree - 2 and degree - 1
        G1, eye = G[..., :s1], np.eye(n)
        if key == "R":
            dG = np.swapaxes(space.grad(G, 3, s1), -4, -3)  # d_h G^k_jl
            GG = space.contract("...khm,...mjl->...hjkl", G1, G1)  # G^k_hm G^m_jl
            return (dG - np.swapaxes(dG, -5, -4)) + (GG - np.swapaxes(GG, -5, -4))
        if key == "Ric":
            return np.einsum("...kjklz->...jlz", get("R"))
        if key == "P":
            return -(1.0 / float(n * n - 1)) * (float(n) * get("Ric") + get("Ric").swapaxes(-3, -2))
        if key == "W":
            P = get("P")
            return (get("R") - np.einsum("...hlz,kj->...hjklz", P, eye)
                    - np.einsum("...hjz,kl->...hjklz", P, eye)
                    + np.einsum("...jhz,kl->...hjklz", P, eye)
                    + np.einsum("...jlz,kh->...hjklz", P, eye))
        if key == "CY":
            dP = space.grad(get("P"), 2, s2)
            PG = space.contract("...hm,...mjl->...hjl", get("P")[..., :s2], G)
            return (dP - np.swapaxes(dP, -4, -3)) + (PG - np.swapaxes(PG, -4, -3))
        if key == "M":
            w = np.einsum("...mimz->...iz", G1) / float(-(n + 1))
            M = np.zeros(G.shape[:-4] + (n, n + 1, n + 1, s1))
            M[..., :n, :n, :] = np.swapaxes(G1, -4, -3) + np.einsum("...iz,km->...ikmz", w, eye)
            M[..., range(n), range(n), n, 0], M[..., n, :n, :], M[..., n, n, :] = 1.0, get("P"), w
            return M
        if key == "dRic":
            return space.grad(get("Ric"), 2, s2)
        if key == "nablaRic":
            Ric2 = get("Ric")[..., :s2]
            return (get("dRic") - space.contract("...maj,...ml->...ajl", G, Ric2)
                    - space.contract("...mal,...jm->...ajl", G, Ric2))
        if key == "F":
            F = np.zeros(G.shape[:-4] + (n, n, n + 1, n + 1, s2))
            F[..., :n, :n, :], F[..., n, :n, :] = get("W")[..., :s2], get("CY")
            return F
        if key == "F_M":
            dM = space.grad(get("M"), 3, s2)
            MM = space.contract("...hrm,...jms->...hjrs", get("M")[..., :s2], get("M"))
            return (dM - np.swapaxes(dM, -5, -4)) + (MM - np.swapaxes(MM, -5, -4))
        raise KeyError(key)


def point_fields(chart: ChartModel, points, degree: int = 2, jets: bool = False) -> Mapping:
    """The curvature fields at a point (n,) or a batch of points (B, n), on jets.

    A read-only mapping of float arrays of shape (B,) + the field's shape (no leading axis
    for one point): "gamma", "R", "Ric", "P", "W", "CY", the tractor connection "M", "dRic"
    (dRic[i, j, l] = d_i Ric[j, l]), "nablaRic" (indexed as dRic), and the tractor curvature
    twice: "F" from W and CY, "F_M" = d_h M_j - d_j M_h + [M_h, M_j].  Each is computed on
    its first read, bit for bit; with `jets` the Taylor coefficients come last instead, and
    a field taking k derivatives of Gamma is exact to degree - k.
    """
    if degree < 2:
        raise ValueError("the fields take two derivatives of Gamma; degree must be at least 2")
    space = JetSpace.of(chart.n, degree)
    return _PointFields(space, space.evaluate(chart.evaluator(chart.gamma), points), jets)


def rho(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, point_fields(chart, p)["P"], "dd")


def weyl(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, point_fields(chart, p)["W"], "ddud")


def cotton(chart: ChartModel, point) -> TensorValue:
    p = np.asarray(point, dtype=float)
    return TensorValue(p, point_fields(chart, p)["CY"], "ddd")


_INVARIANCE_POINTS = 10  # seeded samples of `weyl_invariance_test`, beside its 4 grid points


def weyl_invariance_test(chart: ChartModel, changes, seed: int = 0) -> list:
    """Measure how far the Weyl and Cotton tensors drift under projective changes.

    `changes` is a sequence of one-forms (`OneFormField`s or component
    sequences).  Weyl should be exactly invariant; Cotton should transform
    by CY' = CY - Ups . W.  Every chart is valued on jets at the same
    sample points, the unchanged one once for all changes.  Returns one
    dict per change: the max residuals over sample points, and the changed
    chart under "chart", so that a caller can use it without building it
    again.
    """
    pts = sample_points(chart, seed=seed, n_random=_INVARIANCE_POINTS, n_grid=4)
    before = point_fields(chart, pts)
    results = []
    for ups in changes:
        if not isinstance(ups, OneFormField):
            ups = OneFormField(chart, np.asarray(ups, dtype=object))
        changed = project_change(chart, ups)
        after = point_fields(changed, pts)
        # max_abs of the per-point residuals, so a NaN fails the change
        res_w, res_cy = [], []
        for u, w1, w2, cy1, cy2 in zip(ups.at(pts), before["W"], after["W"], before["CY"], after["CY"]):
            res_w.append(max_abs(w2 - w1) / (1.0 + max_abs(w1)))
            expected = cy1 - np.einsum("k,hjkl->hjl", u, w1)
            res_cy.append(max_abs(cy2 - expected) / (1.0 + max_abs(expected)))
        results.append({"max_weyl_residual": max_abs(res_w),
                        "max_cotton_residual": max_abs(res_cy), "n_points": len(pts),
                        "chart": changed})
    return results
