"""Geometric structures on the base induced by invariant fiber structures.

Each op takes a fiber-level object (metric, symplectic form, complex
structure, subspace) and verifies the corresponding base geometry:

* a parallel fiber metric corresponds to an Einstein connection, checked
  through an explicit parallel candidate built from the Ricci tensor;
* a parallel symplectic form induces a contact distribution with Reeb
  field and nonvanishing volume element;
* a parallel complex structure induces a transverse field R and a complex
  structure on the annihilator of R;
* an invariant subspace induces an integrable, totally geodesic,
  Ricci-flat foliation after adapting the splitting.

Fiber data is always given in the chart's own splitting at a base point
and spread to sample points by tractor transport.  The chains that test
fiber data for invariance take the holonomy algebra at that base point,
in the same splitting, as an argument: the caller estimates it once (the
`detect` command passes its `loop_algebra` result; a direct caller can pass
the infinitesimal estimate from `holonomy`) and every chain reuses it.
Where a check needs derivatives of transported data (exterior derivatives,
Lie derivatives, the adapted one-form), central finite differences with a
small step are used so the check stays independent of the symbolic route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .affine import (
    ChartModel,
    Curve,
    max_abs,
    normalize_volume,
    sample_points,
)
from .holonomy import HolonomyAlgebra, algebra_from_generators, bracket_closure, \
    invariant_subspaces, _containment_residual
from .projective import assemble_rho, point_fields, ricci_from_rho
from .tractor import (
    spread_structure,
    splitting_matrix,
    transport_operators,
)

__all__ = [
    "EinsteinReport",
    "ContactReport",
    "ComplexReport",
    "FoliationReport",
    "einstein_check",
    "einstein_to_tractor_metric",
    "tractor_metric_to_einstein_verify",
    "contact_from_symplectic",
    "complex_reduction",
    "foliation_analysis",
    "holonomy_decomposition_check",
]


# -- reports ---------------------------------------------------------------------


@dataclass
class EinsteinReport:
    accepted: bool
    nabla_ric_norm: float
    ric_signature: tuple | None
    det_ric_min: float
    h: object = None                   # point -> (n+1, n+1) sampler when accepted
    parallel_residual: float | None = None   # worst of the three identity blocks
    transport_residual: float | None = None
    h_signature: tuple | None = None
    reject_reason: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class ContactReport:
    accepted: bool
    H_basis: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    reeb: list = field(default_factory=list)
    dtheta_vs_omega: float | None = None
    dtheta_reeb: float | None = None
    vtheta_min: float | None = None
    vtheta_max: float | None = None
    weyl_in_H: float | None = None
    theta_H_residual: float | None = None
    theta_R_residual: float | None = None
    path_residual: float | None = None
    reject_reason: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class ComplexReport:
    accepted: bool
    R_field: list = field(default_factory=list)
    H_basis: list = field(default_factory=list)
    J_H: list = field(default_factory=list)
    lie_invariance_residual: float | None = None
    square_residual: float | None = None
    in_span_residual: float | None = None
    degenerate_points: list = field(default_factory=list)
    path_residual: float | None = None
    reject_reason: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class FoliationReport:
    accepted: bool
    K_basis: list = field(default_factory=list)
    integrability_residual: float | None = None
    geodesy_residual: float | None = None
    preserve_K_residual: float | None = None
    rho_residual: float | None = None
    ricci_on_K: float | None = None
    covolume_status: str | None = None
    covolume_residual: float | None = None
    line_intersection_fraction: float | None = None
    inconclusive: bool = False
    reject_reason: str | None = None
    meta: dict = field(default_factory=dict)


# -- shared helpers -----------------------------------------------------------------


def _base_point(chart: ChartModel, base_point):
    if base_point is None:
        return chart.center()
    return np.asarray(base_point, dtype=float)


def _fiber_invariance(alg: HolonomyAlgebra, value: np.ndarray, kind: str) -> float:
    """Worst defect of the fiber structure under the algebra generators."""
    worst = 0.0
    for A in alg.basis:
        scale = (1.0 + max_abs(A)) * (1.0 + max_abs(value))
        if kind == "bilinear":
            d = A.T @ value + value @ A
        elif kind == "endo":
            d = A @ value - value @ A
        elif kind == "subspace":
            proj = value @ np.linalg.pinv(value)
            d = (np.eye(value.shape[0]) - proj) @ A @ proj
        else:
            raise ValueError(f"unknown kind {kind!r}")
        worst = max(worst, max_abs(d) / scale)
    return worst


def _to_vol_gauge(chart: ChartModel, base):
    """Volume-normalized representative plus the splitting map at the base.

    Returns (vol_chart, S, S^-1) with S = splitting_matrix(ups(base)):
    components v in the original splitting correspond to S^-1 v in the
    normalized one, a bilinear form B to S^T B S and an endomorphism E to
    S^-1 E S.
    """
    vol_chart, ups = normalize_volume(chart)
    u = ups.at(base)
    return vol_chart, splitting_matrix(u), splitting_matrix(-u)


def _stencil(points, h: float, n: int):
    """Each point followed by its 2n central-difference neighbours."""
    out = []
    for p in points:
        out.append(np.asarray(p, dtype=float))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            out.append(p + e)
            out.append(p - e)
    return out


def _levi_civita(n: int) -> np.ndarray:
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


# -- Einstein chain -------------------------------------------------------------------


def einstein_check(chart: ChartModel, seed: int = 0, n_samples: int = 40,
                   tol: float = 1e-8, det_floor: float = 1e-8) -> EinsteinReport:
    """Does this connection have a nondegenerate parallel Ricci tensor?

    Acceptance requires max-norm of the covariant derivative of Ric at or
    below `tol` over the sample set and |det Ric| bounded away from zero.
    On acceptance the parallel fiber metric candidate and its residuals
    are filled in as well.
    """
    pts = sample_points(chart, seed=seed)[:n_samples]
    fields = point_fields(chart, pts)
    if not (np.isfinite(fields["Ric"]).all() and np.isfinite(fields["nablaRic"]).all()):
        return EinsteinReport(False, np.inf, None, np.nan,
                              reject_reason="Ricci or its covariant derivative not finite")

    worst = 0.0
    det_min = np.inf
    asym = 0.0
    sigs = set()
    for R, D in zip(fields["Ric"], fields["nablaRic"]):
        scale = 1.0 + max_abs(R)
        worst = max(worst, max_abs(D) / scale)
        det_min = min(det_min, abs(np.linalg.det(R)))
        asym = max(asym, max_abs(R - R.T) / scale)
        vals = np.linalg.eigvalsh(0.5 * (R + R.T))
        vscale = max(1.0, np.abs(vals).max())
        sigs.add((int(np.sum(vals > 1e-9 * vscale)), int(np.sum(vals < -1e-9 * vscale))))

    if worst > tol:
        return EinsteinReport(False, worst, None, det_min,
                              reject_reason="covariant derivative of Ricci above tolerance")
    if det_min < det_floor:
        return EinsteinReport(False, worst, None, det_min,
                              reject_reason="Ricci degenerate on samples")
    if len(sigs) != 1:
        return EinsteinReport(False, worst, None, det_min,
                              reject_reason="Ricci signature not constant on samples")
    sig = sigs.pop()
    report = EinsteinReport(True, worst, sig, det_min,
                            meta={"ric_asymmetry": asym, "n_samples": len(pts)})
    _attach_tractor_metric(chart, report, seed=seed)
    return report


def _metric_sampler(chart: ChartModel):
    """Points -> parallel fiber metric candidate sigma^-2 diag(-P, 1), at a
    point (n,) or at a batch of points (B, n) in one jet evaluation.

    The scale sigma = |det Ric|^(1/(2(n+1))) trivializes the line bundle by
    the volume form the connection itself preserves, so the candidate is
    parallel in any gauge of an Einstein connection.
    """
    n = chart.n

    def h_at(points):
        p = np.asarray(points, dtype=float)
        ric = point_fields(chart, p.reshape(-1, n))["Ric"]
        H = np.zeros((len(ric), n + 1, n + 1))
        for H_p, R in zip(H, ric):
            H_p[:n, :n] = -assemble_rho(R, n)
            H_p[n, n] = 1.0
            H_p /= abs(np.linalg.det(R)) ** (1.0 / (n + 1))
        return H.reshape(p.shape[:-1] + (n + 1, n + 1))

    return h_at


def _attach_tractor_metric(chart: ChartModel, report: EinsteinReport, seed: int = 0):
    n = chart.n
    h_at = _metric_sampler(chart)
    pts = sample_points(chart, seed=seed)[:20]
    fields = point_fields(chart, pts)
    blocks = np.zeros(3)
    for R, dR, M in zip(fields["Ric"], fields["dRic"], fields["M"]):
        P = assemble_rho(R, n)
        H0 = np.zeros((n + 1, n + 1))
        H0[:n, :n] = -P
        H0[n, n] = 1.0
        Rinv = np.linalg.inv(R)
        scale = 1.0 + max_abs(P)
        for i in range(n):
            dP = assemble_rho(dR[i], n)
            dH0 = np.zeros((n + 1, n + 1))
            dH0[:n, :n] = -dP
            u = np.trace(Rinv @ dR[i]) / (2 * (n + 1))
            E = dH0 - 2 * u * H0 - M[i].T @ H0 - H0 @ M[i]
            blocks[0] = max(blocks[0], max_abs(E[:n, :n]) / scale)
            blocks[1] = max(blocks[1], max(max_abs(E[:n, n]), max_abs(E[n, :n])) / scale)
            blocks[2] = max(blocks[2], abs(E[n, n]) / scale)

    base = chart.center()
    h_base = h_at(base)
    spread_pts = sample_points(chart, seed=seed + 1)[:20]
    values, info = spread_structure(chart, "bilinear", h_base, base, spread_pts,
                                    check_paths=10, seed=seed)
    transport_resid = 0.0
    for hv, local in zip(values, h_at(spread_pts)):
        transport_resid = max(transport_resid, max_abs(hv - local) / (1.0 + max_abs(local)))

    vals = np.linalg.eigvalsh(h_base)
    vscale = np.abs(vals).max()
    report.h = h_at
    report.parallel_residual = float(blocks.max())
    report.transport_residual = max(transport_resid, info["max_path_residual"])
    report.h_signature = (int(np.sum(vals > 1e-9 * vscale)), int(np.sum(vals < -1e-9 * vscale)))
    report.meta["identity_blocks"] = blocks.tolist()
    if chart.metric is not None:
        g = chart.evaluator(chart.metric)(base)
        R = point_fields(chart, base)["Ric"]
        lam = float(np.tensordot(R, g) / np.tensordot(g, g))
        gv = np.linalg.eigvalsh(g)
        p_, q_ = int(np.sum(gv > 0)), int(np.sum(gv < 0))
        expected = (p_ + 1, q_) if lam > 0 else (q_ + 1, p_)
        report.meta["einstein_coefficient_sign"] = 1 if lam > 0 else -1
        report.meta["signature_rule_expected"] = expected
        report.meta["signature_rule_holds"] = expected == report.h_signature


def einstein_to_tractor_metric(chart: ChartModel, seed: int = 0):
    """Parallel fiber metric of an accepted Einstein connection.

    Returns (sampler, report); raises ValueError when einstein_check
    rejects the chart.
    """
    report = einstein_check(chart, seed=seed)
    if not report.accepted:
        raise ValueError(f"not an Einstein connection: {report.reject_reason}")
    return report.h, report


def tractor_metric_to_einstein_verify(chart: ChartModel, alg: HolonomyAlgebra,
                                      h_at_base: np.ndarray, base_point=None,
                                      seed: int = 0, tol: float = 1e-6) -> dict:
    """Verify a supplied parallel-metric candidate against the connection.

    Verification only: h must be invariant under `alg`, the holonomy
    algebra at the base point in the chart's own splitting (estimated by
    the caller from loops or from the curvature tower).  It is then
    transported over the sample grid, the line direction is checked for
    degeneracy (up to a 20% sample budget), and where the chart itself
    passes einstein_check the transported values are compared with the
    constructed candidate up to one global scale.
    """
    n = chart.n
    base = _base_point(chart, base_point)
    h0 = np.asarray(h_at_base, dtype=float)
    inv_resid = _fiber_invariance(alg, h0, "bilinear")
    if inv_resid > tol:
        return {"accepted": False, "precondition_failed": True,
                "invariance_residual": inv_resid,
                "reason": "h not invariant under the holonomy algebra"}

    pts = sample_points(chart, seed=seed)[:40]
    values, info = spread_structure(chart, "bilinear", h0, base, pts,
                                    check_paths=10, seed=seed)
    hss = np.array([v[n, n] for v in values])
    scale = np.abs(hss).max()
    degenerate = int(np.sum(np.abs(hss) <= 1e-6 * max(scale, 1e-30)))
    frac = degenerate / len(pts)
    report = {
        "accepted": True,
        "precondition_failed": False,
        "invariance_residual": inv_resid,
        "degenerate_fraction": frac,
        "inconclusive": frac > 0.2,
        "path_residual": info["max_path_residual"],
        "line_metric_values": hss.tolist(),
    }
    if frac > 0.2:
        report["accepted"] = False
        report["reason"] = "line direction degenerate on more than 20% of samples"
        return report

    ein = einstein_check(chart, seed=seed)
    if ein.accepted:
        H0 = ein.h(base)
        c = float(np.tensordot(h0, H0) / np.tensordot(H0, H0))
        resid = 0.0
        for hv, h_p in zip(values, ein.h(pts)):
            local = c * h_p
            resid = max(resid, max_abs(hv - local) / (1.0 + max_abs(local)))
        report["consistency_residual"] = resid
        report["accepted"] = resid <= 1e-6
    else:
        report["consistency_residual"] = None
        report["consistency_note"] = "no Einstein gauge available on this chart"
    return report


# -- contact chain ---------------------------------------------------------------------


def contact_from_symplectic(chart: ChartModel, alg: HolonomyAlgebra,
                            omega_at_base: np.ndarray, base_point=None, seed: int = 0,
                            n_samples: int = 8, fd_step: float = 1e-4) -> ContactReport:
    """Contact data induced by a parallel fiber symplectic form.

    `alg` is the holonomy algebra at the base point in the chart's own
    splitting, estimated by the caller; omega must be invariant under it.
    The form is then moved to the volume-normalized gauge.  The
    distribution at each sample is the projection of the omega-orthogonal
    of the line direction; theta is contraction with the line direction,
    the Reeb field solves dtheta(R,.) = 0, theta(R) = 1, and dtheta is
    measured by central finite differences of the transported theta (the
    comparison with the transported omega is a genuine two-route check).
    The exterior derivative uses the alternation convention dtheta_ij =
    (d_i theta_j - d_j theta_i)/2, matching the bilinear normalization
    of omega.
    """
    n = chart.n
    if n % 2 == 0:
        return ContactReport(False, reject_reason="dimension must be odd for a contact reduction")
    omega0 = np.asarray(omega_at_base, dtype=float)
    if abs(np.linalg.det(omega0)) < 1e-10:
        return ContactReport(False, reject_reason="fiber form degenerate")
    base = _base_point(chart, base_point)
    inv = _fiber_invariance(alg, omega0, "bilinear")
    if inv > 1e-6:
        return ContactReport(False, reject_reason="fiber form not invariant under the holonomy algebra",
                             meta={"invariance_residual": inv})
    vol_chart, S, _ = _to_vol_gauge(chart, base)
    om_v = S.T @ omega0 @ S

    pts = [np.asarray(p, dtype=float) for p in sample_points(vol_chart, seed=seed)[:n_samples]]
    stencil = _stencil(pts, fd_step, n)
    values, info = spread_structure(vol_chart, "bilinear", om_v, base, stencil,
                                    check_paths=6, seed=seed)

    def theta_of(om):
        return om[n, :n].copy()

    eps_nd = _levi_civita(n)
    m = (n - 1) // 2
    report = ContactReport(True, path_residual=info["max_path_residual"],
                           meta={"invariance_residual": inv, "n_samples": len(pts)})
    worst = {"dth_om": 0.0, "dth_reeb": 0.0, "th_H": 0.0, "th_R": 0.0, "weyl": 0.0}
    vthetas = []
    weyl = point_fields(chart, np.array(pts))["W"]
    stride = 2 * n + 1
    for s_idx, p in enumerate(pts):
        om_p = values[s_idx * stride]
        theta = theta_of(om_p)
        dtheta = np.zeros((n, n))
        for i in range(n):
            th_plus = theta_of(values[s_idx * stride + 1 + 2 * i])
            th_minus = theta_of(values[s_idx * stride + 2 + 2 * i])
            dtheta[i, :] += (th_plus - th_minus) / (2 * fd_step)
        dtheta = 0.5 * (dtheta - dtheta.T)

        u, sv, vt = np.linalg.svd(theta[None, :])
        Hb = vt[1:]                      # rank n-1 basis of ker theta
        worst["th_H"] = max(worst["th_H"], float(np.abs(Hb @ theta).max()) /
                            (1.0 + np.abs(theta).max()))
        A = np.vstack([dtheta, theta[None, :]])
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        reeb, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        worst["th_R"] = max(worst["th_R"], abs(float(theta @ reeb) - 1.0))
        scale = 1.0 + max_abs(om_p)
        worst["dth_reeb"] = max(worst["dth_reeb"], float(np.abs(dtheta @ reeb).max()) / scale)
        for a in range(n - 1):
            for b in range(a + 1, n - 1):
                lhs = float(Hb[a] @ dtheta @ Hb[b])
                rhs_ab = float(Hb[a] @ om_p[:n, :n] @ Hb[b])
                worst["dth_om"] = max(worst["dth_om"], abs(lhs - rhs_ab) / scale)
        # v_theta = (dtheta)^m wedge theta, contracted against the epsilon tensor
        factors = [dtheta] * m + [theta]
        v = eps_nd
        for f in factors[::-1]:
            v = np.tensordot(v, f, axes=f.ndim)
        vthetas.append(float(v))
        W = weyl[s_idx]
        wscale = 1.0 + max_abs(W)
        worst["weyl"] = max(worst["weyl"], float(np.abs(
            np.einsum("k,hjkl->hjl", theta, W)).max()) / wscale)

        report.H_basis.append(Hb)
        report.theta.append(theta)
        report.reeb.append(reeb)

    vth = np.abs(vthetas)
    report.dtheta_vs_omega = worst["dth_om"]
    report.dtheta_reeb = worst["dth_reeb"]
    report.theta_H_residual = worst["th_H"]
    report.theta_R_residual = worst["th_R"]
    report.weyl_in_H = worst["weyl"]
    report.vtheta_min = float(vth.min())
    report.vtheta_max = float(vth.max())
    report.accepted = (worst["dth_om"] <= 1e-6 and worst["dth_reeb"] <= 1e-6
                       and worst["weyl"] <= 1e-7 and vth.min() > 0.0
                       and report.path_residual <= 1e-6)
    if not report.accepted:
        report.reject_reason = "contact residuals above tolerance"
    return report


# -- complex chain -----------------------------------------------------------------------


def complex_reduction(chart: ChartModel, alg: HolonomyAlgebra, J_at_base: np.ndarray,
                      base_point=None, seed: int = 0, n_samples: int = 6,
                      fd_step: float = 1e-4) -> ComplexReport:
    """Transverse field and annihilator complex structure from a fiber J.

    `alg` is the holonomy algebra at the base point in the chart's own
    splitting, estimated by the caller; J must commute with it.  J is then
    moved to the volume-normalized gauge.  R is the projection of J applied
    to the line direction; H is the rank n-1 annihilator of R in the
    cotangent fiber, and J_H the restriction of the dual action of J.  Lie
    invariance along R is measured by first-order finite differencing of
    the smooth R-transverse operator, so its accuracy is capped by the
    step size.
    """
    n = chart.n
    if n % 2 == 0:
        return ComplexReport(False, reject_reason="dimension must be odd for a complex reduction")
    J0 = np.asarray(J_at_base, dtype=float)
    sq = max_abs(J0 @ J0 + np.eye(n + 1))
    if sq > 1e-7:
        return ComplexReport(False, reject_reason="fiber map does not square to minus identity",
                             meta={"square_defect": sq})
    base = _base_point(chart, base_point)
    inv = _fiber_invariance(alg, J0, "endo")
    if inv > 1e-6:
        return ComplexReport(False, reject_reason="fiber map not invariant under the holonomy algebra",
                             meta={"invariance_residual": inv})
    vol_chart, S, Si = _to_vol_gauge(chart, base)
    J_v = Si @ J0 @ S

    pts = [np.asarray(p, dtype=float) for p in sample_points(vol_chart, seed=seed)[:n_samples]]
    stencil = _stencil(pts, fd_step, n)
    values, info = spread_structure(vol_chart, "endo", J_v, base, stencil,
                                    check_paths=6, seed=seed)

    def r_of(J):
        return J[:n, n].copy()

    def transverse_op(J):
        R = r_of(J)
        nrm2 = float(R @ R)
        Q = np.eye(n) - np.outer(R, R) / nrm2
        # dual action on covectors, expressed as a T -> T matrix
        return (Q @ J[:n, :n].T).T, R, Q

    report = ComplexReport(True, path_residual=info["max_path_residual"],
                           meta={"invariance_residual": inv, "n_samples": len(pts)})
    worst = {"sq": 0.0, "span": 0.0, "lie": 0.0}
    stride = 2 * n + 1
    for s_idx, p in enumerate(pts):
        Jp = values[s_idx * stride]
        R = r_of(Jp)
        jscale = 1.0 + max_abs(Jp)
        if np.linalg.norm(R) <= 1e-6 * jscale:
            report.degenerate_points.append(p)
            continue
        u, sv, vt = np.linalg.svd(R[None, :])
        Hb = vt[1:]                          # covector basis annihilating R
        images = Hb @ Jp[:n, :n]             # dual action of J on each eta
        coords, res, *_ = np.linalg.lstsq(Hb.T, images.T, rcond=None)
        JH = coords
        recon = JH.T @ Hb
        worst["span"] = max(worst["span"], max_abs(images - recon) / jscale)
        worst["sq"] = max(worst["sq"], max_abs(JH @ JH + np.eye(n - 1)))

        # Lie derivative of the smooth transverse operator along R, by
        # central differences of both the operator and the R field
        D0, R0, _ = transverse_op(Jp)
        dD = np.zeros((n, n, n))
        dR = np.zeros((n, n))
        for i in range(n):
            Dp_, Rp_, _ = transverse_op(values[s_idx * stride + 1 + 2 * i])
            Dm_, Rm_, _ = transverse_op(values[s_idx * stride + 2 + 2 * i])
            dD[i] = (Dp_ - Dm_) / (2 * fd_step)
            dR[i] = (Rp_ - Rm_) / (2 * fd_step)
        lie = np.einsum("k,kij->ij", R0, dD) \
            - np.einsum("ki,kj->ij", dR, D0) + np.einsum("ik,jk->ij", D0, dR)
        Q = np.eye(n) - np.outer(R0, R0) / float(R0 @ R0)
        lie_t = Q @ lie @ Q
        worst["lie"] = max(worst["lie"], max_abs(lie_t) / jscale)

        report.R_field.append(R)
        report.H_basis.append(Hb)
        report.J_H.append(JH)

    report.square_residual = worst["sq"]
    report.in_span_residual = worst["span"]
    report.lie_invariance_residual = worst["lie"]
    frac = len(report.degenerate_points) / max(len(pts), 1)
    report.meta["degenerate_fraction"] = frac
    report.accepted = (worst["sq"] <= 1e-7 and worst["span"] <= 1e-7
                       and worst["lie"] <= 1e-4 and frac <= 0.2
                       and report.path_residual <= 1e-6)
    if not report.accepted:
        report.reject_reason = "complex reduction residuals above tolerance"
    return report


# -- foliation chain ---------------------------------------------------------------------


def foliation_analysis(chart: ChartModel, alg: HolonomyAlgebra, K_at_base: np.ndarray,
                       base_point=None, seed: int = 0, n_samples: int = 6,
                       fd_step: float = 1e-4) -> FoliationReport:
    """Foliation data induced by an invariant subspace of the fiber.

    `alg` is the holonomy algebra at the base point in the chart's own
    splitting, estimated by the caller; the subspace must be invariant
    under it.  The subspace is spread by transport; at each sample the splitting is
    adapted by the least-norm one-form solving Upsilon(Y_a) = c_a, making
    the subspace horizontal.  Integrability and geodesy of the projected
    distribution are checked directly (they do not depend on the gauge),
    while the rho and Ricci restrictions are evaluated for the adapted
    connection through the transformation law, with finite differences
    supplying the derivative of the adapted one-form.

    Along one ray from the base the transported frame is parallel by
    construction, so no check along a single ray can see a subspace that is
    not parallel.  `preserve_K_residual` is the one that does: it compares
    transports along neighbouring rays (the stencil) and measures how far
    the adapted covariant derivative of the frame leaves its span.
    """
    n = chart.n
    base = _base_point(chart, base_point)
    B0 = np.asarray(K_at_base, dtype=float)
    if B0.ndim != 2 or B0.shape[0] != n + 1 or not 1 <= B0.shape[1] <= n:
        raise ValueError("subspace basis must be (n+1) x k with 1 <= k <= n")
    k = B0.shape[1]
    inv = _fiber_invariance(alg, B0, "subspace")
    if inv > 1e-6:
        return FoliationReport(False, reject_reason="subspace not invariant under the holonomy algebra",
                               meta={"invariance_residual": inv})

    pts = [np.asarray(p, dtype=float) for p in sample_points(chart, seed=seed)[:n_samples]]
    stencil = _stencil(pts, fd_step, n)
    results = transport_operators(chart, [Curve.segment(base, q) for q in stencil])
    ops = [T for T, _, _ in results]

    fields = point_fields(chart, np.array(pts))

    def frame_and_ups(T):
        B = T @ B0
        Y = B[:n, :]
        c = B[n, :]
        sv = np.linalg.svd(Y, compute_uv=False)
        degenerate = sv[-1] <= 1e-8 * max(sv[0], 1e-30)
        upsv = np.linalg.pinv(Y.T) @ c if not degenerate else np.zeros(n)
        return Y, c, upsv, degenerate

    report = FoliationReport(True, meta={"invariance_residual": inv, "k": k,
                                         "n_samples": len(pts)})
    # every residual is fed by the stencil; a transport that did not converge fails them
    start = 0.0 if all(ok for _, _, ok in results) else np.inf
    worst = dict.fromkeys(("integ", "geod", "pres", "rho", "ric", "adapt", "omega",
                           "omega_corr", "omK"), start)
    n_line = 0
    stride = 2 * n + 1
    omegas = []
    for s_idx in range(len(pts)):
        Y, c, upsv, degenerate = frame_and_ups(ops[s_idx * stride])
        if degenerate:
            n_line += 1
            continue
        worst["adapt"] = max(worst["adapt"], float(np.abs(c - Y.T @ upsv).max()) /
                             (1.0 + np.abs(c).max()))
        dY = np.zeros((n, n, k))
        dU = np.zeros((n, n))
        for i in range(n):
            Yp_, _, up_, d1 = frame_and_ups(ops[s_idx * stride + 1 + 2 * i])
            Ym_, _, um_, d2 = frame_and_ups(ops[s_idx * stride + 2 + 2 * i])
            if d1 or d2:
                n_line += 1
                break
            dY[i] = (Yp_ - Ym_) / (2 * fd_step)
            dU[i] = (up_ - um_) / (2 * fd_step)
        else:
            G = fields["gamma"][s_idx]
            P = fields["P"][s_idx]
            Yp = np.linalg.pinv(Y)
            off = np.eye(n) - Y @ Yp
            yscale = 1.0 + max_abs(Y)

            for a in range(k):
                for b in range(k):
                    if a < b:
                        brk = np.einsum("i,ik->k", Y[:, a], dY[:, :, b]) \
                            - np.einsum("i,ik->k", Y[:, b], dY[:, :, a])
                        worst["integ"] = max(worst["integ"],
                                             float(np.abs(off @ brk).max()) / yscale)
                    cov = np.einsum("i,ik->k", Y[:, a], dY[:, :, b]) \
                        + np.einsum("i,kij,j->k", Y[:, a], G, Y[:, b])
                    worst["geod"] = max(worst["geod"],
                                        float(np.abs(off @ cov).max()) / yscale)

            # adapted-gauge checks
            nabla_u = dU - np.einsum("mij,m->ij", G, upsv)
            P_ad = P + nabla_u - np.outer(upsv, upsv)
            worst["rho"] = max(worst["rho"],
                               float(np.abs(P_ad @ Y).max()) / (1.0 + max_abs(P_ad)))
            ric_ad = ricci_from_rho(P_ad)
            worst["ric"] = max(worst["ric"],
                               float(np.abs(Y.T @ ric_ad @ Y).max()) / (1.0 + max_abs(ric_ad)))

            omega_i = np.zeros(n)
            for i in range(n):
                nb = dY[i] + np.einsum("kj,ja->ka", G[:, i, :], Y) \
                    + upsv[i] * Y + np.outer(np.eye(n)[i], upsv @ Y)
                worst["pres"] = max(worst["pres"], float(np.abs(off @ nb).max()) / yscale)
                omega_i[i] = np.trace(Yp @ nb)
            worst["omK"] = max(worst["omK"], float(np.abs(omega_i @ Y).max()) /
                               (1.0 + np.abs(omega_i).max()))
            ups2 = -omega_i / k
            corr = omega_i + k * ups2 + (ups2 @ Y) @ Yp
            worst["omega"] = max(worst["omega"], float(np.abs(omega_i).max()))
            worst["omega_corr"] = max(worst["omega_corr"], float(np.abs(corr).max()))
            omegas.append(omega_i)
            report.K_basis.append(Y)
            continue

    frac = n_line / max(len(pts), 1)
    report.line_intersection_fraction = frac
    if frac > 0.2:
        report.inconclusive = True
        report.accepted = False
        report.reject_reason = "line bundle meets the subspace on more than 20% of samples"
        return report

    report.integrability_residual = worst["integ"]
    report.geodesy_residual = worst["geod"]
    report.preserve_K_residual = worst["pres"]
    report.rho_residual = worst["rho"]
    report.ricci_on_K = worst["ric"]
    report.covolume_residual = worst["omega_corr"]
    report.meta["adaptation_residual"] = worst["adapt"]
    report.meta["covolume_trace_max"] = worst["omega"]
    report.meta["covolume_trace_on_K"] = worst["omK"]
    if worst["omega"] <= 1e-6:
        report.covolume_status = "preserved"
    elif worst["omega_corr"] <= 1e-6:
        report.covolume_status = "preserved after the trace correction"
    else:
        report.covolume_status = "not preserved"

    report.accepted = (worst["integ"] <= 1e-6 and worst["geod"] <= 1e-6
                       and worst["pres"] <= 1e-6 and worst["rho"] <= 1e-7
                       and worst["ric"] <= 1e-7
                       and report.covolume_status != "not preserved")
    if not report.accepted:
        report.reject_reason = "foliation residuals above tolerance"
    return report


# -- decomposition of reducible holonomy -------------------------------------------------


def holonomy_decomposition_check(chart: ChartModel, alg: HolonomyAlgebra,
                                 seed: int = 0, tol: float = 1e-7) -> dict:
    """Block pattern of a holonomy algebra with an invariant rank-n subspace.

    Reports the worst bottom-row (T*-part) entry, containment of the
    gl-blocks in the affine curvature span of the base connection, and
    whether the tangent-column part is zero (cone case) or full.  The
    decomposition statement itself is only asserted when the induced
    action is irreducible.
    """
    n = chart.n
    gens = list(alg.basis)
    t_star = max((float(np.abs(A[n, :n]).max()) for A in gens), default=0.0)

    pts = sample_points(chart, seed=seed)[:12]
    affine_mats = []
    for R in point_fields(chart, pts)["R"]:
        for h in range(n):
            for j in range(h + 1, n):
                affine_mats.append(R[h, j])
    affine_basis, closed, rounds, bres = bracket_closure(affine_mats, n, tol)
    gl_blocks = [A[:n, :n] for A in gens]
    containment = _containment_residual(gl_blocks, affine_basis)

    col_stack = np.array([A[:n, n] for A in gens]) if gens else np.zeros((0, n))
    if col_stack.size:
        svc = np.linalg.svd(col_stack, compute_uv=False)
        col_rank = int(np.sum(svc > 1e-7 * max(svc[0], 1e-30))) if svc[0] > 1e-10 else 0
    else:
        col_rank = 0
    if col_rank == 0:
        column_state = "zero (cone case)"
    elif col_rank == n:
        column_state = "full"
    else:
        column_state = f"partial (rank {col_rank})"

    if gl_blocks and max(max_abs(g) for g in gl_blocks) > 1e-10:
        gl_alg = algebra_from_generators(gl_blocks, fiber_dim=n)
        irreducible = invariant_subspaces(gl_alg) == [] and gl_alg.rank > 0
    else:
        irreducible = False
    if t_star > 1e-9:
        decomposition = None
        note = "tangent-row part does not vanish; no invariant rank-n subspace"
    elif irreducible:
        decomposition = "affine holonomy + full tangent block" if col_rank == n \
            else "affine holonomy only"
        note = None
    else:
        decomposition = None
        note = "induced action not established irreducible; decomposition claim skipped"
    return {
        "t_star_row_max": t_star,
        "affine_containment_residual": containment,
        "affine_span_rank": int(affine_basis.shape[0]),
        "tangent_column_state": column_state,
        "tangent_column_rank": col_rank,
        "irreducible": irreducible,
        "decomposition": decomposition,
        "note": note,
    }
