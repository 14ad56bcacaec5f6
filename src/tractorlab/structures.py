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
and spread to sample points by tractor transport on the chart itself.  A
change of representative by Upsilon changes only the splitting, by S =
`splitting_matrix(Upsilon)` = [[I, 0], [Upsilon, 1]] (Bailey, Eastwood &
Gover 1994); the contact and complex chains read only what S leaves
unchanged, so they need no volume-normalized chart.  The chains that test
fiber data for invariance take the holonomy algebra at that base point,
in the same splitting, as an argument: the caller estimates it once (the
`detect` command passes its `loop_algebra` result; a direct caller can pass
the infinitesimal estimate from `holonomy`) and every chain reuses it.
Where a check needs derivatives of transported data (exterior derivatives,
Lie derivatives, the adapted one-form), central finite differences are used
so the check stays independent of the symbolic route.  The contact, complex
and foliation chains take them on one route, `_spread_stencil`, which spreads
the fiber object to each sample p and to p ± _FD_STEP·e_i in one batch.
Sample counts (`_*_SAMPLES`), the step and the bounds (`_NABLA_RIC_TOL`,
`_DET_RIC_FLOOR`, `_INVARIANCE_TOL`, `_CLOSURE_TOL`) are module constants.
A report carries only what its verdict, `detect`, a demo or a test reads,
and nothing else is computed; only the Einstein report has a `meta`: the
sign of the Einstein coefficient and whether the signature rule holds, for
a chart that declares a metric.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .affine import ChartModel, max_abs, sample_points
from .holonomy import HolonomyAlgebra, algebra_from_generators, bracket_closure, \
    invariant_subspaces, _containment_residual, _fiber_invariance, _signature, _worse
from .projective import assemble_rho, point_fields, ricci_from_rho
from .tractor import spread_structure

__all__ = [
    "EinsteinReport",
    "ContactReport",
    "ComplexReport",
    "FoliationReport",
    "einstein_check",
    "tractor_metric_to_einstein_verify",
    "contact_from_symplectic",
    "complex_reduction",
    "foliation_analysis",
    "holonomy_decomposition_check",
]

_FD_STEP = 1e-4              # central-difference step of the stencil chains
_CONTACT_SAMPLES = 8
_COMPLEX_SAMPLES = 6
_FOLIATION_SAMPLES = 6
_EINSTEIN_SAMPLES = 40
_NABLA_RIC_TOL = 1e-8        # bound on |nabla Ric| / (1 + |Ric|) for an Einstein connection
_DET_RIC_FLOOR = 1e-8        # |det Ric| below this on a sample is degenerate
_INVARIANCE_TOL = 1e-6       # bound on the fiber invariance residual of supplied data
_CLOSURE_TOL = 1e-7          # span and closure tolerance of the affine curvature algebra


# -- reports ---------------------------------------------------------------------


@dataclass
class EinsteinReport:
    accepted: bool
    nabla_ric_norm: float
    ric_signature: tuple | None
    h: object = None                   # point -> (n+1, n+1) sampler when accepted
    parallel_residual: float | None = None   # worst of the three identity blocks
    transport_residual: float | None = None
    h_signature: tuple | None = None
    reject_reason: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class ContactReport:
    accepted: bool
    theta: list = field(default_factory=list)
    reeb: list = field(default_factory=list)
    dtheta_vs_omega: float | None = None
    dtheta_reeb: float | None = None
    vtheta_min: float | None = None
    vtheta_max: float | None = None
    weyl_in_H: float | None = None
    theta_R_residual: float | None = None
    path_residual: float | None = None
    reject_reason: str | None = None


@dataclass
class ComplexReport:
    accepted: bool
    R_field: list = field(default_factory=list)
    J_H: list = field(default_factory=list)
    lie_invariance_residual: float | None = None
    square_residual: float | None = None
    in_span_residual: float | None = None
    degenerate_points: list = field(default_factory=list)
    path_residual: float | None = None
    reject_reason: str | None = None


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


# -- shared helpers -----------------------------------------------------------------


def _base_point(chart: ChartModel, base_point):
    if base_point is None:
        return chart.center()
    return np.asarray(base_point, dtype=float)


def _spread_stencil(chart: ChartModel, kind: str, value, base, pts, check_paths: int,
                    seed: int):
    """Spread `value` to each sample p and to p ± h·e_i, h = _FD_STEP, in one batch.

    Returns (at, plus, minus, info): the values at the samples (S, ...), at
    p + h·e_i (S, n, ...) and at p - h·e_i (S, n, ...), and the path report.
    The batch lists p, p + h·e_0, p - h·e_0, p + h·e_1, ... per sample;
    `check_paths` draws its targets by index from that order.
    """
    n = chart.n
    p = np.asarray(pts, dtype=float)
    e = _FD_STEP * np.eye(n)
    nbrs = np.stack([p[:, None] + e, p[:, None] - e], axis=2)      # (S, n, 2, n)
    stencil = np.concatenate([p[:, None], nbrs.reshape(len(p), 2 * n, n)], axis=1)
    values, info = spread_structure(chart, kind, value, base, stencil.reshape(-1, n),
                                    check_paths=check_paths, seed=seed)
    values = values.reshape((len(p), 2 * n + 1) + values.shape[1:])
    nbr_values = values[:, 1:].reshape((len(p), n, 2) + values.shape[2:])
    return values[:, 0], nbr_values[:, :, 0], nbr_values[:, :, 1], info


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


def einstein_check(chart: ChartModel, seed: int = 0) -> EinsteinReport:
    """Does this connection have a nondegenerate parallel Ricci tensor?

    Acceptance requires max-norm of the covariant derivative of Ric at or
    below `_NABLA_RIC_TOL` over the sample set and |det Ric| at or above
    `_DET_RIC_FLOOR`.  On acceptance the parallel fiber metric candidate and
    its residuals are filled in as well.
    """
    pts = sample_points(chart, seed=seed)[:_EINSTEIN_SAMPLES]
    fields = point_fields(chart, pts)
    if not (np.isfinite(fields["Ric"]).all() and np.isfinite(fields["nablaRic"]).all()):
        return EinsteinReport(False, np.inf, None,
                              reject_reason="Ricci or its covariant derivative not finite")

    worst = 0.0
    det_min = np.inf
    sigs = set()
    for R, D in zip(fields["Ric"], fields["nablaRic"]):
        worst = _worse(worst, max_abs(D) / (1.0 + max_abs(R)))
        det_min = min(det_min, abs(np.linalg.det(R)))
        sigs.add(_signature(R)[:2])

    if worst > _NABLA_RIC_TOL:
        return EinsteinReport(False, worst, None,
                              reject_reason="covariant derivative of Ricci above tolerance")
    if det_min < _DET_RIC_FLOOR:
        return EinsteinReport(False, worst, None,
                              reject_reason="Ricci degenerate on samples")
    if len(sigs) != 1:
        return EinsteinReport(False, worst, None,
                              reject_reason="Ricci signature not constant on samples")
    sig = sigs.pop()
    report = EinsteinReport(True, worst, sig)
    _attach_tractor_metric(chart, report, fields, seed)
    return report


def _attach_tractor_metric(chart: ChartModel, report: EinsteinReport, fields: dict, seed: int):
    """Fill in the parallel fiber metric candidate of an accepted report: its
    identity blocks at the first 20 samples of `fields`, and its transport."""
    n = chart.n

    def h_at(points):
        """Points -> parallel fiber metric candidate sigma^-2 diag(-P, 1), at a
        point (n,) or at a batch of points (B, n) in one jet evaluation.

        The scale sigma = |det Ric|^(1/(2(n+1))) trivializes the line bundle by
        the volume form the connection itself preserves, so the candidate is
        parallel in any gauge of an Einstein connection.
        """
        p = np.asarray(points, dtype=float)
        ric = point_fields(chart, p.reshape(-1, n))["Ric"]
        H = np.zeros((len(ric), n + 1, n + 1))
        for H_p, R in zip(H, ric):
            H_p[:n, :n] = -assemble_rho(R, n)
            H_p[n, n] = 1.0
            H_p /= abs(np.linalg.det(R)) ** (1.0 / (n + 1))
        return H.reshape(p.shape[:-1] + (n + 1, n + 1))

    blocks = np.zeros(3)
    for R, dR, M in list(zip(fields["Ric"], fields["dRic"], fields["M"]))[:20]:
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
            blocks[0] = _worse(blocks[0], max_abs(E[:n, :n]) / scale)
            blocks[1] = _worse(blocks[1], max_abs((E[:n, n], E[n, :n])) / scale)
            blocks[2] = _worse(blocks[2], abs(E[n, n]) / scale)

    base = chart.center()
    h_base = h_at(base)
    spread_pts = sample_points(chart, seed=seed + 1)[:20]
    values, info = spread_structure(chart, "bilinear", h_base, base, spread_pts,
                                    check_paths=10, seed=seed)
    transport_resid = 0.0
    for hv, local in zip(values, h_at(spread_pts)):
        transport_resid = _worse(transport_resid, max_abs(hv - local) / (1.0 + max_abs(local)))

    vals = np.linalg.eigvalsh(h_base)
    vscale = np.abs(vals).max()
    report.h = h_at
    report.parallel_residual = float(blocks.max())
    report.transport_residual = _worse(transport_resid, info["max_path_residual"])
    report.h_signature = (int(np.sum(vals > 1e-9 * vscale)), int(np.sum(vals < -1e-9 * vscale)))
    if chart.metric is not None:
        g = chart.evaluator(chart.metric)(base)
        R = point_fields(chart, base)["Ric"]
        lam = float(np.tensordot(R, g) / np.tensordot(g, g))
        gv = np.linalg.eigvalsh(g)
        p_, q_ = int(np.sum(gv > 0)), int(np.sum(gv < 0))
        expected = (p_ + 1, q_) if lam > 0 else (q_ + 1, p_)
        report.meta["einstein_coefficient_sign"] = 1 if lam > 0 else -1
        report.meta["signature_rule_holds"] = expected == report.h_signature


def tractor_metric_to_einstein_verify(chart: ChartModel, alg: HolonomyAlgebra,
                                      ein: EinsteinReport, h_at_base: np.ndarray,
                                      base_point=None, seed: int = 0) -> dict:
    """Verify a supplied parallel-metric candidate against the connection.

    Verification only: h must be invariant under `alg`, the holonomy
    algebra at the base point in the chart's own splitting (estimated by
    the caller from loops or from the curvature tower).  It is then
    transported over the sample grid, the line direction is checked for
    degeneracy (up to a 20% sample budget), and where the chart itself
    passes the Einstein check -- `ein`, the caller's `einstein_check` report
    for the chart and seed -- the transported values are compared with the
    constructed candidate up to one global scale.
    """
    n = chart.n
    base = _base_point(chart, base_point)
    h0 = np.asarray(h_at_base, dtype=float)
    inv_resid = _fiber_invariance(alg, h0, "bilinear")
    if inv_resid > _INVARIANCE_TOL:
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

    if ein.accepted:
        H0 = ein.h(base)
        c = float(np.tensordot(h0, H0) / np.tensordot(H0, H0))
        resid = 0.0
        for hv, h_p in zip(values, ein.h(pts)):
            local = c * h_p
            resid = _worse(resid, max_abs(hv - local) / (1.0 + max_abs(local)))
        report["consistency_residual"] = resid
        report["accepted"] = resid <= 1e-6
    else:
        report["consistency_residual"] = None
        report["consistency_note"] = "no Einstein gauge available on this chart"
    return report


# -- contact chain ---------------------------------------------------------------------


def contact_from_symplectic(chart: ChartModel, alg: HolonomyAlgebra,
                            omega_at_base: np.ndarray, base_point=None,
                            seed: int = 0) -> ContactReport:
    """Contact data induced by a parallel fiber symplectic form.

    `alg` is the holonomy algebra at the base point in the chart's own
    splitting, estimated by the caller; omega must be invariant under it.
    The distribution at each sample is the projection of the
    omega-orthogonal of the line direction; theta is contraction with the
    line direction, the Reeb field solves dtheta(R,.) = 0, theta(R) = 1,
    and dtheta is measured by central finite differences of the transported
    theta (the comparison with the transported omega is a genuine two-route
    check).  The exterior derivative uses the alternation convention
    dtheta_ij = (d_i theta_j - d_j theta_i)/2, matching the bilinear
    normalization of omega.  A change of representative takes omega to
    S^T omega S, which keeps the bottom row theta (omega_nn = 0) and changes
    the top block by Upsilon x theta - theta x Upsilon, zero on ker theta:
    theta, dtheta on H, the Reeb field, v_theta and weyl_in_H are the same
    in any gauge.  Only the `1 + max_abs(omega)` scales read the full matrix.
    """
    n = chart.n
    if n % 2 == 0:
        return ContactReport(False, reject_reason="dimension must be odd for a contact reduction")
    omega0 = np.asarray(omega_at_base, dtype=float)
    if abs(np.linalg.det(omega0)) < 1e-10:
        return ContactReport(False, reject_reason="fiber form degenerate")
    base = _base_point(chart, base_point)
    inv = _fiber_invariance(alg, omega0, "bilinear")
    if inv > _INVARIANCE_TOL:
        return ContactReport(False, reject_reason="fiber form not invariant under the holonomy algebra")
    pts = sample_points(chart, seed=seed)[:_CONTACT_SAMPLES]
    at, plus, minus, info = _spread_stencil(chart, "bilinear", omega0, base, pts, 6, seed)

    eps_nd = _levi_civita(n)
    m = (n - 1) // 2
    report = ContactReport(True, path_residual=info["max_path_residual"])
    worst = {"dth_om": 0.0, "dth_reeb": 0.0, "th_R": 0.0, "weyl": 0.0}
    vthetas = []
    weyl = point_fields(chart, pts)["W"]
    # theta is row n of omega, and grads[s, i] is d_i theta; + 0.0 turns a -0.0
    # difference into 0.0, so a zero of dtheta or of the Reeb field never reads -0.0
    grads = (plus[:, :, n, :n] - minus[:, :, n, :n]) / (2 * _FD_STEP) + 0.0
    for om_p, grad, W in zip(at, grads, weyl):
        theta = om_p[n, :n]
        dtheta = 0.5 * (grad - grad.T)

        u, sv, vt = np.linalg.svd(theta[None, :])
        Hb = vt[1:]                      # rank n-1 basis of ker theta
        A = np.vstack([dtheta, theta[None, :]])
        rhs = np.zeros(n + 1)
        rhs[n] = 1.0
        reeb, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        worst["th_R"] = _worse(worst["th_R"], abs(float(theta @ reeb) - 1.0))
        scale = 1.0 + max_abs(om_p)
        worst["dth_reeb"] = _worse(worst["dth_reeb"], float(np.abs(dtheta @ reeb).max()) / scale)
        for a in range(n - 1):
            for b in range(a + 1, n - 1):
                lhs = float(Hb[a] @ dtheta @ Hb[b])
                rhs_ab = float(Hb[a] @ om_p[:n, :n] @ Hb[b])
                worst["dth_om"] = _worse(worst["dth_om"], abs(lhs - rhs_ab) / scale)
        # v_theta = (dtheta)^m wedge theta, contracted against the epsilon tensor
        factors = [dtheta] * m + [theta]
        v = eps_nd
        for f in factors[::-1]:
            v = np.tensordot(v, f, axes=f.ndim)
        vthetas.append(float(v))
        wscale = 1.0 + max_abs(W)
        worst["weyl"] = _worse(worst["weyl"], float(np.abs(
            np.einsum("k,hjkl->hjl", theta, W)).max()) / wscale)

        report.theta.append(theta)
        report.reeb.append(reeb)

    vth = np.abs(vthetas)
    report.dtheta_vs_omega = worst["dth_om"]
    report.dtheta_reeb = worst["dth_reeb"]
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
                      base_point=None, seed: int = 0) -> ComplexReport:
    """Transverse field and annihilator complex structure from a fiber J.

    `alg` is the holonomy algebra at the base point in the chart's own
    splitting, estimated by the caller; J must commute with it.  R is the
    projection of J applied to the line direction; H is the rank n-1
    annihilator of R in the cotangent fiber, and J_H the restriction of the
    dual action of J.  Lie invariance along R is measured by first-order
    finite differencing of the smooth R-transverse operator, so its
    accuracy is capped by the step size.  A change of representative takes
    J to S^-1 J S, which keeps R, the top of J's last column, and changes
    the top block by R x Upsilon, which the annihilator of R kills: J_H and
    the square and span residuals are the same in any gauge.  The Lie
    residual changes by a term with R on the left, which Q removes up to
    the O(h^2) error of the central differences.  Only the `1 + max_abs(J)`
    scales read the full matrix.
    """
    n = chart.n
    if n % 2 == 0:
        return ComplexReport(False, reject_reason="dimension must be odd for a complex reduction")
    J0 = np.asarray(J_at_base, dtype=float)
    sq = max_abs(J0 @ J0 + np.eye(n + 1))
    if sq > 1e-7:
        return ComplexReport(False, reject_reason="fiber map does not square to minus identity")
    base = _base_point(chart, base_point)
    inv = _fiber_invariance(alg, J0, "endo")
    if inv > _INVARIANCE_TOL:
        return ComplexReport(False, reject_reason="fiber map not invariant under the holonomy algebra")
    pts = sample_points(chart, seed=seed)[:_COMPLEX_SAMPLES]
    at, plus, minus, info = _spread_stencil(chart, "endo", J0, base, pts, 6, seed)

    def transverse_op(J):
        R = J[:n, n].copy()
        nrm2 = float(R @ R)
        Q = np.eye(n) - np.outer(R, R) / nrm2
        # dual action on covectors, expressed as a T -> T matrix
        return (Q @ J[:n, :n].T).T, Q

    report = ComplexReport(True, path_residual=info["max_path_residual"])
    worst = {"sq": 0.0, "span": 0.0, "lie": 0.0}
    for p, Jp, J_plus, J_minus in zip(pts, at, plus, minus):
        R = Jp[:n, n].copy()
        jscale = 1.0 + max_abs(Jp)
        if np.linalg.norm(R) <= 1e-6 * jscale:
            report.degenerate_points.append(p)
            continue
        u, sv, vt = np.linalg.svd(R[None, :])
        Hb = vt[1:]                          # covector basis annihilating R
        images = Hb @ Jp[:n, :n]             # dual action of J on each eta
        JH, *_ = np.linalg.lstsq(Hb.T, images.T, rcond=None)
        recon = JH.T @ Hb
        worst["span"] = _worse(worst["span"], max_abs(images - recon) / jscale)
        worst["sq"] = _worse(worst["sq"], max_abs(JH @ JH + np.eye(n - 1)))

        # Lie derivative of the smooth transverse operator along R, by
        # central differences of both the operator and the R field
        D0, Q = transverse_op(Jp)
        dD = np.array([transverse_op(a)[0] - transverse_op(b)[0]
                       for a, b in zip(J_plus, J_minus)]) / (2 * _FD_STEP)
        dR = (J_plus[:, :n, n] - J_minus[:, :n, n]) / (2 * _FD_STEP)
        lie = np.einsum("k,kij->ij", R, dD) \
            - np.einsum("ki,kj->ij", dR, D0) + np.einsum("ik,jk->ij", D0, dR)
        lie_t = Q @ lie @ Q
        worst["lie"] = _worse(worst["lie"], max_abs(lie_t) / jscale)

        report.R_field.append(R)
        report.J_H.append(JH)

    report.square_residual = worst["sq"]
    report.in_span_residual = worst["span"]
    report.lie_invariance_residual = worst["lie"]
    frac = len(report.degenerate_points) / max(len(pts), 1)
    report.accepted = (worst["sq"] <= 1e-7 and worst["span"] <= 1e-7
                       and worst["lie"] <= 1e-4 and frac <= 0.2
                       and report.path_residual <= 1e-6)
    if not report.accepted:
        report.reject_reason = "complex reduction residuals above tolerance"
    return report


# -- foliation chain ---------------------------------------------------------------------


def foliation_analysis(chart: ChartModel, alg: HolonomyAlgebra, K_at_base: np.ndarray,
                       base_point=None, seed: int = 0) -> FoliationReport:
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
    if inv > _INVARIANCE_TOL:
        return FoliationReport(False, reject_reason="subspace not invariant under the holonomy algebra")

    pts = sample_points(chart, seed=seed)[:_FOLIATION_SAMPLES]
    at, plus, minus, info = _spread_stencil(chart, "vector", B0, base, pts, 0, seed)
    fields = point_fields(chart, pts)

    def ups_of(B):
        """Least-norm one-form with Upsilon(Y_a) = c_a for the frame Y = B[:n]
        and c = B[n]; None where Y is degenerate (the line meets the subspace)."""
        sv = np.linalg.svd(B[:n], compute_uv=False)
        return None if sv[-1] <= 1e-8 * max(sv[0], 1e-30) else np.linalg.pinv(B[:n].T) @ B[n]

    report = FoliationReport(True)
    # every residual is fed by the stencil; a transport that did not converge
    # fails them (the path residual is then inf)
    worst = dict.fromkeys(("integ", "geod", "pres", "rho", "ric", "omega", "omega_corr"),
                          info["max_path_residual"])
    n_line = 0
    for s_idx in range(len(pts)):
        if not all(np.isfinite(v[s_idx]).all() for v in (at, plus, minus)):
            worst = dict.fromkeys(worst, np.inf)  # a failed sample, not a line
            continue
        upsv = ups_of(at[s_idx])
        if upsv is None:
            n_line += 1
            continue
        Y = at[s_idx, :n]
        ups_plus = [ups_of(B) for B in plus[s_idx]]
        ups_minus = [ups_of(B) for B in minus[s_idx]]
        if any(u is None for u in ups_plus + ups_minus):
            n_line += 1
        else:
            dY = (plus[s_idx, :, :n] - minus[s_idx, :, :n]) / (2 * _FD_STEP)
            dU = (np.array(ups_plus) - np.array(ups_minus)) / (2 * _FD_STEP)
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
                        worst["integ"] = _worse(worst["integ"],
                                                float(np.abs(off @ brk).max()) / yscale)
                    cov = np.einsum("i,ik->k", Y[:, a], dY[:, :, b]) \
                        + np.einsum("i,kij,j->k", Y[:, a], G, Y[:, b])
                    worst["geod"] = _worse(worst["geod"],
                                           float(np.abs(off @ cov).max()) / yscale)

            # adapted-gauge checks
            nabla_u = dU - np.einsum("mij,m->ij", G, upsv)
            P_ad = P + nabla_u - np.outer(upsv, upsv)
            worst["rho"] = _worse(worst["rho"],
                                  float(np.abs(P_ad @ Y).max()) / (1.0 + max_abs(P_ad)))
            ric_ad = ricci_from_rho(P_ad)
            worst["ric"] = _worse(worst["ric"],
                                  float(np.abs(Y.T @ ric_ad @ Y).max()) / (1.0 + max_abs(ric_ad)))

            omega_i = np.zeros(n)
            for i in range(n):
                nb = dY[i] + np.einsum("kj,ja->ka", G[:, i, :], Y) \
                    + upsv[i] * Y + np.outer(np.eye(n)[i], upsv @ Y)
                worst["pres"] = _worse(worst["pres"], float(np.abs(off @ nb).max()) / yscale)
                omega_i[i] = np.trace(Yp @ nb)
            ups2 = -omega_i / k
            corr = omega_i + k * ups2 + (ups2 @ Y) @ Yp
            worst["omega"] = _worse(worst["omega"], float(np.abs(omega_i).max()))
            worst["omega_corr"] = _worse(worst["omega_corr"], float(np.abs(corr).max()))
            report.K_basis.append(Y)

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
                                 seed: int = 0) -> dict:
    """Block pattern of a holonomy algebra with an invariant rank-n subspace.

    Reports the worst bottom-row (T*-part) entry, containment of the
    gl-blocks in the affine curvature span of the base connection, and
    whether the tangent-column part is zero (cone case) or full.  The
    decomposition statement itself is only asserted when the induced
    action is irreducible.  An algebra or sampled curvature that is not
    finite has no block pattern to read: both residuals are inf.
    """
    n = chart.n
    gens = list(alg.basis)
    pts = sample_points(chart, seed=seed)[:12]
    curvature = point_fields(chart, pts)["R"]
    finite = alg.finite and bool(np.isfinite(curvature).all())
    t_star = max((float(np.abs(A[n, :n]).max()) for A in gens), default=0.0) \
        if finite else np.inf

    affine_mats = []
    for R in curvature:
        for h in range(n):
            for j in range(h + 1, n):
                affine_mats.append(R[h, j])
    affine_basis, closed, rounds, bres = bracket_closure(affine_mats, n, _CLOSURE_TOL)
    gl_blocks = [A[:n, :n] for A in gens]
    containment = _containment_residual(gl_blocks, affine_basis) if finite else np.inf

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
    if not finite:
        decomposition = None
        note = "holonomy algebra or sampled curvature not finite"
    elif t_star > 1e-9:
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
