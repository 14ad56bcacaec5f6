"""Structure chains: Einstein, contact, complex, foliation, decomposition.

Oracles worked out by hand for the flat model are frozen here: the contact
one-form theta = x1 dx2 - x2 dx1 - dx3 with Reeb field -e3, the transverse
field R(x) = Ax + b - x3 x of the standard fiber complex structure, and the
line metric h(s,s) = |x|^2 - 1 of the constant indefinite candidate.  The
curved charts check the signature bookkeeping instead, where the expected
values follow from the Ricci sign alone.
"""

import numpy as np
import pytest

from tractorlab import affine, cli, projective, structures, tractor
from tractorlab.affine import project_change, sample_points
from tractorlab.expr import parse
from tractorlab.holonomy import algebra_from_generators, compare_spans, infinitesimal_algebra
from tractorlab.library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
    twisted_chart,
)
from tractorlab.manifest import load_bundled
from tractorlab.structures import (
    complex_reduction,
    contact_from_symplectic,
    einstein_check,
    foliation_analysis,
    holonomy_decomposition_check,
    tractor_metric_to_einstein_verify,
)
from tractorlab.tractor import splitting_matrix, spread_structure

from oracle import volume_normalized

OMEGA = np.zeros((4, 4))
OMEGA[0, 1] = 1.0
OMEGA[1, 0] = -1.0
OMEGA[2, 3] = 1.0
OMEGA[3, 2] = -1.0

J_STD = np.zeros((4, 4))
J_STD[0, 1] = -1.0
J_STD[1, 0] = 1.0
J_STD[2, 3] = -1.0
J_STD[3, 2] = 1.0


@pytest.fixture(scope="module")
def flat3():
    return flat_chart(3)


@pytest.fixture(scope="module")
def sphere3():
    return sphere_chart(3)


@pytest.fixture(scope="module")
def twisted():
    return twisted_chart()


def center_alg(chart):
    return infinitesimal_algebra(chart, chart.center())


def linear_ups(chart, seed, scale=0.15):
    rng = np.random.default_rng(seed)
    coef = rng.uniform(-scale, scale, size=(chart.n, chart.n))
    return [
        parse(
            "+".join(f"({coef[i, j]:.6f})*{c}" for j, c in enumerate(chart.coords)),
            chart.coords,
        )
        for i in range(chart.n)
    ]


# -- the transported stencil ---------------------------------------------------


def test_spread_stencil_equals_spreads_to_the_explicit_points(twisted):
    pts = sample_points(twisted, seed=3)[:4]
    base = twisted.center()
    value = np.random.default_rng(0).standard_normal((4, 4))
    at, plus, minus, info = structures._spread_stencil(twisted, "bilinear", value, base,
                                                       pts, 0, 0)
    assert info == {"max_path_residual": 0.0, "paths_checked": 0}

    def spread(points):
        return spread_structure(twisted, "bilinear", value, base, points)[0]

    assert np.array_equal(at, spread(pts))
    for i in range(twisted.n):
        e = np.zeros(twisted.n)
        e[i] = structures._FD_STEP
        assert np.array_equal(plus[:, i], spread(pts + e)), i
        assert np.array_equal(minus[:, i], spread(pts - e)), i


# -- Einstein chain ------------------------------------------------------------


def test_sphere_einstein_chain(sphere3):
    for chart in (sphere_chart(2), sphere3):
        n = chart.n
        r = einstein_check(chart)
        assert r.accepted
        assert r.nabla_ric_norm <= 1e-8
        assert r.ric_signature == (n, 0)
        assert r.h_signature == (n + 1, 0)
        assert r.parallel_residual <= 1e-9
        assert r.transport_residual <= 1e-6
        assert r.meta["signature_rule_holds"]
        assert r.meta["einstein_coefficient_sign"] == 1


def test_hyperbolic_einstein_signature():
    r = einstein_check(hyperbolic_chart(3))
    assert r.accepted
    assert r.ric_signature == (0, 3)
    assert r.h_signature == (1, 3)
    assert r.meta["einstein_coefficient_sign"] == -1
    assert r.meta["signature_rule_holds"]
    assert r.parallel_residual <= 1e-9
    assert r.transport_residual <= 1e-6


def test_einstein_rejections(flat3, twisted):
    for chart in (flat3, twisted):
        r = einstein_check(chart)
        assert not r.accepted
        assert "degenerate" in r.reject_reason
    r = einstein_check(polynomial_chart())
    assert not r.accepted
    assert "covariant derivative" in r.reject_reason


def test_einstein_check_is_a_property_of_the_representative(sphere3):
    # the projective class keeps its parallel tractor metric, but only the
    # volume-compatible representative exhibits a parallel Ricci tensor
    changed = project_change(sphere3, linear_ups(sphere3, seed=9))
    r = einstein_check(changed)
    assert not r.accepted
    assert r.nabla_ric_norm > 1e-3


def test_sphere3_metric_round_trip(sphere3):
    ein = einstein_check(sphere3)
    out = tractor_metric_to_einstein_verify(sphere3, center_alg(sphere3), ein,
                                            ein.h(sphere3.center()))
    assert out["accepted"]
    assert not out["precondition_failed"]
    assert out["invariance_residual"] <= 1e-9
    assert out["consistency_residual"] <= 1e-8
    assert out["degenerate_fraction"] == 0.0


def test_flat_constant_candidate_verifies(flat3):
    h0 = np.diag([1.0, 1.0, 1.0, -1.0])
    out = tractor_metric_to_einstein_verify(flat3, center_alg(flat3), einstein_check(flat3), h0)
    assert out["accepted"]
    assert out["consistency_residual"] is None
    pts = sample_points(flat3, seed=0)[:40]
    hss = np.array(out["line_metric_values"])
    expected = np.array([p @ p - 1.0 for p in pts])
    assert np.abs(hss - expected).max() <= 1e-12


def test_verify_rejects_noninvariant_candidate(twisted):
    out = tractor_metric_to_einstein_verify(twisted, center_alg(twisted),
                                            einstein_check(twisted), np.eye(4))
    assert out["precondition_failed"]
    assert not out["accepted"]


# -- contact chain -------------------------------------------------------------


def test_flat_contact_hand_oracle(flat3):
    r = contact_from_symplectic(flat3, center_alg(flat3), OMEGA)
    assert r.accepted
    assert r.dtheta_vs_omega <= 1e-9
    assert r.dtheta_reeb <= 1e-9
    assert r.weyl_in_H <= 1e-12
    # theta = x1 dx2 - x2 dx1 - dx3 and the Reeb field is -e3
    pts = sample_points(flat3, seed=0)[:8]
    for p, theta, reeb in zip(pts, r.theta, r.reeb):
        expected = np.array([-p[1], p[0], -1.0])
        assert np.abs(theta - expected).max() <= 1e-10
        assert np.abs(reeb - np.array([0.0, 0.0, -1.0])).max() <= 1e-9
    assert abs(r.vtheta_min - 2.0) <= 1e-9
    assert abs(r.vtheta_max - 2.0) <= 1e-9


def test_sphere3_contact_chain(sphere3):
    r = contact_from_symplectic(sphere3, center_alg(sphere3), OMEGA)
    assert r.accepted
    assert r.dtheta_vs_omega <= 1e-6
    assert r.dtheta_reeb <= 1e-6
    assert r.weyl_in_H <= 1e-7
    assert r.vtheta_min > 0.1 * r.vtheta_max
    assert r.theta_R_residual <= 1e-9


def test_contact_preconditions(flat3, twisted):
    flat2 = flat_chart(2)
    r = contact_from_symplectic(flat2, center_alg(flat2), np.eye(3))
    assert not r.accepted and "odd" in r.reject_reason
    r = contact_from_symplectic(flat3, center_alg(flat3), np.zeros((4, 4)))
    assert not r.accepted and "degenerate" in r.reject_reason
    r = contact_from_symplectic(twisted, center_alg(twisted), OMEGA)
    assert not r.accepted and "invariant" in r.reject_reason


def test_contact_detection_is_gauge_stable(flat3):
    base = contact_from_symplectic(flat3, center_alg(flat3), OMEGA)
    changed = project_change(flat3, linear_ups(flat3, seed=9))
    other = contact_from_symplectic(changed, center_alg(changed), OMEGA)
    assert other.accepted == base.accepted
    floor = 1e-10
    assert other.dtheta_vs_omega <= max(10 * base.dtheta_vs_omega, floor)
    assert other.weyl_in_H <= max(10 * base.weyl_in_H, floor)
    assert abs(other.vtheta_min - base.vtheta_min) <= 1e-8


def test_invariance_check_is_splitting_independent(twisted):
    # the algebra of the volume-normalized representative is S^-1 A S, so
    # the chains may test fiber data in the chart's own splitting
    base = twisted.center()
    own = center_alg(twisted)
    assert own.rank > 0
    vol_chart, ups = volume_normalized(twisted)
    S, Si = splitting_matrix(ups.at(base)), splitting_matrix(-ups.at(base))
    vol = infinitesimal_algebra(vol_chart, base)
    assert compare_spans(vol, algebra_from_generators([Si @ A @ S for A in own.basis]))["agree"]
    back = algebra_from_generators([S @ A @ Si for A in vol.basis])
    for chain, value in ((contact_from_symplectic, OMEGA), (complex_reduction, J_STD)):
        a = chain(twisted, own, value)
        b = chain(twisted, back, value)
        assert (a.accepted, a.reject_reason) == (b.accepted, b.reject_reason)


def _flat3_changed_at_the_base():
    # Ups does not vanish at the base, so the chart's splitting there is not
    # the volume-normalized one
    m = load_bundled("flat3")
    ups = [parse(e, m.chart.coords) for e in
           ("0.3*x1 - 0.2*x2 + 0.1", "0.25*x3 + 0.05*x1*x2", "-0.15*x2 + 0.1*x3^2")]
    base = m.base()
    u = np.array([e.eval(dict(zip(m.chart.coords, base))) for e in ups])
    S, Si = splitting_matrix(u), splitting_matrix(-u)
    return (project_change(m.chart, ups), base, S.T @ m.structures["omega"] @ S,
            Si @ m.structures["J"] @ S)


@pytest.mark.parametrize("case", ["sphere3", "flat3 changed"])
def test_chains_agree_with_the_volume_normalized_route(case):
    # run on the volume-normalized representative, with the data and the
    # algebra moved to its splitting, the chains read the same structure
    if case == "sphere3":
        m = load_bundled("sphere3")
        chart, base, omega, J = m.chart, m.base(), m.structures["omega"], None
    else:
        chart, base, omega, J = _flat3_changed_at_the_base()
    alg = infinitesimal_algebra(chart, base)
    vol_chart, ups = volume_normalized(chart)
    S, Si = splitting_matrix(ups.at(base)), splitting_matrix(-ups.at(base))
    vol_alg = algebra_from_generators([Si @ A @ S for A in alg.basis], fiber_dim=chart.n + 1)
    pairs = [(contact_from_symplectic(chart, alg, omega, base_point=base),
              contact_from_symplectic(vol_chart, vol_alg, S.T @ omega @ S, base_point=base),
              ("theta", "reeb", "vtheta_min", "vtheta_max"))]
    if J is not None:
        pairs.append((complex_reduction(chart, alg, J, base_point=base),
                      complex_reduction(vol_chart, vol_alg, Si @ J @ S, base_point=base),
                      ("R_field", "J_H")))
    for own, vol, fields in pairs:
        assert own.accepted
        assert (own.accepted, own.reject_reason) == (vol.accepted, vol.reject_reason)
        for name in fields:
            assert np.abs(np.subtract(getattr(own, name), getattr(vol, name))).max() <= 1e-9, name


@pytest.mark.parametrize("name", ["flat3", "sphere3"])
def test_detect_compiles_the_connection_of_its_own_chart_only(monkeypatch, name):
    m = load_bundled(name)
    compiled = []
    original = tractor._connection_program

    def recording(chart):
        compiled.append(chart)
        return original(chart)

    monkeypatch.setattr(tractor, "_connection_program", recording)
    report = cli.run("detect", m)
    assert "contact" in report["result"]
    assert compiled and all(c is m.chart for c in compiled)


# -- complex chain -------------------------------------------------------------


def test_flat_complex_hand_oracle(flat3):
    r = complex_reduction(flat3, center_alg(flat3), J_STD)
    assert r.accepted
    assert r.square_residual <= 1e-12
    assert r.in_span_residual <= 1e-12
    assert r.lie_invariance_residual <= 1e-6
    A = J_STD[:3, :3]
    b = J_STD[:3, 3]
    pts = sample_points(flat3, seed=0)[:6]
    for p, R in zip(pts, r.R_field):
        expected = A @ p + b - p[2] * p
        assert np.abs(R - expected).max() <= 1e-12
    for JH in r.J_H:
        assert np.abs(JH @ JH + np.eye(2)).max() <= 1e-12


def test_sphere3_complex_chain(sphere3):
    r = complex_reduction(sphere3, center_alg(sphere3), J_STD)
    assert r.accepted
    assert r.square_residual <= 1e-7
    assert r.lie_invariance_residual <= 1e-4
    assert len(r.degenerate_points) == 0


def test_complex_preconditions(flat3, twisted):
    flat2 = flat_chart(2)
    r = complex_reduction(flat2, center_alg(flat2), np.eye(3))
    assert not r.accepted and "odd" in r.reject_reason
    r = complex_reduction(flat3, center_alg(flat3), np.eye(4))
    assert not r.accepted and "square" in r.reject_reason
    r = complex_reduction(twisted, center_alg(twisted), J_STD)
    assert not r.accepted and "invariant" in r.reject_reason


def test_complex_detection_is_gauge_stable(flat3):
    base = complex_reduction(flat3, center_alg(flat3), J_STD)
    changed = project_change(flat3, linear_ups(flat3, seed=9))
    other = complex_reduction(changed, center_alg(changed), J_STD)
    assert other.accepted == base.accepted
    floor = 1e-10
    assert other.square_residual <= max(10 * base.square_residual, floor)
    assert other.lie_invariance_residual <= max(10 * base.lie_invariance_residual, floor)


# -- foliation chain -----------------------------------------------------------


def k_basis(cols):
    out = np.zeros((4, len(cols)))
    for a, i in enumerate(cols):
        out[i, a] = 1.0
    return out


def test_twisted_foliation_rank2(twisted):
    r = foliation_analysis(twisted, center_alg(twisted), k_basis([0, 1]))
    assert r.accepted
    assert not r.inconclusive
    assert r.integrability_residual <= 1e-12
    assert r.geodesy_residual <= 1e-12
    assert r.preserve_K_residual <= 1e-12
    assert r.rho_residual <= 1e-12
    assert r.ricci_on_K <= 1e-12
    assert r.covolume_status == "preserved"
    assert r.line_intersection_fraction == 0.0
    # the distribution is the constant span of the first two coordinate fields
    for Y in r.K_basis:
        u, s, vt = np.linalg.svd(Y)
        assert abs(s[0] - 1.0) <= 1e-9 and abs(s[1] - 1.0) <= 1e-9
        assert np.abs(Y[2, :]).max() <= 1e-12


def test_twisted_foliation_rank3(twisted):
    r = foliation_analysis(twisted, center_alg(twisted), k_basis([0, 1, 2]))
    assert r.accepted
    assert r.rho_residual <= 1e-12
    assert r.ricci_on_K <= 1e-12
    assert r.covolume_status == "preserved"


def test_foliation_gauge_check(twisted):
    base = foliation_analysis(twisted, center_alg(twisted), k_basis([0, 1]))
    changed = project_change(twisted, linear_ups(twisted, seed=4, scale=0.2))
    other = foliation_analysis(changed, center_alg(changed), k_basis([0, 1]))
    assert other.accepted == base.accepted
    floor = 1e-10
    for name in ("integrability_residual", "geodesy_residual", "preserve_K_residual",
                 "rho_residual", "ricci_on_K", "covolume_residual"):
        assert getattr(other, name) <= max(10 * getattr(base, name), floor), name
    assert other.covolume_status in ("preserved", "preserved after the trace correction")


def test_non_parallel_subspace_fails_preserve_k():
    # randpoly3 has full sl(4) holonomy, so no proper subspace is parallel; a
    # rank-0 algebra lets any subspace past the invariance gate, and the
    # residual comparing transports along neighbouring rays must reject it
    chart = load_bundled("randpoly3").chart
    rng = np.random.default_rng(5)
    for k in (1, 2):
        r = foliation_analysis(chart, algebra_from_generators([], fiber_dim=4),
                               rng.standard_normal((4, k)))
        assert not r.accepted and not r.inconclusive
        assert r.preserve_K_residual > 1e-6, k


def test_foliation_preconditions(twisted):
    bad = np.zeros((4, 2))
    bad[2, 0] = 1.0
    bad[3, 1] = 1.0
    r = foliation_analysis(twisted, center_alg(twisted), bad)
    assert not r.accepted and "invariant" in r.reject_reason
    with pytest.raises(ValueError):
        foliation_analysis(twisted, center_alg(twisted), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        foliation_analysis(twisted, center_alg(twisted), np.zeros((4, 5)))


def stop_at_the_first_level(monkeypatch):
    """Make every transport stop at its first level, 64 steps, not converged."""
    doubling = affine._rk4_doubling

    def one_level(run_level, rows, tol, initial_steps=64, max_steps=None):
        return doubling(run_level, rows, tol, initial_steps, initial_steps)

    monkeypatch.setattr(affine, "_rk4_doubling", one_level)


def test_transport_that_does_not_converge_fails_its_residuals(twisted, monkeypatch):
    alg = center_alg(twisted)
    stop_at_the_first_level(monkeypatch)
    pts = sample_points(twisted, seed=2)[:4]
    for check_paths in (0, 2):
        _, info = spread_structure(twisted, "bilinear", np.eye(4), twisted.center(), pts,
                                   check_paths=check_paths)
        assert info["max_path_residual"] == np.inf
    r = foliation_analysis(twisted, alg, k_basis([0, 1]))
    assert not r.accepted
    assert r.rho_residual == r.ricci_on_K == r.integrability_residual == np.inf


def test_contact_and_complex_reject_a_transport_that_does_not_converge(flat3, monkeypatch):
    alg = center_alg(flat3)
    stop_at_the_first_level(monkeypatch)
    for r in (contact_from_symplectic(flat3, alg, OMEGA), complex_reduction(flat3, alg, J_STD)):
        assert r.path_residual == np.inf
        assert not r.accepted


def test_detect_fails_every_chain_whose_shared_transport_did_not_converge(monkeypatch):
    # within one `cli.run` the chains reuse each other's segments, so a row
    # that did not converge reaches every chain that reads it with its flag
    m = load_bundled("flat3")
    cli._holonomy(m, 0)  # the loop algebra converged; only the chains' transports fail
    stop_at_the_first_level(monkeypatch)
    verdicts = {row["name"]: row["pass"] for row in cli.run("detect", m)["checks"]}
    assert [verdicts[name] for name in ("contact_accepted", "complex_accepted",
                                        "tractor_metric_verified", "foliation_accepted")] \
        == [False] * 4


def test_tractor_metric_rejects_a_transport_that_does_not_converge(flat3, monkeypatch):
    h0 = np.diag([1.0, 1.0, 1.0, -1.0])  # the constant indefinite candidate
    alg = center_alg(flat3)
    ein = einstein_check(flat3)
    assert tractor_metric_to_einstein_verify(flat3, alg, ein, h0)["accepted"]
    stop_at_the_first_level(monkeypatch)
    rep = tractor_metric_to_einstein_verify(flat3, alg, ein, h0)
    assert rep["path_residual"] == np.inf
    assert (rep["accepted"], rep["reason"]) == (False, "a transport did not converge")


def nan_at_one_sample(monkeypatch, key):
    """Make `structures.point_fields` return NaN in field `key` at its second point."""

    def poisoned(chart, points):
        fields = dict(projective.point_fields(chart, points))  # the result is read-only
        if np.ndim(points) == 2 and len(points) > 1:
            fields[key] = fields[key].copy()
            fields[key][1] = np.nan
        return fields

    monkeypatch.setattr(structures, "point_fields", poisoned)


def test_a_nan_residual_at_one_sample_fails_its_chain(flat3, twisted, sphere3, monkeypatch):
    # a NaN residual must not read as the largest finite one
    alg = center_alg(flat3)
    nan_at_one_sample(monkeypatch, "W")
    r = contact_from_symplectic(flat3, alg, OMEGA)
    assert np.isnan(r.weyl_in_H) and not r.accepted
    nan_at_one_sample(monkeypatch, "P")
    r = foliation_analysis(twisted, center_alg(twisted), k_basis([0, 1]))
    assert np.isnan(r.rho_residual) and not r.accepted
    nan_at_one_sample(monkeypatch, "M")
    r = einstein_check(sphere3)
    assert np.isnan(r.parallel_residual)


# -- holonomy block decomposition ----------------------------------------------


def test_decomposition_twisted(twisted):
    alg = infinitesimal_algebra(twisted, twisted.center())
    d = holonomy_decomposition_check(twisted, alg)
    assert d["t_star_row_max"] <= 1e-9
    assert d["affine_containment_residual"] <= 1e-9
    assert d["affine_span_rank"] == 1
    assert d["tangent_column_state"] == "partial (rank 1)"
    assert d["decomposition"] is None
    assert "irreducible" in d["note"]


def test_decomposition_flat_cone_case(flat3):
    alg = infinitesimal_algebra(flat3, flat3.center())
    d = holonomy_decomposition_check(flat3, alg)
    assert d["t_star_row_max"] == 0.0
    assert d["tangent_column_state"] == "zero (cone case)"
    assert d["affine_span_rank"] == 0


def test_decomposition_needs_vanishing_tangent_row():
    chart = polynomial_chart()
    alg = infinitesimal_algebra(chart, chart.center())
    d = holonomy_decomposition_check(chart, alg)
    assert d["t_star_row_max"] > 1e-3
    assert d["decomposition"] is None
    assert "tangent-row" in d["note"]
    assert d["tangent_column_state"] == "full"
    assert d["affine_containment_residual"] <= 1e-9
