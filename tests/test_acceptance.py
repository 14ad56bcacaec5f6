"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

Each test prints a single PASS line on success so the battery reads as a
checklist under `pytest -v` or `-s`.  Scales are desk-sized on purpose
(n = 2, 3, tractor fiber at most 4); every bound below is part of the
package contract, not a measured best case.
"""

import numpy as np
import pytest

from tractorlab import cli
from tractorlab.affine import (
    OneFormField,
    curvature_field,
    max_abs,
    project_change,
    sample_points,
)
from tractorlab.holonomy import (
    algebra_from_generators,
    infinitesimal_algebra,
    invariant_complex,
    invariant_metric,
    invariant_subspaces,
    invariant_symplectic,
)
from tractorlab.library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
    twisted_chart,
)
from tractorlab.manifest import load_bundled
from tractorlab.projective import (
    cotton_field,
    rho_field,
    weyl_field,
    weyl_invariance_test,
)
from tractorlab.structures import (
    contact_from_symplectic,
    einstein_check,
    foliation_analysis,
    holonomy_decomposition_check,
)
from tractorlab.tractor import (
    loop_holonomy,
    splitting_matrix,
    square_loop,
    tractor_curvature,
    tractor_curvature_from_connection,
)

from oracle import connection_matrix_field

POLY_SEEDS = (31, 32, 33, 34, 35)


@pytest.fixture(scope="module")
def poly_corpus():
    charts = [polynomial_chart(3, seed=s) for s in POLY_SEEDS]
    pts = {c.name: sample_points(c, seed=1)[:50] for c in charts}
    return charts, pts


def linear_ups(chart, seed, scale=0.12):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(chart.n):
        terms = [repr(float(rng.uniform(-scale, scale)))]
        terms += [f"{float(rng.uniform(-scale, scale))!r}*{c}" for c in chart.coords]
        comps.append(chart.parse(" + ".join(terms)))
    return OneFormField(chart, np.asarray(comps, dtype=object))


def test_criterion_01_curvature_rebuilds_from_weyl_and_rho(poly_corpus):
    charts, pts = poly_corpus
    eye = np.eye(3)
    for c in charts:
        r_fn = c.evaluator(curvature_field(c))
        w_fn = c.evaluator(weyl_field(c))
        p_fn = c.evaluator(rho_field(c))
        for p in pts[c.name]:
            R = r_fn(p)
            W = w_fn(p)
            P = p_fn(p)
            back = (W + np.einsum("hl,kj->hjkl", P, eye)
                    + np.einsum("hj,kl->hjkl", P - P.T, eye)
                    - np.einsum("jl,kh->hjkl", P, eye))
            assert max_abs(back - R) <= 1e-12
    print("\ncriterion 1 PASS: curvature = Weyl + rho terms at 1e-12 "
          f"on {len(charts)} charts x 50 points")


def test_criterion_02_weyl_is_totally_trace_free(poly_corpus):
    charts, pts = poly_corpus
    for c in charts:
        w_fn = c.evaluator(weyl_field(c))
        for p in pts[c.name]:
            W = w_fn(p)
            scale = 1.0 + max_abs(W)
            assert max_abs(np.einsum("kjkl->jl", W)) / scale <= 1e-9
            assert max_abs(np.einsum("hkkl->hl", W)) / scale <= 1e-9
            assert max_abs(np.einsum("hjkk->hj", W)) / scale <= 1e-9
    print("\ncriterion 2 PASS: all single Weyl contractions at 1e-9 relative")


def test_criterion_03_projective_invariance_of_weyl_and_loops():
    c = polynomial_chart(3, seed=31)
    base = np.zeros(3)
    loop = square_loop(base, 0, 1, 0.08)
    H, _ = loop_holonomy(c, loop)
    for k in range(5):
        ups = linear_ups(c, seed=100 + k)
        res = weyl_invariance_test(c, [ups], seed=k)[0]
        assert res["max_weyl_residual"] <= 1e-8
        changed = project_change(c, ups)
        H2, _ = loop_holonomy(changed, loop)
        S = splitting_matrix(ups.at(base))
        drift = max_abs(S @ H2 @ np.linalg.inv(S) - H) / (1.0 + max_abs(H))
        assert drift <= 1e-6
    print("\ncriterion 3 PASS: Weyl invariant at 1e-8 and loop transport "
          "at 1e-6 under 5 random changes")


def test_criterion_04_tractor_curvature_structure():
    c = polynomial_chart(3, seed=31)
    pts = sample_points(c, seed=2)[:10]
    m_fn = c.evaluator(connection_matrix_field(c))
    for p in pts:
        F_a = tractor_curvature(c, p)
        F_d = tractor_curvature_from_connection(c, p)
        assert max_abs(F_a - F_d) / (1.0 + max_abs(F_a)) <= 1e-8
        assert max_abs(F_d[:, :, :3, 3]) <= 1e-9
        M = m_fn(p)
        assert max(abs(float(np.trace(M[i]))) for i in range(3)) <= 1e-12
    H, rep = loop_holonomy(c, square_loop(np.zeros(3), 1, 2, 0.1))
    assert rep["det_drift"] <= 1e-6
    print("\ncriterion 4 PASS: assembled (0, W, CY) matches derivative "
          "curvature at 1e-8, T-part 1e-9, traces 1e-12, loop det 1e-6")


def test_criterion_05_round_spheres_are_projectively_flat():
    for n in (2, 3):
        c = sphere_chart(n)
        w_fn = c.evaluator(weyl_field(c))
        cy_fn = c.evaluator(cotton_field(c))
        for p in sample_points(c, seed=3)[:20]:
            assert max_abs(w_fn(p)) <= 1e-9
            assert max_abs(cy_fn(p)) <= 1e-9
        base = c.center()
        H, _ = loop_holonomy(c, square_loop(base, 0, n - 1, 0.1))
        assert max_abs(H - np.eye(n + 1)) <= 1e-6
        assert infinitesimal_algebra(c, base).rank == 0
    print("\ncriterion 5 PASS: spheres have W = CY = 0 at 1e-9, identity "
          "loops at 1e-6, algebra rank 0")


def test_criterion_06_einstein_chain_with_signature_rule():
    cases = [
        (sphere_chart(2), (2, 0), (3, 0), 1),
        (sphere_chart(3), (3, 0), (4, 0), 1),
        (hyperbolic_chart(3), (0, 3), (1, 3), -1),
    ]
    for chart, ric_sig, h_sig, coeff_sign in cases:
        rep = einstein_check(chart)
        assert rep.accepted, rep.reject_reason
        assert rep.nabla_ric_norm <= 1e-8
        assert rep.parallel_residual <= 1e-6
        assert rep.transport_residual <= 1e-6
        assert rep.ric_signature == ric_sig
        assert rep.h_signature == h_sig
        assert rep.meta["einstein_coefficient_sign"] == coeff_sign
        assert rep.meta["signature_rule_holds"] is True
    print("\ncriterion 6 PASS: sphere and hyperbolic charts pass the "
          "Einstein chain; metric signatures follow the (p+1,q)/(q+1,p) rule")


def test_criterion_07_contact_chain_on_flat_r3():
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0
    chart = flat_chart(3)
    rep = contact_from_symplectic(chart, infinitesimal_algebra(chart, chart.center()), omega)
    assert rep.accepted, rep.reject_reason
    assert rep.dtheta_vs_omega <= 1e-6
    assert rep.dtheta_reeb <= 1e-6
    assert rep.vtheta_min > 0.1 * rep.vtheta_max
    assert rep.weyl_in_H <= 1e-7
    print("\ncriterion 7 PASS: flat R^3 with a fiber symplectic form yields "
          "a contact distribution (d-theta match 1e-6, Weyl-in-H 1e-7)")


def test_criterion_08_ricci_flat_foliation_chain():
    m = load_bundled("product_rf3")
    chart = m.chart
    alg = infinitesimal_algebra(chart, m.base())
    rep = foliation_analysis(chart, alg, m.structures["K"], base_point=m.base())
    assert rep.accepted, rep.reject_reason
    assert not rep.inconclusive
    assert rep.integrability_residual <= 1e-7
    assert rep.geodesy_residual <= 1e-7
    assert rep.preserve_K_residual <= 1e-7
    assert rep.rho_residual <= 1e-7
    assert rep.ricci_on_K <= 1e-7
    d = holonomy_decomposition_check(chart, alg)
    assert d["t_star_row_max"] <= 1e-9
    print("\ncriterion 8 PASS: product chart passes all foliation conditions "
          "at 1e-7 and the tangent-row block test at 1e-9")


def test_criterion_09_synthetic_holonomy_round_trips():
    def rot(i, j, m):
        E = np.zeros((m, m))
        E[i, j], E[j, i] = 1.0, -1.0
        return E

    S = np.array([[1.0, 0.3, -0.1], [0.0, 0.9, 0.2], [0.2, -0.1, 1.1]])
    Si = np.linalg.inv(S)
    H = np.diag([1.0, 1.0, -1.0])
    met = invariant_metric(algebra_from_generators(
        [S @ (H @ rot(i, j, 3)) @ Si for i, j in ((0, 1), (0, 2), (1, 2))]))
    assert met is not None and met.residual <= 1e-9
    assert met.meta["signature"] == (2, 1)

    omega = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.eye(2), np.zeros((2, 2))]])
    sym = []
    for i in range(4):
        for j in range(i, 4):
            E = np.zeros((4, 4))
            E[i, j] = E[j, i] = 1.0
            sym.append(E)
    sp = invariant_symplectic(algebra_from_generators([omega @ s for s in sym]))
    assert sp is not None and sp.residual <= 1e-9

    rng = np.random.default_rng(5)
    gens = []
    for _ in range(4):
        P = rng.normal(size=(2, 2))
        P -= np.trace(P) / 2 * np.eye(2)
        Q = rng.normal(size=(2, 2))
        gens.append(np.block([[P, -Q], [Q, P]]))
    cx = invariant_complex(algebra_from_generators(gens))
    assert cx is not None and cx.residual <= 1e-9

    rng = np.random.default_rng(11)
    gens = []
    for _ in range(4):
        A = rng.normal(size=(4, 4))
        A[2:, :2] = 0.0
        A -= np.trace(A) / 4 * np.eye(4)
        gens.append(A)
    subs = invariant_subspaces(algebra_from_generators(gens))
    assert any(c.meta["dim"] == 2 and c.residual <= 1e-9 for c in subs)

    rng = np.random.default_rng(3)
    gens = []
    for _ in range(15):
        A = rng.normal(size=(4, 4))
        A -= np.trace(A) / 4 * np.eye(4)
        gens.append(A)
    alg = algebra_from_generators(gens)
    assert alg.rank == 15
    assert invariant_metric(alg) is None
    assert invariant_symplectic(alg) is None
    assert invariant_complex(alg) is None
    assert invariant_subspaces(alg) == []
    print("\ncriterion 9 PASS: planted metric/symplectic/complex/subspace "
          "structures recovered at 1e-9; full sl(4) yields no candidates")


def test_criterion_10_suite_reports_are_deterministic():
    for name in ("randpoly3", "product_rf3"):
        first = cli.render(cli.run("suite", load_bundled(name), seed=5))
        second = cli.render(cli.run("suite", load_bundled(name), seed=5))
        assert first == second
        assert '"all_pass": true' in first
    print("\ncriterion 10 PASS: suite reports byte-identical across reruns "
          "for a fixed seed")
