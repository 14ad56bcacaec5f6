"""Tests for holonomy algebra estimation and invariant structure detection.

Synthetic algebras with planted structures pin down the detectors exactly;
chart-based cases freeze ranks worked out by hand (the twisted chart) or
forced by flatness (round spheres).
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm, logm
from hypothesis import assume, given, settings, strategies as st

from tractorlab import holonomy
from tractorlab.holonomy import (
    CLASSIFY_CAVEAT,
    algebra_from_generators,
    bracket_closure,
    classify,
    compare_spans,
    infinitesimal_algebra,
    invariant_complex,
    invariant_metric,
    invariant_subspaces,
    invariant_symplectic,
    loop_algebra,
    _curvature_tower,
    _default_loop_family,
    _guarded_log,
    _null_vectors,
    _principal_log,
)
from tractorlab.affine import ChartModel, max_abs
from tractorlab.expr import parse
from tractorlab.library import polynomial_chart, sphere_chart, twisted_chart
from tractorlab.manifest import bundled_names, load_bundled
from tractorlab.projective import cotton_field, weyl_field
from tractorlab.tractor import loop_holonomy, square_loop

from oracle import assemble_tractor_curvature, connection_matrix_field, interpret

P3 = np.array([0.15, 0.25, 0.35])


def rot_gen(i, j, m=3):
    E = np.zeros((m, m))
    E[i, j] = 1.0
    E[j, i] = -1.0
    return E


def sym_basis(m):
    out = []
    for i in range(m):
        for j in range(i, m):
            E = np.zeros((m, m))
            E[i, j] = E[j, i] = 1.0
            out.append(E)
    return out


OMEGA = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
J0 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])


# -- synthetic round trips -------------------------------------------------------


def test_so3_metric_round_trip():
    alg = algebra_from_generators([rot_gen(0, 1), rot_gen(0, 2), rot_gen(1, 2)])
    assert alg.rank == 3
    assert alg.closed_under_bracket
    met = invariant_metric(alg)
    assert met is not None
    assert met.residual <= 1e-9
    assert met.meta["signature"] == (3, 0)
    # invariant form is the round metric up to scale
    assert np.abs(met.data - met.data[0, 0] * np.eye(3)).max() <= 1e-9


def test_so21_recovers_indefinite_metric():
    H = np.diag([1.0, 1.0, -1.0])
    gens = [H @ rot_gen(0, 1), H @ rot_gen(0, 2), H @ rot_gen(1, 2)]
    alg = algebra_from_generators(gens)
    assert alg.rank == 3
    met = invariant_metric(alg)
    assert met is not None
    assert met.residual <= 1e-9
    assert met.meta["signature"] == (2, 1)
    assert np.abs(met.data / met.data[0, 0] - H).max() <= 1e-9


def test_sp4_recovers_symplectic_form():
    gens = [OMEGA @ S for S in sym_basis(4)]
    alg = algebra_from_generators(gens)
    assert alg.rank == 10
    sympl = invariant_symplectic(alg)
    assert sympl is not None
    assert sympl.residual <= 1e-9
    assert np.abs(sympl.data / sympl.data[0, 2] - OMEGA).max() <= 1e-9
    # symplectic algebras preserve no metric and commute with scalars only
    assert invariant_metric(alg) is None
    assert invariant_complex(alg) is None


def test_complex_linear_algebra_recovers_j():
    rng = np.random.default_rng(5)
    gens = []
    for _ in range(4):
        P = rng.normal(size=(2, 2))
        P -= np.trace(P) / 2 * np.eye(2)
        Q = rng.normal(size=(2, 2))
        gens.append(np.block([[P, -Q], [Q, P]]))
    alg = algebra_from_generators(gens)
    cx = invariant_complex(alg)
    assert cx is not None
    assert cx.residual <= 1e-8
    assert np.abs(cx.data @ cx.data + np.eye(4)).max() <= 1e-8
    close_to = min(np.abs(cx.data - J0).max(), np.abs(cx.data + J0).max())
    assert close_to <= 1e-8
    assert cx.meta["anticommuting_partner_found"] is False


def test_quaternionic_algebra_flags_partner():
    Li = np.zeros((4, 4))
    Li[1, 0] = Li[3, 2] = 1.0
    Li[0, 1] = Li[2, 3] = -1.0
    Lj = np.zeros((4, 4))
    Lj[2, 0] = Lj[1, 3] = 1.0
    Lj[3, 1] = Lj[0, 2] = -1.0
    Lk = np.zeros((4, 4))
    Lk[3, 0] = Lk[2, 1] = 1.0
    Lk[1, 2] = Lk[0, 3] = -1.0
    alg = algebra_from_generators([Li, Lj, Lk])
    assert alg.rank == 3
    cx = invariant_complex(alg)
    assert cx is not None
    assert cx.meta["commutant_dim"] == 4
    assert cx.meta["anticommuting_partner_found"] is True
    rep = classify(alg, [invariant_metric(alg), cx])
    assert "Sp(1,H)-bundle over a quaternionic manifold" in rep["labels"]


def test_block_triangular_invariant_subspace():
    rng = np.random.default_rng(11)
    gens = []
    for _ in range(4):
        A = rng.normal(size=(4, 4))
        A[2:, :2] = 0.0
        A -= np.trace(A) / 4 * np.eye(4)
        gens.append(A)
    alg = algebra_from_generators(gens)
    subs = invariant_subspaces(alg)
    proj_true = np.diag([1.0, 1.0, 0.0, 0.0])
    hits = [c for c in subs if c.meta["dim"] == 2
            and np.abs(c.data @ c.data.T - proj_true).max() <= 1e-6]
    assert len(hits) == 1
    assert hits[0].residual <= 1e-9


def test_full_sl3_yields_no_candidates():
    rng = np.random.default_rng(3)
    gens = []
    for _ in range(8):
        A = rng.normal(size=(3, 3))
        A -= np.trace(A) / 3 * np.eye(3)
        gens.append(A)
    alg = algebra_from_generators(gens)
    assert alg.rank == 8
    assert invariant_metric(alg) is None
    assert invariant_symplectic(alg) is None
    assert invariant_complex(alg) is None
    assert invariant_subspaces(alg) == []
    rep = classify(alg, [])
    assert rep["labels"] == []
    assert rep["dimension_matches"] == ["sl(3,R)"]


def test_a_nan_residual_after_the_first_generator_rejects_the_mask(monkeypatch):
    # block upper-triangular generators keep span(e0, e1), with the max residual of them all
    rng = np.random.default_rng(11)
    gens = []
    for A in rng.normal(size=(4, 4, 4)):
        A[2:, :2] = 0.0
        gens.append(A - np.trace(A) / 4 * np.eye(4))
    alg = algebra_from_generators(gens)
    subs = invariant_subspaces(alg)
    assert [cand.meta["dim"] for cand in subs] == [2]
    proj = subs[0].data @ subs[0].data.T
    assert subs[0].residual == max(max_abs((np.eye(4) - proj) @ A @ proj) / (1.0 + max_abs(A))
                                   for A in alg.basis)
    # eig refuses a NaN matrix, so it is handed the eigenvectors of the finite basis; the NaN
    # generator, last in the basis, must still reject every mask
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda C: eig(sum(alg.basis)))
    nan_basis = np.concatenate([alg.basis, np.full((1, 4, 4), np.nan)])
    assert invariant_subspaces(dataclasses.replace(alg, basis=nan_basis)) == []
    assert invariant_subspaces(alg) != []


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_nan_generator_in_any_place_reads_not_finite(order):
    E01 = np.zeros((2, 2))
    E01[0, 1] = 1.0
    gens = [E01, np.full((2, 2), np.nan)]
    alg = algebra_from_generators([gens[i] for i in order])
    assert not alg.finite and np.isnan(alg.trace_free_residual)
    assert classify(alg, [])["trivial_holonomy"] is False


def test_a_tower_finite_at_its_first_matrix_only_reads_not_finite():
    # F_00 = 0 is finite; F_01 overflows in the derivatives of exp(1e200*x1)
    coords = ("x1", "x2")
    gamma = np.full((2, 2, 2), parse("0", coords), dtype=object)
    gamma[0, 1, 1] = parse("exp(1e200*x1)", coords)
    gamma[1, 0, 0] = parse("x2*x2", coords)
    chart = ChartModel(coords, gamma, [[-1.0, 1.0], [-1.0, 1.0]])
    with np.errstate(all="ignore"):
        alg = infinitesimal_algebra(chart, np.zeros(2))
    assert np.array_equal(alg.generators[0], np.zeros((3, 3)))
    assert not np.isfinite(alg.generators[1]).all()
    assert not alg.finite and alg.rank == 0
    assert classify(alg, [])["trivial_holonomy"] is False


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_planted_metric_survives_conjugation(seed):
    # congruence moves the form but keeps its signature
    rng = np.random.default_rng(seed)
    H = np.diag([1.0, 1.0, -1.0])
    g = rng.normal(size=(3, 3))
    assume(abs(np.linalg.det(g)) > 0.3)
    assume(np.linalg.cond(g) < 20.0)
    gi = np.linalg.inv(g)
    gens = [g @ (H @ rot_gen(i, j)) @ gi for i, j in ((0, 1), (0, 2), (1, 2))]
    alg = algebra_from_generators(gens)
    with mock.patch.object(holonomy, "_RANK_TOL", 1e-6):  # cond(g) < 20 is held to 1e-6
        met = invariant_metric(alg)
    assert met is not None
    assert met.meta["signature"] == (2, 1)
    expect = gi.T @ H @ gi
    assert np.abs(met.data / met.data[0, 0] - expect / expect[0, 0]).max() <= 1e-5


# -- span utilities ---------------------------------------------------------------


def test_bracket_closure_grows_so3():
    basis, closed, rounds, resid = bracket_closure(
        [rot_gen(0, 1), rot_gen(0, 2)], 3, 1e-7)
    assert basis.shape[0] == 3
    assert closed is False
    assert rounds >= 2
    assert resid <= 1e-7


def test_compare_spans_detects_containment():
    full = algebra_from_generators([rot_gen(0, 1), rot_gen(0, 2), rot_gen(1, 2)])
    part = algebra_from_generators([rot_gen(0, 1)])
    rep = compare_spans(full, full)
    assert rep["agree"] is True
    rep = compare_spans(part, full)
    assert rep["agree"] is False
    assert rep["a_in_b_residual"] <= 1e-9
    assert rep["b_in_a_residual"] > 0.5


def test_trivial_algebra_flags():
    alg = algebra_from_generators([], fiber_dim=4)
    assert alg.rank == 0
    met = invariant_metric(alg)
    assert met.meta["trivial"] is True
    assert "not informative" in met.meta["note"]
    subs = invariant_subspaces(alg)
    assert subs[0].meta["trivial"] is True
    rep = classify(alg, [met])
    assert rep["trivial_holonomy"] is True
    assert rep["labels"] == []
    with pytest.raises(ValueError):
        algebra_from_generators([])


# -- the principal logarithm --------------------------------------------------------

# Worst errors measured over 3,600 matrices expm(S), ||S||_2 <= 1, m = 3, 4, 5,
# six seeds: 3.4e-15 against scipy's logm, 1.3e-15 against S itself and
# 8.9e-16 between tr L and log det H; 1.2e-15 relative to scipy on unipotent
# and Jordan-block H.  Each tolerance is about three times its worst case.
LOG_VS_SCIPY_TOL = 1e-14
LOG_TRUE_TOL = 4e-15
LOG_TRACE_TOL = 3e-15
LOG_DEFECTIVE_TOL = 4e-15


@pytest.mark.parametrize("m", [3, 4, 5])
def test_principal_log_matches_scipy_on_exponentials(m):
    rng = np.random.default_rng(40 + m)
    for _ in range(200):
        S = rng.standard_normal((m, m))
        S *= rng.uniform(0.0, 1.0) / np.linalg.norm(S, 2)
        H = expm(S)
        L = _principal_log(H)
        assert np.abs(L - np.real(logm(H))).max() <= LOG_VS_SCIPY_TOL
        assert np.abs(L - S).max() <= LOG_TRUE_TOL
        assert abs(np.trace(L) - np.log(np.linalg.det(H))) <= LOG_TRACE_TOL


@pytest.mark.parametrize("m", [3, 4, 5])
def test_principal_log_of_unipotent_and_defective_matrices(m):
    rng = np.random.default_rng(50 + m)
    for scale in (1e-3, 0.1, 1.0, 5.0):
        N = np.triu(rng.standard_normal((m, m)), 1) * scale
        unipotent = np.eye(m) + N + N @ N / 2 + N @ N @ N / 6
        jordan = 2.0 * np.eye(m) + scale * np.eye(m, k=1)
        for H in (unipotent, jordan):
            reference = np.real(logm(H))
            error = np.abs(_principal_log(H) - reference).max()
            assert error <= LOG_DEFECTIVE_TOL * max(1.0, np.abs(reference).max())


def test_principal_log_of_the_identity_is_exactly_zero():
    for m in (3, 4, 5):
        assert not _principal_log(np.eye(m)).any()


@pytest.mark.parametrize("H", [
    np.full((3, 3), np.nan),
    np.diag([np.inf, 1.0, 1.0]),
    np.diag([-1.0, -1.0, 1.0, 1.0]),   # singular square-root iterate
    np.diag([-2.0, 1.0, 1.0]),         # no real principal log
    np.diag([0.0, 1.0, 1.0, 1.0]),     # singular
    np.full((3, 3), 1e300),
], ids=["nan", "inf", "minus-identity-block", "negative", "singular", "huge"])
def test_principal_log_without_a_real_principal_log_is_nan(H):
    assert np.isnan(_principal_log(H)).all()


# -- chart-based estimates ----------------------------------------------------------


def test_null_vectors_of_a_wide_matrix_include_its_extra_columns():
    # fewer rows than columns: the null space is held only by the rows of the
    # full vt past the rank, so it must not be read from the reduced one
    L = np.random.default_rng(3).normal(size=(3, 5))
    null = _null_vectors(L, 1e-10)
    assert null.shape == (2, 5)
    assert np.abs(L @ null.T).max() <= 1e-12
    np.testing.assert_allclose(null @ null.T, np.eye(2), atol=1e-12)
    # a tall matrix of rank 3 in 4 columns: one null vector
    tall = np.random.default_rng(4).normal(size=(8, 3)) @ np.random.default_rng(5).normal(
        size=(3, 4))
    assert _null_vectors(tall, 1e-10).shape == (1, 4)


def test_sphere_infinitesimal_rank_zero():
    alg = infinitesimal_algebra(sphere_chart(2), np.array([0.2, -0.3]))
    assert alg.rank == 0
    assert alg.rank_stable
    alg = infinitesimal_algebra(sphere_chart(3), np.array([0.2, -0.3, 0.1]))
    assert alg.rank == 0
    assert alg.rank_stable
    assert alg.details["orders_used"] == 1
    assert alg.details["rank_by_order"] == [0, 0]
    assert alg.method == "infinitesimal"


@pytest.mark.parametrize("name", bundled_names())
def test_infinitesimal_algebra_is_its_generators_algebra(name):
    # only the last order is wrapped as an algebra; each order's rank is its
    # generators' bracket closure
    m = load_bundled(name)
    alg = infinitesimal_algebra(m.chart, m.base())
    want = algebra_from_generators(list(alg.generators), m.chart.n + 1)
    for key in ("generators", "basis", "singular_values"):
        assert getattr(alg, key).tobytes() == getattr(want, key).tobytes(), key
    assert (alg.method, want.method) == ("infinitesimal", "provided")
    for key in ("rank", "rank_stable", "closed_under_bracket",
                "trace_free_residual", "bracket_residual"):
        assert getattr(alg, key) == getattr(want, key), key
    ranks = alg.details["rank_by_order"]
    tower = list(_curvature_tower(m.chart, m.base(), holonomy._MAX_ORDER))[:len(ranks)]
    assert ranks == [len(bracket_closure(np.concatenate(tower[:k + 1]), m.chart.n + 1,
                                         holonomy._RANK_TOL)[0]) for k in range(len(ranks))]


def test_twisted_infinitesimal_rank_two():
    # hand computation: the only curvature entry is R[1,2,0,2] = x3, and one
    # covariant derivative adds the top-right column direction; the span is
    # abelian and stays rank two at every higher order
    alg = infinitesimal_algebra(twisted_chart(), P3)
    assert alg.rank == 2
    assert alg.rank_stable
    assert alg.closed_under_bracket
    assert alg.trace_free_residual <= 1e-12
    assert alg.bracket_residual <= 1e-10
    off_pattern = np.ones((4, 4), dtype=bool)
    off_pattern[0, 2] = off_pattern[0, 3] = False
    for mat in alg.basis:
        assert np.abs(mat[off_pattern]).max() <= 1e-9
        assert np.abs(mat[3, :]).max() <= 1e-9  # no bottom-row part


def test_polynomial_chart_fills_sl4():
    alg = infinitesimal_algebra(polynomial_chart(3), np.array([0.11, -0.07, 0.23]))
    assert alg.rank == 15
    assert alg.rank_stable
    assert alg.details["rank_by_order"] == [11, 15]
    assert alg.trace_free_residual <= 1e-12
    assert invariant_metric(alg) is None
    assert invariant_symplectic(alg) is None
    assert invariant_complex(alg) is None
    assert invariant_subspaces(alg) == []


def test_twisted_loop_algebra_matches_infinitesimal():
    la = loop_algebra(twisted_chart(), P3)
    assert la.rank == 2
    assert la.details["loops_only_rank"] == 2
    assert la.details["log_retries"] == 0
    assert la.details["loops_in_infinitesimal_residual"] <= 1e-10
    ia = infinitesimal_algebra(twisted_chart(), P3)
    rep = compare_spans(la, ia)
    assert rep["agree"] is True
    assert la.method == "loops+infinitesimal"


def test_loop_algebra_equals_per_loop_holonomy_logs():
    # every segment of the family is transported in one batch; with no log
    # floor, even sphere3's round-off logs must match loop by loop, bit for bit
    m = load_bundled("sphere3")
    chart, base = m.chart, m.base()
    family = _default_loop_family(chart, base, count=6, seed=0, eps=0.08)  # the one it builds
    with mock.patch.object(holonomy, "_LOG_FLOOR", 0.0):
        la = loop_algebra(chart, base, count=6, seed=0)
    logs = []
    for loop in family:
        H, _ = loop_holonomy(chart, loop, tol=1e-10)
        log = _principal_log(H)
        logs.append(log / float(np.linalg.norm(log)))
    assert la.details["log_retries"] == 0
    assert la.generators.tobytes() == np.array(logs).tobytes()


def test_sphere2_loop_rank_zero():
    la = loop_algebra(sphere_chart(2), np.array([0.1, -0.2]), count=3)
    assert la.rank == 0
    assert la.details["loops_only_rank"] == 0


def test_loop_outside_the_log_branch_after_every_retry_fails_the_trace_check():
    # |Gamma| <= 1000 keeps every transport convergent, while curvature up to
    # 4e5 keeps the square's holonomy outside the branch through five halvings
    chart = ChartModel(("x1", "x2"), np.zeros((2, 2, 2)), [[-0.8, 0.8], [-0.8, 0.8]])
    gamma = chart.gamma.copy()
    gamma[0, 1, 1] = chart.parse("1000*sin(400*x1)")
    gamma[1, 0, 1] = gamma[1, 1, 0] = chart.parse("1000*sin(400*x2)")
    chart = chart.with_gamma(gamma)
    base = chart.center()
    H, rep = loop_holonomy(chart, square_loop(base, 0, 1, 0.04 / 2 ** 5), tol=1e-10)
    assert rep["converged"] and np.abs(H - np.eye(3)).max() >= 1.0
    with mock.patch.object(holonomy, "_default_loop_family",
                           lambda *_: [square_loop(base, 0, 1, 0.04)]):
        la = loop_algebra(chart, base)
    assert la.details["log_retries"] == 5
    assert la.trace_free_residual == np.inf
    assert not la.finite and classify(la, [])["trivial_holonomy"] is False


def test_a_holonomy_with_no_real_log_is_retried_on_a_shrunk_loop():
    # I - 0.9 J (J all ones) lies within max-abs 1 of I, but has eigenvalue -1.7
    chart = sphere_chart(2)
    loop = square_loop(np.array([0.1, -0.2]), 0, 1, 0.08)
    H = np.eye(3) - 0.9 * np.ones((3, 3))
    log, retries, converged = _guarded_log(chart, loop, H)
    assert retries == 1 and converged
    assert np.isfinite(log).all()


@pytest.mark.parametrize("seed", range(4))
def test_randpoly3_loop_logs_are_trace_free_to_round_off(seed):
    # the loop holonomies lie in SL(5) up to the round-off of their transports
    m = load_bundled("randpoly3")
    la = loop_algebra(m.chart, m.base(), count=4, seed=seed)
    assert la.trace_free_residual <= 5e-12


# -- the curvature tower on jets -----------------------------------------------------


def symbolic_covariant_derivative(chart, M, level):
    """One covariant derivative of a symbolic endomorphism-valued form: the
    symbolic tower the jet tower replaced, kept here as its reference."""
    n, m = chart.n, chart.n + 1
    form_rank = level.ndim - 2
    out = np.empty((n,) * (form_rank + 1) + (m, m), dtype=object)
    for a in range(n):
        for idx in np.ndindex(*(n,) * form_rank):
            K = level[idx]
            for r in range(m):
                for s in range(m):
                    term = K[r, s].diff(chart.coords[a])
                    for p in range(m):
                        term = term + (M[a, r, p] * K[p, s] - K[r, p] * M[a, p, s])
                    for slot in range(form_rank):
                        for q in range(n):
                            swapped = idx[:slot] + (q,) + idx[slot + 1:]
                            term = term - chart.gamma[q, a, idx[slot]] * level[swapped][r, s]
                    out[(a,) + idx + (r, s)] = term
    return out


def symbolic_tower(chart, point, max_order):
    level = assemble_tractor_curvature(weyl_field(chart), cotton_field(chart))
    M = connection_matrix_field(chart)
    out = []
    for order in range(max_order + 1):
        if order:
            level = symbolic_covariant_derivative(chart, M, level)
        out.append(np.array(interpret(level.ravel(), dict(zip(chart.coords, point)))).reshape(
            -1, chart.n + 1, chart.n + 1))
    return out


@pytest.mark.parametrize("name, max_order", [
    ("product_rf3", 3), ("randpoly3", 1), ("sphere3", 1), ("twisted", 1)])
def test_jet_tower_matches_symbolic_tower(name, max_order):
    if name == "twisted":
        chart, point = twisted_chart(), P3
    else:
        m = load_bundled(name)
        chart, point = m.chart, m.base() + 0.05
    want = symbolic_tower(chart, point, max_order)
    got = list(_curvature_tower(chart, point, max_order))
    assert len(got) == max_order + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max() + 1e-14


def test_quartic_chart_tower_grows_after_two_flat_orders():
    coords = ("x1", "x2")
    gamma = np.full((2, 2, 2), parse("0", coords), dtype=object)
    gamma[0, 1, 1] = parse("x1*x1*x1*x1", coords)
    chart = ChartModel(coords, gamma, [[-1.0, 1.0], [-1.0, 1.0]])
    maxima = [np.abs(v).max() for v in _curvature_tower(chart, chart.center(), 3)]
    assert maxima == [0.0, 0.0, pytest.approx(24.0, rel=1e-12), pytest.approx(72.0, rel=1e-12)]
    # the early stop still ends the tower where the rank first stalls
    alg = infinitesimal_algebra(chart, chart.center())
    assert alg.details["rank_by_order"] == [0, 0]


# -- classification report -------------------------------------------------------------


def test_classify_einstein_is_the_only_equivalence():
    alg = algebra_from_generators([rot_gen(0, 1), rot_gen(0, 2), rot_gen(1, 2)])
    met = invariant_metric(alg)
    rep = classify(alg, [met, None])
    assert rep["labels"] == ["Einstein manifold"]
    assert rep["equivalences"] == {"Einstein manifold": True}
    assert rep["caveat"] == CLASSIFY_CAVEAT
    assert rep["trivial_holonomy"] is False
    assert rep["estimator"] == "provided"
    assert rep["dimension_matches"] == ["so(p,q), p+q=3"]


def test_classify_labels_other_structures():
    gens = [OMEGA @ S for S in sym_basis(4)]
    alg = algebra_from_generators(gens)
    sympl = invariant_symplectic(alg)
    rep = classify(alg, [sympl])
    assert rep["labels"] == ["Contact manifold"]
    assert rep["equivalences"]["Contact manifold"] is False

    rng = np.random.default_rng(11)
    tri = []
    for _ in range(4):
        A = rng.normal(size=(4, 4))
        A[2:, :2] = 0.0
        A -= np.trace(A) / 4 * np.eye(4)
        tri.append(A)
    alg = algebra_from_generators(tri)
    subs = invariant_subspaces(alg)
    rep = classify(alg, subs)
    assert rep["labels"] == ["Foliation by Ricci-flat leaves"]
