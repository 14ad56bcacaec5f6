import numpy as np
import pytest

from tractorlab.affine import (
    OneFormField,
    TensorField,
    max_abs,
    project_change,
    ricci,
    sample_points,
)
from tractorlab.library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
)
from tractorlab.projective import (
    cotton,
    ricci_from_rho,
    rho,
    rho_field,
    weyl,
    weyl_invariance_test,
)

P2 = np.array([0.2, -0.3])
P3 = np.array([0.2, -0.3, 0.1])


def test_rho_on_spheres_is_minus_metric():
    c2 = sphere_chart(2)
    P = rho(c2, P2).components
    assert P[0, 0] == pytest.approx(-3.1325867334951836, abs=1e-12)
    g = TensorField(c2, c2.metric, "dd").at(P2).components
    assert max_abs(P + g) <= 1e-12

    c3 = sphere_chart(3)
    P = rho(c3, P3).components
    assert P[0, 0] == pytest.approx(-3.077870113881194, abs=1e-12)
    g = TensorField(c3, c3.metric, "dd").at(P3).components
    assert max_abs(P + g) <= 1e-12


def test_rho_on_hyperbolic_is_plus_metric():
    c = hyperbolic_chart(3)
    P = rho(c, P3).components
    assert P[0, 0] == pytest.approx(5.408328826392645, abs=1e-11)
    g = TensorField(c, c.metric, "dd").at(P3).components
    assert max_abs(P - g) <= 1e-11


def test_ricci_from_rho_round_trip():
    c = polynomial_chart(3, seed=9)
    for p in sample_points(c, seed=3, n_random=6, n_grid=4):
        P = rho(c, p).components
        ric = ricci(c, p).components
        assert max_abs(ricci_from_rho(P) - ric) <= 1e-12
        # rho itself need not be symmetric here
    # symbolic round trip as well
    rebuilt = ricci_from_rho(rho_field(c))
    env = c.env(P3)
    direct = ricci(c, P3).components
    vals = np.array([[rebuilt[i, j].eval(env) for j in range(3)] for i in range(3)])
    assert max_abs(vals - direct) <= 1e-12


def test_weyl_vanishes_on_constant_curvature_charts():
    for c in (sphere_chart(3), hyperbolic_chart(3)):
        for p in sample_points(c, seed=4, n_random=5, n_grid=4):
            assert max_abs(weyl(c, p).components) <= 1e-11


def test_weyl_vanishes_identically_in_dimension_two():
    c = polynomial_chart(2, seed=21, scale=0.3)
    for p in sample_points(c, seed=5, n_random=8, n_grid=4):
        assert max_abs(weyl(c, p).components) <= 1e-12


def test_weyl_trace_free_even_with_asymmetric_ricci():
    c = polynomial_chart(3, seed=13, scale=0.2)
    p = np.array([0.3, -0.2, 0.4])
    ric = ricci(c, p).components
    assert max_abs(ric - ric.T) > 1e-4  # generic: not symmetric
    W = weyl(c, p).components
    tr_first = np.einsum("kjkl->jl", W)
    tr_last = np.einsum("hjkk->hj", W)
    assert max_abs(tr_first) <= 1e-12
    assert max_abs(tr_last) <= 1e-12
    assert max_abs(W + W.transpose(1, 0, 2, 3)) <= 1e-12


def test_cotton_vanishes_on_constant_curvature_charts():
    for c in (flat_chart(3), sphere_chart(3)):
        assert max_abs(cotton(c, P3).components) <= 1e-11


def test_weyl_invariance_under_projective_change():
    c = polynomial_chart(3, seed=2)
    ups = [c.parse("0.4*x2"), c.parse("x1*x3 - 0.2"), c.parse("0.3*x1")]
    report = weyl_invariance_test(c, ups, seed=6)
    assert report["n_points"] >= 10
    assert report["max_weyl_residual"] <= 1e-10
    assert report["max_cotton_residual"] <= 1e-10


def test_weyl_invariance_on_curved_metric_chart():
    c = sphere_chart(2)
    ups = [c.parse("0.5*x2 + 0.1"), c.parse("-0.3*x1*x1")]
    report = weyl_invariance_test(c, ups, seed=7)
    assert report["max_weyl_residual"] <= 1e-10
    assert report["max_cotton_residual"] <= 1e-10


def test_rho_transformation_law():
    c = sphere_chart(2)
    ups = OneFormField(c, np.array([c.parse("x2"), c.parse("x1*x1")], dtype=object))
    changed = project_change(c, ups)
    for p in sample_points(c, seed=8, n_random=6, n_grid=4):
        # P'[i,j] = P[i,j] + d_i Ups_j - Ups_i Ups_j - Gamma^m_{ij} Ups_m, in the original chart
        env = c.env(p)
        u = ups.at(p)
        du = np.array([[ups.components[j].diff(c.coords[i]).eval(env) for j in range(2)]
                       for i in range(2)])
        pred = rho(c, p).components + du - np.outer(u, u) - np.einsum("mij,m->ij", c.gamma_at(p), u)
        actual = rho(changed, p).components
        assert max_abs(pred - actual) <= 1e-11
