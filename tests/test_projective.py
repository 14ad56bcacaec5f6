import gc
import weakref

import numpy as np
import pytest

from tractorlab import cli, expr, projective
from tractorlab.affine import (
    OneFormField,
    assemble_curvature,
    assemble_ricci,
    max_abs,
    project_change,
    sample_points,
)
from tractorlab.expr import ExprDomainError, compile_exprs
from tractorlab.jets import JetSpace
from tractorlab.library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
    twisted_chart,
)
from tractorlab.manifest import bundled_names, load_bundled
from tractorlab.projective import (
    assemble_cotton,
    assemble_rho,
    assemble_weyl,
    cotton,
    point_fields,
    ricci_from_rho,
    rho,
    rho_field,
    weyl,
    weyl_invariance_test,
)

from oracle import (
    TensorField,
    assemble_connection_matrix,
    assemble_tractor_curvature,
    covariant_derivative,
    interpreted_jets,
    ricci,
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
    env = dict(zip(c.coords, P3))
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
    report = weyl_invariance_test(c, [ups], seed=6)[0]
    assert report["n_points"] >= 10
    assert report["max_weyl_residual"] <= 1e-10
    assert report["max_cotton_residual"] <= 1e-10


def test_weyl_invariance_on_curved_metric_chart():
    c = sphere_chart(2)
    ups = [c.parse("0.5*x2 + 0.1"), c.parse("-0.3*x1*x1")]
    report = weyl_invariance_test(c, [ups], seed=7)[0]
    assert report["max_weyl_residual"] <= 1e-10
    assert report["max_cotton_residual"] <= 1e-10


def test_rho_transformation_law():
    c = sphere_chart(2)
    ups = OneFormField(c, np.array([c.parse("x2"), c.parse("x1*x1")], dtype=object))
    changed = project_change(c, ups)
    for p in sample_points(c, seed=8, n_random=6, n_grid=4):
        # P'[i,j] = P[i,j] + d_i Ups_j - Ups_i Ups_j - Gamma^m_{ij} Ups_m, in the original chart
        env = dict(zip(c.coords, p))
        u = ups.at(p)
        du = np.array([[ups.components[j].diff(c.coords[i]).eval(env) for j in range(2)]
                       for i in range(2)])
        pred = rho(c, p).components + du - np.outer(u, u) - np.einsum("mij,m->ij", c.gamma_at(p), u)
        actual = rho(changed, p).components
        assert max_abs(pred - actual) <= 1e-11


# -- jets against a compiled symbolic reference ----------------------------------


def symbolic_fields(chart):
    """Every field point_fields returns, built symbolically by the ring-generic
    assemblers and differentiated exactly."""
    n = chart.n

    def grad(field):
        return np.array([[e.diff(x) for e in field.ravel()] for x in chart.coords],
                        dtype=object).reshape((n,) + field.shape)

    R = assemble_curvature(chart.gamma, chart.dgamma_field())
    Ric = assemble_ricci(R)
    P = assemble_rho(Ric, n)
    W = assemble_weyl(R, P)
    CY = assemble_cotton(P, grad(P), chart.gamma)
    M = assemble_connection_matrix(chart.gamma, P)
    dM = grad(M)
    F_M = (dM - dM.transpose(1, 0, 2, 3) + np.einsum("hrm,jms->hjrs", M, M)
           - np.einsum("jrm,hms->hjrs", M, M))
    return {
        "gamma": chart.gamma, "R": R, "Ric": Ric, "P": P, "W": W, "CY": CY, "M": M,
        "dRic": grad(Ric),
        "nablaRic": covariant_derivative(chart, TensorField(chart, Ric, "dd")).components,
        "F": assemble_tractor_curvature(W, CY), "F_M": F_M,
    }


def chart_and_samples(name):
    if name == "twisted":
        chart = twisted_chart()
        return chart, sample_points(chart)[:50]
    m = load_bundled(name)
    return m.chart, m.sample()[:50]


def assert_fields_match(got, chart, pts):
    want = symbolic_fields(chart)
    assert set(got) == set(want)
    for key, field in want.items():
        ref = compile_exprs(field.ravel(), chart.coords)(pts).reshape((len(pts),) + field.shape)
        assert got[key].shape == ref.shape, key
        # relative to the field's size; a field that vanishes (W, CY of a space form)
        # keeps the round-off of its O(1) terms
        assert np.abs(got[key] - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0), key


@pytest.mark.parametrize("name", bundled_names() + ["twisted", "sphere3+change",
                                                    "randpoly3+change"])
def test_point_fields_match_compiled_symbolic_fields(name):
    chart, pts = chart_and_samples(name.removesuffix("+change"))
    if name.endswith("+change"):
        chart = project_change(chart, [chart.parse(t) for t in
                                       ("0.3*x2 + 0.1", "x1*x3 - 0.2", "sin(x1)")])
    assert_fields_match(point_fields(chart, pts), chart, pts)


def test_point_fields_at_one_point_are_the_batch_row():
    chart, pts = chart_and_samples("randpoly3")
    batch = point_fields(chart, pts[:4])
    one = point_fields(chart, pts[2])
    for key, values in batch.items():
        assert np.array_equal(one[key], values[2]), key


@pytest.mark.parametrize("name", bundled_names())
def test_point_fields_sweep_the_program_the_chart_compiled_at_load(name, monkeypatch):
    # the chart compiles Gamma once, at load; its jets at sample points and
    # the base sweep that program, and are the tree interpreter's bit for bit
    m = load_bundled(name)
    chart = m.chart
    builds = []

    def counting(*args):
        builds.append(args)
        return tape(*args)

    tape = expr._tape
    monkeypatch.setattr(expr, "_tape", counting)
    gamma = chart.gamma.ravel()
    for pts, degree in ((m.sample()[:40], 2), (m.base(), 5)):
        got = point_fields(chart, pts, degree=degree, jets=True)["gamma"]
        assert not builds
        want = interpreted_jets(gamma, chart.coords, JetSpace.of(chart.n, degree), pts)
        assert got.tobytes() == want.tobytes()


def test_point_fields_need_second_derivatives():
    chart, pts = chart_and_samples("flat2")
    with pytest.raises(ValueError, match="degree must be at least 2"):
        point_fields(chart, pts, degree=1)


FIELD_KEYS = ["gamma", "R", "Ric", "P", "W", "CY", "M", "dRic", "nablaRic", "F", "F_M"]


def test_point_fields_keys_and_their_order(monkeypatch):
    chart, pts = chart_and_samples("sphere3")
    fields = point_fields(chart, pts[:3])
    assert list(fields) == FIELD_KEYS and len(fields) == len(FIELD_KEYS)
    with monkeypatch.context() as patch:  # a membership test computes no field
        patch.setattr(projective._PointFields, "_rule", lambda self, key: pytest.fail(key))
        assert "F_M" in fields and "W" in fields and "Weyl" not in fields
    with pytest.raises(KeyError):
        fields["Weyl"]
    with pytest.raises(TypeError):
        fields["W"] = fields["W"]


@pytest.mark.parametrize("name", ["randpoly3", "sphere2", "twisted"])
@pytest.mark.parametrize("degree, jets", [(2, False), (2, True), (4, True)])
def test_each_field_read_alone_or_in_any_order_is_the_value_read_after_all(name, degree, jets):
    chart, pts = chart_and_samples(name)
    pts = pts[:5]
    want = {key: value.tobytes() for key, value in
            dict(point_fields(chart, pts, degree=degree, jets=jets)).items()}
    for key in FIELD_KEYS:
        assert point_fields(chart, pts, degree=degree, jets=jets)[key].tobytes() == want[key], key
    rng = np.random.default_rng(3)
    for _ in range(4):
        fields = point_fields(chart, pts, degree=degree, jets=jets)
        for key in rng.permutation(FIELD_KEYS):
            assert fields[key].tobytes() == want[key], key


@pytest.mark.parametrize("command", ["compute", "invariance"])
def test_compute_and_invariance_build_no_field_they_do_not_read(command, monkeypatch):
    rule = projective._PointFields._rule

    def refusing(self, key):
        if key in ("F_M", "dRic", "nablaRic"):
            raise AssertionError(f"{command} built {key}")
        return rule(self, key)

    monkeypatch.setattr(projective._PointFields, "_rule", refusing)
    report = cli.run(command, load_bundled("sphere3"), seed=0)
    assert report["all_pass"] is True


def test_point_fields_hold_no_reference_cycle():
    # without a cycle the jets die with the mapping, not at a later gc pass
    chart, pts = chart_and_samples("sphere3")
    fields = point_fields(chart, pts[:4])
    fields["F"], fields["nablaRic"]  # every field is computed and held
    ref = weakref.ref(fields)
    gc.disable()
    try:
        del fields
        assert ref() is None
    finally:
        gc.enable()


def test_pole_of_ups_at_a_sample_point_names_its_subexpression_and_point():
    chart, pts = chart_and_samples("sphere3")
    k = 7
    pole = chart.parse(f"1/(x1 - {float(pts[k][0])!r})")
    ups = OneFormField(chart, np.array([chart.parse("x2"), pole, chart.parse("0")], dtype=object))
    with pytest.raises(ExprDomainError) as err:
        point_fields(project_change(chart, ups), pts)
    assert f"division by zero in '{pole.to_string()}'" in str(err.value)
    assert err.value.point == dict(zip(chart.coords, pts[k]))
