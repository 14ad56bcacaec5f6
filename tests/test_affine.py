import math

import numpy as np
import pytest

from tractorlab.affine import (
    ChartModel,
    Curve,
    OneFormField,
    max_abs,
    normalize_volume,
    project_change,
    _rk4_grid,
    rk4_adaptive,
    sample_points,
    symmetrize,
)
from tractorlab.expr import ExprDomainError, _tape, compile_exprs, num, parse, var
from tractorlab.manifest import bundled_names, load_bundled
from tractorlab.library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
    twisted_chart,
)
from tractorlab.projective import weyl_field
from tractorlab.tractor import _connection_program

from oracle import (
    TensorField,
    connection_matrix_field,
    covariant_derivative,
    curvature,
    integrate_geodesic,
    interpret,
    ricci,
    segment_components,
)

P2 = np.array([0.2, -0.3])
P3 = np.array([0.2, -0.3, 0.1])


def test_flat_chart_has_zero_curvature():
    c = flat_chart(3)
    assert max_abs(curvature(c, P3).components) == 0.0
    assert max_abs(ricci(c, P3).components) == 0.0


def test_sphere2_christoffel_and_curvature_values():
    c = sphere_chart(2)
    g = c.gamma_at(P2)
    assert g[0, 0, 0] == pytest.approx(-40.0 / 113.0, abs=1e-15)
    R = curvature(c, P2).components
    assert R[0, 1, 0, 1] == pytest.approx(3.1325867334951836, abs=1e-12)
    ric = ricci(c, P2).components
    # unit 2-sphere: Ric = (n-1) g = g
    assert ric[0, 0] == pytest.approx(3.1325867334951836, abs=1e-12)
    gval = TensorField(c, c.metric, "dd").at(P2).components
    assert max_abs(ric - gval) <= 1e-12


def test_sphere3_frozen_values():
    c = sphere_chart(3)
    g = c.gamma_at(P3)
    assert g[0, 0, 0] == pytest.approx(-20.0 / 57.0, abs=1e-15)
    R = curvature(c, P3).components
    assert R[0, 1, 0, 1] == pytest.approx(3.077870113881194, abs=1e-12)
    ric = ricci(c, P3).components
    assert ric[0, 0] == pytest.approx(6.155740227762388, abs=1e-12)
    gval = TensorField(c, c.metric, "dd").at(P3).components
    assert max_abs(ric - 2.0 * gval) <= 1e-12


def test_hyperbolic3_frozen_values():
    c = hyperbolic_chart(3)
    g = c.gamma_at(P3)
    assert g[0, 0, 0] == pytest.approx(20.0 / 43.0, abs=1e-15)
    R = curvature(c, P3).components
    assert R[0, 1, 0, 1] == pytest.approx(-5.408328826392645, abs=1e-12)
    ric = ricci(c, P3).components
    assert ric[0, 0] == pytest.approx(-10.81665765278529, abs=1e-11)
    gval = TensorField(c, c.metric, "dd").at(P3).components
    assert max_abs(ric + 2.0 * gval) <= 1e-11


def test_twisted_chart_curvature_and_ricci():
    c = twisted_chart()
    p = np.array([0.15, 0.25, 0.35])
    R = curvature(c, p).components
    assert R[1, 2, 0, 2] == pytest.approx(0.35, abs=1e-14)
    assert max_abs(ricci(c, p).components) <= 1e-14
    # volume preserving already: trace of the symbols vanishes
    tr = [e.eval(dict(zip(c.coords, p))) for e in c.trace_gamma_field()]
    assert max_abs(tr) == 0.0


def test_curvature_antisymmetry_and_first_bianchi():
    c = sphere_chart(3)
    R = curvature(c, P3).components
    assert max_abs(R + R.transpose(1, 0, 2, 3)) <= 1e-12
    n = 3
    worst = 0.0
    for h in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    cyc = R[h, j, k, l] + R[j, l, k, h] + R[l, h, k, j]
                    worst = max(worst, abs(cyc))
    assert worst <= 1e-12


def test_ricci_symmetric_for_metric_connections():
    for c in (sphere_chart(2), sphere_chart(3), hyperbolic_chart(3)):
        p = P2 if c.n == 2 else P3
        ric = ricci(c, p).components
        assert max_abs(ric - ric.T) <= 1e-12


def test_project_change_composes_and_inverts():
    c = polynomial_chart(3, seed=5)
    u1 = [c.parse("0.2*x2"), c.parse("x1*x3"), c.parse("-0.1")]
    u2 = [c.parse("x3"), c.parse("0.3"), c.parse("x1-x2")]
    both = [a + b for a, b in zip(u1, u2)]
    c12 = project_change(project_change(c, u1), u2)
    c_sum = project_change(c, both)
    back = project_change(project_change(c, u1), [-e for e in u1])
    for p in sample_points(c, seed=1, n_random=5, n_grid=5):
        assert max_abs(c12.gamma_at(p) - c_sum.gamma_at(p)) <= 1e-12
        assert max_abs(back.gamma_at(p) - c.gamma_at(p)) <= 1e-12


def test_project_change_shape():
    c = flat_chart(2)
    ups = [num(1.0), num(0.0)]
    c2 = project_change(c, ups)
    g = c2.gamma_at(np.zeros(2))
    # Gamma'^k_{ij} = d^k_j Ups_i + d^k_i Ups_j with Ups = dx1
    expect = np.zeros((2, 2, 2))
    expect[0, 0, 0] = 2.0
    expect[0, 0, 1] = expect[0, 1, 0] = 0.0
    expect[1, 0, 1] = expect[1, 1, 0] = 1.0
    assert max_abs(g - expect) == 0.0


def test_normalize_volume_kills_trace():
    c = sphere_chart(3)
    cv, ups = normalize_volume(c)
    for p in sample_points(c, seed=2, n_random=8, n_grid=4):
        tr = [e.eval(dict(zip(cv.coords, p))) for e in cv.trace_gamma_field()]
        assert max_abs(tr) <= 1e-12
    # the one-form used is -tr(Gamma)/(n+1)
    tr0 = [e.eval(dict(zip(c.coords, P3))) for e in c.trace_gamma_field()]
    assert max_abs(ups.at(P3) + np.array(tr0) / 4.0) <= 1e-15


def test_symmetrize_reports_asymmetry():
    n = 2
    gamma = np.full((n, n, n), num(0.0), dtype=object)
    gamma[0, 0, 1] = var("x2")
    c = ChartModel(("x1", "x2"), gamma, [[-1, 1], [-1, 1]])
    c2, worst = symmetrize(c)
    assert worst > 0.1
    p = np.array([0.4, 0.7])
    g = c2.gamma_at(p)
    assert max_abs(g - g.transpose(0, 2, 1)) == 0.0
    assert g[0, 0, 1] == pytest.approx(0.35)
    c3, worst3 = symmetrize(c2)
    assert worst3 <= 1e-15


def test_metric_compatibility_of_conformal_connections():
    for c in (sphere_chart(2), hyperbolic_chart(3)):
        field = TensorField(c, c.metric, "dd")
        nabla_g = covariant_derivative(c, field)
        p = P2 if c.n == 2 else P3
        assert max_abs(nabla_g.at(p).components) <= 1e-12


def test_covariant_derivative_leibniz():
    c = sphere_chart(2)
    vecs = np.array([c.parse("x2 + 0.5"), c.parse("x1*x1")], dtype=object)
    forms = np.array([c.parse("sin(x1)"), c.parse("x1 - x2")], dtype=object)
    V = TensorField(c, vecs, "u")
    w = TensorField(c, forms, "d")
    scalar = np.asarray(sum(forms[i] * vecs[i] for i in range(2)), dtype=object)
    s = TensorField(c, scalar, "")
    p = np.array([0.3, -0.1])
    ds = covariant_derivative(c, s).at(p).components
    dV = covariant_derivative(c, V).at(p).components
    dw = covariant_derivative(c, w).at(p).components
    Vp = V.at(p).components
    wp = w.at(p).components
    lhs = ds
    rhs = dw @ Vp + dV @ wp
    assert max_abs(lhs - rhs) <= 1e-12


def test_covariant_derivative_of_scalar_is_gradient():
    c = sphere_chart(2)
    s = TensorField(c, np.asarray(c.parse("x1*x2"), dtype=object), "")
    out = covariant_derivative(c, s).at(np.array([0.2, 0.5])).components
    assert out == pytest.approx([0.5, 0.2])


def test_flat_geodesic_is_straight():
    c = flat_chart(2)
    path = integrate_geodesic(c, [0.1, -0.2], [0.3, 0.5], t_end=1.0)
    assert not path.exited_domain
    assert path.converged
    assert max_abs(path.points[-1] - np.array([0.4, 0.3])) <= 1e-12
    assert max_abs(path.velocities[-1] - np.array([0.3, 0.5])) <= 1e-12


def test_sphere_geodesic_matches_great_circle():
    # unit-speed great circle through the chart origin: x(t) = tan(t/2) e1
    c = sphere_chart(2)
    path = integrate_geodesic(c, [0.0, 0.0], [0.5, 0.0], t_end=0.8, tol=1e-10)
    assert path.converged and not path.exited_domain
    end = path.points[-1]
    assert end[0] == pytest.approx(math.tan(0.4), abs=1e-9)
    assert abs(end[1]) <= 1e-12
    vend = path.velocities[-1]
    assert vend[0] == pytest.approx(0.5 / math.cos(0.4) ** 2, abs=1e-9)


def test_geodesic_domain_exit_is_flagged():
    c = flat_chart(2)
    path = integrate_geodesic(c, [0.9, 0.0], [1.0, 0.0], t_end=1.0)
    assert path.exited_domain
    assert path.points[-1][0] <= 1.0
    assert len(path.ts) < 130


def _point_polyline_distance(q, pts):
    a = pts[:-1]
    b = pts[1:]
    d = b - a
    denom = np.einsum("ij,ij->i", d, d)
    denom[denom == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", q - a, d) / denom, 0.0, 1.0)
    proj = a + t[:, None] * d
    return float(np.sqrt(((q - proj) ** 2).sum(axis=1)).min())


def test_projective_change_preserves_geodesic_traces():
    c = sphere_chart(2)
    ups = [c.parse("0.3*x2"), c.parse("-0.2*x1")]
    c2 = project_change(c, ups)
    p0, v0 = [-0.2, 0.1], [0.45, 0.3]
    base = integrate_geodesic(c, p0, v0, t_end=1.2, tol=1e-10, record_steps=4096)
    other = integrate_geodesic(c2, p0, v0, t_end=0.6, tol=1e-10, record_steps=512)
    assert base.converged and other.converged
    assert not base.exited_domain and not other.exited_domain
    for idx in (len(other.points) // 2, -1):
        dist = _point_polyline_distance(other.points[idx], base.points)
        assert dist <= 1e-6


def test_sample_points_deterministic_and_inside():
    c = sphere_chart(3)
    a = sample_points(c, seed=11)
    b = sample_points(c, seed=11)
    d = sample_points(c, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, d)
    assert a.shape == (64, 3)
    for p in a:
        assert c.contains(p)


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartModel(("x1",), np.full((1, 1, 1), num(0.0), dtype=object), [[-1, 1]])
    with pytest.raises(ValueError):
        ChartModel(("x1", "x1"), np.full((2, 2, 2), num(0.0), dtype=object),
                   [[-1, 1], [-1, 1]])
    with pytest.raises(ValueError):
        ChartModel(("x1", "sin"), np.full((2, 2, 2), num(0.0), dtype=object),
                   [[-1, 1], [-1, 1]])
    with pytest.raises(ValueError):
        ChartModel(("x1", "x2"), np.full((2, 2, 2), num(0.0), dtype=object),
                   [[1, -1], [-1, 1]])


def test_curve_helpers():
    seg = Curve.segment([0.0, 1.0], [2.0, -1.0])
    assert max_abs(seg.point(0.5) - np.array([1.0, 0.0])) == 0.0
    assert max_abs(seg.delta - np.array([2.0, -2.0])) == 0.0


def test_evaluator_is_cached_per_field_and_shaped_like_it():
    c = polynomial_chart(3, seed=20)
    assert c.evaluator(weyl_field(c)) is c.evaluator(weyl_field(c))
    metric_chart = sphere_chart(3)
    cases = [(c, c.gamma), (metric_chart, metric_chart.metric), (c, weyl_field(c)),
             (c, connection_matrix_field(c))]
    for chart, field in cases:
        for p in sample_points(chart, seed=1, n_random=3, n_grid=0):
            got = chart.evaluator(field)(p)
            assert got.shape == field.shape
            want = compile_exprs(field.ravel(), chart.coords)(*p).reshape(field.shape)
            assert np.array_equal(got, want)


def test_batch_evaluation_equals_pointwise_on_bundled_charts():
    for name in bundled_names():
        m = load_bundled(name)
        chart = m.chart
        pts = m.sample()
        for field in (chart.gamma, connection_matrix_field(chart)):
            at = chart.evaluator(field)
            got = at(pts)
            want = np.array([at(p) for p in pts])
            assert got.shape == (len(pts),) + field.shape
            assert got.tobytes() == want.tobytes(), name


def test_stage_grid_equals_the_accumulated_rk4_times():
    intervals = [(0.0, 1.0), (0.1, 0.7), (1.0, 0.0)]  # dyadic, not dyadic, reversed
    for steps in (64, 128, 1024):
        h, grid = _rk4_grid(np.array([a for a, _ in intervals]),
                            np.array([b for _, b in intervals]), steps)
        assert grid.shape == (2 * steps + 1, len(intervals))
        for col, (t0, t1) in enumerate(intervals):
            h_ref = (t1 - t0) / steps
            want, t = [], t0
            for _ in range(steps):  # each step's end is accumulated as the next start
                want += [t, t + h_ref / 2]
                t += h_ref
            want.append(t)
            assert h[col] == h_ref
            assert grid[:, col].tobytes() == np.array(want).tobytes()
            h_one, one = _rk4_grid(t0, t1, steps)
            assert h_one == h_ref and one.tobytes() == grid[:, col].tobytes()


def test_rk4_adaptive_stops_at_the_last_level_within_max_steps():
    # from 48 steps the levels run 48 * 2^k; the last one within 65,536 is 49,152
    decay = lambda t, y: -y  # noqa: E731
    for initial, last in ((48, 49152), (64, 65536)):
        _, steps, ok = rk4_adaptive(decay, np.ones(1), 0.0, 1.0, tol=-1.0, initial_steps=initial)
        assert (steps, ok) == (last, False)
    _, steps, ok = rk4_adaptive(decay, np.ones(1), 0.0, 1.0, tol=-1.0, max_steps=64)
    assert (steps, ok) == (64, False)


def test_segment_closed_form_equals_its_compiled_components():
    t = np.array([0.0, 2.0 ** -7, 1 / 3, 0.5, 0.7, 1.0])
    ends = [([0.0, -0.0, 0.3, 0.3], [-0.5, -0.0, 0.3, 1.3]),  # zero starts, zero and unit deltas
            ([0.2, -0.3, 0.1, 0.0], [0.0, 0.4, -0.6, 1.0]),
            ([-0.0, 1e-300, -7.25, 0.1], [1.0, -1e-300, 1e3 / 3, 0.1 + 2 ** -52]),
            ([0.08, 0.08, -0.0, 1.0], [0.16, 0.0, -1.0, 0.0])]
    rng = np.random.default_rng(5)
    ends += [tuple(rng.uniform(-1.0, 1.0, (2, 4)).round(int(k))) for k in range(1, 8)]
    for a, b in ends:
        seg = Curve.segment(a, b)
        comps = segment_components(seg)
        exprs = comps + tuple(c.diff("t") for c in comps)
        path = compile_exprs(exprs, ("t",))(t[:, None])
        x = seg.start + seg.delta * t[:, None]
        xdot = np.broadcast_to(seg.delta, x.shape)
        assert np.concatenate([x, xdot], axis=1).tobytes() == path.tobytes()
        for ti, want in zip(t, path):  # the numeric path of a segment and its expressions
            assert np.concatenate([seg.point(ti), seg.delta]).tobytes() == want.tobytes()
            interpreted = interpret(exprs, {"t": ti})
            assert np.array(interpreted).tobytes() == want.tobytes()


def tape_operations(registers, steps, n):
    """A number per tape step for the operation it computes, found by running
    the tape on symbols: two steps get one number when they apply one
    function to the same values."""
    held = [("x", i) for i in range(n)]  # then constants, and None in a working register
    held += [None if c is None else ("c", type(c), repr(c)) for c in registers]
    numbers: dict = {}
    out = []
    for fn, a, b, r in steps:
        assert held[a] is not None and held[b] is not None  # never read before written
        held[r] = numbers.setdefault((fn, held[a], held[b]), len(numbers))
        out.append(held[r])
    return out


# at most one step for each temporary of the Python source that the
# connection programs were compiled to before the tape
EMITTED_TEMPORARIES = {"flat2": 0, "flat3": 0, "hyperbolic3": 111, "product_rf3": 1,
                       "randpoly3": 108, "sphere2": 52, "sphere3": 108}


def test_compiled_connection_shares_right_hand_sides_on_bundled_charts():
    assert sorted(EMITTED_TEMPORARIES) == bundled_names()
    for name in bundled_names():
        m = load_bundled(name)
        chart = m.chart
        flat = list(_connection_program(chart).ravel())
        registers, steps, *_ = _tape(flat, chart.coords)
        ops = tape_operations(registers, steps, chart.n)
        assert len(set(ops)) == len(ops) <= EMITTED_TEMPORARIES[name], name
        pts = m.sample()[:5]
        fn = compile_exprs(flat, chart.coords)
        want = np.array([interpret(flat, dict(zip(chart.coords, p))) for p in pts])
        assert fn(pts).tobytes() == want.tobytes(), name
        assert np.array([fn(*p) for p in pts]).tobytes() == want.tobytes(), name


def test_one_form_on_a_batch_is_its_values_at_each_point_bit_for_bit():
    c = sphere_chart(3)
    texts = ("sin(x1)*exp(x2)", "x1/(2 + x3)", "(x2 + 1.5)^-2 - exp(-x3)")
    ups = OneFormField(c, np.array([c.parse(t) for t in texts], dtype=object))
    pts = sample_points(c, seed=3, n_random=20, n_grid=4)
    batch = ups.at(pts)
    assert batch.shape == (len(pts), 3)
    for p, row in zip(pts, batch):
        assert row.tobytes() == ups.at(p).tobytes()
        want = interpret(ups.components, dict(zip(c.coords, p)))
        assert row.tobytes() == np.array(want).tobytes()
    # poles at two points of the batch: the first one is reported
    first, second = (c.parse(f"1/(x1 - {float(pts[k][0])!r})") for k in (6, 11))
    poles = OneFormField(c, np.array([c.parse("x2"), first + second, c.parse("x3")],
                                     dtype=object))
    with pytest.raises(ExprDomainError) as err:
        poles.at(pts)
    assert f"division by zero in '{first.to_string()}'" in str(err.value)
    assert err.value.point == dict(zip(c.coords, pts[6]))


def structure_key(e, keys):
    """A nested tuple naming the tree under `e`: equal exactly when the trees are."""
    if id(e) not in keys:
        kids = [structure_key(getattr(e, a), keys)
                for a in ("left", "right", "operand", "base", "arg") if hasattr(e, a)]
        payload = [getattr(e, a) for a in ("name", "exponent", "func") if hasattr(e, a)]
        if hasattr(e, "value"):
            payload.append(e.value.hex())
        keys[id(e)] = (type(e).__name__, *payload, *kids)
    return keys[id(e)]


@pytest.mark.parametrize("name, distinct", [("sphere3", 31), ("hyperbolic3", 31),
                                            ("randpoly3", 183), ("sphere2", 21)])
def test_bundled_gamma_has_one_node_per_distinct_subexpression(name, distinct):
    gamma = load_bundled(name).chart.gamma
    keys: dict = {}
    for e in gamma.ravel():
        structure_key(e, keys)
    # keys holds one entry per node by identity
    assert len(keys) == len(set(keys.values())) == distinct
