import numpy as np
import pytest
from scipy.linalg import logm

from tractorlab import affine
from tractorlab.affine import (
    Curve,
    _linear_transport,
    max_abs,
    project_change,
    rk4_adaptive,
    sample_points,
)
from tractorlab.expr import compile_exprs
from tractorlab.manifest import load_bundled
from tractorlab.library import flat_chart, polynomial_chart, sphere_chart, twisted_chart
from tractorlab.projective import rho
from tractorlab.tractor import (
    connection_matrix_field,
    connection_matrix,
    loop_holonomy,
    parallel_transport,
    splitting_matrix,
    spread_structure,
    square_loop,
    tractor_curvature,
    tractor_curvature_from_connection,
    transport_operator,
)

P2 = np.array([0.2, -0.3])
P3 = np.array([0.2, -0.3, 0.1])


def test_connection_matrix_blocks():
    c = sphere_chart(2)
    X = np.array([0.7, -0.4])
    M = connection_matrix(c, P2, X)
    assert max_abs(M[:2, 2] - X) <= 1e-14
    P = rho(c, P2).components
    assert max_abs(M[2, :2] - X @ P) <= 1e-13
    g = c.gamma_at(P2)
    w = -float(X @ np.einsum("mim->i", g)) / 3.0
    assert M[2, 2] == pytest.approx(w, abs=1e-13)
    gl = np.einsum("i,kim->km", X, g) + w * np.eye(2)
    assert max_abs(M[:2, :2] - gl) <= 1e-13


def test_connection_matrix_is_trace_free():
    for c in (sphere_chart(3), polynomial_chart(3, seed=4)):
        M = connection_matrix(c, P3, np.array([0.3, 0.9, -0.5]))
        assert abs(np.trace(M)) <= 1e-12


def test_tractor_curvature_two_routes_agree():
    for c in (polynomial_chart(3, seed=2), sphere_chart(2)):
        pts = sample_points(c, seed=1, n_random=4, n_grid=3)
        for p in pts:
            a = tractor_curvature(c, p)
            b = tractor_curvature_from_connection(c, p)
            scale = 1.0 + max_abs(a)
            assert max_abs(a - b) / scale <= 1e-11


def test_tractor_curvature_forced_zero_blocks():
    c = polynomial_chart(3, seed=8)
    p = np.array([0.25, -0.15, 0.3])
    F = tractor_curvature_from_connection(c, p)
    n = c.n
    # tangent column and bottom-right corner vanish identically
    assert max_abs(F[:, :, :, n]) <= 1e-12
    # every F[h,j] is trace free
    assert max_abs(np.einsum("hjkk->hj", F)) <= 1e-12


def test_flat_transport_closed_form():
    c = flat_chart(3)
    a = np.array([-0.2, 0.1, 0.4])
    b = np.array([0.5, -0.3, 0.0])
    T, _, ok = transport_operator(c, Curve.segment(a, b))
    assert ok
    expect = np.eye(4)
    expect[:3, 3] = -(b - a)
    assert max_abs(T - expect) <= 1e-12
    # the canonical bottom tractor picks up minus the displacement
    v1, _, _ = parallel_transport(c, Curve.segment(np.zeros(3), np.array([1.0, 0, 0])),
                                  np.array([0.0, 0.0, 0.0, 1.0]))
    assert max_abs(v1 - np.array([-1.0, 0.0, 0.0, 1.0])) <= 1e-12


def test_flat_and_sphere_loops_are_trivial():
    # the round sphere is projectively flat: contractible loops act trivially
    for c, p in ((flat_chart(2), np.zeros(2)), (sphere_chart(2), np.array([0.1, -0.2]))):
        H, rep = loop_holonomy(c, square_loop(p, 0, 1, 0.3), tol=1e-10)
        assert rep["det_drift"] <= 1e-9
        assert max_abs(H - np.eye(3)) <= 1e-8


def test_loop_holonomy_matches_curvature_to_second_order():
    c = twisted_chart()
    p = np.array([0.15, 0.25, 0.35])
    F = tractor_curvature(c, p)[1, 2]
    assert F[0, 2] == pytest.approx(0.35, abs=1e-13)
    drifts = {}
    for eps in (0.1, 0.05):
        H, rep = loop_holonomy(c, square_loop(p, 1, 2, eps), tol=1e-11)
        assert rep["det_drift"] <= 1e-9
        log_h = np.real(logm(H))
        drifts[eps] = max_abs(log_h - (-(eps ** 2) * F))
    assert drifts[0.1] <= 1e-3
    assert drifts[0.05] <= 1.3e-4
    ratio = drifts[0.1] / drifts[0.05]
    assert 6.0 <= ratio <= 10.0


def test_transport_commutes_with_splitting_change():
    c = sphere_chart(2)
    ups_exprs = [c.parse("0.3*x2"), c.parse("-0.1*x1")]
    c2 = project_change(c, ups_exprs)

    def ups_at(p):
        env = c.env(p)
        return np.array([e.eval(env) for e in ups_exprs])

    a = np.array([-0.2, -0.1])
    b = np.array([0.3, 0.25])
    curve = Curve.segment(a, b)
    v0 = np.array([0.4, -0.7, 0.2])
    direct, _, _ = parallel_transport(c, curve, v0, tol=1e-10)
    v0_changed = splitting_matrix(-ups_at(a)) @ v0
    moved, _, _ = parallel_transport(c2, curve, v0_changed, tol=1e-10)
    via_change = splitting_matrix(ups_at(b)) @ moved
    assert max_abs(direct - via_change) / (1.0 + max_abs(direct)) <= 1e-8


def test_splitting_matrix_inverts():
    u = np.array([0.3, -1.2, 0.7])
    G = splitting_matrix(u) @ splitting_matrix(-u)
    assert max_abs(G - np.eye(4)) <= 1e-15


def test_dual_transport_preserves_pairing():
    c = sphere_chart(2)
    curve = Curve.segment([-0.2, 0.1], [0.35, -0.05])
    v0 = np.array([0.5, -0.2, 1.0])
    xi0 = np.array([-0.3, 0.8, 0.4])
    v1, _, _ = parallel_transport(c, curve, v0, tol=1e-10)

    def f(t, xi):
        x = curve.point(t)
        xd = curve.velocity(t)
        return connection_matrix(c, x, xd).T @ xi  # the dual connection matrix is -M^T

    xi1, _, ok = rk4_adaptive(f, xi0, curve.t0, curve.t1, tol=1e-10)
    assert ok
    assert float(xi1 @ v1) == pytest.approx(float(xi0 @ v0), rel=1e-8)


def test_spread_structure_flat_closed_forms():
    c = flat_chart(3)
    rng = np.random.default_rng(3)
    H0 = rng.normal(size=(4, 4))
    H0 = H0 + H0.T
    K0 = rng.normal(size=(4, 4))
    base = np.zeros(3)
    pts = sample_points(c, seed=9, n_random=4, n_grid=3)
    spread_h, rep_h = spread_structure(c, "bilinear", H0, base, pts, check_paths=4)
    spread_k, rep_k = spread_structure(c, "endo", K0, base, pts, check_paths=4)
    assert rep_h["max_path_residual"] <= 1e-10
    assert rep_k["max_path_residual"] <= 1e-10
    for idx, p in enumerate(pts):
        T = np.eye(4)
        T[:3, 3] = -p
        Tinv = np.linalg.inv(T)
        assert max_abs(spread_h[idx] - Tinv.T @ H0 @ Tinv) <= 1e-9
        assert max_abs(spread_k[idx] - T @ K0 @ Tinv) <= 1e-9


def test_open_loop_is_rejected():
    c = flat_chart(2)
    segs = [Curve.segment([0.0, 0.0], [0.5, 0.0]), Curve.segment([0.5, 0.0], [0.5, 0.5])]
    with pytest.raises(ValueError):
        loop_holonomy(c, segs)


def pointwise_transport(field_at, curve, y0, tol=1e-8):
    """Linear transport with one field evaluation per right-hand side call."""
    xs = compile_exprs(curve.components, ("t",))
    vs = compile_exprs(curve.velocity_exprs(), ("t",))
    y0 = np.asarray(y0, dtype=float)

    def f(t, y):
        Mx = np.einsum("i,ikl->kl", vs(t), field_at(xs(t)))
        return (-Mx @ y.reshape(y0.shape)).ravel()

    out, steps, ok = rk4_adaptive(f, y0.ravel(), curve.t0, curve.t1, tol=tol)
    return out.reshape(y0.shape), steps, ok


def assert_matches_pointwise(y, steps, ok, y_ref, steps_ref, ok_ref):
    """The kernel's contract against the pointwise RK4: the same step counts and
    flags, and states equal up to the round-off of multiplying steps pairwise."""
    assert (steps, ok) == (steps_ref, ok_ref)
    assert y.shape == y_ref.shape
    assert max_abs(y - y_ref) <= 1e-14 * (1.0 + max_abs(y_ref))


SPHERE3_SHIFT = np.array([0.3, -0.2, 0.25])
# stage times on [0.1, 0.7] are not dyadic, so levels share few of them
CURVED = Curve.from_strings(["0.1*cos(3*t)", "0.2*sin(t)^2", "t/(1 + t^2)"], 0.1, 0.7)


def test_transports_match_pointwise_rk4_and_are_batch_invariant():
    m = load_bundled("sphere3")
    c = m.chart
    base = m.base()
    M_at = c.evaluator(connection_matrix_field(c))
    curves = [Curve.segment(base, base + SPHERE3_SHIFT), CURVED]
    v = np.array([0.3, 1.0, -0.5, 0.2])
    for curve in curves:
        cases = [(transport_operator(c, curve), pointwise_transport(M_at, curve, np.eye(4))),
                 (parallel_transport(c, curve, v), pointwise_transport(M_at, curve, v))]
        for got, ref in cases:
            assert_matches_pointwise(*got, *ref)
    # one batch: segments of different lengths leave it at different levels
    batch = [Curve.segment(base, base + s * SPHERE3_SHIFT) for s in (0.05, 1.0, 2.0)] + [CURVED]
    for y0 in (np.eye(4), v):
        rows = _linear_transport(M_at, batch, y0, 1e-10)
        assert len({steps for _, steps, _ in rows}) >= 2
        for (y, steps, ok), curve in zip(rows, batch):
            assert_matches_pointwise(y, steps, ok, *pointwise_transport(M_at, curve, y0, tol=1e-10))
            # a row's bits do not depend on the rest of its batch
            alone, steps_alone, ok_alone = _linear_transport(M_at, [curve], y0, 1e-10)[0]
            assert y.tobytes() == alone.tobytes()
            assert (steps, ok) == (steps_alone, ok_alone)


def test_pairwise_product_takes_an_odd_step_count(monkeypatch):
    m = load_bundled("sphere3")
    M_at = m.chart.evaluator(connection_matrix_field(m.chart))
    doubling = affine._rk4_doubling

    def from_48(run_level, rows, tol, initial_steps=64, max_steps=affine._RK4_MAX_STEPS):
        return doubling(run_level, rows, tol, 48, max_steps)

    monkeypatch.setattr(affine, "_rk4_doubling", from_48)
    batch = [Curve.segment(m.base(), m.base() + SPHERE3_SHIFT), CURVED]
    for (y, steps, ok), curve in zip(_linear_transport(M_at, batch, np.eye(4), 1e-10), batch):
        assert steps % 3 == 0
        assert_matches_pointwise(y, steps, ok, *pointwise_transport(M_at, curve, np.eye(4), 1e-10))


def test_flat_loop_holonomy_is_the_identity():
    c = flat_chart(3)
    H, rep = loop_holonomy(c, square_loop(c.center(), 0, 2, 0.3))
    assert rep["converged"]
    assert max_abs(H - np.eye(4)) <= 1e-13


def test_transport_calls_the_field_once_per_level(monkeypatch):
    m = load_bundled("sphere3")
    c = m.chart
    base = m.base()
    M_at = c.evaluator(connection_matrix_field(c))
    d = np.array([0.3, -0.2, 0.25])
    batch = [Curve.segment(base, base + s * d) for s in (0.05, 1.0, 2.0)]
    batch.append(Curve.from_strings(["0.1*cos(3*t)", "0.2*sin(t)^2", "t/(1 + t^2)"], 0.1, 0.7))
    calls = {"field": 0, "level": 0}

    def field(X):
        calls["field"] += 1
        return M_at(X)

    doubling = affine._rk4_doubling

    def counted(run_level, *args):
        def level(active, steps):
            calls["level"] += 1
            return run_level(active, steps)
        return doubling(level, *args)

    monkeypatch.setattr(affine, "_rk4_doubling", counted)
    rows = _linear_transport(field, batch, np.eye(4), 1e-10)
    assert len({steps for _, steps, _ in rows}) >= 2
    assert calls["level"] >= 3
    assert calls["field"] == calls["level"]
