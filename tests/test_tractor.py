import json
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import logm

from tractorlab import affine, cli, expr, tractor
from tractorlab.affine import (
    Curve,
    _linear_transport,
    max_abs,
    project_change,
    rk4_adaptive,
    sample_points,
)
from tractorlab.expr import compile_exprs
from tractorlab.manifest import bundled_names, load_bundled, loads
from tractorlab.library import flat_chart, polynomial_chart, sphere_chart, twisted_chart
from tractorlab.projective import rho
from tractorlab.tractor import (
    connection_field,
    connection_matrix,
    loop_holonomy,
    parallel_transport,
    splitting_matrix,
    spread_structure,
    square_loop,
    tractor_curvature,
    tractor_curvature_from_connection,
    transport_operator,
    transport_operators,
)

from oracle import connection_matrix_field, segment_components

P2 = np.array([0.2, -0.3])
P3 = np.array([0.2, -0.3, 0.1])
SPHERE3_SHIFT = np.array([0.3, -0.2, 0.25])


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


@pytest.mark.parametrize("name", bundled_names())
def test_connection_field_matches_the_symbolic_chain(name):
    # the numpy assembly sums in the chain's order, so M agrees bit for bit
    m = load_bundled(name)
    pts = m.sample()
    charts = [m.chart] + [project_change(m.chart, ups) for ups in cli._random_ups(m, 0, 3)]
    for chart in charts:
        want = chart.evaluator(connection_matrix_field(chart))(pts)
        got = connection_field(chart)(pts)
        assert got.shape == want.shape == (len(pts), chart.n, chart.n + 1, chart.n + 1)
        assert got.tobytes() == want.tobytes(), chart.name
        X = np.linspace(-1.0, 1.0, chart.n)
        for p, row in zip(pts[:5], got):  # one point is the row of a batch, bit for bit
            want = np.einsum("i,ikl->kl", X, row)
            assert connection_matrix(chart, p, X).tobytes() == want.tobytes()


def test_connection_matrix_compiles_what_transport_uses(monkeypatch):
    # a warm-up call to connection_matrix leaves transport nothing to compile
    m = load_bundled("sphere3")
    chart, base = m.chart, m.base()
    connection_matrix(chart, base, np.eye(3)[0])
    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((affine, "compile_exprs"), (expr, "compile_exprs"), (expr, "_tape")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    curves = [Curve.segment(base, base + SPHERE3_SHIFT)] + square_loop(base, 0, 1, 0.08)
    assert all(ok for _, _, ok in transport_operators(chart, curves))
    assert calls == []


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


def transported(chart, curve, v0):
    """v0 moved along `curve` by its transport operator, integrated to 1e-10."""
    (T, _, ok), = transport_operators(chart, [curve], tol=1e-10)
    assert ok
    return T @ v0


def test_transport_commutes_with_splitting_change():
    c = sphere_chart(2)
    ups_exprs = [c.parse("0.3*x2"), c.parse("-0.1*x1")]
    c2 = project_change(c, ups_exprs)

    def ups_at(p):
        env = dict(zip(c.coords, p))
        return np.array([e.eval(env) for e in ups_exprs])

    a = np.array([-0.2, -0.1])
    b = np.array([0.3, 0.25])
    curve = Curve.segment(a, b)
    v0 = np.array([0.4, -0.7, 0.2])
    direct = transported(c, curve, v0)
    v0_changed = splitting_matrix(-ups_at(a)) @ v0
    moved = transported(c2, curve, v0_changed)
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
    v1 = transported(c, curve, v0)

    def f(t, xi):  # a segment's velocity is its delta; the dual connection matrix is -M^T
        return connection_matrix(c, curve.point(t), curve.delta).T @ xi

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


def pointwise_transport(field, curve, y0, tol=1e-8):
    """Linear transport with one field evaluation, at one point, per
    right-hand side call."""
    comps = segment_components(curve) if curve.delta is not None else curve.components
    xs = compile_exprs(comps, ("t",))
    vs = compile_exprs([c.diff("t") for c in comps], ("t",))
    y0 = np.asarray(y0, dtype=float)

    def f(t, y):
        Mx = np.einsum("i,ikl->kl", vs(t), field(xs(t)[None])[0])
        return (-Mx @ y.reshape(y0.shape)).ravel()

    out, steps, ok = rk4_adaptive(f, y0.ravel(), curve.t0, curve.t1, tol=tol)
    return out.reshape(y0.shape), steps, ok


def assert_matches_pointwise(y, steps, ok, y_ref, steps_ref, ok_ref):
    """The kernel's contract against the pointwise RK4: the same step counts and
    flags, and states equal up to the round-off of multiplying steps pairwise."""
    assert (steps, ok) == (steps_ref, ok_ref)
    assert y.shape == y_ref.shape
    assert max_abs(y - y_ref) <= 1e-14 * (1.0 + max_abs(y_ref))


# stage times on [0.1, 0.7] are not dyadic, so levels share few of them
CURVED = Curve.from_strings(["0.1*cos(3*t)", "0.2*sin(t)^2", "t/(1 + t^2)"], 0.1, 0.7)


def test_transports_match_pointwise_rk4_and_are_batch_invariant():
    m = load_bundled("sphere3")
    c = m.chart
    base = m.base()
    M_at = connection_field(c)
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


def test_a_level_reuses_stage_values_only_at_equal_times(monkeypatch):
    # the step ends of CURVED on [0.1, 0.7] repeat few of the previous level's
    # times, a segment's all of them: each state is, bit for bit, the state of
    # its last level run on its own, with no level before it
    m = load_bundled("sphere3")
    M_at = connection_field(m.chart)
    batch = [CURVED, Curve.segment(m.base(), m.base() + SPHERE3_SHIFT)]
    doubling = affine._rk4_doubling
    for (y, steps, ok), curve in zip(_linear_transport(M_at, batch, np.eye(4), 1e-10), batch):
        assert ok and steps > affine._RK4_INITIAL_STEPS
        monkeypatch.setattr(affine, "_rk4_doubling", lambda run_level, rows, tol:
                            doubling(run_level, rows, tol, steps, steps))
        (alone, _, _), = _linear_transport(M_at, [curve], np.eye(4), 1e-10)
        assert alone.tobytes() == y.tobytes()


def test_pairwise_product_takes_an_odd_step_count(monkeypatch):
    m = load_bundled("sphere3")
    M_at = connection_field(m.chart)
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


def test_transport_calls_the_field_once_per_pass(monkeypatch):
    # a group's first pass integrates its first two levels with one field
    # call; each later level is a pass of its own, with one call
    m = load_bundled("sphere3")
    base = m.base()
    M_at = connection_field(m.chart)
    calls = {"field": 0, "pass": 0, "level": 0}

    def field(X):
        calls["field"] += 1
        return M_at(X)

    doubling = affine._rk4_doubling

    def counted(run_level, *args):
        def level(active, levels):
            calls["pass"] += 1
            calls["level"] += len(levels)
            return run_level(active, levels)
        return doubling(level, *args)

    def run(curves, tol):
        calls.update(dict.fromkeys(calls, 0))
        return _linear_transport(field, curves, np.eye(4), tol)

    monkeypatch.setattr(affine, "_rk4_doubling", counted)
    batch = [Curve.segment(base, base + s * SPHERE3_SHIFT) for s in (0.05, 1.0, 2.0)] + [CURVED]
    rows = run(batch, 1e-10)
    assert len({steps for _, steps, _ in rows}) >= 2
    assert calls["level"] >= 3
    assert calls["level"] == calls["pass"] + 1
    assert calls["field"] == calls["pass"]
    # seven segments that converge at 128 steps make one pass and one call
    anchor = base + SPHERE3_SHIFT / 2
    seven = ([Curve.segment(base, anchor)] + square_loop(anchor, 0, 1, 0.08)
             + [Curve.segment(anchor, base), Curve.segment(base, anchor)])
    assert [(steps, ok) for _, steps, ok in run(seven, 1e-8)] == [(128, True)] * 7
    assert calls == {"field": 1, "pass": 1, "level": 2}
    curves, _ = spread_64()
    run(curves, 1e-8)
    assert calls["field"] <= 10


def test_a_shared_pass_equals_one_level_runs(monkeypatch):
    # the 64- and 128-step states of a first pass equal, bit for bit, runs of
    # one level: for a segment, whose 64-step stages all repeat 128-step step
    # ends, and for CURVED, whose do not, in one group
    m = load_bundled("sphere3")
    M_at = connection_field(m.chart)
    batch = [Curve.segment(m.base(), m.base() + SPHERE3_SHIFT), CURVED]
    doubling, shared = affine._rk4_doubling, {}

    def recorded(run_level, rows, tol):
        def level(active, levels):
            states = run_level(active, levels)
            shared.setdefault("first", dict(zip(levels, states)))
            return states
        return doubling(level, rows, tol)

    monkeypatch.setattr(affine, "_rk4_doubling", recorded)
    _linear_transport(M_at, batch, np.eye(4), 1e-10)
    assert sorted(shared["first"]) == [64, 128]
    for steps, states in shared["first"].items():
        monkeypatch.setattr(affine, "_rk4_doubling", lambda run_level, rows, tol:
                            doubling(run_level, rows, tol, steps, steps))
        for curve, state in zip(batch, states):
            (alone, alone_steps, _), = _linear_transport(M_at, [curve], np.eye(4), 1e-10)
            assert alone_steps == steps
            assert alone.tobytes() == state.tobytes()


def test_transport_stops_at_the_last_level_within_max_steps(monkeypatch):
    # from 48 steps the levels run 48 * 2^k: the last one within 65,536 is 49,152
    m = load_bundled("sphere3")
    doubling = affine._rk4_doubling

    def from_48(run_level, rows, tol, initial_steps=64, max_steps=affine._RK4_MAX_STEPS):
        return doubling(run_level, rows, tol, 48, max_steps)

    monkeypatch.setattr(affine, "_rk4_doubling", from_48)
    (_, steps, ok), = _linear_transport(connection_field(m.chart),
                                        [Curve.segment(m.base(), m.base() + SPHERE3_SHIFT)],
                                        np.eye(4), -1.0)
    assert (steps, ok) == (49152, False)


def test_a_domain_error_first_met_in_a_later_pass_raises():
    # the first pass (64 and 128 steps) never samples x1 = 1/512; the midpoint
    # of the 256-step pass's first step does, in the second field call
    gamma = np.zeros((2, 2, 2), dtype=object)
    gamma[0, 0, 0] = expr.parse("1/(x1 - 0.001953125)", ("x1", "x2"))
    M_at = connection_field(affine.ChartModel(("x1", "x2"), gamma, [[-1.0, 1.0], [-1.0, 1.0]]))
    calls = []

    def field(X):
        calls.append(len(X))
        return M_at(X)

    with pytest.raises(expr.ExprDomainError,
                       match=r"^division by zero in '1/\(x1 - 0\.001953125\)'$") as exc:
        _linear_transport(field, [Curve.segment([0.0, 0.0], [1.0, 0.0])], np.eye(3), 1e-8)
    assert exc.value.point == {"x1": 0.001953125, "x2": 0.0}
    assert len(calls) == 2


def test_tiles_and_step_blocks_do_not_change_bits(monkeypatch):
    # 48 rows fill several tiles of rows; at tol 0 the deep segment reaches
    # 16,384 steps, more than one tile holds, so its rows are cut into blocks
    m = load_bundled("sphere3")
    base = m.base()
    M_at = connection_field(m.chart)
    batch = [Curve.segment(base, p) for p in sample_points(m.chart, seed=0)[:48]] + [CURVED]
    deep = Curve.segment(base, base + SPHERE3_SHIFT)
    doubling = affine._rk4_doubling

    def from_48(run_level, rows, tol, initial_steps=64, max_steps=affine._RK4_MAX_STEPS):
        return doubling(run_level, rows, tol, 48, max_steps)

    def run(curves, tol, chunk=affine._CHUNK, rk4_doubling=doubling):
        monkeypatch.setattr(affine, "_CHUNK", chunk)
        monkeypatch.setattr(affine, "_rk4_doubling", rk4_doubling)
        return [(y.tobytes(), steps, ok) for y, steps, ok in
                _linear_transport(M_at, curves, np.eye(4), tol)]

    want = run(batch, 1e-8)
    assert want == [run([curve], 1e-8)[0] for curve in batch]
    deep_rows = run([deep], 0.0)
    assert deep_rows[0][1] == 16384
    # one tile and one block per level, as in a single product; then tiles of
    # 32 steps, whose blocks of 48 * 2^k steps end in a shorter block
    for chunk in (2 ** 20, 32):
        assert run(batch, 1e-8, chunk) == want
        assert run([deep], 0.0, chunk) == deep_rows
        assert run(batch, 1e-8, chunk, from_48) == run(batch, 1e-8, affine._CHUNK, from_48)


def test_groups_of_rows_do_not_change_bits(monkeypatch):
    # 15 rows are integrated in groups of 7, 7 and 1 (_CHUNK // 257 = 7):
    # CURVED opens the second group and is the third; with _CHUNK = 2**20
    # the batch is one group
    m = load_bundled("sphere3")
    base = m.base()
    M_at = connection_field(m.chart)
    segments = [Curve.segment(base, p) for p in sample_points(m.chart, seed=1)[:13]]
    batch = segments[:7] + [CURVED] + segments[7:] + [CURVED]
    doubling, groups = affine._rk4_doubling, []

    def counted(run_level, rows, tol):
        groups.append(rows)
        return doubling(run_level, rows, tol)

    def run(curves, chunk=affine._CHUNK):
        monkeypatch.setattr(affine, "_CHUNK", chunk)
        return [(y.tobytes(), steps, ok) for y, steps, ok in
                _linear_transport(M_at, curves, np.eye(4), 1e-8)]

    monkeypatch.setattr(affine, "_rk4_doubling", counted)
    want = run(batch)
    assert groups == [7, 7, 1]
    assert want == [run([curve])[0] for curve in batch]
    groups.clear()
    assert run(batch, 2 ** 20) == want
    assert groups == [15]


def spread_64():
    """The sphere3 curves and chart of a 64-point spread from the base point."""
    m = load_bundled("sphere3")
    return [Curve.segment(m.base(), p) for p in sample_points(m.chart, seed=0)[:64]], m.chart


def test_transport_keeps_to_its_memory_bound():
    curves, c = spread_64()
    deep = Curve.segment(curves[0].start, curves[0].start + SPHERE3_SHIFT)
    transport_operators(c, curves[:1])  # compile the connection outside the trace
    # at tol -1 no row converges: the deepest level, 65,536 steps, holds one stage table
    for batch, tol, bound in ((curves, 1e-8, 2.8e6), ([deep], 0.0, 8e6), ([deep], -1.0, 20e6)):
        tracemalloc.start()
        try:
            rows = transport_operators(c, batch, tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (len(batch), tol, peak)
    assert rows[0][1:] == (affine._RK4_MAX_STEPS, False)


def test_field_calls_take_at_most_one_chunk_of_points():
    curves, c = spread_64()
    M_at = connection_field(c)
    sizes = []

    def field(X):
        sizes.append(len(X))
        return M_at(X)

    _linear_transport(field, curves, np.eye(4), 1e-8)
    assert sum(sizes) > 2 * affine._CHUNK  # the levels need several calls each
    assert max(sizes) <= affine._CHUNK


def test_connection_values_reach_assembly_as_contiguous_blocks(monkeypatch):
    # a batch of program values is the transpose of one contiguous row per
    # entry, so the Gamma block and the derivative block that
    # `_assemble_connection` reshapes are contiguous views, not strided copies
    m = load_bundled("sphere3")
    n, assemble, seen = m.chart.n, tractor._assemble_connection, []

    def spied(values, steps, n):
        seen.append(values)
        return assemble(values, steps, n)

    monkeypatch.setattr(tractor, "_assemble_connection", spied)
    transport_operators(m.chart, [Curve.segment(m.base(), m.base() + SPHERE3_SHIFT)])
    assert seen
    for values in seen:
        for block in (values[:, :n ** 3], values[:, n ** 3:]):
            assert block.T.flags.c_contiguous
            assert np.shares_memory(block.T.reshape(n, n, n, -1), values)


# -- a constant connection ---------------------------------------------------------------


def constant_chart(gamma: dict) -> affine.ChartModel:
    """A chart on [-1, 1]^2 whose Christoffel symbols are the numbers `gamma`,
    keyed (k, i, j); Gamma^k_ij and Gamma^k_ji are both set."""
    comps = np.full((2, 2, 2), expr.num(0.0), dtype=object)
    for (k, i, j), text in gamma.items():
        comps[k, i, j] = comps[k, j, i] = expr.parse(text, ("x1", "x2"))
    return affine.ChartModel(("x1", "x2"), comps, [[-1.0, 1.0]] * 2)


def assert_constant_pass_is_general(chart, curves, tol):
    """The kernel's rows with `chart`'s constant field equal, bit for bit, those
    of the general pass, reached through a plain function without the marker."""
    M_at = connection_field(chart)
    assert M_at.constant
    eye = np.eye(chart.n + 1)
    got = _linear_transport(M_at, curves, eye, tol)
    want = _linear_transport(lambda X: M_at(X), curves, eye, tol)
    assert [(y.tobytes(), steps, ok) for y, steps, ok in got] \
        == [(y.tobytes(), steps, ok) for y, steps, ok in want]
    return got


@pytest.mark.parametrize("name", ["flat2", "flat3"])
def test_a_flat_chart_takes_the_constant_pass_bit_for_bit(name):
    m = load_bundled(name)
    base = m.base()
    curves = ([Curve.segment(base, p) for p in sample_points(m.chart, seed=0)[:12]]
              + square_loop(base, 0, 1, 0.2))
    for tol in (1e-8, 1e-12):
        assert_constant_pass_is_general(m.chart, curves, tol)


def test_a_constant_nonzero_connection_takes_the_constant_pass_bit_for_bit():
    chart = constant_chart({(0, 1, 1): "0.3"})
    assert not all(e.is_zero() for e in tractor._connection_program(chart))
    curves = [Curve.segment([0.1, -0.2], p) for p in sample_points(chart, seed=0)[:9]]
    rows = assert_constant_pass_is_general(chart, curves, 0.0)
    assert len({steps for _, steps, _ in rows}) >= 2  # later passes, one level each


def test_a_constant_pass_stops_rows_that_are_not_finite():
    # the all-1e300 chart: M is not finite, and no row passes 64 steps
    chart = constant_chart({(k, i, j): "1e300" for k, i, j in np.ndindex(2, 2, 2)})
    curves = [Curve.segment([0.0, 0.0], [0.5, 0.2]), Curve.segment([0.1, -0.3], [-0.4, 0.6])]
    with np.errstate(all="ignore"):
        rows = assert_constant_pass_is_general(chart, curves, 1e-8)
    assert [(steps, ok) for _, steps, ok in rows] == [(64, False)] * 2
    assert not any(np.isfinite(y).all() for y, _, _ in rows)


def test_a_constant_pass_follows_the_doubling_rule(monkeypatch):
    # a tol-0 row of this chart runs past _CHUNK steps, whose products are cut
    # into blocks; then from 48 steps, and with one level in the first pass
    chart = constant_chart({(0, 1, 1): "0.3", (1, 0, 0): "-0.7", (0, 0, 1): "0.5"})
    flat = load_bundled("flat3")
    doubling = affine._rk4_doubling
    segment = Curve.segment([-1.0, -1.0], [1.0, 1.0])
    (_, steps, _), = assert_constant_pass_is_general(chart, [segment], 0.0)
    assert steps > affine._CHUNK

    def from_48(run_level, rows, tol, initial_steps=64, max_steps=affine._RK4_MAX_STEPS):
        return doubling(run_level, rows, tol, 48, max_steps)

    def one_level(run_level, rows, tol, initial_steps=64, max_steps=None):
        return doubling(run_level, rows, tol, initial_steps, initial_steps)

    wide = [segment] + [Curve.segment([0.1, -0.2], p) for p in sample_points(chart, seed=2)[:3]]
    curves = [Curve.segment(flat.base(), p) for p in sample_points(flat.chart, seed=2)[:9]]
    for patch, first in ((from_48, 48), (one_level, 64)):
        monkeypatch.setattr(affine, "_rk4_doubling", patch)
        for c, batch, tol in ((chart, wide, 1e-12), (flat.chart, curves, 1e-8)):
            rows = assert_constant_pass_is_general(c, batch, tol)
            assert all(steps % first == 0 for _, steps, _ in rows)


def point_counts(monkeypatch) -> dict:
    """Make the kernel count the points it hands `field`, the rows each pass
    integrates and the passes; the marker stays on the counting field."""
    kernel, doubling = affine._linear_transport, affine._rk4_doubling
    counts = {"points": 0, "row_passes": 0}

    def counted(field, curves, y0, tol):
        def points(X):
            counts["points"] += len(X)
            return field(X)

        points.__dict__.update(field.__dict__)
        return kernel(points, curves, y0, tol)

    def passes(run_level, *args):
        def level(active, levels):
            counts["row_passes"] += len(active)
            return run_level(active, levels)
        return doubling(level, *args)

    monkeypatch.setattr(tractor, "_linear_transport", counted)
    monkeypatch.setattr(affine, "_rk4_doubling", passes)
    return counts


def test_flat3_detect_hands_the_field_one_point_a_row_and_pass(monkeypatch):
    counts = point_counts(monkeypatch)
    cli.run("detect", load_bundled("flat3"), seed=0)
    assert 0 < counts["points"] <= counts["row_passes"]


def test_a_parametric_curve_takes_the_general_pass(monkeypatch):
    # one curve that is not a segment sends its whole batch through the stage grid
    m = load_bundled("flat3")
    batch = [Curve.segment(m.base(), m.base() + 0.1), CURVED]
    counts = point_counts(monkeypatch)
    rows = transport_operators(m.chart, batch)
    assert counts["points"] >= (2 * affine._RK4_INITIAL_STEPS + 1) * counts["row_passes"]
    for got, curve in zip(rows, batch):
        assert_matches_pointwise(*got, *pointwise_transport(connection_field(m.chart), curve,
                                                            np.eye(4)))


# -- the transport record of one command ----------------------------------------------


def counted_rows(monkeypatch) -> list:
    """Make `tractor`'s kernel calls record how many rows each integrates."""
    kernel, rows = tractor._linear_transport, []

    def counted(field, curves, y0, tol):
        rows.append(len(curves))
        return kernel(field, curves, y0, tol)

    monkeypatch.setattr(tractor, "_linear_transport", counted)
    return rows


def recorded(*calls) -> list:
    """Run (chart, curves) transport calls under one record; their results."""
    token = tractor._RECORD.set({})
    try:
        return [transport_operators(c, curves) for c, curves in calls]
    finally:
        tractor._RECORD.reset(token)


def test_a_record_integrates_each_segment_once(monkeypatch):
    m = load_bundled("sphere3")
    c, base = m.chart, m.base()
    spread = [Curve.segment(base, p) for p in sample_points(c, seed=0)[:6]]
    # the coordinate squares at a point share first and last segments: 10 distinct of 12
    squares = [s for i, j in ((0, 1), (0, 2), (1, 2)) for s in square_loop(base, i, j, 0.05)]
    paths = [Curve.from_strings([f"{a}*t", "0.05*t", "-0.1*t"], 0.0, 1.0) for a in (0.1, 0.2)]
    calls = [(c, spread[:4]), (c, spread[2:] + spread[:1]), (c, squares),
             (c, paths[:1] * 2), (c, spread[:2] + squares[:1]), (c, paths[1:])]
    alone = [transport_operators(c, curves) for _, curves in calls]
    rows = counted_rows(monkeypatch)
    shared = recorded(*calls)
    # a curve that is not a segment is integrated every time; the fifth call
    # finds every row in the record
    assert rows == [4, 2, 10, 2, 0, 1]
    for got, want in zip(shared, alone):
        assert [(T.tobytes(), steps, ok) for T, steps, ok in got] \
            == [(T.tobytes(), steps, ok) for T, steps, ok in want]


def test_outside_a_record_every_call_integrates(monkeypatch):
    c = sphere_chart(3)
    curves = [Curve.segment(P3, P3 + SPHERE3_SHIFT)] * 2
    rows = counted_rows(monkeypatch)
    transport_operators(c, curves)
    transport_operators(c, curves)
    assert rows == [2, 2]


def test_a_record_keeps_charts_and_tolerances_apart(monkeypatch):
    c, other = sphere_chart(3), sphere_chart(3)
    seg = Curve.segment(P3, P3 + SPHERE3_SHIFT)
    rows = counted_rows(monkeypatch)
    token = tractor._RECORD.set({})
    try:
        for chart, tol in ((c, 1e-8), (other, 1e-8), (c, 1e-10), (c, 1e-8)):
            transport_operators(chart, [seg], tol)
    finally:
        tractor._RECORD.reset(token)
    assert rows == [1, 1, 1, 0]


def test_transport_operators_are_read_only():
    c = sphere_chart(3)
    seg = Curve.segment(P3, P3 + SPHERE3_SHIFT)
    for (T, _, _), in (transport_operators(c, [seg]), *recorded((c, [seg]), (c, [seg]))):
        with pytest.raises(ValueError, match="read-only"):
            T[0, 0] = 1.0


def test_the_record_ends_with_its_command_even_when_it_raises(tmp_path, capsys):
    doc = {"format": "tractorlab-manifest", "version": 1, "name": "pole", "dimension": 2,
           "coordinates": ["x1", "x2"], "domain": [[-0.8, 0.8], [-0.8, 0.8]],
           "gamma": {"1,0,0": "x2", "0,1,1": "1/x1", "1,1,1": "2/x1"}}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path)]) == 2
    assert "1/x1" in capsys.readouterr().err
    assert tractor._RECORD.get() is None
    with pytest.raises(expr.ExprDomainError):
        cli.run("transport", loads(path.read_text()))
    assert tractor._RECORD.get() is None


def test_no_command_integrates_a_segment_twice(monkeypatch):
    kernel, keys = tractor._linear_transport, []

    def recording(field, curves, y0, tol):
        keys.extend((id(field), tol, c.start.tobytes(), c.delta.tobytes())
                    for c in curves if c.delta is not None)
        return kernel(field, curves, y0, tol)

    monkeypatch.setattr(tractor, "_linear_transport", recording)
    cli.run("suite", load_bundled("flat3"))
    assert len(keys) == len(set(keys)) > 0
