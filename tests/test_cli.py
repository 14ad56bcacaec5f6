"""Manifest loading and the command-line report surface."""

import json

import numpy as np
import pytest

from tractorlab import __version__, affine, cli, projective
from tractorlab.affine import max_abs, sample_points
from tractorlab.expr import ExprDomainError
from tractorlab.manifest import (
    ManifestError,
    bundled_names,
    chart_to_manifest,
    load_bundled,
    loads,
)
from tractorlab.library import sphere_chart


def make_doc(**overrides):
    doc = {
        "format": "tractorlab-manifest",
        "version": 1,
        "name": "twodim",
        "dimension": 2,
        "coordinates": ["x1", "x2"],
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "gamma": {"0,0,0": "0.3*x2"},
    }
    doc.update(overrides)
    return doc


# -- loading -----------------------------------------------------------------------


def test_minimal_manifest_loads():
    m = loads(json.dumps(make_doc()))
    assert m.name == "twodim"
    assert m.chart.n == 2
    g = m.chart.gamma_at(np.array([0.5, 0.5]))
    assert abs(g[0, 0, 0] - 0.15) <= 1e-15
    assert m.base().shape == (2,)


def test_not_json_is_rejected():
    with pytest.raises(ManifestError, match="not valid JSON"):
        loads("{nope")


def test_schema_violations_carry_field_paths():
    doc = make_doc()
    del doc["domain"]
    with pytest.raises(ManifestError, match="domain"):
        loads(json.dumps(doc))
    with pytest.raises(ManifestError, match="version"):
        loads(json.dumps(make_doc(version="one")))
    with pytest.raises(ManifestError, match="extra_key"):
        loads(json.dumps(make_doc(extra_key=1)))


def test_unknown_coordinate_names_the_entry():
    doc = make_doc(gamma={"0,0,1": "x7 + 1"})
    with pytest.raises(ManifestError, match=r"\$\['gamma'\]\['0,0,1'\].*x7"):
        loads(json.dumps(doc))


def test_gamma_index_out_of_range():
    doc = make_doc(gamma={"2,0,0": "x1"})
    with pytest.raises(ManifestError, match=r"\['2,0,0'\].*out of range"):
        loads(json.dumps(doc))


def test_asymmetric_gamma_rejected_citing_torsion():
    doc = make_doc(gamma={"0,0,1": "x1", "0,1,0": "-x1"})
    with pytest.raises(ManifestError, match="torsion"):
        loads(json.dumps(doc))


def test_symmetrize_flag_takes_symmetric_part():
    doc = make_doc(gamma={"0,0,1": "x1", "0,1,0": "3*x1"}, symmetrize=True)
    m = loads(json.dumps(doc))
    assert m.symmetrized
    g = m.chart.gamma_at(np.array([0.5, 0.0]))
    assert abs(g[0, 0, 1] - 1.0) <= 1e-15
    assert abs(g[0, 1, 0] - 1.0) <= 1e-15


def test_base_point_must_lie_inside_domain():
    with pytest.raises(ManifestError, match="base_point"):
        loads(json.dumps(make_doc(base_point=[2.0, 0.0])))


def test_structure_shape_validation():
    with pytest.raises(ManifestError, match="expected 3 rows"):
        loads(json.dumps(make_doc(structures={"omega": [[0.0, 1.0], [-1.0, 0.0]]})))
    square = np.eye(3).tolist()
    with pytest.raises(ManifestError, match="between 1 and 2 columns"):
        loads(json.dumps(make_doc(structures={"K": square})))


def test_loop_plane_validation():
    doc = make_doc(loops=[{"plane": [0, 0], "size": 0.1}])
    with pytest.raises(ManifestError, match="plane"):
        loads(json.dumps(doc))


# -- bundled corpus ----------------------------------------------------------------


def test_bundled_corpus_inventory():
    assert bundled_names() == [
        "flat2", "flat3", "hyperbolic3", "product_rf3",
        "randpoly3", "sphere2", "sphere3",
    ]


def test_bundled_flat3_loads_with_zero_gamma():
    m = load_bundled("flat3")
    assert m.chart.n == 3
    for p in m.sample()[:10]:
        assert max_abs(m.chart.gamma_at(p)) == 0.0
    assert set(m.structures) == {"omega", "J", "h", "K"}
    assert len(m.loops) == 1 and len(m.curves) == 1


def test_unknown_bundled_name():
    with pytest.raises(ManifestError, match="no bundled manifest named"):
        load_bundled("klein_bottle")


def test_chart_to_manifest_round_trip():
    c = sphere_chart(2)
    doc = chart_to_manifest(c, name="resphere")
    m = loads(json.dumps(doc))
    for p in sample_points(c, seed=1, n_random=6, n_grid=0):
        assert max_abs(m.chart.gamma_at(p) - c.gamma_at(p)) <= 1e-14
    assert m.chart.metric is not None


# -- commands ----------------------------------------------------------------------


def test_compute_flat3_all_tensors_zero():
    rep = cli.run("compute", load_bundled("flat3"))
    maxima = rep["result"]["max_abs_over_samples"]
    assert set(maxima) == {"ricci", "rho", "weyl", "cotton"}
    for value in maxima.values():
        assert value == 0.0
    assert rep["all_pass"] is True
    assert rep["version"] == __version__


def test_detect_sphere3_reports_einstein():
    rep = cli.run("detect", load_bundled("sphere3"))
    res = rep["result"]
    assert "Einstein manifold" in res["labels"]
    assert "metric" in [c["kind"] for c in res["candidates"]]
    assert res["einstein"]["accepted"] is True
    assert res["einstein"]["h_signature"] == [4, 0]
    assert rep["all_pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert "einstein_parallel_residual" in names


def test_every_check_row_carries_its_tolerance():
    rep = cli.run("verify", load_bundled("randpoly3"), seed=2)
    assert rep["all_pass"] is True
    assert len(rep["checks"]) >= 6
    for row in rep["checks"]:
        assert row["residual"] <= row["tolerance"]


def test_unknown_command_raises():
    with pytest.raises(ValueError, match="unknown command"):
        cli.run("paint", load_bundled("flat2"))


def test_reports_are_byte_identical_for_fixed_seed():
    m1 = load_bundled("randpoly3")
    m2 = load_bundled("randpoly3")
    a = cli.render(cli.run("suite", m1, seed=3))
    b = cli.render(cli.run("suite", m2, seed=3))
    assert a == b
    parsed = json.loads(a)
    assert parsed["command"] == "suite"
    assert parsed["all_pass"] is True


def test_tol_scale_loosens_and_tightens():
    m = load_bundled("randpoly3")
    tight = cli.run("verify", m, tol_scale=1e-20)
    assert tight["all_pass"] is False
    loose = cli.run("verify", m, tol_scale=1e6)
    assert loose["all_pass"] is True


def test_transport_that_does_not_converge_fails_transport_and_holonomy(monkeypatch):
    doubling = affine._rk4_doubling

    def one_level(run_level, rows, tol, initial_steps=64, max_steps=None):
        return doubling(run_level, rows, tol, initial_steps, initial_steps)

    monkeypatch.setattr(affine, "_rk4_doubling", one_level)
    m = load_bundled("randpoly3")
    transport = cli.run("transport", m)
    assert [c["converged"] for c in transport["result"]["curves"]] == [False, False]
    residuals = {row["name"]: row["residual"] for row in transport["checks"]}
    assert residuals["transport_det_curve_0"] == residuals["loop_det_0"] == np.inf
    assert transport["all_pass"] is False
    holonomy = cli.run("holonomy", m)
    residuals = {row["name"]: row.get("residual") for row in holonomy["checks"]}
    assert residuals["algebra_trace_free"] == np.inf
    assert holonomy["all_pass"] is False


# -- entry point -------------------------------------------------------------------


def test_main_writes_report_and_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--manifest", "flat2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["tool"] == "tractorlab"
    assert rep["manifest"] == "flat2"


def test_main_exit_one_on_failed_verdict(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--manifest", "randpoly3",
                     "--tol-scale", "1e-20", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["all_pass"] is False


def test_main_exit_two_on_input_error(capsys):
    assert cli.main(["compute", "--manifest", "no_such_chart"]) == 2
    err = capsys.readouterr().err
    assert "no bundled manifest named" in err


def test_main_requires_manifest_except_for_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute"])
    assert exc.value.code == 2


def test_manifest_file_path_loading(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(make_doc()))
    code = cli.main(["verify", "--manifest", str(path), "--out",
                     str(tmp_path / "r.json")])
    assert code == 0


def test_main_exit_two_on_expression_outside_its_domain(tmp_path, capsys):
    path = tmp_path / "logpole.json"
    path.write_text(json.dumps(make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                                        gamma={"0,1,1": "log(x1)"})))
    assert cli.main(["compute", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "0,1,1" in err and "log(" in err


def test_pole_on_the_base_point_is_a_domain_error_not_nan(tmp_path, capsys):
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]], gamma={"0,1,1": "1/x1"})
    chart = loads(json.dumps(doc)).chart
    with pytest.raises(ExprDomainError, match=r"'1/x1'"):
        chart.gamma_at(chart.center())
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path)]) == 2
    assert "1/x1" in capsys.readouterr().err


def test_domain_error_after_load_names_its_gamma_entry(tmp_path, capsys):
    # the samples checked at load miss x1 = 0; the base point (0, 0) does not
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={"1,0,0": "x2", "0,1,1": "1/x1", "1,1,1": "2/x1"})
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == "error: $['gamma']['0,1,1']: division by zero in '1/x1'\n"


def test_derivative_failure_names_its_gamma_entry(tmp_path, capsys):
    # sqrt(0) has a value, so only the entry's jet shows that its
    # derivatives, which every derived field holds, fail at the base point
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]], gamma={"0,1,1": "sqrt(x1*x1 + x2*x2)"})
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["holonomy", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $['gamma']['0,1,1']: sqrt has no derivatives at 0.0 "
        "in 'sqrt(x1*x1 + x2*x2)'\n")


def test_higher_order_jet_failure_names_its_gamma_entry(tmp_path, capsys):
    # x1 is within round-off of 0 at the first sample point: the degree-2 jets
    # of the fields overflow there, while the entry's first-order jet does not
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]], gamma={"0,1,1": "2/x1^7"})
    path = tmp_path / "pole7.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["compute", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == "error: $['gamma']['0,1,1']: overflow in '2/x1^7'\n"


@pytest.mark.parametrize("entry", ["1e400*x1", "1e200/1e-300*x1"])
def test_constant_beyond_the_float_range_is_an_input_error(tmp_path, capsys, entry):
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]], gamma={"0,1,1": entry})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["compute", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $['gamma']['0,1,1']: number out of range (at position 0)\n")


def test_derivative_of_a_function_of_a_huge_constant_runs(tmp_path):
    # d/dx1 atan(u) = 1/(1 + u^2) * du/dx1: 1e200^2 stays unfolded, and du/dx1 is 0
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={"1,0,1": "atan(1e200)", "1,1,0": "atan(1e200)"})
    path = tmp_path / "atan.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path), "--out",
                     str(tmp_path / "r.json")]) == 0


def test_function_of_a_tiny_constant_is_a_constant(tmp_path):
    # log's Taylor coefficients at 1e-300, (-1/b0)^k/k, overflow past the first,
    # but a constant argument multiplies each of them by zero
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]], gamma={"0,1,1": "log(1e-300)"})
    path = tmp_path / "logc.json"
    path.write_text(json.dumps(doc))
    for command in ("compute", "transport", "suite"):
        assert cli.main([command, "--manifest", str(path), "--out",
                         str(tmp_path / "r.json")]) == 0, command


@pytest.mark.parametrize("name", ["sphere3", "randpoly3"])
def test_suite_builds_no_symbolic_curvature(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a symbolic curvature field was built")

    monkeypatch.setattr(projective, "rho_field", refuse)
    monkeypatch.setattr(affine.ChartModel, "dgamma_field", refuse)
    assert cli.run("suite", load_bundled(name), seed=0)["all_pass"] is True


def test_constants_that_fold_to_inf_fail_a_check(tmp_path):
    # every entry 1e300: the curvature folds 1e300*1e300 to inf, and inf - inf to nan
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={f"{k},{i},{j}": "1e300" for k in range(2) for i in range(2)
                          for j in range(2)})
    path = tmp_path / "e300.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        assert cli.main(["transport", "--manifest", str(path), "--out", str(out)]) == 1
    assert json.loads(out.read_text())["all_pass"] is False


def test_non_finite_fields_fail_their_checks_not_the_input(tmp_path, monkeypatch):
    # the same all-1e300 chart: its holonomies, Ricci tensor and curvature are
    # not finite; one RK4 level keeps the transports, which cannot converge, short
    doubling = affine._rk4_doubling

    def one_level(run_level, rows, tol, initial_steps=64, max_steps=None):
        return doubling(run_level, rows, tol, initial_steps, initial_steps)

    monkeypatch.setattr(affine, "_rk4_doubling", one_level)
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={f"{k},{i},{j}": "1e300" for k in range(2) for i in range(2)
                          for j in range(2)})
    path = tmp_path / "e300.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        assert cli.main(["holonomy", "--manifest", str(path), "--out", str(out)]) == 1
        rows = {row["name"]: row for row in json.loads(out.read_text())["checks"]}
        assert rows["algebra_trace_free"]["residual"] == np.inf
        # the logs of loops that are not finite are dropped, which leaves rank 0:
        # that is no evidence of trivial holonomy
        assert cli.main(["detect", "--manifest", str(path), "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        rows = {row["name"]: row for row in report["checks"]}
        assert rows["algebra_trace_free"]["pass"] is False
        assert report["result"]["classification"]["trivial_holonomy"] is False
        assert report["result"]["candidates"] == [] and report["result"]["labels"] == []
        assert cli.main(["suite", "--manifest", str(path), "--out", str(out)]) == 1
    rows = {row["name"]: row for row in json.loads(out.read_text())["checks"]}
    assert rows["holonomy.algebra_trace_free"]["pass"] is False
    assert rows["detect.algebra_trace_free"]["pass"] is False
    nan_rows = [f"invariance.{check}_{i}" for check in ("weyl_invariance_change",
                                                        "cotton_change_law") for i in range(3)]
    nan_rows += [f"verify.{check}" for check in ("weyl_rebuilds_curvature", "weyl_trace_free",
                                                 "rho_ricci_consistency",
                                                 "tractor_curvature_match")]
    for name in nan_rows:
        assert np.isnan(rows[name]["residual"]) and rows[name]["pass"] is False, name


def test_an_entry_of_two_thousand_terms_runs_the_suite(tmp_path):
    # the sum parses to a chain of additions deeper than the recursion limit
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={"0,1,1": " + ".join(["0.0005*x1*x2"] * 2000)})
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["suite", "--manifest", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_a_deep_entry_outside_its_domain_is_named(tmp_path, capsys):
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={"0,1,1": f"log({' + '.join(['0.0005*x1'] * 2000)})"})
    path = tmp_path / "longlog.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["suite", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $['gamma']['0,1,1']: log(-")


def test_holonomy_and_detect_share_one_algebra_per_seed(monkeypatch):
    calls = []
    classified = []
    original = cli.loop_algebra
    original_classify = cli.classify

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return original(*args, **kwargs)

    def counting_classify(*args, **kwargs):
        classified.append(calls[-1])
        return original_classify(*args, **kwargs)

    monkeypatch.setattr(cli, "loop_algebra", counting)
    monkeypatch.setattr(cli, "classify", counting_classify)
    m = load_bundled("flat2")
    fresh = load_bundled("flat2")
    reports = [cli.render(cli.run(cmd, m, seed=seed))
               for seed in (0, 1) for cmd in ("holonomy", "detect")]
    assert calls == classified == [0, 1]
    assert sorted(m.algebras) == [0, 1]
    monkeypatch.setattr(cli, "loop_algebra", original)
    monkeypatch.setattr(cli, "classify", original_classify)
    assert cli.render(cli.run("detect", fresh, seed=1)) == reports[3]


def test_suite_over_whole_bundled_corpus_exits_zero(tmp_path):
    out = tmp_path / "corpus.json"
    code = cli.main(["suite", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["manifest"] == "bundled-corpus"
    assert sorted(rep["reports"]) == bundled_names()
    assert rep["all_pass"] is True
