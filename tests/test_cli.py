"""Manifest loading and the command-line report surface."""

import ast
import collections
import copy
import functools
import json
import os
import platform
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from tractorlab import __version__, affine, cli, manifest, projective, structures
from tractorlab.affine import Curve, max_abs, sample_points
from tractorlab.expr import ExprDomainError
from tractorlab.manifest import (
    ManifestError,
    bundled_names,
    bundled_path,
    chart_to_manifest,
    load_bundled,
    loads,
)
from tractorlab.library import sphere_chart
from tractorlab.tractor import transport_operators


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


def test_schema_errors_are_the_ones_jsonschema_validate_raises():
    # the validator is built once; each message must still be validate's best match
    schema = json.loads((resources.files("tractorlab") / "schema/manifest_schema.json").read_text())
    missing = make_doc()
    del missing["domain"], missing["gamma"]
    docs = [missing, make_doc(version="one"), make_doc(extra_key=1),
            make_doc(gamma={"0,0,0": 3}), make_doc(dimension=0, coordinates=[]),
            make_doc(loops=[{"plane": "xy", "size": -1}]), [1, 2]]
    for doc in docs:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, schema)
        path = "$" + "".join(f"[{p!r}]" for p in want.value.absolute_path)
        with pytest.raises(ManifestError) as got:
            loads(json.dumps(doc), source="m.json")
        assert str(got.value) == f"m.json: {path}: {want.value.message}"


_ODD_VALUES = [None, True, False, 0, -1, 1, 2, 2.0, -0.0, 1.5, -0.5, float("nan"), float("inf"),
               float("-inf"), 1e300, "", "x", "x1", "1x", "0,0,0", [], [0.0], [1, 2], [[0, 1]],
               [-1.0, 1.0, 2.0], {}, {"0,0,0": "x1"}, {"seed": 1}]
_ODD_KEYS = ["extra", "0,0", "0,0,0", "1,2", "0,0,0,0", "a,0,0", "00,1,2", "0,0,0\n", " 0,0",
             "seed", "base", "K", "omega", "t0", "size", "plane"]
_OPTIONAL = {"symmetrize": True, "metric": {"0,0": "1", "1,1": "x1"},
             "samples": {"seed": 3, "n_random": 4, "n_grid": 0}, "base_point": [0.0, 0.0],
             "curves": [{"components": ["t", "-t"], "t0": 0, "t1": 0.5}],
             "loops": [{"base": [0.0, 0.0], "plane": [0, 1], "size": 0.1}],
             "structures": {"K": [[1.0], [0.0], [0.0]]}, "tolerances": {"loop_det": 1e-6}}


def _mutated(doc, rng):
    """`doc` after one to three random edits: a deleted key or item, an odd value
    (wrong type, NaN, inf, bool, bad gamma or metric key), an added key or item,
    an optional section, or an edited leaf (an int made an integral float and
    back, zero, negative, NaN, inf or a bool; a string emptied or changed)."""
    def nodes(v, path=()):
        yield path, v
        items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
        for k, x in items:
            yield from nodes(x, path + (k,))

    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        maps = rng.random() < 0.5  # else a big gamma map takes most of the edits
        path, node = rng.choice([(p, v) for p, v in nodes(doc)
                                 if maps or p[:1] not in [("gamma",), ("metric",)] or len(p) < 2])
        parent = functools.reduce(lambda v, k: v[k], path[:-1], doc)
        action = rng.randrange(5)
        if action == 0 and path:
            del parent[path[-1]]
        elif action == 1:
            value = copy.deepcopy(rng.choice(_ODD_VALUES))
            if path:
                parent[path[-1]] = value
            else:
                doc = value
        elif action == 2 and isinstance(node, dict):
            node[rng.choice(_ODD_KEYS)] = copy.deepcopy(rng.choice(_ODD_VALUES + ["x2"]))
        elif action == 2 and isinstance(node, list):
            node.append(copy.deepcopy(rng.choice(_ODD_VALUES)))
        elif action == 3 and isinstance(doc, dict):
            key = rng.choice(sorted(_OPTIONAL))
            doc[key] = copy.deepcopy(_OPTIONAL[key])
        elif action == 4 and path and type(node) in (int, float):
            swapped = float(node) if type(node) is int else int(node) if node.is_integer() else node
            parent[path[-1]] = rng.choice([swapped, 0, -1, -0.0, float("nan"), float("inf"), True])
        elif action == 4 and path and isinstance(node, str):
            parent[path[-1]] = rng.choice(["", "1x", node + "!"])
    return doc


def test_schema_errors_match_jsonschema_on_mutated_manifests():
    # loads rejects exactly what Draft7Validator rejects, with its best match
    schema = json.loads((resources.files("tractorlab") / "schema/manifest_schema.json").read_text())
    reference = jsonschema.Draft7Validator(schema)
    seeds = [json.loads(bundled_path(name).read_text()) for name in bundled_names()] + [make_doc()]
    rng = random.Random(20)
    rejected = collections.Counter()
    for _ in range(2500):
        text = json.dumps(_mutated(rng.choice(seeds), rng))
        doc = json.loads(text)
        want = jsonschema.exceptions.best_match(reference.iter_errors(doc))
        if want is None:  # the check loads makes before it reads any field
            assert manifest._schema_error(doc) is None, text
            continue
        rejected[want.validator] += 1
        path = "$" + "".join(f"[{p!r}]" for p in want.absolute_path)
        with pytest.raises(ManifestError) as got:
            loads(text, source="m.json")
        assert str(got.value) == f"m.json: {path}: {want.message}", text
    # every keyword that can fail has failed, and both sides are well sampled
    assert set(rejected) == {"type", "const", "minimum", "exclusiveMinimum", "minLength", "pattern",
                             "minItems", "maxItems", "required", "additionalProperties"}
    assert 500 <= sum(rejected.values()) <= 2000


def test_schema_keywords_the_loader_does_not_implement_raise_when_read():
    schema = json.loads((resources.files("tractorlab") / "schema/manifest_schema.json").read_text())
    assert manifest._checked(copy.deepcopy(schema)) == schema
    enum = copy.deepcopy(schema)
    enum["properties"]["format"]["enum"] = ["tractorlab-manifest"]
    with pytest.raises(ValueError, match="keyword 'enum'"):
        manifest._checked(enum)
    unique = copy.deepcopy(schema)
    unique["properties"]["coordinates"]["uniqueItems"] = True
    with pytest.raises(ValueError, match="keyword 'uniqueItems'"):
        manifest._checked(unique)


def test_unknown_coordinate_names_the_entry():
    doc = make_doc(gamma={"0,0,1": "x7 + 1"})
    with pytest.raises(ManifestError, match=r"\$\['gamma'\]\['0,0,1'\].*x7"):
        loads(json.dumps(doc))


def test_gamma_index_out_of_range():
    doc = make_doc(gamma={"2,0,0": "x1"})
    with pytest.raises(ManifestError, match=r"\['2,0,0'\].*out of range"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("overrides, message", [
    ({"gamma": {"2,0,0": "x1"}}, "$['gamma']['2,0,0']: index out of range for dimension 2"),
    ({"gamma": {"0,0,1": "x7"}}, "$['gamma']['0,0,1']: unknown identifier 'x7' (at position 0)"),
    ({"metric": {"0,2": "1"}}, "$['metric']['0,2']: index out of range for dimension 2"),
    ({"metric": {"0,0": "x7"}}, "$['metric']['0,0']: unknown identifier 'x7' (at position 0)"),
])
def test_gamma_and_metric_entry_errors_name_their_entry(overrides, message):
    with pytest.raises(ManifestError) as got:
        loads(json.dumps(make_doc(**overrides)))
    assert str(got.value) == message


def test_an_unknown_tolerance_key_is_an_input_error(tmp_path, capsys):
    doc = json.loads(bundled_path("flat2").read_text())
    doc["tolerances"] = {"loop_dett": 1e-30, "weyl_trace": 1e-30}
    with pytest.raises(ManifestError, match=r"^\$\['tolerances'\]\['loop_dett'\]: "):
        loads(json.dumps(doc))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: $['tolerances']['loop_dett']: ")
    # a known key overrides its default
    doc["tolerances"] = {"loop_det": 1e-30}
    rows = cli.run("verify", loads(json.dumps(doc)))["checks"]
    assert [row["tolerance"] for row in rows if row["name"] == "loop_det"] == [1e-30]


def test_every_tolerance_key_names_a_check():
    tree = ast.parse(Path(cli.__file__).read_text())
    named = {node.args[2].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add"
             and len(node.args) == 3 and isinstance(node.args[2], ast.Constant)}
    assert named == set(manifest._DEFAULT_TOLERANCES)


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
    with pytest.raises(ManifestError, match=r"^\$\['structures'\]\['omega'\]: rows of"):
        loads(json.dumps(make_doc(structures={"omega": [[0, 1, 0], [1, 0]]})))


@pytest.mark.parametrize("base, message", [
    ([0.0], "expected 2 components"), ([0.0, 0.0, 0.0], "expected 2 components"),
    ([5.0, 5.0], "outside the domain box")])
def test_loop_base_is_validated_like_the_base_point(tmp_path, capsys, base, message):
    doc = make_doc(loops=[{"base": base, "plane": [0, 1], "size": 0.1}])
    with pytest.raises(ManifestError, match=rf"^\$\['loops'\]\[0\]\['base'\]: {message}$"):
        loads(json.dumps(doc))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    for command in ("transport", "verify"):
        assert cli.main([command, "--manifest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: $['loops'][0]['base']: {message}\n"


CURVE_TO_X1_5 = {"components": ["5*t", "0"], "t0": 0, "t1": 1}


@pytest.mark.parametrize("overrides, message", [
    ({"loops": [{"base": [0.95, 0.0], "plane": [0, 1], "size": 0.5}]},
     "$['loops'][0] far corner: outside the domain box"),
    ({"curves": [CURVE_TO_X1_5]}, "$['curves'][0] at t1: outside the domain box"),
    # the curve crosses a pole outside the box: rejected at load, before a
    # transport that does not converge in 65,536 steps
    ({"gamma": {"0,0,0": "1/(x1 - 3)"}, "curves": [CURVE_TO_X1_5]},
     "$['curves'][0] at t1: outside the domain box"),
    ({"curves": [{"components": ["t", "0"], "t0": -2, "t1": 0}]},
     "$['curves'][0] at t0: outside the domain box"),
], ids=["loop_square", "curve_end", "curve_through_a_pole", "curve_start"])
def test_loop_squares_and_curve_ends_must_lie_in_the_domain(tmp_path, capsys, overrides,
                                                            message):
    doc = make_doc(**overrides)
    with pytest.raises(ManifestError) as err:
        loads(json.dumps(doc))
    assert str(err.value) == message
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_loop_square_and_a_curve_on_the_box_edge_load():
    doc = make_doc(loops=[{"base": [0.5, 0.0], "plane": [0, 1], "size": 0.5}],
                   curves=[{"components": ["t", "0"], "t0": -1, "t1": 1}])
    m = loads(json.dumps(doc))
    assert len(m.loops) == 1 and len(m.curves) == 1


def test_loop_plane_validation():
    doc = make_doc(loops=[{"plane": [0, 0], "size": 0.1}])
    with pytest.raises(ManifestError, match="plane"):
        loads(json.dumps(doc))


def test_integral_floats_load_as_the_integers_they_spell(tmp_path):
    # draft-07, and so the schema, counts 2.0 as an integer; every command
    # reports the same bytes, with the same exit code, as for 2
    reports = []
    for k, (dim, plane) in enumerate(((2, [0, 1]), (2.0, [0, 1]), (2, [0.0, 1.0]))):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(make_doc(dimension=dim, loops=[
            {"base": [0.1, -0.1], "plane": plane, "size": 0.1}])))
        outs = [tmp_path / f"{command}.{k}.json" for command in cli.COMMANDS]
        codes = [cli.main([command, "--manifest", str(path), "--out", str(out)])
                 for command, out in zip(cli.COMMANDS, outs)]
        reports.append((codes, [out.read_bytes() for out in outs]))
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert set(reports[0][0]) <= {0, 1}


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


@pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
def test_a_tol_scale_that_is_not_positive_and_finite_is_an_input_error(tmp_path, capsys, value):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--manifest", "flat2", "--tol-scale", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol-scale must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1", "10"])
def test_a_positive_tol_scale_scales_the_report(tmp_path, value):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--manifest", "flat2", "--tol-scale", value, "--out", str(out)])
    want = cli.run("verify", load_bundled("flat2"), tol_scale=float(value))
    assert out.read_text() == cli.render(want)
    assert code == 0 and want["all_pass"] is True


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


def test_domain_error_first_met_in_a_later_pass_names_its_gamma_entry(tmp_path, capsys):
    # the first pass (64 and 128 steps) never samples x1 = 1/512; the 256-step pass does
    doc = make_doc(gamma={"0,0,0": "1/(x1 - 0.001953125)"},
                   curves=[{"components": ["t", "0"], "t0": 0.0, "t1": 1.0}])
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["transport", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: $['gamma']['0,0,0']: division by zero in '1/(x1 - 0.001953125)'\n")


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


def test_a_transport_that_is_not_finite_stops_at_once(tmp_path):
    # no finer RK4 level can make these states finite, and an infinite one must
    # not pass the convergence test
    doc = make_doc(domain=[[-0.8, 0.8], [-0.8, 0.8]],
                   gamma={f"{k},{i},{j}": "1e300" for k in range(2) for i in range(2)
                          for j in range(2)})
    path = tmp_path / "e300.json"
    path.write_text(json.dumps(doc))
    chart = loads(path.read_text()).chart
    with np.errstate(all="ignore"):
        results = transport_operators(chart, [Curve.segment([0.0, 0.0], [0.5, 0.2]),
                                              Curve.segment([0.1, -0.3], [-0.4, 0.6])])
        for T, steps, ok in results:
            assert not ok and steps <= 128 and not np.isfinite(T).all()
        assert cli.main(["holonomy", "--manifest", str(path),
                         "--out", str(tmp_path / "r.json")]) == 1


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


def detect_e300_with_k(tmp_path, capsys):
    """The `detect` report and check rows of a 3-d chart whose 27 Christoffel
    symbols are all 1e300, with a K structure; it must exit 1, not 2."""
    doc = make_doc(dimension=3, coordinates=["x1", "x2", "x3"], domain=[[-0.8, 0.8]] * 3,
                   gamma={f"{k},{i},{j}": "1e300" for k in range(3) for i in range(3)
                          for j in range(3)},
                   structures={"K": [[1.0], [0.0], [0.0], [0.0]]})
    path = tmp_path / "e300.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        assert cli.main(["detect", "--manifest", str(path), "--out", str(out)]) == 1
    assert not any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())
    report = json.loads(out.read_text())
    return report, {row["name"]: row for row in report["checks"]}


def test_frames_that_are_not_finite_fail_the_foliation_chain(tmp_path, capsys):
    # the transported frames of the all-1e300 chart are not finite; an SVD of
    # them does not converge, which must not read as bad input
    report, rows = detect_e300_with_k(tmp_path, capsys)
    assert rows["foliation_accepted"]["pass"] is False
    assert report["result"]["foliation"]["rho_residual"] == np.inf
    assert report["result"]["foliation"]["inconclusive"] is False
    assert "decomposition" in report["result"]


def test_curvature_that_is_not_finite_fails_the_decomposition_row(tmp_path, capsys):
    # the algebra of the all-1e300 chart has no basis and its curvature is
    # NaN: an empty block pattern must not read as a vanishing tangent row
    report, rows = detect_e300_with_k(tmp_path, capsys)
    assert rows["t_star_row_max"]["pass"] is False
    assert rows["t_star_row_max"]["residual"] == np.inf
    assert report["result"]["decomposition"]["affine_containment_residual"] == np.inf


def test_invariance_builds_each_projective_change_once(monkeypatch):
    calls = []
    original = affine.project_change

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (affine, projective, cli):
        monkeypatch.setattr(module, "project_change", counting, raising=False)
    report = cli.run("invariance", load_bundled("flat2"), seed=0)
    assert len(calls) == len(report["result"]["changes"]) == 3


def run_cold(script, *args):
    """Run a Python script in a fresh process that imports this checkout's tractorlab."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)


def test_no_command_imports_scipy(tmp_path):
    # a fresh process per command: importing scipy.linalg costs a cold start
    # about 0.3 s and 30 MB, jsonschema 65-100 ms and 5 MB, and both are only
    # test dependencies
    script = ("import sys\nfrom tractorlab import cli\n"
              "code = cli.main([sys.argv[1], '--manifest', 'sphere2', '--out', sys.argv[2]])\n"
              "print(code, 'scipy' in sys.modules, 'jsonschema' in sys.modules)")
    for command in cli.COMMANDS:
        proc = run_cold(script, command, str(tmp_path / "r.json"))
        assert proc.stdout.split() == ["0", "False", "False"], command


def test_suite_runs_with_scipy_blocked(tmp_path):
    script = ("import sys\nsys.modules['scipy'] = None\nsys.modules['jsonschema'] = None\n"
              "from tractorlab import cli\n"
              "print(cli.main(['suite', '--manifest', 'sphere2', '--out', sys.argv[1]]))")
    assert run_cold(script, str(tmp_path / "r.json")).stdout.split() == ["0"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_transports_do_not_fault_their_pages_in_again():
    # a heap trimmed between transports re-faults the kernel's arrays on every
    # call: 243 minor faults per sphere3 lasso, against none once it is not
    script = """
import resource
import numpy as np
from tractorlab import tractor
from tractorlab.affine import Curve
from tractorlab.manifest import load_bundled
m = load_bundled("sphere3")
chart, base = m.chart, m.base()
half = (chart.domain[:, 1] - chart.domain[:, 0]) / 2.0
anchor = base + 0.6 * half * np.ones(3) / np.sqrt(3.0)
lasso = ([Curve.segment(base, anchor)] + tractor.square_loop(anchor, 0, 1, 0.08)
         + [Curve.segment(anchor, base)])
for _ in range(20):
    tractor.loop_holonomy(chart, lasso)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    tractor.loop_holonomy(chart, lasso)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""
    assert float(run_cold(script).stdout) <= 2.0


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


def test_detect_runs_the_einstein_check_once(monkeypatch):
    # flat3 supplies a tractor metric "h", whose verification reuses the
    # report detect already has
    calls = []
    original = structures.einstein_check

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "einstein_check", counting)
    monkeypatch.setattr(structures, "einstein_check", counting)
    m = load_bundled("flat3")
    assert "h" in m.structures
    report = cli.run("detect", m)
    assert len(calls) == 1
    assert "tractor_metric" in report["result"]


def test_coordinates_named_like_former_compiler_temporaries_run_the_suite(tmp_path):
    # the schema accepts any identifier that is not a function name
    text = bundled_path("sphere2").read_text().replace("x1", "_out").replace("x2", "_t0")
    path = tmp_path / "renamed.json"
    path.write_text(text)
    outs = [tmp_path / "bundled.json", tmp_path / "renamed.json.out"]
    codes = [cli.main(["suite", "--manifest", m, "--out", str(out)])
             for m, out in zip(("sphere2", str(path)), outs)]
    assert codes[1] == codes[0] == 0
    rows = [json.loads(out.read_text())["checks"] for out in outs]
    assert rows[1] == rows[0]


def test_suite_over_whole_bundled_corpus_exits_zero(tmp_path):
    out = tmp_path / "corpus.json"
    code = cli.main(["suite", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["manifest"] == "bundled-corpus"
    assert sorted(rep["reports"]) == bundled_names()
    assert rep["all_pass"] is True
