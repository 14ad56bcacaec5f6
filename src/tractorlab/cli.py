"""Command-line surface: manifest in, JSON report out.

Commands
  compute     curvature invariants (Ric, rho, Weyl, Cotton) at sample points
  invariance  residuals of Weyl and loop transport under random gauge changes
  transport   tractor transport along declared curves and loops
  holonomy    holonomy algebra estimate plus fiber structure candidates
  detect      candidates, geometric structure reports, and structure labels
  verify      named property battery for the chart
  suite       all of the above; exit 0 only if every verdict passes

Reports are deterministic for a fixed (manifest, seed, version): keys are
sorted, matrices are emitted row-major with declared shape, and no
timestamps or machine identifiers are included.  Exit codes: 0 all pass,
1 a verdict failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .affine import Curve, OneFormField, max_abs
from .expr import ExprDomainError, ExprError
from .holonomy import (
    _LOOP_SIZE,
    classify,
    invariant_complex,
    invariant_metric,
    invariant_subspaces,
    invariant_symplectic,
    loop_algebra,
)
from .manifest import _DEFAULT_TOLERANCES, Manifest, bundled_names, gamma_entry_error, load, \
    load_bundled
from .projective import point_fields, ricci_from_rho, weyl_invariance_test
from .structures import (
    complex_reduction,
    contact_from_symplectic,
    einstein_check,
    foliation_analysis,
    holonomy_decomposition_check,
    tractor_metric_to_einstein_verify,
)
from .tractor import (
    loop_holonomies,
    loop_holonomy,
    splitting_matrix,
    square_loop,
    transport_operators,
)

COMMANDS = ("compute", "invariance", "transport", "holonomy", "detect", "verify", "suite")

def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "data": [float(x) for x in obj.ravel()]}
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


class _Checks:
    """Accumulates named residual checks with their tolerances."""

    def __init__(self, tolerances: dict, tol_scale: float):
        self.tolerances = tolerances
        self.tol_scale = tol_scale
        self.rows = []

    def add(self, name: str, residual: float, tol_key: str):
        tol = self.tolerances.get(tol_key, _DEFAULT_TOLERANCES[tol_key]) * self.tol_scale
        self.rows.append({
            "name": name,
            "residual": float(residual),
            "tolerance": tol,
            "pass": bool(residual <= tol),
        })

    def verdict(self, name: str, passed: bool, detail: str = ""):
        self.rows.append({"name": name, "pass": bool(passed), "detail": detail})

    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


_UPS_SCALE = 0.1  # bound on each coefficient of a random change Ups = a + b.x


def _random_ups(manifest: Manifest, seed: int, count: int):
    chart = manifest.chart
    rng = np.random.default_rng(seed + 1000)
    out = []
    for _ in range(count):
        comps = []
        for _i in range(chart.n):
            terms = [repr(float(rng.uniform(-_UPS_SCALE, _UPS_SCALE)))]
            terms += [f"{float(rng.uniform(-_UPS_SCALE, _UPS_SCALE))!r}*{c}"
                      for c in chart.coords]
            comps.append(chart.parse(" + ".join(terms)))
        out.append(OneFormField(chart, np.asarray(comps, dtype=object)))
    return out


def _loops(manifest: Manifest):
    loops = []
    for ldoc in manifest.loops:
        loops.append(square_loop(ldoc["base"], ldoc["plane"][0], ldoc["plane"][1], ldoc["size"]))
    if not loops:
        loops.append(square_loop(manifest.base(), 0, 1, _LOOP_SIZE))
    return loops


# -- commands -------------------------------------------------------------------


def cmd_compute(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    chart = manifest.chart
    pts = manifest.sample()[:50]
    values = point_fields(chart, pts)
    fields = {key: values[name] for key, name in
              (("ricci", "Ric"), ("rho", "P"), ("weyl", "W"), ("cotton", "CY"))}
    maxima = {key: max_abs(vals) for key, vals in fields.items()}
    at_points = [{"point": p, **{key: vals[idx] for key, vals in fields.items()}}
                 for idx, p in enumerate(pts[:5])]
    return {"at_points": at_points, "max_abs_over_samples": maxima, "n_samples": len(pts)}


def cmd_invariance(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    chart = manifest.chart
    loop = _loops(manifest)[0]
    loop_base = loop[0].point(0.0)
    H, _rep = loop_holonomy(chart, loop)
    rows = []
    changes = _random_ups(manifest, seed, count=3)
    for i, (ups, res) in enumerate(zip(changes, weyl_invariance_test(chart, changes, seed=seed))):
        checks.add(f"weyl_invariance_change_{i}", res["max_weyl_residual"], "weyl_invariance")
        checks.add(f"cotton_change_law_{i}", res["max_cotton_residual"], "cotton_change_law")
        H2, _rep2 = loop_holonomy(res["chart"], loop)
        S = splitting_matrix(ups.at(loop_base))
        drift = max_abs(S @ H2 @ np.linalg.inv(S) - H) / (1.0 + max_abs(H))
        checks.add(f"loop_invariance_change_{i}", drift, "loop_invariance")
        rows.append({"weyl_residual": res["max_weyl_residual"],
                     "cotton_residual": res["max_cotton_residual"],
                     "loop_residual": drift})
    return {"changes": rows, "loop_base": loop_base}


def cmd_transport(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    chart = manifest.chart
    base = manifest.base()
    curves = list(manifest.curves)
    if not curves:
        targets = manifest.sample()[:2]
        curves = [Curve.segment(base, t) for t in targets]
    ops = []
    for i, (T, steps, ok) in enumerate(transport_operators(chart, curves)):
        det_drift = abs(float(np.linalg.det(T)) - 1.0) if ok else np.inf
        checks.add(f"transport_det_curve_{i}", det_drift, "transport_det")
        ops.append({"operator": T, "steps": steps, "converged": bool(ok),
                    "det_drift": det_drift})
    loops_out = []
    loops = _loops(manifest)
    for i, (loop, (H, rep)) in enumerate(zip(loops, loop_holonomies(chart, loops))):
        checks.add(f"loop_det_{i}", rep["det_drift"], "loop_det")
        loops_out.append({"holonomy": H, "det_drift": rep["det_drift"],
                          "base": loop[0].point(0.0)})
    return {"curves": ops, "loops": loops_out}


def _holonomy(manifest: Manifest, seed: int):
    """(algebra, candidates, classification): the loop holonomy algebra at
    the base point, the fiber structures it preserves and their labels;
    `holonomy` and `detect` share one per manifest and seed, kept in
    `manifest.algebras`.  An algebra that is not finite preserves nothing
    that can be read off it, so it has no candidates."""
    if seed not in manifest.algebras:
        alg = loop_algebra(manifest.chart, manifest.base(), count=4, seed=seed)
        candidates = _candidates(alg, seed) if alg.finite else []
        manifest.algebras[seed] = alg, candidates, classify(alg, candidates)
    return manifest.algebras[seed]


def cmd_holonomy(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    alg, candidates, table = _holonomy(manifest, seed)
    checks.add("algebra_trace_free", alg.trace_free_residual, "algebra_trace_free")
    checks.verdict("rank_stable", alg.rank_stable,
                   f"rank {alg.rank} under threshold x10 and /10")
    return {
        "rank": alg.rank,
        "method": alg.method,
        "basis": list(alg.basis),
        "singular_values": np.asarray(alg.singular_values),
        "closed_under_bracket": alg.closed_under_bracket,
        "details": alg.details,
        "candidates": [_cand_dict(c) for c in candidates if c is not None],
        "classification": table,
    }


def _candidates(alg, seed):
    cands = [invariant_metric(alg), invariant_symplectic(alg), invariant_complex(alg, seed=seed)]
    cands.extend(invariant_subspaces(alg, seed=seed))
    return cands


def _cand_dict(c):
    return {"kind": c.kind, "data": c.data, "residual": c.residual, "meta": c.meta}


def cmd_detect(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    chart = manifest.chart
    base = manifest.base()
    alg, candidates, table = _holonomy(manifest, seed)
    if not alg.finite:
        # the classification below rests on the algebra; a finite one adds no row
        checks.add("algebra_trace_free", alg.trace_free_residual, "algebra_trace_free")
    labels = list(table["labels"])
    out = {
        "algebra_rank": alg.rank,
        "candidates": [_cand_dict(c) for c in candidates if c is not None],
        "classification": table,
    }

    ein = einstein_check(chart, seed=seed)
    out["einstein"] = {
        "accepted": ein.accepted,
        "nabla_ric_norm": ein.nabla_ric_norm,
        "ric_signature": ein.ric_signature,
        "h_signature": ein.h_signature,
        "reject_reason": ein.reject_reason,
    }
    if ein.accepted:
        checks.add("einstein_parallel_residual", ein.parallel_residual, "einstein_parallel")
        checks.add("einstein_transport_residual", ein.transport_residual, "einstein_parallel")
        out["einstein"]["h_at_base"] = ein.h(base)
        if "Einstein manifold" not in labels:
            labels.append("Einstein manifold")

    structures = manifest.structures
    if "omega" in structures:
        rep = contact_from_symplectic(chart, alg, structures["omega"], base_point=base, seed=seed)
        checks.verdict("contact_accepted", rep.accepted, rep.reject_reason or "")
        if rep.accepted:
            checks.add("contact_dtheta_vs_omega", rep.dtheta_vs_omega, "contact_dtheta")
            checks.add("contact_dtheta_reeb", rep.dtheta_reeb, "contact_dtheta")
            checks.add("contact_weyl_in_H", rep.weyl_in_H, "contact_weyl")
            checks.verdict("contact_vtheta_nonvanishing",
                           rep.vtheta_min > 0.1 * rep.vtheta_max,
                           f"min {rep.vtheta_min:.6g} max {rep.vtheta_max:.6g}")
            if "Contact manifold" not in labels:
                labels.append("Contact manifold")
        out["contact"] = {
            "accepted": rep.accepted,
            "dtheta_vs_omega": rep.dtheta_vs_omega,
            "dtheta_reeb": rep.dtheta_reeb,
            "vtheta_min": rep.vtheta_min,
            "vtheta_max": rep.vtheta_max,
            "weyl_in_H": rep.weyl_in_H,
            "theta": [np.asarray(t) for t in rep.theta[:3]],
            "reeb": [np.asarray(r) for r in rep.reeb[:3]],
        }
    if "J" in structures:
        rep = complex_reduction(chart, alg, structures["J"], base_point=base, seed=seed)
        checks.verdict("complex_accepted", rep.accepted, rep.reject_reason or "")
        if rep.accepted:
            checks.add("complex_square_residual", rep.square_residual, "complex_square")
            checks.add("complex_lie_residual", rep.lie_invariance_residual, "complex_lie")
            if "U(1)-bundle over a complex manifold" not in labels:
                labels.append("U(1)-bundle over a complex manifold")
        out["complex"] = {
            "accepted": rep.accepted,
            "square_residual": rep.square_residual,
            "lie_invariance_residual": rep.lie_invariance_residual,
            "R_at_samples": [np.asarray(r) for r in rep.R_field[:3]],
        }
    if "h" in structures:
        rep = tractor_metric_to_einstein_verify(chart, alg, ein, structures["h"],
                                                base_point=base, seed=seed)
        checks.verdict("tractor_metric_verified", rep["accepted"],
                       rep.get("reason", ""))
        out["tractor_metric"] = rep
    if "K" in structures:
        rep = foliation_analysis(chart, alg, structures["K"], base_point=base, seed=seed)
        checks.verdict("foliation_accepted", rep.accepted, rep.reject_reason or "")
        if rep.accepted:
            checks.add("foliation_rho_residual", rep.rho_residual, "foliation")
            checks.add("foliation_ricci_on_K", rep.ricci_on_K, "foliation")
            if "Foliation by Ricci-flat leaves" not in labels:
                labels.append("Foliation by Ricci-flat leaves")
        decomp = holonomy_decomposition_check(chart, alg, seed=seed)
        checks.add("t_star_row_max", decomp["t_star_row_max"], "t_star_row")
        out["foliation"] = {
            "accepted": rep.accepted,
            "integrability_residual": rep.integrability_residual,
            "geodesy_residual": rep.geodesy_residual,
            "rho_residual": rep.rho_residual,
            "ricci_on_K": rep.ricci_on_K,
            "covolume_status": rep.covolume_status,
            "inconclusive": rep.inconclusive,
        }
        out["decomposition"] = decomp

    out["labels"] = labels
    out["caveat"] = table["caveat"]
    return out


def cmd_verify(manifest: Manifest, seed: int, checks: _Checks) -> dict:
    chart = manifest.chart
    n = chart.n
    eye = np.eye(n)
    pts = manifest.sample()[:20]
    f = point_fields(chart, pts)

    # each residual is the max_abs of its per-sample values, so a NaN fails it
    rebuild, trace, rho_ric, mtrace = [], [], [], []
    for R, W, P, Ric, M in zip(f["R"], f["W"], f["P"], f["Ric"], f["M"]):
        back = (W + np.einsum("hl,kj->hjkl", P, eye)
                + np.einsum("hj,kl->hjkl", P - P.T, eye)
                - np.einsum("jl,kh->hjkl", P, eye))
        rebuild.append(max_abs(back - R) / (1.0 + max_abs(R)))
        wscale = 1.0 + max_abs(W)
        trace += [max_abs(np.einsum("kjkl->jl", W)) / wscale,
                  max_abs(np.einsum("hjkk->hj", W)) / wscale,
                  max_abs(W + W.transpose(1, 0, 2, 3)) / wscale]
        rho_ric.append(max_abs(ricci_from_rho(P) - Ric) / (1.0 + max_abs(Ric)))
        mtrace += [float(np.trace(M[i])) for i in range(n)]
    rebuild, trace, rho_ric, mtrace = map(max_abs, (rebuild, trace, rho_ric, mtrace))
    F_a, F_d = f["F"][:8], f["F_M"][:8]
    tmatch = max_abs([max_abs(a - d) / (1.0 + max_abs(a)) for a, d in zip(F_a, F_d)])
    tpart = max_abs(F_d[:, :, :, :n, n])
    checks.add("weyl_rebuilds_curvature", rebuild, "weyl_rebuild")
    checks.add("weyl_trace_free", trace, "weyl_trace")
    checks.add("rho_ricci_consistency", rho_ric, "rho_ricci")
    checks.add("tractor_curvature_match", tmatch, "curvature_match")
    checks.add("tractor_curvature_t_part", tpart, "curvature_t_part")
    checks.add("connection_trace", mtrace, "connection_trace")

    H, rep = loop_holonomy(chart, _loops(manifest)[0])
    checks.add("loop_det", rep["det_drift"], "loop_det")
    return {
        "n_samples": len(pts),
        "residuals": {
            "weyl_rebuild": rebuild,
            "weyl_trace": trace,
            "rho_ricci": rho_ric,
            "curvature_match": tmatch,
            "curvature_t_part": tpart,
            "connection_trace": mtrace,
            "loop_det": rep["det_drift"],
        },
    }


_COMMANDS = {
    "compute": cmd_compute,
    "invariance": cmd_invariance,
    "transport": cmd_transport,
    "holonomy": cmd_holonomy,
    "detect": cmd_detect,
    "verify": cmd_verify,
}


def run(command: str, manifest: Manifest, seed: int = 0, tol_scale: float = 1.0) -> dict:
    """Execute one command (or the whole suite) on a loaded manifest."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    report = {
        "tool": "tractorlab",
        "version": __version__,
        "command": command,
        "manifest": manifest.name,
        "seed": seed,
        "tol_scale": tol_scale,
    }
    if command == "suite":
        sections = {}
        all_checks = []
        for name in ("compute", "invariance", "transport", "holonomy", "detect", "verify"):
            checks = _Checks(manifest.tolerances, tol_scale)
            sections[name] = _jsonable(_COMMANDS[name](manifest, seed, checks))
            for row in checks.rows:
                row["name"] = f"{name}.{row['name']}"
            all_checks.extend(checks.rows)
        report["sections"] = sections
        report["checks"] = all_checks
        report["all_pass"] = all(row["pass"] for row in all_checks)
    else:
        checks = _Checks(manifest.tolerances, tol_scale)
        report["result"] = _jsonable(_COMMANDS[command](manifest, seed, checks))
        report["checks"] = checks.rows
        report["all_pass"] = checks.all_pass()
    return report


def _named_non_finite(obj):
    """`obj` with each float that is not finite replaced by its name."""
    if isinstance(obj, dict):
        return {k: _named_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_named_non_finite(v) for v in obj]
    return str(obj) if isinstance(obj, float) and not np.isfinite(obj) else obj


def render(report: dict) -> str:
    """A `run` report (or a dict of them) as the JSON text of the command line;
    `run` has already made every value JSON-native.  The text is strict JSON: a
    float that is not finite is written as the string "inf", "-inf" or "nan"."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_named_non_finite(report), indent=2, sort_keys=True)
    return text + "\n"


def _run_naming_entry(args, manifest: Manifest) -> dict:
    """`run`, with a domain error turned into one naming its gamma entry."""
    try:
        return run(args.command, manifest, seed=args.seed, tol_scale=args.tol_scale)
    except ExprDomainError as err:
        raise gamma_entry_error(manifest.chart.coords, manifest.gamma_entries, err) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tractorlab",
        description="Projective tractor calculus on coordinate charts: curvature "
                    "invariants, tractor transport, holonomy estimation, and "
                    "geometric structure detection.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--manifest", default=None,
                        help="path to a manifest JSON file, or the name of a bundled "
                             f"chart ({', '.join(bundled_names())}); suite runs the "
                             "whole bundled corpus when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply every tolerance by this factor (positive and finite)")
    args = parser.parse_args(argv)
    if not (np.isfinite(args.tol_scale) and args.tol_scale > 0):
        parser.error(f"--tol-scale must be positive and finite, got {args.tol_scale!r}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")

    try:
        if args.manifest is None:
            if args.command != "suite":
                parser.error("--manifest is required for every command except suite")
            manifests = [load_bundled(name) for name in bundled_names()]
        elif os.path.exists(args.manifest) or os.sep in args.manifest \
                or args.manifest.endswith(".json"):
            manifests = [load(args.manifest)]
        else:
            manifests = [load_bundled(args.manifest)]
        if len(manifests) == 1:
            report = _run_naming_entry(args, manifests[0])
            all_pass = report["all_pass"]
        else:
            per = {m.name: _run_naming_entry(args, m) for m in manifests}
            all_pass = all(r["all_pass"] for r in per.values())
            report = {
                "tool": "tractorlab",
                "version": __version__,
                "command": args.command,
                "manifest": "bundled-corpus",
                "seed": args.seed,
                "tol_scale": args.tol_scale,
                "reports": per,
                "all_pass": all_pass,
            }
    except (ValueError, ExprError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = render(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
