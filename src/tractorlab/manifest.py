"""Chart manifests: JSON ingestion, validation, and the bundled corpus.

A manifest is a strict JSON document (schema in schema/manifest_schema.json)
describing a chart: dimension, coordinate names, a sparse map of Christoffel
expressions, the domain box, and optional sampling policy, curves, loops,
fiber structures, and tolerance overrides.  Christoffel keys are zero-based
"k,i,j" triples.  Asymmetric symbols are rejected unless the manifest sets
"symmetrize": true, because everything downstream assumes a torsion-free
connection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .affine import ChartModel, Curve, max_abs, sample_points, symmetrize
from .expr import Expr, ExprDomainError, num, parse
from .jets import JetSpace

__all__ = [
    "Manifest",
    "ManifestError",
    "load",
    "loads",
    "chart_to_manifest",
    "bundled_names",
    "bundled_path",
    "load_bundled",
    "gamma_entry_error",
]


class ManifestError(ValueError):
    """Validation or parse failure, annotated with the offending field."""


@dataclass
class Manifest:
    name: str
    chart: ChartModel
    seed: int = 0
    n_random: int = 50
    n_grid: int = 14
    base_point: np.ndarray | None = None
    curves: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    structures: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    symmetrized: bool = False
    asymmetry: float = 0.0
    raw: dict = field(default_factory=dict)
    gamma_entries: dict = field(default_factory=dict)  # declared "k,i,j" -> Expr, in order
    # seed -> (loop algebra at base(), its candidates, their classification)
    algebras: dict = field(default_factory=dict, repr=False)

    def base(self) -> np.ndarray:
        if self.base_point is None:
            return self.chart.center()
        return self.base_point

    def sample(self):
        return sample_points(self.chart, seed=self.seed,
                             n_random=self.n_random, n_grid=self.n_grid)


def _schema() -> dict:
    text = resources.files("tractorlab").joinpath("schema/manifest_schema.json").read_text()
    return json.loads(text)


def loads(text: str, source: str = "<string>") -> Manifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"{source}: not valid JSON: {e}") from e
    try:
        jsonschema.validate(doc, _schema())
    except jsonschema.ValidationError as e:
        path = "$" + "".join(f"[{p!r}]" for p in e.absolute_path)
        raise ManifestError(f"{source}: {path}: {e.message}") from e

    n = doc["dimension"]
    coords = tuple(doc["coordinates"])
    if len(coords) != n:
        raise ManifestError(f"$['coordinates']: expected {n} names, got {len(coords)}")
    domain = np.asarray(doc["domain"], dtype=float)
    if domain.shape != (n, 2):
        raise ManifestError(f"$['domain']: expected {n} [lo, hi] pairs")

    gamma = np.full((n, n, n), num(0.0), dtype=object)
    entries = {}
    for key, text_expr in doc["gamma"].items():
        idx = tuple(int(s) for s in key.split(","))
        if not all(0 <= i < n for i in idx):
            raise ManifestError(f"$['gamma'][{key!r}]: index out of range for dimension {n}")
        try:
            gamma[idx] = entries[key] = parse(text_expr, coords)
        except Exception as e:
            raise ManifestError(f"$['gamma'][{key!r}]: {e}") from e

    metric = None
    if "metric" in doc:
        metric = np.full((n, n), num(0.0), dtype=object)
        for key, text_expr in doc["metric"].items():
            idx = tuple(int(s) for s in key.split(","))
            if not all(0 <= i < n for i in idx):
                raise ManifestError(f"$['metric'][{key!r}]: index out of range for dimension {n}")
            try:
                metric[idx] = parse(text_expr, coords)
            except Exception as e:
                raise ManifestError(f"$['metric'][{key!r}]: {e}") from e

    try:
        chart = ChartModel(coords, gamma, domain, metric=metric, name=doc["name"])
    except ValueError as e:
        raise ManifestError(f"{source}: {e}") from e

    symmetrized = False
    asym = _asymmetry(chart, entries)
    if asym > 1e-12:
        if doc.get("symmetrize", False):
            chart, asym_found = symmetrize(chart)
            symmetrized = True
            asym = asym_found
        else:
            raise ManifestError(
                "$['gamma']: asymmetric Christoffel symbols describe a connection "
                f"with torsion (max asymmetry {asym:.3e}); this tool requires a "
                "torsion-free connection. Set \"symmetrize\": true to use the "
                "symmetric part."
            )

    samples = doc.get("samples", {})
    base_point = None
    if "base_point" in doc:
        base_point = np.asarray(doc["base_point"], dtype=float)
        if base_point.shape != (n,):
            raise ManifestError(f"$['base_point']: expected {n} components")
        if not chart.contains(base_point):
            raise ManifestError("$['base_point']: outside the domain box")

    curves = []
    for i, cdoc in enumerate(doc.get("curves", [])):
        if len(cdoc["components"]) != n:
            raise ManifestError(f"$['curves'][{i}]: expected {n} components")
        try:
            curves.append(Curve.from_strings(cdoc["components"], cdoc["t0"], cdoc["t1"]))
        except Exception as e:
            raise ManifestError(f"$['curves'][{i}]: {e}") from e

    loops = []
    for i, ldoc in enumerate(doc.get("loops", [])):
        plane = tuple(ldoc["plane"])
        if not all(0 <= p < n for p in plane) or plane[0] == plane[1]:
            raise ManifestError(f"$['loops'][{i}]['plane']: needs two distinct axes below {n}")
        base = np.asarray(ldoc.get("base", (domain[:, 0] + domain[:, 1]) / 2.0), dtype=float)
        loops.append({"base": base, "plane": plane, "size": float(ldoc["size"])})

    structures = {}
    for key, mat in doc.get("structures", {}).items():
        arr = np.asarray(mat, dtype=float)
        rows = n + 1
        if arr.ndim != 2 or arr.shape[0] != rows:
            raise ManifestError(f"$['structures'][{key!r}]: expected {rows} rows")
        if key in ("omega", "h", "J") and arr.shape[1] != rows:
            raise ManifestError(f"$['structures'][{key!r}]: expected a {rows}x{rows} matrix")
        if key == "K" and not 1 <= arr.shape[1] <= n:
            raise ManifestError(f"$['structures']['K']: expected between 1 and {n} columns")
        structures[key] = arr

    return Manifest(
        name=doc["name"],
        chart=chart,
        seed=int(samples.get("seed", 0)),
        n_random=int(samples.get("n_random", 50)),
        n_grid=int(samples.get("n_grid", 14)),
        base_point=base_point,
        curves=curves,
        loops=loops,
        structures=structures,
        tolerances=dict(doc.get("tolerances", {})),
        symmetrized=symmetrized,
        asymmetry=asym,
        raw=doc,
        gamma_entries=entries,
    )


def load(path) -> Manifest:
    p = Path(path)
    if not p.exists():
        raise ManifestError(f"manifest file not found: {p}")
    return loads(p.read_text(), source=str(p))


def gamma_entry_error(coords, entries: dict, err: ExprDomainError) -> Exception:
    """`err` as a ManifestError naming the first gamma entry that fails at
    the point where `err` was raised; `err` itself if none does.

    Entries are evaluated as jets in the space `err` was raised in, or as
    first-order jets if it was raised on floats: derived fields hold
    derivatives of the entries, which can fail where the value does not
    (sqrt at 0, or a high power of a pole only in the higher coefficients).
    `entries` maps each declared "k,i,j" key to its expression, in manifest
    order, and `coords` are the chart's coordinates.
    """
    env = err.point
    if env is not None and set(coords) <= set(env):
        space = JetSpace.of(len(coords), 1) if err.space is None else err.space
        for key, e in entries.items():
            try:
                space.evaluate([e], coords, [env[c] for c in coords])
            except ExprDomainError as entry_err:
                return ManifestError(f"$['gamma'][{key!r}]: {entry_err}")
    return err


def _asymmetry(chart: ChartModel, entries: dict, n_points: int = 5) -> float:
    """Max asymmetry of the symbols at samples; a domain error names its entry."""
    pts = sample_points(chart, seed=0, n_random=n_points, n_grid=0)
    try:
        g = chart.evaluator(chart.gamma)(pts)
    except ExprDomainError as err:
        raise gamma_entry_error(chart.coords, entries, err) from None
    return max_abs(g - g.transpose(0, 1, 3, 2))


# -- writing and the bundled corpus ---------------------------------------------


def _expr_is_zero(e: Expr) -> bool:
    return e.to_string() == "0"


def chart_to_manifest(chart: ChartModel, name: str | None = None, **extra) -> dict:
    """Serialize a chart to a manifest document (sparse gamma, to_string)."""
    n = chart.n
    gamma = {}
    for k in range(n):
        for i in range(n):
            for j in range(n):
                e = chart.gamma[k, i, j]
                if not _expr_is_zero(e):
                    gamma[f"{k},{i},{j}"] = e.to_string()
    doc = {
        "format": "tractorlab-manifest",
        "version": 1,
        "name": name or chart.name or "chart",
        "dimension": n,
        "coordinates": list(chart.coords),
        "domain": [[float(lo), float(hi)] for lo, hi in chart.domain],
        "gamma": gamma,
    }
    if chart.metric is not None:
        metric = {}
        for i in range(n):
            for j in range(n):
                e = chart.metric[i, j]
                if not _expr_is_zero(e):
                    metric[f"{i},{j}"] = e.to_string()
        doc["metric"] = metric
    doc.update(extra)
    return doc


def bundled_names() -> list:
    root = resources.files("tractorlab").joinpath("manifests")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_path(name: str) -> Path:
    p = resources.files("tractorlab").joinpath(f"manifests/{name}.json")
    if not p.is_file():
        raise ManifestError(
            f"no bundled manifest named {name!r}; available: {', '.join(bundled_names())}")
    return Path(str(p))


def load_bundled(name: str) -> Manifest:
    return loads(bundled_path(name).read_text(), source=f"bundled:{name}")
