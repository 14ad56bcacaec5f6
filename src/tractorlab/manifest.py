"""Chart manifests: JSON ingestion, validation, and the bundled corpus.

A manifest is a strict JSON document (schema in schema/manifest_schema.json)
describing a chart: dimension, coordinate names, a sparse map of Christoffel
expressions, the domain box, and optional sampling policy, curves, loops,
fiber structures, and tolerance overrides keyed by the names of
`_DEFAULT_TOLERANCES` (any other key is rejected).  `_errors` checks the
draft-07 keywords the schema uses with jsonschema's messages, so no command
imports jsonschema; the tests keep it as the reference.  Christoffel keys are zero-based
"k,i,j" triples.  Asymmetric symbols are rejected unless the manifest sets
"symmetrize": true, because everything downstream assumes a torsion-free
connection.  Points, loop squares and curve ends must lie in the domain box;
a curve leaving it between its ends is not caught (needs an interval bound).
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .affine import ChartModel, Curve, max_abs, sample_points, symmetrize
from .expr import ExprDomainError, compile_exprs, num, parse
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


# the residual bounds of the report checks: a manifest's "tolerances" may
# override any of these keys and no other, and `cli` names each in a check
_DEFAULT_TOLERANCES = {
    "weyl_rebuild": 1e-12,
    "weyl_trace": 1e-9,
    "rho_ricci": 1e-12,
    "weyl_invariance": 1e-8,
    "cotton_change_law": 1e-8,
    "loop_invariance": 1e-6,
    "curvature_match": 1e-8,
    "curvature_t_part": 1e-9,
    "connection_trace": 1e-12,
    "loop_det": 1e-6,
    "transport_det": 1e-6,
    "algebra_trace_free": 1e-9,
    "einstein_parallel": 1e-6,
    "contact_dtheta": 1e-6,
    "contact_weyl": 1e-7,
    "complex_square": 1e-7,
    "complex_lie": 1e-4,
    "foliation": 1e-7,
    "t_star_row": 1e-9,
}


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


_KEYWORDS = {"type", "const", "minimum", "exclusiveMinimum", "minLength", "pattern", "minItems",
             "maxItems", "items", "required", "properties", "patternProperties",
             "additionalProperties", "$schema", "$id", "title", "description"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": (int, float),
          "integer": int}


def _is(v, name: str) -> bool:
    """Draft-07 types: bool is neither a number nor an integer, and 2.0 is an integer."""
    if isinstance(v, float) and name == "integer":
        return v.is_integer()
    return isinstance(v, _TYPES[name]) and (name == "boolean" or not isinstance(v, bool))


def _checked(schema) -> dict:
    """`schema`, once every keyword in it, at every depth, is one `_errors` implements."""
    for key, arg in schema.items():
        if (key not in _KEYWORDS or key == "type" and arg not in _TYPES
                or key == "const" and not isinstance(arg, str)
                or key == "items" and not isinstance(arg, dict)
                or key == "additionalProperties" and not isinstance(arg, (bool, dict))):
            raise ValueError(f"manifest schema: keyword {key!r} ({arg!r}) is not implemented")
        if key in ("properties", "patternProperties"):
            for sub in arg.values():
                _checked(sub)
        elif key in ("items", "additionalProperties") and isinstance(arg, dict):
            _checked(arg)
    return schema


def _errors(schema: dict, v, path: tuple):
    """(path, message) of each violation of `schema` by `v`, with the messages
    of jsonschema's Draft7Validator; keywords are checked in schema order."""
    for key, arg in schema.items():
        if key == "type" and not _is(v, arg):
            yield path, f"{v!r} is not of type {arg!r}"
        elif key == "const" and v != arg:
            yield path, f"{arg!r} was expected"
        elif key == "minimum" and _is(v, "number") and v < arg:
            yield path, f"{v!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum" and _is(v, "number") and v <= arg:
            yield path, f"{v!r} is less than or equal to the minimum of {arg!r}"
        elif key == "pattern" and isinstance(v, str) and not re.search(arg, v):
            yield path, f"{v!r} does not match {arg!r}"
        elif (key == "minLength" and isinstance(v, str)
              or key == "minItems" and isinstance(v, list)) and len(v) < arg:
            yield path, f"{v!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and isinstance(v, list) and len(v) > arg:
            yield path, f"{v!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "items" and isinstance(v, list):
            for i, item in enumerate(v):
                yield from _errors(arg, item, path + (i,))
        elif not isinstance(v, dict):
            continue
        elif key == "required":
            yield from ((path, f"{p!r} is a required property") for p in arg if p not in v)
        elif key == "properties":
            for p, sub in arg.items():
                if p in v:
                    yield from _errors(sub, v[p], path + (p,))
        elif key == "patternProperties":
            for regex, sub in arg.items():
                for p in filter(re.compile(regex).search, v):
                    yield from _errors(sub, v[p], path + (p,))
        elif key == "additionalProperties" and arg is not True:
            regexes = sorted(schema.get("patternProperties", {}))
            extras = sorted(p for p in v if p not in schema.get("properties", {})
                            and not any(re.search(r, p) for r in regexes))
            listed, one = ", ".join(map(repr, extras)), len(extras) == 1
            if isinstance(arg, dict):
                for p in extras:
                    yield from _errors(arg, v[p], path + (p,))
            elif extras and "patternProperties" in schema:
                yield path, (f"{listed} {'does' if one else 'do'} not match any of the regexes: "
                             + ", ".join(map(repr, regexes)))
            elif extras:
                yield path, (f"Additional properties are not allowed ({listed} "
                             f"{'was' if one else 'were'} unexpected)")


@functools.cache
def _validator() -> dict:
    """The manifest schema, read and its keywords checked once per process."""
    text = resources.files("tractorlab").joinpath("schema/manifest_schema.json").read_text()
    return _checked(json.loads(text))


def _schema_error(doc) -> str | None:
    """"$path: message" of the error `jsonschema.validate` would raise, or None:
    its `best_match`, which for a schema that applies one subschema at each
    location is the shortest path, then the greatest, then the first found."""
    best = max(_errors(_validator(), doc, ()), key=lambda e: (-len(e[0]), e[0]), default=None)
    return None if best is None else "$" + "".join(f"[{p!r}]" for p in best[0]) + ": " + best[1]


def _expression_map(doc: dict, key: str, n: int, rank: int, coords) -> tuple:
    """The sparse map doc[key] of zero-based "k,i,j" (or "i,j") indices to
    expressions, as an (n,)*rank array with zeros elsewhere, and its entries
    (index text -> Expr, in document order)."""
    arr = np.full((n,) * rank, num(0.0), dtype=object)
    entries = {}
    for index, text_expr in doc[key].items():
        idx = tuple(int(s) for s in index.split(","))
        if not all(0 <= i < n for i in idx):
            raise ManifestError(f"$[{key!r}][{index!r}]: index out of range for dimension {n}")
        try:
            arr[idx] = entries[index] = parse(text_expr, coords)
        except Exception as e:
            raise ManifestError(f"$[{key!r}][{index!r}]: {e}") from e
    return arr, entries


def loads(text: str, source: str = "<string>") -> Manifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ManifestError(f"{source}: not valid JSON: {e}") from e
    error = _schema_error(doc)
    if error is not None:
        raise ManifestError(f"{source}: {error}")
    unknown = [key for key in doc.get("tolerances", {}) if key not in _DEFAULT_TOLERANCES]
    if unknown:
        raise ManifestError(f"$['tolerances'][{unknown[0]!r}]: not a tolerance key; the keys "
                            f"are {', '.join(_DEFAULT_TOLERANCES)}")

    n = int(doc["dimension"])  # draft-07 takes 2.0 for an integer, and so does the schema
    coords = tuple(doc["coordinates"])
    if len(coords) != n:
        raise ManifestError(f"$['coordinates']: expected {n} names, got {len(coords)}")
    domain = np.asarray(doc["domain"], dtype=float)
    if domain.shape != (n, 2):
        raise ManifestError(f"$['domain']: expected {n} [lo, hi] pairs")

    gamma, entries = _expression_map(doc, "gamma", n, 3, coords)
    metric = _expression_map(doc, "metric", n, 2, coords)[0] if "metric" in doc else None

    try:
        chart = ChartModel(coords, gamma, domain, metric=metric, name=doc["name"])
    except ValueError as e:
        raise ManifestError(f"{source}: {e}") from e

    symmetrized = False
    asym = _asymmetry(chart, entries)
    if asym > 1e-12:
        if doc.get("symmetrize", False):
            chart, _ = symmetrize(chart)
            symmetrized = True
        else:
            raise ManifestError(
                "$['gamma']: asymmetric Christoffel symbols describe a connection "
                f"with torsion (max asymmetry {asym:.3e}); this tool requires a "
                "torsion-free connection. Set \"symmetrize\": true to use the "
                "symmetric part."
            )

    samples = doc.get("samples", {})

    def point(value, where: str) -> np.ndarray:
        p = np.asarray(value, dtype=float)
        if p.shape != (n,):
            raise ManifestError(f"{where}: expected {n} components")
        if not chart.contains(p):
            raise ManifestError(f"{where}: outside the domain box")
        return p

    base_point = point(doc["base_point"], "$['base_point']") if "base_point" in doc else None

    curves = []
    for i, cdoc in enumerate(doc.get("curves", [])):
        if len(cdoc["components"]) != n:
            raise ManifestError(f"$['curves'][{i}]: expected {n} components")
        try:
            curve = Curve.from_strings(cdoc["components"], cdoc["t0"], cdoc["t1"])
            ends = {"t0": curve.point(curve.t0), "t1": curve.point(curve.t1)}
        except Exception as e:
            raise ManifestError(f"$['curves'][{i}]: {e}") from e
        for t, end in ends.items():
            point(end, f"$['curves'][{i}] at {t}")
        curves.append(curve)

    loops = []
    for i, ldoc in enumerate(doc.get("loops", [])):
        plane = tuple(map(int, ldoc["plane"]))
        if not all(0 <= p < n for p in plane) or plane[0] == plane[1]:
            raise ManifestError(f"$['loops'][{i}]['plane']: needs two distinct axes below {n}")
        base = point(ldoc.get("base", chart.center()), f"$['loops'][{i}]['base']")
        size = float(ldoc["size"])
        # the square's far corner; with the base it bounds the convex square
        point(base + size * np.isin(np.arange(n), plane), f"$['loops'][{i}] far corner")
        loops.append({"base": base, "plane": plane, "size": size})

    structures = {}
    for key, mat in doc.get("structures", {}).items():
        rows = n + 1
        if len({len(row) for row in mat}) > 1:
            raise ManifestError(f"$['structures'][{key!r}]: rows of different lengths")
        arr = np.asarray(mat, dtype=float)
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
                space.evaluate(compile_exprs([e], coords), [env[c] for c in coords])
            except ExprDomainError as entry_err:
                return ManifestError(f"$['gamma'][{key!r}]: {entry_err}")
    return err


_ASYMMETRY_POINTS = 5  # seeded samples at which the load checks the symbols' symmetry


def _asymmetry(chart: ChartModel, entries: dict) -> float:
    """Max asymmetry of the symbols at samples; a domain error names its entry."""
    pts = sample_points(chart, seed=0, n_random=_ASYMMETRY_POINTS, n_grid=0)
    try:
        g = chart.evaluator(chart.gamma)(pts)
    except ExprDomainError as err:
        raise gamma_entry_error(chart.coords, entries, err) from None
    return max_abs(g - g.transpose(0, 1, 3, 2))


# -- writing and the bundled corpus ---------------------------------------------


def _sparse(field: np.ndarray) -> dict:
    """The entries of a symbolic array that are not zero, as "i,j,..." -> text."""
    return {",".join(map(str, idx)): e.to_string()
            for idx, e in np.ndenumerate(field) if not e.is_zero()}


def chart_to_manifest(chart: ChartModel, name: str | None = None, **extra) -> dict:
    """Serialize a chart to a manifest document (sparse gamma and metric, to_string)."""
    n = chart.n
    doc = {
        "format": "tractorlab-manifest",
        "version": 1,
        "name": name or chart.name or "chart",
        "dimension": n,
        "coordinates": list(chart.coords),
        "domain": [[float(lo), float(hi)] for lo, hi in chart.domain],
        "gamma": _sparse(chart.gamma),
    }
    if chart.metric is not None:
        doc["metric"] = _sparse(chart.metric)
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
