"""Near misses: charts that the tool gets wrong, each with its expected verdict.

Each row builds a manifest from strings, runs `tractorlab suite` on it in
process, and states two outcomes: the one the tool gives today (`head`) and
the one it should give (`expected`), with the ROADMAP item that should
mend it.  `tests/test_near_misses.py` asserts both; a row whose expected
outcome does not hold yet is a strict xfail there, so the change that mends
it must remove its marker and set `head` to what it gives then.

    python3 tests/near_misses.py

prints one line per row: the outcome now against the expected one.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tractorlab import cli  # noqa: E402
from tractorlab.manifest import bundled_path  # noqa: E402


@dataclass(frozen=True)
class Outcome:
    """Exit code, the report (None on exit 2) and standard error of one run."""

    code: int
    report: dict | None
    error: str

    def section(self, name: str) -> dict:
        return self.report["sections"][name]

    def failed(self) -> list:
        return [row["name"] for row in self.report["checks"] if not row["pass"]]


@dataclass(frozen=True)
class Row:
    name: str
    doc: Callable[[], dict]
    item: str
    head: str
    head_holds: Callable[[Outcome], bool]
    expected: str
    expected_holds: Callable[[Outcome], bool]


def _plane(gamma: str, half: float) -> dict:
    return {"format": "tractorlab-manifest", "version": 1, "name": "near-miss",
            "dimension": 2, "coordinates": ["x1", "x2"],
            "domain": [[-half, half], [-half, half]], "gamma": {"0,1,1": gamma}}


def _bundled(name: str, edit: Callable[[str, str], str]) -> Callable[[], dict]:
    def doc():
        d = json.loads(bundled_path(name).read_text())
        d["gamma"] = {key: edit(key, text) for key, text in d["gamma"].items()}
        return d
    return doc


def _sphere3_plus(delta: str):
    """sphere3 with delta*x2*x3^2 added to Gamma^0_11."""
    return _bundled("sphere3", lambda key, text: f"({text}) + {delta}*x2*x3*x3"
                    if key == "0,1,1" else text)


def _rank(o: Outcome) -> int:
    return o.section("holonomy")["rank"]


def _details(o: Outcome) -> dict:
    return o.section("holonomy")["details"]


def _labels(o: Outcome) -> list:
    return o.section("detect")["labels"]


def _trivial(o: Outcome) -> bool:
    return o.section("detect")["classification"]["trivial_holonomy"]


ROWS = (
    Row("pole_inside_box", lambda: _plane("1/(x1-0.7)", 0.8), "1",
        "exit 0, 21 of 21 checks pass",
        lambda o: o.code == 0 and len(o.report["checks"]) == 21 and o.failed() == [],
        "exit 2 naming $['gamma']['0,1,1']",
        lambda o: o.code == 2 and o.error.startswith("error: $['gamma']['0,1,1']")),
    Row("quartic", lambda: _plane("x1*x1*x1*x1", 1.0), "2",
        "exit 0, infinitesimal rank 0, loops-only rank 5",
        lambda o: o.code == 0 and (_details(o)["infinitesimal_rank"],
                                   _details(o)["loops_only_rank"]) == (0, 5),
        "rank 5 on both estimators, exit 0",
        lambda o: o.code == 0 and (_details(o)["infinitesimal_rank"],
                                   _details(o)["loops_only_rank"]) == (5, 5)),
    Row("octic", lambda: _plane("x1*x1*x1*x1*x1*x1*x1*x1", 1.0), "2",
        "exit 1 on holonomy.algebra_trace_free only",
        lambda o: o.code == 1 and o.failed() == ["holonomy.algebra_trace_free"],
        "holonomy.estimators_agree fails",
        lambda o: "holonomy.estimators_agree" in o.failed()),
    Row("randpoly3_scaled_1e-8", _bundled("randpoly3", lambda key, text: f"1e-8*({text})"), "9",
        "exit 0, rank 11, labelled a Ricci-flat foliation",
        lambda o: o.code == 0 and _rank(o) == 11
        and "Foliation by Ricci-flat leaves" in _labels(o),
        "holonomy.rank_certified fails",
        lambda o: "holonomy.rank_certified" in o.failed()),
    Row("sphere3_plus_1e-8", _sphere3_plus("1e-8"), "12, 13",
        "exit 0, trivial holonomy, labelled Einstein",
        lambda o: o.code == 0 and _trivial(o) and "Einstein manifold" in _labels(o),
        "not trivial, no Einstein label, exit 1",
        lambda o: o.code == 1 and not _trivial(o) and "Einstein manifold" not in _labels(o)),
    Row("sphere3_plus_1e-4", _sphere3_plus("1e-4"), "12",
        "exit 1, rank 16 in sl(4)",
        lambda o: o.code == 1 and _rank(o) == 16,
        "rank 15",
        lambda o: o.report is not None and _rank(o) == 15),
)


@cache
def outcome(name: str) -> Outcome:
    """Run `tractorlab suite` on the row's manifest, as the command line does."""
    row = next(r for r in ROWS if r.name == name)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / f"{name}.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(row.doc()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["suite", "--manifest", str(path), "--out", str(out)])
        report = json.loads(out.read_text()) if out.exists() else None
    return Outcome(code, report, err.getvalue())


def _holds(check, o: Outcome) -> bool:
    try:
        return bool(check(o))
    except (KeyError, TypeError):  # no report, or no such section
        return False


if __name__ == "__main__":
    for row in ROWS:
        o = outcome(row.name)
        now = "expected" if _holds(row.expected_holds, o) else \
            "head" if _holds(row.head_holds, o) else "neither"
        print(f"{row.name:24s} item {row.item:7s} exit {o.code}  now: {now:8s}  "
              f"head: {row.head}; expected: {row.expected}")
