"""Print a digest of every bundled manifest's suite report.

Run from any checkout:
python3 scripts/report_digests.py [--demos] [--against FILE] [--save DIR]
python3 scripts/report_digests.py --diff DIR_A DIR_B
Each line is ``name seed sha256`` of ``cli.render(cli.run("suite", m, seed))``
for seeds 0 and 1.  Reports are byte-identical for a fixed manifest and seed,
so comparing the output of two checkouts checks that a change leaves every
report unchanged.  With ``--demos`` each line is instead ``name sha256`` of
the standard output of ``demos/<name>.py``, run with this checkout's
tractorlab, so the same comparison checks that every demo prints the same
bytes.  With ``--against FILE`` (the saved output of another checkout, made
with the same flags) it also compares: it lists every ``name seed`` (or
``name``) whose digest differs from, or is missing in, FILE and exits 1 if
there is any.  It imports tractorlab from the ``src`` directory next to it,
so it measures that checkout, not an installed copy.  With ``--save DIR`` it
also writes each rendered report to ``DIR/<name>.<seed>.json`` (each demo's
output to ``DIR/<name>.txt``), so that the outputs of two checkouts can be
compared where their digests differ.

``--diff DIR_A DIR_B`` compares two ``--save`` directories and runs nothing.
For every report it prints the JSON path of each field that differs.  A
float, or a list of floats such as a matrix's data, is numeric: its line
gives the largest absolute and relative change.  Any other difference -- a
verdict, label, rank, count, string, or a report or element missing on one
side -- is printed with both values and makes the exit status 1.  A demo's
output is compared line by line: a line whose text around its floats (numbers
with a point or an exponent) is unchanged differs in its floats only, and is
numeric; any other changed line, or a change in the number of lines, makes
the exit status 1.  For information, and without a bearing on the exit
status, it then prints each directory's worst residual check: the report,
the check and its residual / tolerance ratio, the ratio that sets the
benchmark's ``tol_headroom_digits``.
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tractorlab import cli, manifest  # noqa: E402

SEEDS = (0, 1)


def _is_numeric(x) -> bool:
    return type(x) is float or (isinstance(x, list) and bool(x)
                                and all(type(v) is float for v in x))


def _field_diffs(a, b, path: str):
    """(path, numeric, detail) for each field where the JSON values a and b differ."""
    if a == b:
        return
    if _is_numeric(a) and _is_numeric(b) and type(a) is type(b) \
            and (type(a) is float or len(a) == len(b)):
        pairs = [(a, b)] if type(a) is float else list(zip(a, b))
        changes = [(abs(x - y), abs(x - y) / max(abs(x), abs(y))) for x, y in pairs if x != y]
        yield path, True, "max_abs {:.3g} max_rel {:.3g}".format(*map(max, zip(*changes)))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            yield from _field_diffs(a.get(key, "<missing>"), b.get(key, "<missing>"),
                                    f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _field_diffs(x, y, f"{path}[{i}]")
    else:
        yield path, False, f"{json.dumps(a)[:60]} -> {json.dumps(b)[:60]}"


_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


def _line_diffs(a: str, b: str):
    """(line, numeric, detail) for each line where the demo outputs a and b differ."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        yield "lines", False, f"{len(lines_a)} -> {len(lines_b)}"
        return
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x == y:
            continue
        floats = [list(map(float, _FLOAT.findall(line))) for line in (x, y)]
        if _FLOAT.split(x) == _FLOAT.split(y) and floats[0] != floats[1]:
            yield from _field_diffs(*floats, f"line {i}")
        else:
            yield f"line {i}", False, f"{x[:60]!r} -> {y[:60]!r}"


def diff_dirs(dir_a: Path, dir_b: Path) -> int:
    """Print what differs between the saved reports or demo outputs of two directories."""
    status = 0
    names = {p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.suffix in (".json", ".txt")}
    for name in sorted(names):
        texts = [d.joinpath(name).read_text() if d.joinpath(name).exists() else '"<missing>"'
                 for d in (dir_a, dir_b)]
        diffs = (_field_diffs(*map(json.loads, texts), "$") if name.endswith(".json")
                 else _line_diffs(*texts))
        for path, numeric, detail in diffs:
            print(name, path, detail)
            status = status or int(not numeric)
    for d in (dir_a, dir_b):
        worst = max(worst_check_rows(d), default=None)
        if worst is not None:
            print("worst residual/tolerance in {}: {} {} {:.4g}".format(d, *worst[1:], worst[0]))
    return status


def worst_check_rows(directory: Path):
    """(residual / tolerance, report, check) of each residual check of the saved
    reports in `directory`; a residual written as "nan" ranks as inf."""
    for path in sorted(directory.glob("*.json")):
        for row in json.loads(path.read_text()).get("checks", []):
            if "residual" in row:
                ratio = float(row["residual"]) / row["tolerance"]
                yield (math.inf if math.isnan(ratio) else ratio), path.name, row["name"]


def report_outputs():
    """(key, file name, text) of each bundled manifest's suite report per seed."""
    for name in manifest.bundled_names():
        for seed in SEEDS:
            text = cli.render(cli.run("suite", manifest.load_bundled(name), seed=seed))
            yield f"{name} {seed}", f"{name}.{seed}.json", text


def demo_outputs():
    """(key, file name, text) of the standard output of each demo script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for path in sorted((ROOT / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, str(path)], env=env, capture_output=True,
                             text=True, check=True)
        yield path.stem, f"{path.stem}.txt", run.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="saved output of another checkout to compare with")
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="directory to write every rendered report to")
    parser.add_argument("--diff", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare the reports saved in two directories field by field")
    parser.add_argument("--demos", action="store_true",
                        help="digest the standard output of every demo instead of the reports")
    args = parser.parse_args()
    if args.diff is not None:
        return diff_dirs(*args.diff)
    expected = None
    if args.against is not None:
        expected = {}
        for line in args.against.read_text().splitlines():
            if line.strip():
                *key, digest = line.split()
                expected[" ".join(key)] = digest
    differ = []
    for key, file_name, text in demo_outputs() if args.demos else report_outputs():
        digest = hashlib.sha256(text.encode()).hexdigest()
        if args.save is not None:
            args.save.mkdir(parents=True, exist_ok=True)
            (args.save / file_name).write_text(text)
        print(key, digest, flush=True)
        if expected is not None and expected.get(key) != digest:
            differ.append(key)
    if differ:
        print(f"differ from {args.against}:", file=sys.stderr)
        for key in differ:
            print(f"  {key}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
