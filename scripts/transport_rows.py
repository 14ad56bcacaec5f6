"""Print the kernel rows, RK4 steps and field points each command integrates.

Run from any checkout:
python3 scripts/transport_rows.py [--src DIR]
For every bundled manifest and every command (``suite`` included) it loads
the manifest afresh, runs ``cli.run(command, manifest, 0)`` and counts, over
every call of ``tractor._linear_transport``, the rows (curves) integrated,
the RK4 steps they converged at (or stopped at) and the points handed to
the connection ``field`` (stage points, or one a row and pass for a
constant connection).  The counting field carries the attributes of the
field it wraps, so the kernel takes the same pass.  A last line sums the
``suite`` counts over the corpus.  Counts are deterministic, so comparing
the output of two checkouts shows which transports and field evaluations a
change added or dropped.  It imports tractorlab from the ``src`` directory
next to it, or from ``--src DIR``, so one copy of the script measures both
sides of a comparison with the same columns.  It exits 1 if ``tractor`` has
no ``_linear_transport`` to wrap.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(cli, manifest, tractor, name: str, command: str) -> tuple:
    """(rows, steps, points) of one command on a freshly loaded bundled manifest."""
    kernel, totals = tractor._linear_transport, [0, 0, 0]

    def counted(field, curves, y0, tol):
        def points(X):
            totals[2] += len(X)
            return field(X)

        points.__dict__.update(field.__dict__)
        out = kernel(points, curves, y0, tol)
        totals[0] += len(out)
        totals[1] += sum(s for _, s, _ in out)
        return out

    tractor._linear_transport = counted
    try:
        cli.run(command, manifest.load_bundled(name), seed=0)
    finally:
        tractor._linear_transport = kernel
    return tuple(totals)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the directory tractorlab is imported from (default: src beside "
                             "this script)")
    sys.path.insert(0, str(parser.parse_args().src.resolve()))
    from tractorlab import cli, manifest, tractor

    if not hasattr(tractor, "_linear_transport"):
        print("error: tractor._linear_transport is gone; nothing to count", file=sys.stderr)
        return 1
    line = "{:<12} {:<11} {:>6} {:>9} {:>9}".format
    print(line("manifest", "command", "rows", "steps", "points"))
    suite = (0, 0, 0)
    for name in manifest.bundled_names():
        for command in cli.COMMANDS:
            counts = count(cli, manifest, tractor, name, command)
            if command == "suite":
                suite = tuple(a + b for a, b in zip(suite, counts))
            print(line(name, command, *counts))
    print(line("corpus", "suite", *suite))
    return 0


if __name__ == "__main__":
    sys.exit(main())
