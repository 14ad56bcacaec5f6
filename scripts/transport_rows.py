"""Print the kernel rows and RK4 steps each command integrates.

Run from any checkout:
python3 scripts/transport_rows.py
For every bundled manifest and every command (``suite`` included) it loads
the manifest afresh, runs ``cli.run(command, manifest, 0)`` and counts, over
every call of ``tractor._linear_transport``, the rows (curves) integrated
and the RK4 steps they converged at (or stopped at).  A last line sums the
``suite`` rows over the corpus.  Counts are deterministic, so comparing the
output of two checkouts shows which transports a change added or dropped.
It imports tractorlab from the ``src`` directory next to it, so it measures
that checkout, not an installed copy.  It exits 1 if ``tractor`` has no
``_linear_transport`` to wrap.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tractorlab import cli, manifest, tractor  # noqa: E402


def count(name: str, command: str) -> tuple:
    """(rows, steps) of one command on a freshly loaded bundled manifest."""
    kernel, rows, steps = tractor._linear_transport, [0], [0]

    def counted(field, curves, y0, tol):
        out = kernel(field, curves, y0, tol)
        rows[0] += len(out)
        steps[0] += sum(s for _, s, _ in out)
        return out

    tractor._linear_transport = counted
    try:
        cli.run(command, manifest.load_bundled(name), seed=0)
    finally:
        tractor._linear_transport = kernel
    return rows[0], steps[0]


def main() -> int:
    if not hasattr(tractor, "_linear_transport"):
        print("error: tractor._linear_transport is gone; nothing to count", file=sys.stderr)
        return 1
    print(f"{'manifest':<12} {'command':<11} {'rows':>6} {'steps':>9}")
    suite_rows = suite_steps = 0
    for name in manifest.bundled_names():
        for command in cli.COMMANDS:
            rows, steps = count(name, command)
            if command == "suite":
                suite_rows, suite_steps = suite_rows + rows, suite_steps + steps
            print(f"{name:<12} {command:<11} {rows:>6} {steps:>9}")
    print(f"{'corpus':<12} {'suite':<11} {suite_rows:>6} {suite_steps:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
