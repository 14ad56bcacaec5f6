"""Print a digest of every bundled manifest's suite report.

Run from any checkout:
python3 scripts/report_digests.py [--against FILE] [--save DIR]
Each line is ``name seed sha256`` of ``cli.render(cli.run("suite", m, seed))``
for seeds 0 and 1.  Reports are byte-identical for a fixed manifest and seed,
so comparing the output of two checkouts checks that a change leaves every
report unchanged.  With ``--against FILE`` (the saved output of another
checkout) it also compares: it lists every ``name seed`` whose digest
differs from, or is missing in, FILE and exits 1 if there is any.  It imports
tractorlab from the ``src`` directory next to it, so it measures that
checkout, not an installed copy.  With ``--save DIR`` it also writes each
rendered report to ``DIR/<name>.<seed>.json``, so that the reports of two
checkouts can be compared field by field where their digests differ.
"""

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tractorlab import cli, manifest  # noqa: E402

SEEDS = (0, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="saved output of another checkout to compare with")
    parser.add_argument("--save", type=Path, metavar="DIR",
                        help="directory to write every rendered report to")
    args = parser.parse_args()
    expected = None
    if args.against is not None:
        expected = {}
        for line in args.against.read_text().splitlines():
            if line.strip():
                name, seed, digest = line.split()
                expected[f"{name} {seed}"] = digest
    differ = []
    for name in manifest.bundled_names():
        for seed in SEEDS:
            m = manifest.load_bundled(name)
            text = cli.render(cli.run("suite", m, seed=seed))
            digest = hashlib.sha256(text.encode()).hexdigest()
            if args.save is not None:
                args.save.mkdir(parents=True, exist_ok=True)
                (args.save / f"{name}.{seed}.json").write_text(text)
            print(name, seed, digest, flush=True)
            if expected is not None and expected.get(f"{name} {seed}") != digest:
                differ.append(f"{name} {seed}")
    if differ:
        print(f"differ from {args.against}:", file=sys.stderr)
        for key in differ:
            print(f"  {key}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
