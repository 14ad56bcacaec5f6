"""Print a digest of every bundled manifest's suite report.

Run from any checkout:  python3 scripts/report_digests.py
Each line is ``name seed sha256`` of ``cli.render(cli.run("suite", m, seed))``
for seeds 0 and 1.  Reports are byte-identical for a fixed manifest and seed,
so running this on two checkouts and diffing the output checks that a change
leaves every report unchanged.  It imports tractorlab from the ``src``
directory next to it, so it measures that checkout, not an installed copy.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tractorlab import cli, manifest  # noqa: E402

SEEDS = (0, 1)


def main() -> None:
    for name in manifest.bundled_names():
        for seed in SEEDS:
            m = manifest.load_bundled(name)
            text = cli.render(cli.run("suite", m, seed=seed))
            print(name, seed, hashlib.sha256(text.encode()).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
