"""Record the known answers the benchmark checks against.

    python3 bench/record_known.py [SEED ...]

Runs every suite command on every bundled manifest for each seed (default
0 and 1), requires the verdicts to agree across seeds, and records the
holonomy rank at each derivative order of the gauge_cold source charts in
their bundled gauge.  Writes bench/known_answers.json.  Re-record only when
a change is meant to alter a verdict, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tractorlab import cli, holonomy, manifest  # noqa: E402

from workloads import SUITE_COMMANDS, GaugeCold  # noqa: E402


def corpus_verdicts(seed: int) -> dict:
    out = {}
    for name in manifest.bundled_names():
        m = manifest.load_bundled(name)
        per = {}
        for command in SUITE_COMMANDS:
            report = cli.run(command, m, seed=seed)
            entry = {"all_pass": report["all_pass"], "checks": len(report["checks"])}
            if command == "holonomy":
                entry["rank"] = report["result"]["rank"]
            if command == "detect":
                entry["algebra_rank"] = report["result"]["algebra_rank"]
                entry["labels"] = report["result"]["labels"]
            per[command] = entry
        out[name] = per
    return out


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [0, 1]
    verdicts = [corpus_verdicts(s) for s in seeds]
    if any(v != verdicts[0] for v in verdicts[1:]):
        print("verdicts differ between seeds; nothing written", file=sys.stderr)
        return 1
    ranks = {}
    for name, _count in GaugeCold.mix:
        m = manifest.load_bundled(name)
        ranks[name] = holonomy.infinitesimal_algebra(m.chart, m.base()).details["rank_by_order"]
    doc = {
        "seeds_agreeing": seeds,
        "corpus_suite": verdicts[0],
        "gauge_cold": {"rank_by_order": ranks},
    }
    (HERE / "known_answers.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
