"""Check that two traced runs of one workload and seed count the same work.

    python3 bench/check_determinism.py --workload corpus_suite --seed 0

Runs ``bench/run.py --trace 1`` twice and compares every per-layer metric
whose unit is ``count`` (RHS evaluations, diff, eval and compile calls,
holonomy orders used, ...), and the per-op RHS and evaluator counts written
to the results file.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    with open(HERE / "results" / f"{workload}-seed{seed}-trace1.json") as fh:
        per_op = [(op["op"], op["counts"]) for op in json.load(fh)["ops"]]
    return counts, per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    first, ops_first = traced_run(args.workload, args.seed, args.seconds)
    second, ops_second = traced_run(args.workload, args.seed, args.seconds)
    same = True
    for name in sorted(first):
        flag = "same" if first[name] == second.get(name) else "DIFFERENT"
        same &= flag == "same"
        print(f"{name:30s} {first[name]:>14.0f} {second.get(name, float('nan')):>14.0f}  {flag}")
    if ops_first != ops_second:
        same = False
        print("per-op counts DIFFERENT")
    for label, counts in ops_first:
        print(f"  {label:28s} rhs_evals {counts['rhs_evals']:>8d}  eval_calls {counts['eval_calls']:>9d}")
    print("identical" if same else "NOT identical")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
