"""tractorlab benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):
  corpus_suite    every suite command on every bundled manifest, cold caches
  transport_warm  tractor transport and loop holonomy, connection compiled in set-up
  gauge_cold      projectively changed 3-d charts loaded and processed cold; not
                  listed in BENCHMARK.json because its op times drift with the
                  host by more than the bounds allow

With --trace 0 the run measures end-to-end metrics: it issues whole passes
of the workload's ops, one after another, until --seconds have elapsed
(at least one pass).  Time metrics are scaled to a reference host speed:
a fixed pure-Python kernel is timed before set-up, after it, after every
op and, every 0.25 s, inside ops; each time is multiplied by REF_NOMINAL_S
over the mean kernel time measured around and inside it.  The raw times are printed and stored beside
them.  With --trace 1 it wraps each tractorlab layer (see
tracing.py), runs a fixed number of passes so counts repeat exactly, and
reports per-layer metrics, its coverage, and its overhead against an
untraced run of the same workload and seed made in a child process.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, and the spans of a
traced run, are written under bench/results/.

BLAS and OpenMP threads are capped at 1 before numpy is imported.  The
benchmark pins no CPU and drops no file cache, so run-to-run spread is
reported instead of being controlled.
"""

import math
import os
import sys
import time

# The host is shared and its speed drifts by tens of per cent within seconds
# and between minutes.  The reference kernel slows with it (correlation about
# 0.85 per op), so scaling by it removes most of the drift from the metrics.
REF_NOMINAL_S = 0.004  # one reference kernel, about its time on the baseline host


def _ref_kernel() -> float:
    s = 0.0
    for i in range(20000):
        s += math.sin(i * 1e-3) * 1.0001 + i % 7
    return s


def host_sample() -> float:
    """Median time of three reference kernels, in s (about 12 ms in all)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _ref_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


_REF0 = host_sample()
_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "TRACTORLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("corpus_suite", "transport_warm", "gauge_cold")
SETUP_REPEATS = 4  # extra set-ups in child processes; setup_s is the median of 5
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _environment(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinning": "CPUs not pinned and file caches not dropped; compare runs by "
                   "their spread",
    }


def _percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile.

    A Beta-weighted mean of all order statistics, centred on the percentile,
    so one op's noise moves it less than the two samples np.percentile
    interpolates between.
    """
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=float))
    n, p = len(x), pct / 100.0
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1)))
    return float(weights @ x)


def adjusted(seconds: float, host_s: float) -> float:
    """`seconds` measured while the reference kernel took `host_s`, at reference speed."""
    return seconds * REF_NOMINAL_S / host_s


def _fingerprint() -> str:
    """Hash of the tractorlab sources and the benchmark, to match result files."""
    h = hashlib.sha256()
    files = sorted((SRC / "tractorlab").rglob("*.py")) + sorted((SRC / "tractorlab").rglob("*.json"))
    files += sorted(HERE.glob("*.py")) + [HERE / "known_answers.json"]
    for path in files:
        h.update(str(path.relative_to(HERE.parent)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _op_counts(tracer):
    return {"rhs_evals": tracer.rhs_counter[0],
            "eval_calls": tracer.leaves.get("expr.eval", [0])[0],
            "diff_calls": tracer.leaves.get("expr.diff", [0])[0]}


class InOpGauge:
    """Times one reference kernel on SIGALRM, every SAMPLE_EVERY_S, inside ops.

    An op can run for 15 s while the host's speed moves, so the kernel times
    around it alone do not give its host speed.  The handler runs in the
    main thread between bytecodes; the time it takes is kept out of the op.
    Inactive in traced runs, so that spans hold only tractorlab's time.
    """

    SAMPLE_EVERY_S = 0.25

    def __init__(self, active: bool):
        self.active = active
        self.samples = []
        self.spent_s = 0.0

    def _on_alarm(self, _signum, _frame):
        t0 = time.perf_counter()
        _ref_kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_ops(workload, passes_wanted, seconds, tracer=None):
    """Closed loop over whole passes; returns per-op records and timed wall.

    An op's host speed is the mean kernel time just before it, just after it
    and inside it (InOpGauge).
    """
    records = []
    start = time.perf_counter()
    with InOpGauge(active=tracer is None) as gauge:
        host_before = host_sample()
        for done, ops in enumerate(workload.passes(), start=1):
            for label, op in ops:
                if tracer is not None:
                    tracer.op_id += 1
                    before = _op_counts(tracer)
                first, spent = len(gauge.samples), gauge.spent_s
                t0 = time.perf_counter()
                error = None
                try:
                    rows = op()
                except Exception as exc:  # a raising op is a failed op; keep going
                    rows, error = [], f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0 - (gauge.spent_s - spent)
                inside = gauge.samples[first:]
                host_after = host_sample()
                host_s = (host_before + host_after + sum(inside)) / (2 + len(inside))
                host_before = host_after
                records.append({"op": label, "seconds": dt, "host_s": host_s,
                                "adj_seconds": adjusted(dt, host_s), "rows": rows,
                                "error": error,
                                "ok": error is None and all(r["pass"] for r in rows)})
                if tracer is not None:
                    after = _op_counts(tracer)
                    records[-1]["counts"] = {k: after[k] - before[k] for k in after}
            elapsed = time.perf_counter() - start
            if passes_wanted is not None and done >= passes_wanted:
                break
            if passes_wanted is None and elapsed >= seconds:
                break
    return records, time.perf_counter() - start


def _child(args, extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(extra)} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def worst_tol_ratio(records) -> float:
    """Largest residual / tolerance over every residual check of the run."""
    return max((r["residual"] / r["tolerance"] for rec in records for r in rec["rows"]
                if "residual" in r), default=0.0)


def _time_metrics(workload, records, key) -> dict:
    times = [r[key] for r in records]
    return {
        "ops_per_s": (len(records) / sum(times), "1/s"),
        "op_s_p50": (_percentile(times, 50), "s"),
        "op_s_tail": (_percentile(times, workload.tail_pct), "s"),
    }


def _end_to_end(workload, records, setup_s) -> dict:
    """End-to-end metrics; times are at reference host speed (see adjusted)."""
    failed = sum(1 for r in records if not r["ok"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        **_time_metrics(workload, records, "adj_seconds"),
        "pass_share": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        # digits between the worst residual and its tolerance; round-off makes
        # the raw ratio jump by tens of percent between seeds, its log does not
        "tol_headroom_digits": (-math.log10(max(worst_tol_ratio(records), 1e-300)), "digits"),
    }


def _per_layer(tracer, records, wall, untraced, setup_self) -> dict:
    """Layer metrics of the timed ops; setup.* give each layer's set-up self time."""
    from tracing import LAYERS

    calls, incl, counts = tracer.calls, tracer.incl, tracer.counts
    eval_calls, eval_s = tracer.leaves.get("expr.eval", (0, 0.0))
    diff_calls, diff_s = tracer.leaves.get("expr.diff", (0, 0.0))
    rhs = tracer.rhs_counter[0]
    layer_self = tracer.layer_self_s()
    bookkeeping = tracer.bookkeeping_s
    op_wall = sum(r["seconds"] for r in records)
    ops = len(records)
    # both rates at reference host speed, so host drift between the runs cancels
    overhead = untraced["ops_per_s"]["value"] * sum(r["adj_seconds"] for r in records) / ops
    m = {
        "manifest.load_calls": (calls["manifest.load"], "count"),
        "manifest.load_s": (incl["manifest.load"], "s"),
        "expr.diff_calls": (diff_calls, "count"),
        "expr.diff_s": (diff_s, "s"),
        "expr.compile_calls": (calls["expr.compile"], "count"),
        "expr.compile_s": (incl["expr.compile"], "s"),
        "expr.compile_nodes": (counts["expr.compile_nodes"], "count"),
        "expr.eval_calls": (eval_calls, "count"),
        "expr.eval_s": (eval_s, "s"),
        "expr.eval_us_per_call": (1e6 * eval_s / eval_calls if eval_calls else 0.0, "us"),
        "expr.eval_many_calls": (calls["expr.eval_many"], "count"),
        "expr.eval_many_s": (incl["expr.eval_many"], "s"),
        "affine.rk4_calls": (calls["affine.rk4"], "count"),
        "affine.rhs_evals": (rhs, "count"),
        "affine.rk4_steps": (counts["affine.rk4_steps"], "count"),
        "affine.rk4_nonconverged": (counts["affine.rk4_nonconverged"], "count"),
        "affine.rk4_self_s": (tracer.self_by_key["affine.rk4"], "s"),
        "affine.rhs_useful_ratio": (4.0 * counts["affine.rk4_steps"] / rhs if rhs else 0.0,
                                    "ratio"),
        "projective.field_s": (incl["projective.field"], "s"),
        "tractor.transport_calls": (calls["tractor.transport"], "count"),
        "tractor.transport_s": (incl["tractor.transport"], "s"),
        "tractor.loop_calls": (calls["tractor.loop"], "count"),
        "tractor.spread_calls": (calls["tractor.spread"], "count"),
        "tractor.curvature_s": (incl["tractor.curvature"], "s"),
        "holonomy.loop_algebra_calls": (calls["holonomy.loop_algebra"], "count"),
        "holonomy.infinitesimal_calls": (calls["holonomy.infinitesimal"], "count"),
        "holonomy.infinitesimal_s": (incl["holonomy.infinitesimal"], "s"),
        "holonomy.orders_used": (counts["holonomy.orders_used"], "count"),
        "holonomy.log_retries": (counts["holonomy.log_retries"], "count"),
        "holonomy.candidates_s": (incl["holonomy.candidates"], "s"),
    }
    for part in ("einstein", "contact", "complex", "foliation", "tractor_metric",
                 "decomposition"):
        m[f"structures.{part}_s"] = (incl[f"structures.{part}"], "s")
    for command in ("compute", "invariance", "transport", "holonomy", "detect", "verify",
                    "render"):
        m[f"cli.{command}_s"] = (incl[f"cli.{command}"], "s")
    attributed = 0.0
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (layer_self[layer], "s")
        attributed += layer_self[layer]
    m["self.trace_s"] = (bookkeeping, "s")
    m["self.other_s"] = (op_wall - attributed - bookkeeping, "s")
    m["trace.ops"] = (ops, "count")
    m["trace.op_wall_s"] = (op_wall, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (wall / overhead, "s")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    for layer in LAYERS:
        m[f"setup.{layer}_s"] = (setup_self[layer], "s")
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tractorlab" / "__init__.py").is_file():
        print(f"error: tractorlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    from workloads import WORKLOADS

    with open(HERE / "known_answers.json") as fh:
        known = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, known)
    setup_raw = time.perf_counter() - _T0
    setup_s = adjusted(setup_raw, (_REF0 + host_sample()) / 2.0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = _environment(args)
    if tracer is not None:
        setup_self = tracer.layer_self_s()
        tracer.reset()
    passes = workload.traced_passes if args.trace else None
    records, wall = _run_ops(workload, passes, args.seconds, tracer)

    env["source_sha256"] = _fingerprint()
    if args.trace:
        # an untraced result of the same seed and sources is reused; else run one
        untraced = None
        reference = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
        if reference.is_file():
            with open(reference) as fh:
                ref = json.load(fh)
            if ref["environment"].get("source_sha256") == env["source_sha256"]:
                untraced = ref["metrics"]
        env["untraced_reference"] = "reused result file" if untraced else "child run"
        if untraced is None:
            untraced = _child(args, ["--trace", "0"])["metrics"]
        metrics = _per_layer(tracer, records, wall, untraced, setup_self)
    else:
        setups = [setup_s] + [_child(args, ["--trace", "0", "--setup-only"])["setup_s"]
                              for _ in range(SETUP_REPEATS)]
        metrics = _end_to_end(workload, records, statistics.median(setups))
        env["setup_s_samples"] = setups
        env["raw"] = {"setup_s": setup_raw, "wall_s": wall,
                      **{k: v for k, (v, _u) in
                         _time_metrics(workload, records, "seconds").items()}}
    hosts = [r["host_s"] for r in records]
    env["host_ref_s"] = {"nominal": REF_NOMINAL_S, "min": min(hosts),
                         "median": statistics.median(hosts), "max": max(hosts)}

    failed = sum(1 for r in records if not r["ok"])
    tail = {"percentile": workload.tail_pct, "samples": len(records)}
    env["worst_tol_ratio"] = worst_tol_ratio(records)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {
        "environment": env,
        "tail": tail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{k: r.get(k) for k in ("op", "seconds", "adj_seconds", "host_s", "ok",
                                       "error", "counts")}
                for r in records],
        "failures": [r for r in records if not r["ok"]][:20],
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    if tracer is not None:
        tracer.dump(RESULTS / f"{stem}-spans.json")

    print(f"# environment {json.dumps(env)}")
    print(f"# worst_tol_ratio {env['worst_tol_ratio']:.6g}")
    raw = env.get("raw", {})
    for name, (value, unit) in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
        if name == "op_s_tail":
            extra += f"  (p{tail['percentile']} of {tail['samples']} ops)"
        print(f"# {name:28s} {value:14.6g} {unit}{extra}")
    for r in doc["failures"][:5]:
        bad = [row for row in r["rows"] if not row["pass"]]
        print(f"# FAILED {r['op']}: {r['error'] or bad}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
