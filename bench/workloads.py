"""The three benchmark workloads.

Each workload is built from a seed during set-up and then hands out passes:
lists of operations, each a callable that runs one unit of tractorlab work
and returns check rows shaped like the CLI's ``checks`` table (``name``,
``pass`` and, for residual checks, ``residual`` and ``tolerance``).  An op
fails if it raises or if any of its rows fails.

Residual tolerances are the CLI's pinned defaults, so the checks here mean
the same thing as in a ``tractorlab`` report.
"""

from __future__ import annotations

import json

import numpy as np

from tractorlab import affine, cli, holonomy, manifest, projective, tractor

TOL = cli._DEFAULT_TOLERANCES
SUITE_COMMANDS = ("compute", "invariance", "transport", "holonomy", "detect", "verify")


def residual_row(name: str, residual: float, tol_key: str) -> dict:
    tol = TOL[tol_key]
    return {"name": name, "residual": float(residual), "tolerance": tol,
            "pass": bool(residual <= tol)}


def verdict_row(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(passed), "detail": detail}


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


class CorpusSuite:
    """`tractorlab suite` over the bundled corpus, one command per op.

    A pass is the 42 (manifest, command) pairs in suite order, each manifest
    freshly loaded so every pass pays cold caches as a CLI process does.
    """

    name = "corpus_suite"
    tail_pct = 76  # 42 ops per pass leave 10 samples above p76
    traced_passes = 1

    def __init__(self, seed: int, known: dict):
        self.seed = seed
        self.known = known["corpus_suite"]
        self.names = manifest.bundled_names()
        if sorted(self.known) != self.names:
            raise RuntimeError("known answers do not cover the bundled corpus")
        self._first = [manifest.load_bundled(n) for n in self.names]

    def passes(self):
        loaded = self._first
        while True:
            yield [(f"{m.name}.{command}", self._op(m, command))
                   for m in loaded for command in SUITE_COMMANDS]
            loaded = [manifest.load_bundled(n) for n in self.names]

    def _op(self, m, command):
        expected = self.known[m.name][command]

        def op():
            report = cli.run(command, m, seed=self.seed)
            cli.render(report)
            rows = list(report["checks"])
            result = report["result"]
            rows.append(verdict_row("all_pass", report["all_pass"] == expected["all_pass"],
                                    f"all_pass {report['all_pass']}"))
            rows.append(verdict_row("check_count", len(report["checks"]) == expected["checks"],
                                    f"{len(report['checks'])} checks"))
            if command == "holonomy":
                rows.append(verdict_row("rank", result["rank"] == expected["rank"],
                                        f"rank {result['rank']}"))
            if command == "detect":
                rows.append(verdict_row("algebra_rank",
                                        result["algebra_rank"] == expected["algebra_rank"],
                                        f"rank {result['algebra_rank']}"))
                rows.append(verdict_row("labels", result["labels"] == expected["labels"],
                                        f"labels {result['labels']}"))
            return rows

        return op


class TransportWarm:
    """Tractor transport with the connection field compiled in set-up.

    A cycle holds, for each of sphere3, hyperbolic3 (rational) and randpoly3
    (polynomial): two `spread_structure` calls to seeded target batches, one
    square loop and one lasso loop.  Cycles repeat until the run's time is
    up, so the residual set (and worst_tol_ratio) is fixed by the seed.
    """

    name = "transport_warm"
    tail_pct = 85  # 70 or more ops in 20 s leave at least 10 samples above p85
    traced_passes = 8
    charts = ("sphere3", "hyperbolic3", "randpoly3")
    batch = 3
    loop_size = 0.08

    def __init__(self, seed: int, known: dict):
        rng = np.random.default_rng(seed)
        corpus = known["corpus_suite"]
        self.ops = []
        per_chart = []
        for name in self.charts:
            m = manifest.load_bundled(name)
            chart, base = m.chart, m.base()
            n = chart.n
            tractor.connection_matrix(chart, base, np.eye(n)[0])  # compile M_i
            tractor.loop_holonomy(chart, tractor.square_loop(base, 0, 1, 0.01))
            flat = corpus[name]["holonomy"]["rank"] == 0
            ops = []
            for kind in ("spread", "square", "spread", "lasso"):
                ops.append(self._make_op(kind, name, chart, base, flat, rng))
            per_chart.append(ops)
        for group in zip(*per_chart):
            self.ops.extend(group)

    def _point(self, chart, base, rng, reach: float):
        """A point at `reach` times the half-width from the base, random direction.

        A fixed distance keeps the work and the ODE error of an op nearly the
        same from seed to seed on the radially symmetric charts.
        """
        u = rng.standard_normal(chart.n)
        half = (chart.domain[:, 1] - chart.domain[:, 0]) / 2.0
        return base + reach * half * u / np.linalg.norm(u)

    def _make_op(self, kind, name, chart, base, flat, rng):
        n = chart.n
        m = n + 1
        if kind == "spread":
            targets = np.array([self._point(chart, base, rng, 0.6) for _ in range(self.batch)])

            def op():
                vals, _rep = tractor.spread_structure(chart, "bilinear", np.eye(m), base, targets)
                # identity form spreads to T^-T T^-1, so det T = det(value)^(-1/2)
                dets = [abs(float(np.linalg.det(v)) ** -0.5 - 1.0) for v in vals]
                return [residual_row("transport_det", max(dets), "transport_det")]

            return f"{name}.spread", op

        i, j = (int(a) for a in rng.choice(n, size=2, replace=False))
        if kind == "square":
            anchor = self._point(chart, base, rng, 0.3)
            segments = tractor.square_loop(anchor, i, j, self.loop_size)
        else:
            anchor = self._point(chart, base, rng, 0.6)
            segments = ([affine.Curve.segment(base, anchor)]
                        + tractor.square_loop(anchor, i, j, self.loop_size)
                        + [affine.Curve.segment(anchor, base)])

        def op():
            H, rep = tractor.loop_holonomy(chart, segments)
            rows = [residual_row("loop_det", rep["det_drift"], "loop_det"),
                    verdict_row("loop_converged", rep["converged"])]
            if flat:
                drift = _max_abs(H - np.eye(m)) / (1.0 + _max_abs(H))
                rows.append(residual_row("loop_trivial_when_flat", drift, "loop_invariance"))
            return rows

        return f"{name}.{kind}", op

    def passes(self):
        while True:
            yield self.ops


class GaugeCold:
    """Projectively changed copies of bundled 3-d charts, processed cold.

    Each op loads one generated manifest (a seeded change Ups = a + b.x of a
    bundled chart, written with chart_to_manifest) and, on the fresh chart,
    evaluates Weyl, Cotton and rho at sample points, builds the tractor
    curvature both ways at three points and runs infinitesimal_algebra at
    the base point.  Projective invariance is the reference: Weyl must match
    the source chart, Cotton and rho must follow their change laws, and the
    rank at each derivative order must equal the source chart's.
    """

    name = "gauge_cold"
    # ops per pass by source; product_rf3 reaches the order-3 tower
    mix = (("flat3", 9), ("randpoly3", 9), ("sphere3", 1), ("hyperbolic3", 1),
           ("product_rf3", 1))
    tail_pct = 52  # 21 ops per pass leave 10 samples above p52
    traced_passes = 1
    n_points = 8
    change_norm = 0.2  # Frobenius norm of the coefficients of Ups = a + b.x
    n_curvature_points = 3

    def __init__(self, seed: int, known: dict):
        rng = np.random.default_rng(seed)
        ranks = known["gauge_cold"]["rank_by_order"]
        sources = {}
        for name, _count in self.mix:
            m = manifest.load_bundled(name)
            chart = m.chart
            pts = m.sample()[: self.n_points]
            sources[name] = {
                "manifest": m,
                "points": pts,
                "W": np.array([projective.weyl(chart, p).components for p in pts]),
                "CY": np.array([projective.cotton(chart, p).components for p in pts]),
                "P": np.array([projective.rho(chart, p).components for p in pts]),
                "gamma": np.array([chart.gamma_at(p) for p in pts]),
                "ranks": ranks[name],
            }
        self.ops = []
        rounds = max(count for _name, count in self.mix)
        for r in range(rounds):
            for name, count in self.mix:
                if r < count:
                    self.ops.append(self._make_op(f"{name}-gauge-{r}", sources[name], rng))

    def _make_op(self, label, src, rng):
        m = src["manifest"]
        chart = m.chart
        n = chart.n
        coef = rng.standard_normal((n, n + 1))
        coef *= self.change_norm / np.linalg.norm(coef)
        comps = [chart.parse(" + ".join([repr(float(c[0]))]
                                        + [f"{float(c[k + 1])!r}*{x}"
                                           for k, x in enumerate(chart.coords)]))
                 for c in coef]
        changed = affine.project_change(chart, affine.OneFormField(chart, np.array(comps, dtype=object)))
        text = json.dumps(manifest.chart_to_manifest(changed, name=label))
        base = m.base()
        pts = src["points"]
        ups = coef[:, 0] + pts @ coef[:, 1:].T  # Ups_j at each point
        dups = coef[:, 1:].T  # d_i Ups_j

        def op():
            c = manifest.loads(text, source=label).chart
            W = np.array([projective.weyl(c, p).components for p in pts])
            CY = np.array([projective.cotton(c, p).components for p in pts])
            P = np.array([projective.rho(c, p).components for p in pts])
            w_res = cy_res = p_res = 0.0
            for k in range(len(pts)):
                W0 = src["W"][k]
                w_res = max(w_res, _max_abs(W[k] - W0) / (1.0 + _max_abs(W0)))
                cy_want = src["CY"][k] - np.einsum("k,hjkl->hjl", ups[k], W0)
                cy_res = max(cy_res, _max_abs(CY[k] - cy_want) / (1.0 + _max_abs(cy_want)))
                p_want = (src["P"][k] + dups - np.outer(ups[k], ups[k])
                          - np.einsum("mij,m->ij", src["gamma"][k], ups[k]))
                p_res = max(p_res, _max_abs(P[k] - p_want) / (1.0 + _max_abs(p_want)))
            match = t_part = 0.0
            for p in pts[: self.n_curvature_points]:
                Fa = tractor.tractor_curvature(c, p)
                Fd = tractor.tractor_curvature_from_connection(c, p)
                match = max(match, _max_abs(Fa - Fd) / (1.0 + _max_abs(Fa)))
                t_part = max(t_part, _max_abs(Fd[:, :, :n, n]))
            alg = holonomy.infinitesimal_algebra(c, base)
            got = alg.details["rank_by_order"]
            return [
                residual_row("weyl_invariance", w_res, "weyl_invariance"),
                residual_row("cotton_change_law", cy_res, "cotton_change_law"),
                residual_row("rho_change_law", p_res, "cotton_change_law"),
                residual_row("tractor_curvature_match", match, "curvature_match"),
                residual_row("tractor_curvature_t_part", t_part, "curvature_t_part"),
                residual_row("algebra_trace_free", alg.trace_free_residual, "algebra_trace_free"),
                verdict_row("rank_by_order", got == src["ranks"], f"{got} vs {src['ranks']}"),
            ]

        return label, op

    def passes(self):
        while True:
            yield self.ops


WORKLOADS = {w.name: w for w in (CorpusSuite, TransportWarm, GaugeCold)}
