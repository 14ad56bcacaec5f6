"""Span and counter tracing applied from outside the tractorlab package.

`install(tracer)` replaces public functions of each tractorlab module with
timing wrappers.  Modules import each other's functions by name (``from
.tractor import transport_operator``), so a wrapper is written into every
module namespace, and every module-level dict, that holds the original.

Two kinds of wrapper exist:

* span wrappers record (op id, span id, name, start, end, parent id) for every call
  and keep inclusive and self time per statistic key;
* leaf wrappers (compiled evaluators, ``Expr.diff``) are called millions of
  times, so they only add their count and time to their key and charge
  their duration to the enclosing span; they are not stored one by one.

Self time of a span is its duration minus the time its child spans (and
leaf calls) cover.  Everything is kept in memory and written out once.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_pc = time.perf_counter

# stat key -> [(module, function name), ...].  The key names the layer (the
# module) before the dot.  Several functions may share one key; nested calls
# under the same key count once towards inclusive time.
SPANS = {
    "manifest.load": [("manifest", "loads")],
    "expr.compile": [("expr", "compile_exprs")],
    "expr.eval_many": [("expr", "eval_many")],
    "affine.rk4": [("affine", "rk4_adaptive")],
    "projective.field": [("projective", "weyl_field"), ("projective", "cotton_field"),
                         ("projective", "rho_field")],
    "tractor.transport": [("tractor", "transport_operator")],
    "tractor.loop": [("tractor", "loop_holonomy")],
    "tractor.spread": [("tractor", "spread_structure")],
    "tractor.curvature": [("tractor", "tractor_curvature"),
                          ("tractor", "tractor_curvature_from_connection")],
    "holonomy.loop_algebra": [("holonomy", "loop_algebra")],
    "holonomy.infinitesimal": [("holonomy", "infinitesimal_algebra")],
    "holonomy.candidates": [("holonomy", "invariant_metric"),
                            ("holonomy", "invariant_symplectic"),
                            ("holonomy", "invariant_complex"),
                            ("holonomy", "invariant_subspaces")],
    "structures.einstein": [("structures", "einstein_check")],
    "structures.contact": [("structures", "contact_from_symplectic")],
    "structures.complex": [("structures", "complex_reduction")],
    "structures.foliation": [("structures", "foliation_analysis")],
    "structures.tractor_metric": [("structures", "tractor_metric_to_einstein_verify")],
    "structures.decomposition": [("structures", "holonomy_decomposition_check")],
    "cli.run": [("cli", "run")],
    "cli.compute": [("cli", "cmd_compute")],
    "cli.invariance": [("cli", "cmd_invariance")],
    "cli.transport": [("cli", "cmd_transport")],
    "cli.holonomy": [("cli", "cmd_holonomy")],
    "cli.detect": [("cli", "cmd_detect")],
    "cli.verify": [("cli", "cmd_verify")],
    "cli.render": [("cli", "render")],
}

LAYERS = ("manifest", "expr", "affine", "projective", "tractor", "holonomy",
          "structures", "cli")


class Tracer:
    """In-memory spans, per-key call counts and times, and named counters."""

    def __init__(self):
        self.stack = []  # frames: [span id, child seconds]
        self.spans = []  # (op id, span id, name, start, end, parent span id)
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.depth = defaultdict(int)
        self.self_by_key = defaultdict(float)
        self.counts = defaultdict(int)
        self.leaves = {}  # key -> [calls, seconds]
        self.rhs_counter = [0]
        self.bookkeeping_s = 0.0
        self.op_id = 0
        self._next_span = 0

    def span(self, fn, key: str, name: str, on_result=None):
        stack, spans, calls, incl, depth = (self.stack, self.spans, self.calls,
                                            self.incl, self.depth)
        self_by_key = self.self_by_key

        def wrapper(*args, **kwargs):
            sid = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = _pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _pc()
                stack.pop()
                depth[key] -= 1
                dur = end - start
                calls[key] += 1
                if depth[key] == 0:
                    incl[key] += dur
                self_by_key[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((self.op_id, sid, name, start, end, parent))
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def leaf(self, fn, key: str):
        stack = self.stack
        stat = self.leaves.setdefault(key, [0, 0.0])

        def wrapper(*args):
            t0 = _pc()
            try:
                return fn(*args)
            finally:
                dt = _pc() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def charge_overhead(self, seconds: float):
        """Book tracer bookkeeping done inside a span as a child of it."""
        self.bookkeeping_s += seconds
        if self.stack:
            self.stack[-1][1] += seconds

    def layer_self_s(self) -> dict:
        """Self seconds per layer, leaf calls included in their own layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, seconds in self.self_by_key.items():
            out[key.split(".", 1)[0]] += seconds
        for key, (_calls, seconds) in self.leaves.items():
            out[key.split(".", 1)[0]] += seconds
        return out

    def reset(self):
        """Forget everything recorded so far; the installed wrappers stay."""
        for table in (self.spans, self.calls, self.incl, self.self_by_key, self.counts):
            table.clear()
        for stat in self.leaves.values():
            stat[0], stat[1] = 0, 0.0
        self.rhs_counter[0] = 0
        self.bookkeeping_s = 0.0

    def dump(self, path):
        doc = {
            "spans_fields": ["op", "id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "calls": dict(self.calls),
            "inclusive_s": dict(self.incl),
            "self_s": dict(self.self_by_key),
            "leaves": self.leaves,
            "self_s_by_layer": self.layer_self_s(),
            "counts": dict(self.counts),
            "rhs_evals": self.rhs_counter[0],
            "bookkeeping_s": self.bookkeeping_s,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _count_nodes(exprs, expr_type) -> int:
    """Distinct expression nodes (by identity) reachable from `exprs`."""
    seen = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for attr in ("left", "right", "operand", "base", "arg"):
            child = getattr(node, attr, None)
            if isinstance(child, expr_type):
                stack.append(child)
    return len(seen)


def _replace_everywhere(original, wrapper):
    """Point every tractorlab module global and module-level dict at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tractorlab" or modname.startswith("tractorlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap the tractorlab layers; call before any chart is built or compiled."""
    import importlib

    mods = {name: importlib.import_module(f"tractorlab.{name}")
            for name in ("expr", "affine", "manifest", "projective", "tractor",
                         "holonomy", "structures", "cli")}
    Expr = mods["expr"].Expr

    def on_rk4(tr, result):
        _state, steps, converged = result
        tr.counts["affine.rk4_steps"] += int(steps)
        if not converged:
            tr.counts["affine.rk4_nonconverged"] += 1

    def on_infinitesimal(tr, alg):
        tr.counts["holonomy.orders_used"] += int(alg.details["orders_used"])

    def on_loop_algebra(tr, alg):
        tr.counts["holonomy.log_retries"] += int(alg.details["log_retries"])

    hooks = {"affine.rk4": on_rk4, "holonomy.infinitesimal": on_infinitesimal,
             "holonomy.loop_algebra": on_loop_algebra}

    for key, targets in SPANS.items():
        for modname, fname in targets:
            original = getattr(mods[modname], fname)
            name = f"{modname}.{fname}"
            if key == "affine.rk4":
                wrapper = _rk4_wrapper(tracer, original, key, name, hooks[key])
            elif key == "expr.compile":
                wrapper = _compile_wrapper(tracer, original, key, name, Expr)
            else:
                wrapper = tracer.span(original, key, name, hooks.get(key))
            _replace_everywhere(original, wrapper)

    Expr.diff = tracer.leaf(Expr.diff, "expr.diff")  # a plain function binds as a method


def _rk4_wrapper(tracer, original, key, name, on_result):
    rhs = tracer.rhs_counter

    def counting(f):
        def g(t, y):
            rhs[0] += 1
            return f(t, y)
        return g

    def run(f, *args, **kwargs):
        return original(counting(f), *args, **kwargs)

    return tracer.span(run, key, name, on_result)


def _compile_wrapper(tracer, original, key, name, expr_type):
    def run(exprs, coords):
        fn = original(exprs, coords)
        wrapped = tracer.leaf(fn, "expr.eval")
        wrapped.n_outputs = fn.n_outputs
        return wrapped

    spanned = tracer.span(run, key, name)

    def compile_exprs(exprs, coords):
        exprs = list(exprs)
        t0 = _pc()
        tracer.counts["expr.compile_nodes"] += _count_nodes(exprs, expr_type)
        tracer.charge_overhead(_pc() - t0)
        return spanned(exprs, coords)

    return compile_exprs
