"""The package surface that other code reaches by name.

`bench/tracing.py` wraps tractorlab functions by module and name, each
module's `__all__` lists what it exports, and `bench/workloads.py` calls
the package with the signatures it had when the benchmark was written; a
rename, deletion or signature change that leaves any of them stale breaks
only at run time, so these tests resolve every name and run one pass of
every workload.  An option of a package function that no code outside the
tests sets is a module constant instead, so a test that needs another value
patches the constant.
"""

import ast
import importlib
import json
import pkgutil
import runpy
from pathlib import Path

import pytest

import tractorlab
from tractorlab.expr import Expr, compile_exprs, parse

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"
MODULES = sorted(info.name for info in pkgutil.iter_modules(tractorlab.__path__))


def test_every_traced_function_resolves():
    spans = runpy.run_path(str(TRACING))["SPANS"]  # stdlib imports only at top level
    missing = [f"{mod}.{name}" for targets in spans.values() for mod, name in targets
               if not callable(getattr(importlib.import_module(f"tractorlab.{mod}"), name, None))]
    assert missing == []
    assert callable(Expr.diff)  # wrapped as the expr.diff leaf


def test_compiled_program_carries_its_output_count():
    # the tracer copies n_outputs onto the evaluator it wraps
    exprs = [parse(text, ("x", "y")) for text in ("x*y", "sin(x)", "2")]
    assert compile_exprs(exprs, ("x", "y")).n_outputs == 3


@pytest.mark.parametrize("module", ["tractorlab"] + [f"tractorlab.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name", ["corpus_suite", "transport_warm", "gauge_cold"])
def test_every_bench_workload_passes_one_pass(name):
    # run_path compiles the file without writing bytecode under bench/
    workloads = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
    known = json.loads((BENCH / "known_answers.json").read_text())
    ops = next(workloads[name](0, known).passes())
    failed = [(label, [row for row in rows if not row["pass"]])
              for label, rows in ((label, op()) for label, op in ops)
              if not all(row["pass"] for row in rows)]
    assert ops and failed == []


def _calls():
    """Callee name -> [(positional count, keyword names, has *args or **kwargs)]
    of every call in src, demos, scripts and bench: the code that uses the
    package, not its tests."""
    calls = {}
    for path in (p for d in ("src", "demos", "scripts", "bench")
                 for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                star = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, star))
    return calls


# `rk4_adaptive` is called only by tests; it stays in src because
# bench/tracing.py wraps it by name, so its options stay with it
_EXEMPT = {"affine.rk4_adaptive"}


def test_every_keyword_option_has_a_caller_that_sets_it():
    # an option that only tests set is a constant, which a test can patch;
    # `library`'s half_width options set the example charts' domains, which are data
    calls, unset = _calls(), []
    for module in MODULES:
        if module == "library":
            continue
        tree = ast.parse((ROOT / "src" / "tractorlab" / f"{module}.py").read_text())
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and "staticmethod" not in [ast.unparse(d) for d in f.decorator_list]}
        for fn in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            a = fn.args
            params = (a.posonlyargs + a.args)[id(fn) in methods:]  # no self
            name = methods[id(fn)] if fn.name == "__init__" and id(fn) in methods else fn.name
            options = [(i, p.arg) for i, p in enumerate(params)
                       if i >= len(params) - len(a.defaults)]
            options += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            if f"{module}.{name}" in _EXEMPT:
                continue
            unset += [f"{module}.{name}({arg})" for i, arg in options
                      if not any(star or arg in kws or (i is not None and npos > i)
                                 for npos, kws, star in calls.get(name, []))]
    assert unset == []


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads; a name in `__all__` is read."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "tractorlab").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    assert _unused_imports("import os\nfrom x import a, b as c\n__all__ = ['a']\n") == ["os", "c"]
