"""The package surface that other code reaches by name.

`bench/tracing.py` wraps tractorlab functions by module and name, and each
module's `__all__` lists what it exports; a rename or deletion that leaves
either stale breaks only at run time, so these tests resolve every name.
"""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import tractorlab
from tractorlab.expr import Expr, compile_exprs, parse

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
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
