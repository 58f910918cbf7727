"""The benchmark tracer wraps obslab functions by name and skips a name that
is missing, so its metric would read 0; every traced name must resolve."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CLI = ROOT / "src" / "obslab" / "cli.py"


def trace_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [(elt.elts[0].id, elt.elts[1].value) for elt in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(f"obslab.{module}"), attr, None)), (
            f"obslab.{module}.{attr} is traced but missing"
        )


def test_cli_calls_only_traced_layer_functions():
    # a layer function that cli calls but the tracer does not wrap has its
    # time counted in cli's own
    calls = {
        (node.func.value.id, node.func.attr)
        for node in ast.walk(ast.parse(CLI.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("analysis", "freeboundary")
    }
    assert calls
    untraced = sorted(calls - set(trace_targets()))
    assert not untraced, f"cli calls untraced functions {untraced}"
