"""numpy stays the only runtime dependency: the package imports nothing
outside the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "obslab"
ALLOWED = {"numpy", "obslab"}


def foreign_imports(path):
    """``(line, module)`` for every absolute import outside the allowed set."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in ALLOWED and top not in sys.stdlib_module_names:
                yield node.lineno, module


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{p.name}:{line}: {module}" for p in sources for line, module in foreign_imports(p)]
    assert found == []


def test_scanner_flags_third_party_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import os, scipy.sparse\n"
        "from numpy import linalg\n"
        "from . import grid\n"
        "def f():\n"
        "    from hypothesis import given\n"
    )
    assert list(foreign_imports(source)) == [(1, "scipy.sparse"), (5, "hypothesis")]
