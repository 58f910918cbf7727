"""numpy stays the only runtime dependency: the package imports nothing
outside the standard library, numpy and itself. Importing it starts
OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "obslab"
ALLOWED = {"numpy", "obslab"}

# A fresh interpreter's BLAS thread variable and OS thread count (None off
# Linux) once the CLI, and with it numpy, is imported.
THREADS_SCRIPT = """
import json, os, sys
import obslab.cli
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


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


def fresh_interpreter(**settings):
    """``[OPENBLAS_NUM_THREADS, OS threads]`` of a fresh interpreter after
    ``import obslab.cli``. Its environment is this one without the variable
    (importing obslab here has set it), plus ``settings``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(settings, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_import_defaults_blas_to_one_thread():
    blas_threads, tasks = fresh_interpreter()
    assert blas_threads == "1"
    if tasks is not None:
        assert tasks == 1  # OpenBLAS started no worker


def test_explicit_blas_setting_wins():
    blas_threads, tasks = fresh_interpreter(OPENBLAS_NUM_THREADS="2")
    assert blas_threads == "2"
    if tasks is not None:  # the main thread and one OpenBLAS worker per further CPU
        assert tasks == min(2, len(os.sched_getaffinity(0)))
