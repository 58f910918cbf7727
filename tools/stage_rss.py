"""Resident memory at the entry and exit of each stage of one ``obslab diagnose``.

    python3 tools/stage_rss.py CONFIG [--seed N]

Runs ``obslab.cli.main(["diagnose", ...])`` in this interpreter, on the
``src/`` of this checkout, with its output in a temporary directory. A stage
is a call that ``cli`` makes into a layer: a function it calls as
``analysis.f``, ``freeboundary.f`` or ``io.f``, or one it imports by name
from another ``obslab`` module (``load_config``, ``solve``, ...). Each is
wrapped for the run, as the benchmark's tracer wraps them; nothing in
``src/`` is edited.

Prints one line per stage: the current resident set (``/proc/self/statm``)
and the peak so far (``ru_maxrss``), in MB, at its entry and exit. Calls of
the same stage that follow one another are one line, from the first entry
to the last exit. The first line is the interpreter after importing
``obslab`` and numpy; the last is after ``main`` returned. Linux only.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from obslab import analysis, cli, freeboundary, io  # noqa: E402

LAYERS = {"analysis": analysis, "freeboundary": freeboundary, "io": io}
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def memory() -> tuple[float, float]:
    """The current resident set and the process's peak so far, in MB."""
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1]) * PAGE_MB
    return resident, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stages() -> list[tuple[object, str]]:
    """(module, attribute) of every layer function that ``cli`` calls."""
    tree = ast.parse(Path(inspect.getfile(cli)).read_text())
    found = {
        (LAYERS[node.func.value.id], node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in LAYERS
    }
    for name, fn in vars(cli).items():
        module = getattr(fn, "__module__", "") or ""
        if callable(fn) and module.startswith("obslab.") and module != "obslab.cli":
            found.add((cli, name))
    return sorted(found, key=lambda at: (at[0].__name__, at[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    events: list[tuple[str, str, float, float]] = [("import", "exit", *memory())]

    def wrap(name, fn):
        def staged(*a, **kw):
            events.append((name, "entry", *memory()))
            try:
                return fn(*a, **kw)
            finally:
                events.append((name, "exit", *memory()))

        return staged

    for module, attr in stages():
        name = f"{module.__name__.removeprefix('obslab.')}.{attr}"
        setattr(module, attr, wrap(name, getattr(module, attr)))
    with tempfile.TemporaryDirectory(prefix="stage_rss_") as out:
        argv = ["diagnose", "--config", args.config, "--out", out, "--seed", str(args.seed)]
        code = cli.main(argv)
    events.append(("main", "exit", *memory()))

    print(f"{'stage':40} {'calls':>5} {'rss in':>8} {'rss out':>8} {'peak in':>8} {'peak out':>8}")
    rows: list[list] = []
    for name, phase, resident, peak in events:
        if phase == "entry" and rows and rows[-1][0] == name and rows[-1][1] == "closed":
            rows[-1][2] += 1
            continue
        if phase == "entry" or name in ("import", "main"):
            rows.append([name, "open", 1, resident, resident, peak, peak])
        if phase == "exit":
            row = next(r for r in reversed(rows) if r[0] == name)
            row[1], row[4], row[6] = "closed", resident, peak
    for name, _, calls, rss_in, rss_out, peak_in, peak_out in rows:
        print(f"{name:40} {calls:5d} {rss_in:8.2f} {rss_out:8.2f} {peak_in:8.2f} {peak_out:8.2f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
