"""Check that the commit checked out here writes the same output bytes as REV.

    python3 tools/same_outputs.py REV

Runs ``obslab diagnose`` on every config in ``perfbench/workloads/`` at seeds
``SEEDS``, once with the ``src/`` of REV and once with the ``src/`` of this
checkout, and compares every output file byte for byte. Each workload that
solves is also run as a copy with ``solver.method`` set to
``projected_gradient``, written to the temporary directory, so both solver
methods are checked end to end. REV is cloned into a
temporary directory (``git clone --shared``, which registers nothing in this
repository); both sides read this checkout's workload configs, and every
output goes to a temporary directory, so nothing in this checkout is
written. Every run has ``PYTHONDONTWRITEBYTECODE=1``.

Prints one line per differing or one-sided file and a summary line; exits 0
if every file is byte-identical, 1 otherwise. For a ``report.json`` on both
sides that differs, one more line per key path at which the two parsed
reports differ (list indices collapsed to ``*``) gives how many values differ
there and the largest relative difference between numbers at that path.
For a CSV file on both sides that differs, one more line per differing
column gives how many of its cells differ, the first row at which one does,
and the largest relative difference between numbers in it.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, checkout

WORKLOADS = ROOT / "perfbench" / "workloads"
SEEDS = (0, 3)
PROJECTED_GRADIENT = "projected_gradient"


def projected_gradient_config(config: dict) -> dict | None:
    """A copy of the parsed workload ``config`` with ``solver.method`` set to
    ``projected_gradient``, or None if its problem is a sampled fixture,
    which nothing solves."""
    if config["problem"]["form"] == "fixture":
        return None
    derived = json.loads(json.dumps(config))
    derived.setdefault("solver", {})["method"] = PROJECTED_GRADIENT
    return derived


def diagnose(tree: Path, config: Path, seed: int, out: Path) -> None:
    argv = [sys.executable, "-m", "obslab.cli", "diagnose", "--config", str(config)]
    argv += ["--out", str(out), "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(argv, cwd=out.parent, env=env, check=True, stdout=subprocess.DEVNULL)


def files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def report_difference(base: Path, change: Path) -> str:
    """Every key path at which two parsed reports differ, with list indices
    collapsed to ``*``, in the order first met (the base report's key order
    first). Each path comes with how many values differ at it and the
    largest relative difference ``|a - b| / max(|a|, |b|)`` between two
    numbers at it."""
    paths: dict[str, list] = {}  # path -> [count, largest]

    def note(path: str, largest: float = 0.0) -> None:
        entry = paths.setdefault(path or "(top level)", [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], largest)

    def walk(a, b, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in [*a, *(k for k in b if k not in a)]:
                at = f"{path}.{key}" if path else key
                if key in a and key in b:
                    walk(a[key], b[key], at)
                else:
                    note(f"{at} (in one report only)")
            return
        if isinstance(a, list) and isinstance(b, list):
            for x, y in zip(a, b):
                walk(x, y, f"{path}[*]")
            if len(a) != len(b):
                note(f"{path} (lengths differ)")
            return
        if a == b and type(a) is type(b):
            return
        numbers = all(type(v) in (int, float) for v in (a, b))
        note(path, relative(a, b) if numbers else 0.0)

    walk(json.loads(base.read_text()), json.loads(change.read_text()), "")
    if not paths:
        return "  the parsed reports are equal; only their bytes differ"
    return "\n".join(
        f"  {path}: {count} differ; largest relative number difference {largest:.3e}"
        for path, (count, largest) in paths.items()
    )


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def csv_difference(base: Path, change: Path) -> str:
    """Every column in which two CSV files differ, in column order (named by
    the base file's header), with how many of its cells differ, the first row
    (1 is the header) at which one does, and the largest relative difference
    ``|a - b| / max(|a|, |b|)`` between two of its differing cells that both
    parse as numbers. Cells are compared at the same row and column; one
    more line each names the rows of unequal length and unequal row counts."""
    with base.open(newline="") as fa, change.open(newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    header = a[0] if a else []
    columns: dict[int, list] = {}  # column -> [count, first, largest]
    lengths = []  # rows of unequal length
    for row, (ra, rb) in enumerate(zip(a, b), start=1):
        for column, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            entry = columns.setdefault(column, [0, f"row {row} ({x!r} vs {y!r})", 0.0])
            entry[0] += 1
            try:
                entry[2] = max(entry[2], relative(float(x), float(y)))
            except ValueError:
                pass
        if len(ra) != len(rb):
            lengths.append(f"{row} ({len(ra)} vs {len(rb)})")
    lines = []
    for column, (count, first, largest) in sorted(columns.items()):
        name = repr(header[column]) if column < len(header) else str(column)
        lines.append(
            f"  column {name}: {count} differ, first at {first}; "
            f"largest relative number difference {largest:.3e}"
        )
    if lengths:
        lines.append(f"  {len(lengths)} rows differ in length, first row {lengths[0]}")
    if len(a) != len(b):
        lines.append(f"  row count {len(a)} vs {len(b)}")
    return "\n".join(lines) or "  the parsed rows are equal; only their bytes differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", metavar="REV", help="git revision to compare against")
    args = parser.parse_args(argv)
    workloads = sorted(WORKLOADS.glob("*.json"))

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        configs = list(workloads)
        for workload in workloads:
            derived = projected_gradient_config(json.loads(workload.read_text()))
            if derived is not None:
                configs.append(tmp / f"{workload.stem}-{PROJECTED_GRADIENT}.json")
                configs[-1].write_text(json.dumps(derived, indent=2))
        base_tree = tmp / "tree"
        base_commit = checkout(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for side, tree in trees.items():
            for config in configs:
                for seed in SEEDS:
                    run = tmp / side / f"{config.stem}-seed{seed}"
                    run.parent.mkdir(exist_ok=True)
                    diagnose(tree, config, seed, run)
        base, change = tmp / "base", tmp / "change"
        names = sorted(files(base) | files(change))
        differ = [
            name
            for name in names
            if not ((base / name).is_file() and (change / name).is_file())
            or not filecmp.cmp(base / name, change / name, shallow=False)
        ]
        for name in differ:
            print(f"differs: {name}")
            both = (base / name).is_file() and (change / name).is_file()
            if both and name.name == "report.json":
                print(report_difference(base / name, change / name))
            elif both and name.suffix == ".csv":
                print(csv_difference(base / name, change / name))
    print(
        f"{len(names) - len(differ)} of {len(names)} output files byte-identical "
        f"({len(workloads)} workloads and {len(configs) - len(workloads)} {PROJECTED_GRADIENT} "
        f"copies x seeds {', '.join(map(str, SEEDS))}; base {base_commit[:12]})"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
