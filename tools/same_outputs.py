"""Check that the commit checked out here writes the same output bytes as REV.

    python3 tools/same_outputs.py REV

Runs ``obslab diagnose`` on every config in ``perfbench/workloads/`` at seeds
``SEEDS``, once with the ``src/`` of REV and once with the ``src/`` of this
checkout, and compares every output file byte for byte. REV is cloned into a
temporary directory (``git clone --shared``, which registers nothing in this
repository); both sides read this checkout's workload configs, and every
output goes to a temporary directory, so nothing in this checkout is
written. Every run has ``PYTHONDONTWRITEBYTECODE=1``.

Prints one line per differing or one-sided file and a summary line; exits 0
if every file is byte-identical, 1 otherwise. For a ``report.json`` on both
sides that differs, a second line names the first key path at which the
two parsed reports differ and the largest relative difference between
numbers at the same path. For a CSV file on both sides that differs, it
names the first differing row and column and the largest relative
difference between numeric cells at the same row and column.
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


def diagnose(tree: Path, config: Path, seed: int, out: Path) -> None:
    argv = [sys.executable, "-m", "obslab.cli", "diagnose", "--config", str(config)]
    argv += ["--out", str(out), "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(argv, cwd=out.parent, env=env, check=True, stdout=subprocess.DEVNULL)


def files(top: Path) -> set[Path]:
    return {p.relative_to(top) for p in top.rglob("*") if p.is_file()}


def report_difference(base: Path, change: Path) -> str:
    """The first key path (in the base report's key order) at which two
    parsed reports differ, and the largest relative difference
    ``|a - b| / max(|a|, |b|)`` between two numbers at the same path."""
    first, largest = None, 0.0

    def walk(a, b, path: str) -> None:
        nonlocal first, largest
        if isinstance(a, dict) and isinstance(b, dict):
            for key in [*a, *(k for k in b if k not in a)]:
                at = f"{path}.{key}" if path else key
                if key in a and key in b:
                    walk(a[key], b[key], at)
                elif first is None:
                    first = at
            return
        if isinstance(a, list) and isinstance(b, list):
            for k, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{k}]")
            if len(a) != len(b) and first is None:
                first = f"{path} (length {len(a)} vs {len(b)})"
            return
        if a == b and type(a) is type(b):
            return
        if first is None:
            first = path or "(top level)"
        numbers = [type(v) in (int, float) for v in (a, b)]
        if all(numbers) and a != b:
            largest = max(largest, relative(a, b))

    walk(json.loads(base.read_text()), json.loads(change.read_text()), "")
    if first is None:
        return "  the parsed reports are equal; only their bytes differ"
    return f"  first difference at {first}; largest relative number difference {largest:.3e}"


def relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def csv_difference(base: Path, change: Path) -> str:
    """The first row (1 is the header) and column at which two CSV files
    differ, and the largest relative difference ``|a - b| / max(|a|, |b|)``
    between cells at the same row and column that both parse as numbers."""
    with base.open(newline="") as fa, change.open(newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    first, largest = None, 0.0
    for row, (ra, rb) in enumerate(zip(a, b), start=1):
        for column, (x, y) in enumerate(zip(ra, rb)):
            if x == y:
                continue
            if first is None:
                name = a[0][column] if column < len(a[0]) else str(column)
                first = f"row {row} column {name!r} ({x!r} vs {y!r})"
            try:
                largest = max(largest, relative(float(x), float(y)))
            except ValueError:
                pass
        if len(ra) != len(rb) and first is None:
            first = f"row {row} (length {len(ra)} vs {len(rb)})"
    if len(a) != len(b) and first is None:
        first = f"row count {len(a)} vs {len(b)}"
    if first is None:
        return "  the parsed rows are equal; only their bytes differ"
    return f"  first difference at {first}; largest relative number difference {largest:.3e}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", metavar="REV", help="git revision to compare against")
    args = parser.parse_args(argv)
    configs = sorted(WORKLOADS.glob("*.json"))

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
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
        f"({len(configs)} workloads x seeds {', '.join(map(str, SEEDS))}; base {base_commit[:12]})"
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
