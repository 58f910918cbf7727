"""Alternated before/after pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --base REV --out BENCH.json [--workload NAME ...] [--trace]

Compares the commit checked out here with revision REV of the same
repository, in ``PAIRS`` pairs per workload at seed 0 and the benchmark's own
run length. ``src/`` and ``perfbench/`` must be committed, so the record names
the code that ran. REV and this checkout's HEAD are each cloned into a
temporary directory (``git clone --shared``, which registers nothing in this
repository), at paths of equal length (:func:`trees`): the same sources read
0.3-0.4 MB apart in ``peak_rss_mb`` when run from directories whose paths
differ. ``run.py`` records each clone's commit. In both clones
``__pycache__`` is deleted under ``src/`` and ``perfbench/``, and every run
has ``PYTHONDONTWRITEBYTECODE=1``, so neither side's ``setup_s`` profits
from bytecode left by an earlier run. Nothing in this checkout changes.

Each pair runs ``perfbench/run.py --workload W`` once in each tree; the side
that goes first alternates from pair to pair. The output holds every pair's
end-to-end metrics, each side's median and quartiles per metric, how many
pairs the change won per metric, and ``run.py``'s provenance for each side.
``--trace`` adds ``TRACE_PAIRS`` alternated pairs of ``--trace 1`` runs per
workload: every run's per-layer metrics, and each side's median per metric.

Each side also records ``os_threads``: how many OS threads a fresh
interpreter in its tree holds after ``import obslab.cli``, in this
process's environment (``null`` off Linux). ``run.py``'s provenance shows
the BLAS thread variables of its own environment only, and the package may
set a default of its own on import.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # the fewest that can show a change winning nine tenths of them
TRACE_PAIRS = 3  # traced pairs per workload: a layer's median is not one run's swing
CODE = ("src", "perfbench")  # what run.py runs


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def checkout(rev: str, tree: Path) -> str:
    """Clone this repository into ``tree`` (``git clone --shared``, which
    registers nothing here) with commit ``rev`` checked out; its hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    git("clone", "--quiet", "--shared", "--no-checkout", str(ROOT), str(tree))
    git("checkout", "--quiet", "--detach", commit, cwd=tree)
    return commit


def trees(tmp: Path) -> dict[str, Path]:
    """The directories that the two sides run from: clones under ``tmp``
    whose paths have equal length."""
    return {"base": tmp / "base", "change": tmp / "head"}


# Run in a fresh interpreter: its OS thread count once the CLI is imported.
THREADS_SCRIPT = """
import json, os, sys
import obslab.cli
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps(tasks))
"""


def os_threads(tree: Path) -> int | None:
    """The OS threads of a fresh interpreter after ``import obslab.cli``
    from ``tree``'s ``src/``; None off Linux."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", THREADS_SCRIPT],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def drop_bytecode(tree: Path) -> None:
    for part in CODE:
        for cache in list((tree / part).rglob("__pycache__")):
            shutil.rmtree(cache)


def bench(tree: Path, workload: str, trace: bool) -> dict:
    """One ``run.py`` invocation in ``tree`` at seed 0; its record from
    ``.bench_out/``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0"]
    argv += ["--trace", str(int(trace))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(argv, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    record = tree / ".bench_out" / f"{workload}-seed0-trace{int(trace)}.json"
    return json.loads(record.read_text())


def summary(record: dict) -> dict:
    return {
        "attempted": record["attempted"],
        "failed": record["failed"],
        **{name: m["value"] for name, m in record["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def run_pairs(sides: dict, workload: str, count: int, trace: bool, provenance: dict) -> list:
    """``count`` pairs of runs of ``workload``, the side that goes first
    alternating from pair to pair; each side's first provenance goes to
    ``provenance``."""
    pairs = []
    for k in range(count):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {"first": order[0]}
        for side in order:
            record = bench(sides[side], workload, trace)
            pair[side] = summary(record)
            provenance.setdefault(side, record["provenance"])
        pairs.append(pair)
        line = f"{workload} {'traced ' * trace}pair {k}"
        if not trace:  # a traced run reports layers, not wall_s
            line += ": " + ", ".join(
                f"{side} wall_s {pair[side]['wall_s']:.3f}" for side in ("base", "change")
            )
        print(line, flush=True)
    return pairs


def medians(pairs: list[dict]) -> dict:
    """Each side's median of every metric over ``pairs``."""
    return {
        side: {m: statistics.median(p[side][m] for p in pairs) for m in pairs[0][side]}
        for side in ("base", "change")
    }


def compare(pairs: list[dict], better: dict) -> dict:
    out = {}
    for metric, direction in better.items():
        base = [p["base"][metric] for p in pairs]
        change = [p["change"][metric] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        out[metric] = {
            "base": spread(base),
            "change": spread(change),
            "change_wins": sum(1 for b, c in zip(base, change) if sign * (c - b) < 0),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument(
        "--trace", action="store_true", help=f"add {TRACE_PAIRS} pairs of --trace 1 runs"
    )
    args = parser.parse_args(argv)
    if git("status", "--porcelain", "--", *CODE):
        parser.error(f"commit {' and '.join(CODE)} first: the record must name the code that ran")
    workloads = args.workload or names
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = trees(Path(tmp))
        base_commit = checkout(args.base, sides["base"])
        change_commit = checkout("HEAD", sides["change"])
        for tree in sides.values():
            drop_bytecode(tree)
        result = {
            "seed": 0,
            "base": {"rev": args.base, "commit": base_commit},
            "change": {"commit": change_commit},
            "workloads": {},
        }
        for side, tree in sides.items():
            result[side]["os_threads"] = os_threads(tree)
        for workload in workloads:
            provenance = {}
            pairs = run_pairs(sides, workload, PAIRS, False, provenance)
            entry = {"pairs": pairs, "metrics": compare(pairs, better), "provenance": provenance}
            if args.trace:
                traced = run_pairs(sides, workload, TRACE_PAIRS, True, provenance)
                entry["trace"] = {"pairs": traced, "median": medians(traced)}
            result["workloads"][workload] = entry
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
