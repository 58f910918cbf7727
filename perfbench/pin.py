"""Pin the gate's references from the current commit's outputs.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs ``obslab diagnose`` with seed 0 on each workload (all by default) and
stores ``report.json`` and, for solved workloads, ``solution.field`` under
``perfbench/ref/WORKLOAD/`` as gzip files. Run it only at a commit whose
outputs are the agreed reference: a later commit is checked against them.
"""

from __future__ import annotations

import gzip
import shutil
import sys

import run


def main(names: list[str]) -> int:
    for name in names or run.configs():
        out_dir = run.OUT / "pin" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        result = run.run_child(run.diagnose_argv(name, out_dir, 0), out_dir / "log.txt", 900.0)
        if result["exit_code"] != 0:
            print(f"{name}: diagnose exited with {result['exit_code']}", file=sys.stderr)
            return 1
        ref_dir = run.BENCH / "ref" / name
        ref_dir.mkdir(parents=True, exist_ok=True)
        for file in ("report.json", "solution.field"):
            if (out_dir / file).exists():
                data = (out_dir / file).read_bytes()
                (ref_dir / f"{file}.gz").write_bytes(gzip.compress(data, 9, mtime=0))
        print(f"{name}: pinned in {ref_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
