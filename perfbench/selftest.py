"""Self-test of the benchmark: the gate rejects broken outputs, and the
trace accounts for the wall time of a traced run.

    python3 perfbench/selftest.py [WORKLOAD]    # default radial2d_257

Makes one traced measurement (one untraced and one traced run), then checks:

* the gate passes both runs' real outputs;
* it rejects a copy whose solved field is perturbed by 1e-9 at one node;
* it rejects a copy with one classification verdict flipped;
* it rejects a copy with one output file missing;
* the spans cover the traced wall time to ``TRACE_UNACCOUNTED_MAX``, and the
  traced run is at most ``TRACE_OVERHEAD_MAX`` slower than the untraced
  median.

Exits 0 when every check holds. It also prints the traced counts that the
ROADMAP baseline names, for comparison by eye.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run


def perturb_field(out_dir) -> None:
    path = out_dir / "solution.field"
    raw = path.read_bytes()
    _, values = gate.parse_field(raw)
    values = values.ravel().copy()
    values[values.size // 2] += 1e-9
    path.write_bytes(raw[: len(raw) - values.nbytes] + values.astype("<f8").tobytes())


def flip_verdict(out_dir) -> None:
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    entry = report["diagnostics"]["classification"][0]
    entry["verdict"] = "singular" if entry["verdict"] != "singular" else "regular"
    path.write_text(json.dumps(report))


def drop_file(out_dir) -> None:
    (out_dir / "weiss_profiles.csv").unlink()


def gate_mutant(workload, config, seed, out_dir, name, edit) -> list[str]:
    """Gate failures for a copy of out_dir changed by edit."""
    copy = out_dir.parent / f"mutant-{name}"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out_dir, copy)
    edit(copy)
    failures, _ = gate.check_run(workload, config, copy, seed)
    shutil.rmtree(copy)
    return failures


def main(workload: str) -> int:
    seed = 0
    config = json.loads(run.config_path(workload).read_text())
    problems = []
    result = run.measure(workload, seed, 0.0, trace=True)
    for k, r in enumerate(result["runs"]):
        if r["failures"]:
            problems.append(f"run {k} failed the gate: {r['failures']}")
    out_dir = run.OUT / workload / "run0" / "out"
    cases = [("flipped-verdict", flip_verdict), ("missing-file", drop_file)]
    if config["problem"]["form"] != "fixture":
        cases.append(("field+1e-9", perturb_field))
    for name, edit in cases:
        failures = gate_mutant(workload, config, seed, out_dir, name, edit)
        print(f"{name}: gate {'rejects' if failures else 'ACCEPTS'}: {failures[:1]}")
        if not failures:
            problems.append(f"gate accepted the {name} mutant")
    m = result["metrics"]
    overhead = m["trace.overhead_frac"]["value"]
    unaccounted = m["trace.unaccounted_frac"]["value"]
    print(f"trace overhead {overhead:+.4f} (max {run.TRACE_OVERHEAD_MAX}), "
          f"unaccounted {unaccounted:.4f} (max {run.TRACE_UNACCOUNTED_MAX})")
    # a traced run faster than the untraced median is host noise, not a gain
    if overhead > run.TRACE_OVERHEAD_MAX:
        problems.append(f"trace overhead {overhead:+.4f} beyond {run.TRACE_OVERHEAD_MAX}")
    if not 0.0 <= unaccounted <= run.TRACE_UNACCOUNTED_MAX:
        problems.append(f"spans leave {unaccounted:.4f} of the traced wall unaccounted")
    for name in (
        "solver.sweeps",
        "freeboundary.interface_points",
        "grid.sup_on_ball_calls",
        "grid.ball_integral_calls",
        "io.unparsable_csv_cells",
    ):
        print(f"{name} = {m[name]['value']}")
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "radial2d_257"))
