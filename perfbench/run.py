"""obslab benchmark: closed-loop `obslab diagnose` runs of pinned configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all    # every BENCHMARK.json workload in turn

Run it from the root of a checkout; it runs the checkout's ``src/`` and
writes only under ``.bench_out/``. Workloads are the configs in
``perfbench/workloads/`` (why each exists: ``BENCHMARK.json``).

One client, closed loop: each run is one ``python -m obslab.cli diagnose``
in a fresh interpreter, and the next starts only after it has exited and its
outputs have passed the gate (``gate.py``). Runs repeat while the next one is
expected to finish within ``--seconds``; there is always at least one.
``--seed`` only picks Monneau's two random probe forms. No run passes
``--threads`` and ``OBSLAB_THREADS`` is removed from the child environment.

``--trace 0`` reports the end-to-end metrics, medians over the runs:
``wall_s`` (start of the interpreter to its exit), ``cpu_s`` (user + system),
``peak_rss_mb``, ``passed_frac`` (share of runs that exited 0 and passed the
gate) and ``setup_s`` (median over separate interpreters that stop once
obslab is imported, the config loaded and the problem built; a few run
before each diagnose run and after the last).

``--trace 1`` alternates untraced runs with runs under ``tracer.py`` and
reports per-layer metrics from the spans (medians over traced runs; counts
must repeat exactly). ``trace.overhead_frac`` is traced wall over the
untraced median, minus one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each result is also
written with its provenance to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up probes before each run and after the last, so that their median
# spans the same stretch of time as the runs.
SETUP_PROBES = 3
# The whole invocation must end within 180 s; stop starting runs before this.
DEADLINE_S = 170.0
# A traced run may be at most this share slower than the untraced median, and
# the spans must cover its wall time up to this share (the rest is
# interpreter teardown and writing the spans out). selftest.py checks both.
TRACE_OVERHEAD_MAX = 0.10
TRACE_UNACCOUNTED_MAX = 0.05


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: the workloads, metric names and units. Other configs
    in workloads/ run only when named."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit(metric: str) -> str:
    return next(m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"] if m["name"] == metric)


def configs() -> list[str]:
    return sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))


def config_path(workload: str) -> Path:
    return BENCH / "workloads" / f"{workload}.json"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("OBSLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def diagnose_argv(workload: str, out_dir: Path, seed: int, spans: Path | None = None) -> list:
    cli = ["diagnose", "--config", str(config_path(workload))]
    cli += ["--out", str(out_dir), "--seed", str(seed)]
    if spans is None:
        return [sys.executable, "-m", "obslab.cli", *cli]
    return [sys.executable, str(BENCH / "tracer.py"), str(spans), *cli]


def run_child(argv: list, log: Path, timeout: float) -> dict:
    """Run one child to completion; wall from just before spawn to exit."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    # wait4 reaped the child; tell Popen so it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }


def setup_probe(workload: str, timeout: float) -> float:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(config_path(workload))],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def diagnose(workload: str, seed: int, run_dir: Path, traced: bool, timeout: float):
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    spans = run_dir / "spans.json" if traced else None
    result = run_child(diagnose_argv(workload, out_dir, seed, spans), run_dir / "log.txt", timeout)
    result["traced"] = traced
    if result["exit_code"] != 0:
        result["failures"] = [f"exit code {result['exit_code']} (log: {run_dir / 'log.txt'})"]
        return result
    done = subprocess.run(
        [sys.executable, str(BENCH / "gate.py"), str(config_path(workload)), str(out_dir), str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(timeout - result["wall_s"], 1.0),
    )
    if done.returncode != 0:
        result["failures"] = [f"gate exited with {done.returncode}: {done.stderr[-2000:]}"]
        return result
    verdict = json.loads(done.stdout.strip().splitlines()[-1])
    result["failures"], result["facts"] = verdict["failures"], verdict["facts"]
    if traced and not result["failures"]:
        with open(spans) as fh:
            result["trace"] = json.load(fh)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    config_text = config_path(workload).read_text()
    work_dir = OUT / workload
    shutil.rmtree(work_dir, ignore_errors=True)

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - began)

    setup: list[float] = []

    def probe_setup() -> None:
        if not trace:
            setup.extend(setup_probe(workload, remaining()) for _ in range(SETUP_PROBES))

    runs: list[dict] = []
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        probe_setup()
        traced = trace and len(runs) % 2 == 1
        runs.append(diagnose(workload, seed, work_dir / f"run{len(runs)}", traced, remaining()))
        last = time.monotonic() - t0
        if trace and len(runs) < 2:
            continue
        if time.monotonic() - loop_start + last > seconds or last > remaining():
            break
    probe_setup()
    failed = sum(1 for r in runs if r["failures"])
    for k, r in enumerate(runs):
        for failure in r["failures"]:
            print(f"{workload} run {k}: FAIL {failure}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(runs) if failed == 0 else {}
    else:
        metrics = end_to_end_metrics(runs, setup)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
        "runs": [{k: v for k, v in r.items() if k not in ("facts", "trace")} for r in runs],
        "setup_samples": setup,
        "provenance": provenance(seed, config_text),
    }


def end_to_end_metrics(runs: list[dict], setup: list[float]) -> dict:
    good = [r for r in runs if not r["failures"]] or runs
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "passed_frac": sum(1 for r in runs if not r["failures"]) / len(runs),
    }
    return {name: {"value": v, "unit": unit(name)} for name, v in values.items()}


def span_stats(doc: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, and the
    inclusive seconds of calls not nested in another call of the same layer."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "top": 0.0})
        s["calls"] += 1
        s["total"] += end - start
        s["self"] += end - start - child[i]
        layer = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != layer:
            s["top"] += end - start
    return stats


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when there is nothing to divide by (the base is
    reported next to every ratio)."""
    return num / den if den else 0.0


def traced_layers(run: dict, untraced_wall: float) -> dict:
    doc, facts = run["trace"], run["facts"]
    done, cov = facts["summary"], facts["coverage"]
    stats = span_stats(doc)

    def get(name, key="total"):
        return stats.get(name, {}).get(key, 0)

    def top(*names):
        return sum(get(n, "top") for n in names)

    main = next(s for s in doc["spans"] if s[0] == "cli.main")
    startup = main[1] - run["start"]
    accounted = startup + get("cli.main") + get("solver.complementarity_residual")
    sweeps = done["sweeps"]
    interior = 1
    for nodes in done["nodes_per_axis"]:
        interior *= nodes - 2
    solve_s = get("solver.solve")
    growth_s = top("freeboundary.growth_report")
    weiss_s = top("analysis.WeissEvaluator", "analysis.weiss_profile")
    classify_s = top("analysis.stratify", "analysis.classify_point")
    monneau_s = top("analysis.probe_forms", "analysis.monneau_profile")
    frequency_s = top("analysis.frequency_lambda")
    m = {
        "config.load_s": get("config.load_config"),
        "config.build_s": get("config.build_problem") + get("config.build_field"),
        "solver.solve_s": solve_s,
        "solver.sweeps": sweeps,
        "solver.ms_per_sweep": _ratio(solve_s * 1e3, sweeps),
        "solver.node_updates_per_s": _ratio(sweeps * interior, solve_s),
        "solver.residual_eval_ms": get("solver.complementarity_residual") * 1e3,
        "freeboundary.contact_ms": get("freeboundary.extract_contact_set") * 1e3,
        "freeboundary.extract_ms": get("freeboundary.extract_free_boundary") * 1e3,
        "freeboundary.interface_points": done["interface_points"],
        "freeboundary.growth_s": growth_s,
        "freeboundary.growth_ms_per_point": _ratio(growth_s * 1e3, cov["growth_evaluated"]),
        "freeboundary.growth_evaluated": cov["growth_evaluated"],
        "freeboundary.growth_skipped": cov["growth_skipped"],
        "analysis.weiss_s": weiss_s,
        "analysis.weiss_ms_per_point": _ratio(weiss_s * 1e3, cov["weiss_evaluated"]),
        "analysis.weiss_evaluated": cov["weiss_evaluated"],
        "analysis.weiss_skipped": cov["weiss_skipped"],
        "analysis.classify_s": classify_s,
        "analysis.classify_ms_per_point": _ratio(classify_s * 1e3, done["classified"]),
        "analysis.classify_determined_frac": _ratio(
            done["classified"] - done["undetermined"], done["classified"]
        ),
        "analysis.singular_points": done["singular"],
        "analysis.strip_s": top("analysis.contact_strip_halfwidth"),
        "analysis.monneau_s": monneau_s,
        "analysis.monneau_profiles": done["monneau_profiles"],
        "analysis.monneau_ms_per_profile": _ratio(monneau_s * 1e3, done["monneau_profiles"]),
        "analysis.monneau_evaluated": cov["monneau_evaluated"],
        "analysis.monneau_skipped": cov["monneau_skipped"],
        "analysis.frequency_s": frequency_s,
        "analysis.frequency_ms_per_estimate": _ratio(
            frequency_s * 1e3, done["frequency_estimates"]
        ),
        "analysis.frequency_evaluated": cov["frequency_evaluated"],
        "analysis.frequency_skipped": cov["frequency_skipped"],
        "analysis.frequency_defined_frac": _ratio(
            done["frequency_defined"], done["frequency_estimates"]
        ),
        "grid.interpolated_points": doc["interpolated_points"],
        "io.write_s": sum(s["total"] for n, s in stats.items() if n.startswith("io.")),
        "io.bytes_written": facts["bytes_written"],
        "io.unparsable_csv_cells": facts["unparsable_csv_cells"],
        "cli.startup_s": startup,
        "cli.self_s": get("cli.main", "self"),
        "trace.spans": len(doc["spans"]),
        "trace.overhead_frac": run["wall_s"] / untraced_wall - 1.0,
        "trace.unaccounted_frac": 1.0 - accounted / run["wall_s"],
    }
    for fn in ("sup_on_ball", "ball_integral", "sphere_integral", "interpolate_many"):
        m[f"grid.{fn}_calls"] = get(f"grid.{fn}", "calls")
        m[f"grid.{fn}_s"] = get(f"grid.{fn}", "self")
    return m


def layer_metrics(runs: list[dict]) -> dict:
    untraced = statistics.median(r["wall_s"] for r in runs if not r["traced"])
    per_run = [traced_layers(r, untraced) for r in runs if r["traced"]]
    out = {}
    for name in per_run[0]:
        values = [p[name] for p in per_run]
        if unit(name) in ("count", "B") and len(set(values)) != 1:
            raise RuntimeError(f"count {name} differs between traced runs: {values}")
        out[name] = {"value": statistics.median(values), "unit": unit(name)}
    return out


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


NUMPY_INFO = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError, ValueError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def provenance(seed: int, config_text: str) -> dict:
    # numpy is asked in a child: this process stays free of it (see gate.main)
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_INFO], env=child_env(), capture_output=True, text=True, timeout=60
    )
    numpy_info = json.loads(done.stdout) if done.returncode == 0 else {"numpy": "unknown"}
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    canonical = json.dumps(json.loads(config_text), sort_keys=True, separators=(",", ":"))
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        **numpy_info,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def print_result(result: dict) -> None:
    print(
        f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} runs, {result['failed']} failed, "
        f"correct: {str(result['correct']).lower()}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print("  provenance: " + json.dumps(result["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*configs(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "obslab" / "cli.py").is_file():
        print(f"error: no obslab sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec()["workloads"]] if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print_result(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
