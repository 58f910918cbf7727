import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def test_both_sides_run_from_clones_at_paths_of_equal_length(tmp_path):
    # peak RSS moves with the directory the same sources run from, so the
    # base and the change each run from a clone, never from this checkout
    sides = bench_pairs.trees(tmp_path)
    assert sorted(sides) == ["base", "change"]
    base, change = sides["base"], sides["change"]
    assert base != change and len(str(base)) == len(str(change))
    assert base.parent == change.parent == tmp_path
    assert bench_pairs.ROOT not in (base, change)


def test_trace_takes_alternated_pairs_and_each_sides_median(tmp_path, monkeypatch):
    # one traced run per side leaves a layer comparison to the host's swing
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_bench(tree, workload, trace):
        calls.append((tree.name, trace))
        names = spec["per_layer"] if trace else spec["end_to_end"]  # as run.py reports them
        metrics = {m["name"]: {"value": float(len(calls))} for m in names}
        return {"attempted": 1, "failed": 0, "metrics": metrics, "provenance": {}}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "checkout", lambda rev, tree: rev)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: "")
    out = tmp_path / "pairs.json"
    argv = ["--base", "parent", "--out", str(out), "--workload", "radial2d_257", "--trace"]
    assert bench_pairs.main(argv) == 0
    trace = json.loads(out.read_text())["workloads"]["radial2d_257"]["trace"]

    n = bench_pairs.TRACE_PAIRS
    assert n == 3 and len(trace["pairs"]) == n
    untraced = 2 * bench_pairs.PAIRS
    assert [t for _, t in calls] == [False] * untraced + [True] * (2 * n)
    order = [tree for tree, _ in calls[untraced:]]
    assert order == ["base", "head", "head", "base", "base", "head"]
    assert [p["first"] for p in trace["pairs"]] == ["base", "change", "base"]
    for side in ("base", "change"):
        runs = [p[side]["solver.ms_per_sweep"] for p in trace["pairs"]]
        assert len(set(runs)) == n
        assert trace["median"][side]["solver.ms_per_sweep"] == statistics.median(runs)
    # calls untraced + 1 .. untraced + 6: base ran 1st, 4th, 5th, change 2nd, 3rd, 6th
    assert trace["median"]["base"]["solver.solve_s"] == untraced + 4
    assert trace["median"]["change"]["solver.solve_s"] == untraced + 3
