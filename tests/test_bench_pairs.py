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
