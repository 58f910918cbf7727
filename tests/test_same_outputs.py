import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_outputs  # noqa: E402
from obslab.config import parse_config  # noqa: E402
from obslab.solver import PROJECTED_GRADIENT  # noqa: E402


def write_reports(tmp_path, base, change):
    paths = tmp_path / "base.json", tmp_path / "change.json"
    for path, report in zip(paths, (base, change)):
        path.write_text(json.dumps(report, indent=2))
    return paths


class TestReportDifference:
    def test_every_differing_path_with_count_and_largest_difference(self, tmp_path):
        base = {
            "checks": {"growth_all": True, "weiss_all": True},
            "diagnostics": {
                "classification": [
                    {"fit_residual": 0.5, "verdict": "singular", "direction": [1.0, 0.0]},
                    {"fit_residual": 0.25, "verdict": "regular", "direction": [0.0, 1.0]},
                    {"fit_residual": 2.0, "verdict": "regular", "direction": [0.6, 0.8]},
                ],
                "census": {"total": 3},
            },
            "version": "1",
        }
        change = json.loads(json.dumps(base))
        rows = change["diagnostics"]["classification"]
        rows[0]["fit_residual"] = 0.4  # relative difference 0.2
        rows[2]["fit_residual"] = 1.5  # 0.25
        rows[1]["direction"][0] = 1e-3  # 1.0
        change["checks"]["weiss_all"] = False
        del change["version"]
        change["extra"] = 7
        lines = same_outputs.report_difference(*write_reports(tmp_path, base, change))
        assert lines.splitlines() == [
            "  checks.weiss_all: 1 differ; largest relative number difference 0.000e+00",
            "  diagnostics.classification[*].fit_residual: 2 differ; "
            "largest relative number difference 2.500e-01",
            "  diagnostics.classification[*].direction[*]: 1 differ; "
            "largest relative number difference 1.000e+00",
            "  version (in one report only): 1 differ; "
            "largest relative number difference 0.000e+00",
            "  extra (in one report only): 1 differ; "
            "largest relative number difference 0.000e+00",
        ]

    def test_list_lengths_differ(self, tmp_path):
        base = {"rows": [[1.0, 2.0], [3.0]]}
        change = {"rows": [[1.0, 2.0, 5.0], [3.0, 4.0]]}
        lines = same_outputs.report_difference(*write_reports(tmp_path, base, change))
        assert lines == (
            "  rows[*] (lengths differ): 2 differ; largest relative number difference 0.000e+00"
        )

    @pytest.mark.parametrize("report", [{"a": [1, 2.5, None]}, {}])
    def test_equal_reports(self, tmp_path, report):
        base, change = write_reports(tmp_path, report, report)
        change.write_text(json.dumps(report))  # other bytes, same numbers
        assert same_outputs.report_difference(base, change) == (
            "  the parsed reports are equal; only their bytes differ"
        )


def write_csvs(tmp_path, base, change):
    paths = tmp_path / "base.csv", tmp_path / "change.csv"
    for path, text in zip(paths, (base, change)):
        path.write_text(text)
    return paths


class TestCsvDifference:
    def test_every_differing_column_with_count_first_row_and_largest(self, tmp_path):
        base = "k,r,verdict\n0,0.5,regular\n1,2.0,regular\n2,4.0,singular\n3,1.0,regular\n"
        change = "k,r,verdict\n0,0.4,regular\n1,2.0,singular\n2,3.0,singular\n3,1.0,x\n"
        lines = same_outputs.csv_difference(*write_csvs(tmp_path, base, change))
        assert lines.splitlines() == [
            "  column 'r': 2 differ, first at row 2 ('0.5' vs '0.4'); "
            "largest relative number difference 2.500e-01",
            "  column 'verdict': 2 differ, first at row 3 ('regular' vs 'singular'); "
            "largest relative number difference 0.000e+00",
        ]

    def test_row_lengths_and_counts_differ(self, tmp_path):
        base = "a,b\n1,2\n3,4\n5,6\n"
        change = "a,b\n1,2,7\n3,8\n5,6,9\n7,8\n"
        lines = same_outputs.csv_difference(*write_csvs(tmp_path, base, change))
        assert lines.splitlines() == [
            "  column 'b': 1 differ, first at row 3 ('4' vs '8'); "
            "largest relative number difference 5.000e-01",
            "  2 rows differ in length, first row 2 (2 vs 3)",
            "  row count 4 vs 5",
        ]

    def test_column_past_the_header_is_numbered(self, tmp_path):
        lines = same_outputs.csv_difference(*write_csvs(tmp_path, "a\n1,2\n", "a\n1,4\n"))
        assert lines == (
            "  column 1: 1 differ, first at row 2 ('2' vs '4'); "
            "largest relative number difference 5.000e-01"
        )

    def test_equal_rows(self, tmp_path):
        base, change = write_csvs(tmp_path, "a,b\n1,2\n", "a,b\r\n1,2\r\n")
        assert same_outputs.csv_difference(base, change) == (
            "  the parsed rows are equal; only their bytes differ"
        )


class TestProjectedGradientConfig:
    def test_method_set_and_the_rest_kept(self):
        config = {
            "version": 1,
            "problem": {"form": "normalized", "nodes_per_axis": 33},
            "solver": {"method": "psor", "omega": 1.8, "tolerance": 1e-8},
            "seed": 0,
        }
        before = json.dumps(config)
        derived = same_outputs.projected_gradient_config(config)
        assert json.dumps(config) == before  # the workload's own config is untouched
        # omega is PSOR's alone: the config parser refuses it with projected_gradient
        assert derived["solver"] == {"method": "projected_gradient", "tolerance": 1e-8}
        del derived["solver"], config["solver"]
        assert derived == config

    def test_solver_section_added_when_absent(self):
        config = {"version": 1, "problem": {"form": "normalized"}}
        derived = same_outputs.projected_gradient_config(config)
        assert derived == {**config, "solver": {"method": "projected_gradient"}}
        assert "solver" not in config

    def test_sampled_fixture_has_none(self):
        config = {"version": 1, "problem": {"form": "fixture"}}
        assert same_outputs.projected_gradient_config(config) is None

    def test_every_solved_workload_gets_a_valid_copy(self):
        derived = {}
        for path in sorted(same_outputs.WORKLOADS.glob("*.json")):
            copy = same_outputs.projected_gradient_config(json.loads(path.read_text()))
            if copy is not None:
                derived[path.stem] = parse_config(copy)
        assert sorted(derived) == ["isotropic3d_33", "radial2d_257"]
        assert {run.solver.method for run in derived.values()} == {PROJECTED_GRADIENT}
