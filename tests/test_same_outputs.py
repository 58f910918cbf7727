import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import same_outputs  # noqa: E402


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
