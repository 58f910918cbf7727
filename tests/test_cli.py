import csv
import json
from pathlib import Path

import numpy as np
import pytest

from obslab import cli, config
from obslab.cli import main
from obslab.io import read_field


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def one_d_config(out_dir, max_iterations=20000):
    return {
        "version": 1,
        "problem": {
            "form": "normalized",
            "dimension": 1,
            "lower": [-1.0],
            "upper": [1.0],
            "nodes_per_axis": 129,
            "boundary": {"fixture": "one_d", "a": 0.5},
        },
        "solver": {"tolerance": 1e-8, "max_iterations": max_iterations},
        "output": {"directory": str(out_dir)},
    }


def radial_config(out_dir, selection, nodes=65, radii=(0.1, 0.15, 0.2, 0.25)):
    return {
        "version": 1,
        "problem": {
            "form": "normalized",
            "dimension": 2,
            "lower": [-1.0, -1.0],
            "upper": [1.0, 1.0],
            "nodes_per_axis": nodes,
            "boundary": {"fixture": "radial", "a": 0.4},
        },
        "solver": {"tolerance": 1e-8, "max_iterations": 50000},
        "diagnostics": {"selection": list(selection), "radii": list(radii)},
        "output": {"directory": str(out_dir)},
        "seed": 7,
    }


def isotropic_3d_config(out_dir):
    third = 1.0 / 3.0
    return {
        "version": 1,
        "problem": {
            "form": "normalized",
            "dimension": 3,
            "lower": -1.0,
            "upper": 1.0,
            "nodes_per_axis": 21,
            "boundary": {
                "fixture": "polynomial",
                "matrix": [[third, 0.0, 0.0], [0.0, third, 0.0], [0.0, 0.0, third]],
            },
        },
        "diagnostics": {
            "selection": ["growth", "weiss", "monneau", "classify", "frequency"],
            "radii": [0.4, 0.5],
            "angular_samples": 16,
        },
        "output": {"directory": str(out_dir)},
        "seed": 3,
    }


ALL_DIAGNOSTICS = ["growth", "weiss", "monneau", "classify", "frequency"]
CSV_FILES = (
    "growth.csv",
    "weiss_profiles.csv",
    "monneau_profiles.csv",
    "classifications.csv",
    "frequency.csv",
)
TEXT_COLUMNS = {"verdict", "nondegenerate", "bounded", "defined"}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSolveCommand:
    def test_solve_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", one_d_config(out))
        assert main(["solve", "--config", cfg]) == 0
        field = read_field(out / "solution.field")
        assert field.grid.nodes_per_axis == (129,)
        assert (out / "residuals.csv").exists()
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["final_residual"] <= 1e-8

    def test_iteration_limit_exit_2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", one_d_config(out, max_iterations=2))
        assert main(["solve", "--config", cfg]) == 2
        assert (out / "residuals.csv").exists()  # history still written

    def test_malformed_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["solve", "--config", str(bad)]) == 1

    def test_unknown_key_exit_1(self, tmp_path):
        payload = one_d_config(tmp_path / "out")
        payload["mystery"] = True
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["solve", "--config", cfg]) == 1

    def test_missing_config_flag_usage_error(self):
        with pytest.raises(SystemExit):
            main(["solve"])


class TestDiagnoseCommand:
    def test_full_pipeline_radial(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth", "weiss", "monneau", "classify", "frequency"])
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        census = report["diagnostics"]["census"]
        assert census["total"] > 0
        assert census["regular"] == census["total"]  # all-regular fixture truth
        assert report["checks"]["solver_converged"]
        assert report["checks"]["growth_nondegenerate_all"]
        assert report["checks"]["weiss_nondecreasing_all"]
        for name in ("growth", "weiss_profiles", "monneau_profiles", "classifications", "frequency"):
            assert (out / f"{name}.csv").exists()
        assert (out / "field.pgm").exists() and (out / "contact.pgm").exists()
        assert (out / "solution.field").exists()

    def test_line_fixture_singular_census(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, ["classify"], nodes=129)
        payload["problem"]["boundary"] = {
            "fixture": "polynomial",
            "matrix": [[1.0, 0.0], [0.0, 0.0]],
        }
        payload["diagnostics"]["contact_kappa"] = 0.4
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        census = report["diagnostics"]["census"]
        assert census["singular"] > 0 and census["regular"] == 0
        assert census["singular_by_stratum"] == {"1": census["singular"]}

    def test_empty_selection_empty_report(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, [])
        payload["diagnostics"] = {}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"] == {}

    def test_missing_solution_file_exit_1(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"])
        payload["diagnostics"]["solution_file"] = str(tmp_path / "nope.field")
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "boundary",
        [
            {"fixture": "radial", "a": 1.5},  # contact disk leaves the box [-1, 1]^2
            {"fixture": "radial", "a": -0.5},
            {"fixture": "radial", "a": "x"},
        ],
        ids=["outside_box", "negative", "not_a_number"],
    )
    def test_bad_fixture_spec_exit_1(self, tmp_path, capsys, boundary):
        payload = radial_config(tmp_path / "out", ["growth"])
        payload["problem"]["boundary"] = boundary
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_solution_file_reused(self, tmp_path):
        out1 = tmp_path / "o1"
        cfg1 = write_config(
            tmp_path / "c1.json", radial_config(out1, ["growth"], radii=(0.1, 0.2))
        )
        assert main(["diagnose", "--config", cfg1]) == 0
        out2 = tmp_path / "o2"
        payload = radial_config(out2, ["growth"], radii=(0.1, 0.2))
        payload["diagnostics"]["solution_file"] = str(out1 / "solution.field")
        cfg2 = write_config(tmp_path / "c2.json", payload)
        assert main(["diagnose", "--config", cfg2]) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert r1["diagnostics"]["growth"] == r2["diagnostics"]["growth"]

    def test_classify_verb_runs_classification_only(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth", "weiss"])  # selection overridden by verb
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["classify", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "census" in report["diagnostics"]
        assert "growth" not in report["diagnostics"]

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            payload = radial_config(
                out, ["growth", "weiss", "monneau", "classify", "frequency"]
            )
            cfg = write_config(tmp_path / f"{tag}.json", payload)
            assert main(["diagnose", "--config", cfg, "--seed", "11"]) == 0
            outputs.append(out)
        a, b = outputs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_diagnostic_names_follow_run_order():
    assert [row[0] for row in cli.DIAGNOSTICS] == list(config.DIAGNOSTIC_NAMES)


class TestCsvArtifacts:
    @pytest.mark.parametrize(
        "make_config",
        [lambda out: radial_config(out, ALL_DIAGNOSTICS), isotropic_3d_config],
        ids=["radial_2d", "isotropic_3d"],
    )
    def test_csv_parses_back_to_report_numbers(self, tmp_path, make_config):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", make_config(out))
        assert main(["diagnose", "--config", cfg]) == 0
        checked = 0
        for name in CSV_FILES:
            header, rows = read_csv(out / name)
            numeric = [i for i, col in enumerate(header) if col not in TEXT_COLUMNS]
            for row in rows:
                for i in numeric:
                    for item in filter(None, row[i].split(";")):
                        float(item)  # raises on e.g. "np.float64(0.5)"
                        checked += 1
        assert checked > 0
        report = json.loads((out / "report.json").read_text())
        expected = [r for entry in report["diagnostics"]["growth"] for r in entry["ratios"]]
        header, rows = read_csv(out / "growth.csv")
        ratios = [float(row[header.index("ratio")]) for row in rows]
        assert expected and ratios == expected


PROFILE_KEYS = {
    "point",
    "radii",
    "values",
    "delta",
    "verdict",
    "violation_radius",
    "violation_amount",
    "advisory",
}
ENTRY_KEYS = {
    "growth": {
        "point",
        "radii",
        "ratios",
        "upper_constant",
        "lower_constant",
        "nondegenerate",
        "bounded",
        "slack",
    },
    "weiss": PROFILE_KEYS,
    "classification": {
        "point",
        "verdict",
        "weiss_value",
        "blowup_radius",
        "fit_residual",
        "direction",
        "matrix",
        "stratum",
        "reason",
        "contact_strip_halfwidth",
    },
    "monneau": PROFILE_KEYS | {"probe", "probe_index"},
    "frequency": {"point", "defined", "lambda_star", "r_squared", "radii", "sphere_norms"},
}


class TestReportSchema:
    @pytest.mark.parametrize(
        "make_config",
        [lambda out: radial_config(out, ALL_DIAGNOSTICS), isotropic_3d_config],
        ids=["radial_2d", "isotropic_3d"],
    )
    def test_report_keys(self, tmp_path, make_config):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", make_config(out))
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        diagnostics = report["diagnostics"]
        assert set(diagnostics) == set(ENTRY_KEYS) | {"census"}
        for block, keys in ENTRY_KEYS.items():
            for entry in diagnostics[block]:
                assert set(entry) == keys, block
        assert set(diagnostics["census"]) == {
            "total",
            "regular",
            "singular",
            "undetermined",
            "singular_by_stratum",
        }
        assert set(report["checks"]) == {
            "solver_converged",
            "growth_nondegenerate_all",
            "growth_bounded_all",
            "weiss_nondecreasing_all",
            "classification_all_determined",
            "monneau_nondecreasing_all",
        }


class TestReportCommand:
    def _diagnose(self, tmp_path, tag):
        out = tmp_path / tag
        cfg = write_config(
            tmp_path / f"{tag}.json", radial_config(out, ["growth", "weiss"])
        )
        assert main(["diagnose", "--config", cfg]) == 0
        return out / "report.json"

    def test_all_pass_exit_0(self, tmp_path, capsys):
        r1 = self._diagnose(tmp_path, "r1")
        assert main(["report", str(r1)]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_injected_failure_exit_3(self, tmp_path, capsys):
        r1 = self._diagnose(tmp_path, "r1")
        payload = json.loads(r1.read_text())
        payload["checks"]["growth_nondegenerate_all"] = False
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert main(["report", str(r1), str(broken)]) == 3
        err = capsys.readouterr().err
        assert "growth_nondegenerate_all" in err

    def test_empty_input_exit_1(self):
        assert main(["report"]) == 1

    def test_version_mismatch_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"report_version": 99, "checks": {}}))
        assert main(["report", str(bad)]) == 1
