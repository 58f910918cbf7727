import argparse
import csv
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from obslab import analysis, cli, config, freeboundary
from obslab.cli import main
from obslab.fixtures import QuadraticForm, polynomial
from obslab.grid import GridSpec, ScalarField, centered_box
from obslab.io import read_field, write_field

ROOT = Path(__file__).resolve().parents[1]

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
            "lower": [-1.0, -1.0, -1.0],
            "upper": [1.0, 1.0, 1.0],
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


def thin_cylinder_config(out_dir, nodes, selection):
    """A 3D fixture whose thin contact cylinder along x2 fits more singular
    points (stratum 1) in a blow-up ball the longer the grid."""
    payload = isotropic_3d_config(out_dir)
    payload["problem"].update(form="fixture", nodes_per_axis=nodes)
    payload["problem"]["boundary"]["matrix"] = [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]
    payload["diagnostics"].update(selection=selection, radii=[0.45, 0.5], contact_kappa=0.3)
    return payload


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

    def test_fixture_config_exit_1_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"], nodes=33)
        payload["problem"]["form"] = "fixture"
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["solve", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: fixture-form configs")
        assert not out.exists()

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
        assert main(["solve"]) == 1


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

    def test_radius_admitted_at_the_face_is_not_refused(self, tmp_path, capsys):
        # the interface node near 0.2 on [-0.9, 1.3] lies 1.1 from both faces
        # up to rounding: a radius of 1.1 is admitted or left out by the
        # test the quadratures apply, never refused after admission
        out = tmp_path / "out"
        payload = one_d_config(out)
        payload["problem"].update(
            lower=[-0.9], upper=[1.3], nodes_per_axis=33, boundary={"fixture": "one_d", "a": 0.1}
        )
        payload["diagnostics"] = {"selection": ALL_DIAGNOSTICS, "radii": [0.3, 1.1]}
        assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 0
        assert capsys.readouterr().err == ""
        growth = json.loads((out / "report.json").read_text())["diagnostics"]["growth"]
        assert len(growth) == 4

    def test_empty_selection_empty_report(self, tmp_path):
        out = tmp_path / "out"
        payload = radial_config(out, [])
        payload["diagnostics"] = {}
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"] == {}

    def test_missing_solution_file_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"])
        payload["diagnostics"]["solution_file"] = str(tmp_path / "nope.field")
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: solution file ")
        assert not out.exists()  # refused before its first write

    @pytest.mark.parametrize(
        "value, prefix",
        [(np.nan, "error: field contains non-finite"), (-1.0, "error: field has values down to")],
        ids=["nan", "negative"],
    )
    def test_refused_solution_file_exit_1(self, tmp_path, capsys, value, prefix):
        path = tmp_path / "bad.field"
        write_field(path, ScalarField(centered_box(2, 1.0, 33), np.zeros((33, 33))))
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, len(data) - 8 * 40, value)  # a node of row 31
        path.write_bytes(bytes(data))
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"], nodes=33)
        payload["diagnostics"]["solution_file"] = str(path)
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix)
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage", ["short_header", "overflowing_count", "trailing_bytes", "dimension_4"]
    )
    def test_malformed_solution_file_exit_1(self, tmp_path, capsys, damage):
        path = tmp_path / "bad.field"
        write_field(path, ScalarField(centered_box(2, 1.0, 33), np.zeros((33, 33))))
        data = bytearray(path.read_bytes())
        if damage == "short_header":
            data = data[:20]
        elif damage == "overflowing_count":
            struct.pack_into("<2I", data, 12, 2**31, 2**31)
        elif damage == "dimension_4":
            struct.pack_into("<I", data, 8, 4)  # the dimension, after the magic
        else:
            data += b"\x00" * 8
        path.write_bytes(bytes(data))
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"], nodes=33)
        payload["diagnostics"]["solution_file"] = str(path)
        assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_fit_without_positive_eigenvalue_is_undetermined(self, tmp_path):
        # an admissible field (above -kappa h^2 at kappa = 2) whose only
        # non-contact node is the origin: the quadratic fits of the blow-ups
        # at its four neighbours have no positive eigenvalue
        grid = centered_box(2, 1.0, 129)
        values = np.full(grid.shape, -1.2 * grid.h**2)
        values[64, 64] = 4.0 * grid.h**2
        write_field(tmp_path / "u.field", ScalarField(grid, values))
        out = tmp_path / "out"
        payload = radial_config(out, ["classify"], nodes=129)
        payload["diagnostics"]["solution_file"] = str(tmp_path / "u.field")
        assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 0
        report = json.loads((out / "report.json").read_text())
        census = report["diagnostics"]["census"]
        assert census["total"] == census["undetermined"] == 4
        entries = report["diagnostics"]["classification"]
        assert {e["reason"] for e in entries} == {"quadratic fit has no positive eigenvalue"}
        assert report["checks"]["classification_all_determined"] is False

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
        assert capsys.readouterr().err.startswith("error: problem.boundary: ")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("contact_kappa", "abc", "must be a JSON number"),
            # the classifier's eigen_tol and blowup_radius are constants, not keys
            ("eigen_tol", "q", "is an unknown key; "),
            ("blowup_radius", "z", "is an unknown key; "),
            ("radii", ["a"], "must be a JSON list of numbers"),
            ("radii", 0.3, "must be a JSON list of numbers"),
            ("angular_samples", "x", "must be a JSON integer"),
            ("angular_samples", 16.9, "must be a JSON integer"),
        ],
        ids=["kappa", "eigen_tol", "blowup", "radius_text", "radii_scalar", "samples", "samples_16.9"],
    )
    def test_bad_diagnostics_value_exit_1(self, tmp_path, capsys, key, value, message):
        payload = radial_config(tmp_path / "out", ["growth"])
        payload["diagnostics"][key] = value
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: diagnostics.{key} {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, value, prefix",
        [
            (("solver", "max_iterations"), 2.5, "solver.max_iterations "),
            (("solver", "max_iterations"), "7", "solver.max_iterations "),
            (("solver", "tolerance"), "1e-8", "solver.tolerance "),
            (("solver", "omega"), True, "solver.omega "),
            (("seed",), True, "seed "),
            (("output", "directory"), 5, "output.directory "),
            (("problem", "dimension"), 2.0, "problem.dimension "),
            (("problem", "lower"), True, "problem.lower "),
            (("problem", "lower"), ["-1", "-1"], "problem.lower "),
            (("problem", "boundary", "a"), True, "problem.boundary: "),
            (("problem", "boundary", "a"), "0.5", "problem.boundary: "),
            (("problem", "boundary"), {"constant": True}, "problem.boundary: "),
            # one spelling per setting: bounds are lists, null is no value, and
            # no key names an obstacle
            (("problem", "lower"), -1.0, "problem.lower must be a JSON list of numbers, "),
            (("problem", "obstacle"), None, "problem.obstacle is an unknown key; "),
            (("diagnostics", "solution_file"), None, "diagnostics.solution_file must be a "),
        ],
        ids=[
            "iterations_2.5",
            "iterations_text",
            "tolerance_text",
            "omega_true",
            "seed_true",
            "directory_5",
            "dimension_2.0",
            "lower_true",
            "lower_text",
            "a_true",
            "a_text",
            "constant_true",
            "scalar_lower",
            "obstacle_null",
            "solution_file_null",
        ],
    )
    def test_wrong_json_type_exit_1(self, tmp_path, capsys, monkeypatch, path, value, prefix):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted output.directory lands here
        payload = radial_config(tmp_path / "out", ["growth"])
        payload["problem"].update(lower=[-2.0, -2.0], upper=[2.0, 2.0])  # room for "a": 1
        *sections, key = path
        target = payload
        for name in sections:
            target = target[name]
        target[key] = value
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, text, prefix",
        [
            (("diagnostics", "radii"), "[NaN]", "diagnostics.radii "),
            (("problem", "lower"), "[-Infinity, -1.0]", "problem.lower "),
            (("solver", "omega"), "1" + "0" * 400, "solver.omega "),
            (("solver", "tolerance"), "1e400", "solver.tolerance "),
            (("solver", "omega"), "1" + "0" * 5000, "cannot read config "),
            (("seed",), "-1", "seed "),
        ],
        ids=[
            "radii_nan",
            "lower_infinity",
            "omega_overflow",
            "tolerance_1e400",
            "omega_5001_digits",
            "seed_negative",
        ],
    )
    def test_non_finite_or_out_of_range_number_exit_1(self, tmp_path, capsys, path, text, prefix):
        payload = radial_config(tmp_path / "out", ["growth"])
        *sections, key = path
        target = payload
        for name in sections:
            target = target[name]
        target[key] = "SENTINEL"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(payload).replace('"SENTINEL"', text))
        assert main(["diagnose", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert err.count("\n") == 1
        assert len(err) <= 200 + len(str(cfg))  # rejected values are quoted in short form
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", radial_config(tmp_path / "out", ["monneau"]))
        assert main(["diagnose", "--config", cfg, "--seed", "-2"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -2\n"

    def test_iteration_limit_exit_2_writes_residuals(self, tmp_path, capsys):
        out = tmp_path / "out"
        payload = radial_config(out, ["growth"], nodes=33)
        payload["solver"]["max_iterations"] = 2
        cfg = write_config(tmp_path / "c.json", payload)
        assert main(["diagnose", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: no convergence in 2 iterations")
        header, rows = read_csv(out / "residuals.csv")
        assert header == ["iteration", "residual"] and [r[0] for r in rows] == ["1", "2"]
        assert sorted(p.name for p in out.iterdir()) == ["residuals.csv"]

    def test_solved_run_writes_residuals(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", radial_config(out, ["growth"], nodes=33))
        assert main(["diagnose", "--config", cfg]) == 0
        _, rows = read_csv(out / "residuals.csv")
        report = json.loads((out / "report.json").read_text())
        assert rows[0][0] == "1" and int(rows[-1][0]) == report["solver"]["iterations"]
        assert float(rows[-1][1]) == report["solver"]["final_residual"]

    def test_coordinates_built_once_per_run(self, tmp_path, monkeypatch):
        # The per-point diagnostics read their node coordinates from the rule
        # offsets, the cached unit-ball nodes and the contact mask, so the runs
        # build the same number of coordinate arrays whatever the number of
        # free-boundary points.
        calls = {"node_positions": 0, "axis": 0}
        for name in calls:
            method = getattr(GridSpec, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(GridSpec, name, counted)
        counts, singular = [], []
        for nodes in (19, 21):
            out = tmp_path / str(nodes)
            payload = thin_cylinder_config(out, nodes, ["classify", "monneau", "frequency"])
            cfg = write_config(tmp_path / f"{nodes}.json", payload)
            analysis.unit_ball_nodes.cache_clear()
            calls.update(node_positions=0, axis=0)
            assert main(["diagnose", "--config", cfg]) == 0
            counts.append(dict(calls))
            report = json.loads((out / "report.json").read_text())
            singular.append(report["diagnostics"]["census"]["singular"])
            assert len(report["diagnostics"]["monneau"]) > 0
        assert singular[0] < singular[1]
        assert counts[0] == counts[1]

    def test_finiteness_scanned_once_per_field(self, tmp_path, monkeypatch):
        # Each field is checked finite when it is made, so the full-grid
        # finiteness scans of a run do not grow with its free-boundary points.
        isfinite, shape, scans = np.isfinite, [None], []

        def counted(x, *args, **kwargs):
            if np.shape(x) == shape[0]:
                scans[-1] += 1
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        points = []
        for nodes in (19, 21):
            out = tmp_path / str(nodes)
            cfg = write_config(
                tmp_path / f"{nodes}.json", thin_cylinder_config(out, nodes, ALL_DIAGNOSTICS)
            )
            shape[0] = (nodes,) * 3
            scans.append(0)
            assert main(["diagnose", "--config", cfg]) == 0
            report = json.loads((out / "report.json").read_text())
            points.append(len(report["diagnostics"]["growth"]))
            assert report["diagnostics"]["census"]["singular"] > 0
        assert points[0] < points[1]
        assert 0 < scans[0] == scans[1]

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

    def test_classify_selection_runs_classification_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", radial_config(out, ["classify"]))
        assert main(["diagnose", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["diagnostics"]) == {"classification", "census"}

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


def diagnose_field(tmp_path, fn):
    """The report of ``diagnose`` (growth and Weiss) on ``fn`` sampled on
    [-1, 1]^2 at 257 nodes, read from a solution file by a fixture-form
    config with the README radii."""
    grid = centered_box(2, 1.0, 257)
    values = fn(grid.node_positions()).reshape(grid.shape)
    write_field(tmp_path / "u.field", ScalarField(grid, values))
    out = tmp_path / "out"
    payload = radial_config(out, ["growth", "weiss"], nodes=257, radii=(0.1, 0.15, 0.2, 0.25, 0.3))
    payload["problem"]["form"] = "fixture"
    payload["diagnostics"]["solution_file"] = str(tmp_path / "u.field")
    assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 0
    return json.loads((out / "report.json").read_text())


class TestNegativeControls:
    """Fields that break a check's premise must turn the check false, on
    points that the check evaluated."""

    def test_cubic_growth_is_degenerate(self, tmp_path):
        # sup u / r^2 of (x_1)_+^3 / 6 vanishes as r falls
        report = diagnose_field(tmp_path, lambda p: np.maximum(p[:, 0], 0.0) ** 3 / 6)
        assert len(report["diagnostics"]["growth"]) > 0
        assert report["checks"]["growth_nondegenerate_all"] is False

    @pytest.mark.xfail(
        strict=True,
        reason="the 10x stability window passes r^-1/2 growth over radii 0.1 to 0.3",
    )
    def test_three_halves_growth_is_unbounded(self, tmp_path):
        # sup u / r^2 of (x_1)_+^(3/2) grows like r^(-1/2) as r falls
        report = diagnose_field(tmp_path, lambda p: np.maximum(p[:, 0], 0.0) ** 1.5)
        assert len(report["diagnostics"]["growth"]) > 0
        assert report["checks"]["growth_bounded_all"] is False

    def test_bump_breaks_weiss_monotonicity(self, tmp_path):
        # the half-space profile plus a bump near the free boundary: W rises
        # at small radii, then falls
        def bumped(p):
            bump = 0.05 * np.exp(-np.sum((p - [0.05, 0.0]) ** 2, axis=1) / 0.03**2)
            return 0.5 * np.maximum(p[:, 0], 0.0) ** 2 + bump

        report = diagnose_field(tmp_path, bumped)
        profiles = report["diagnostics"]["weiss"]
        assert len(profiles) > 0
        assert any(e["verdict"] == analysis.VIOLATED and not e["advisory"] for e in profiles)
        assert report["checks"]["weiss_nondecreasing_all"] is False


def assert_close(value, expected, rtol=1e-12):
    value, expected = np.asarray(value, dtype=float), np.asarray(expected, dtype=float)
    assert value.shape == expected.shape
    assert (np.abs(value - expected) <= rtol * np.abs(expected)).all()


class TestBatchedDiagnostics:
    """``diagnose`` runs growth, Weiss, Monneau and frequency one radius at a
    time over all points; each entry must be what the same function gives
    with its point alone."""

    def assert_matches_per_point(self, out, samples):
        report = json.loads((out / "report.json").read_text())
        diagnostics = report["diagnostics"]
        field = read_field(out / "solution.field")
        for entry in diagnostics["growth"]:
            (rep,) = freeboundary.growth_report(field, [entry["point"]], [entry["radii"]])
            assert_close(entry["ratios"], rep.ratios)
            assert (entry["nondegenerate"], entry["bounded"]) == (rep.nondegenerate, rep.bounded)
        for entry in diagnostics["weiss"]:
            (profile,) = analysis.weiss_profile(
                field, [entry["point"]], [entry["radii"]], angular_samples=samples
            )
            assert_close(entry["values"], profile.values)
            assert entry["verdict"] == profile.verdict
        singular = "classification" in diagnostics
        for entry in diagnostics["monneau"]:
            probe = QuadraticForm.from_matrix(entry["probe"])
            ((profile,),) = analysis.monneau_profile(
                field, [entry["point"]], [probe], [entry["radii"]], angular_samples=samples,
                at_singular_point=singular,
            )
            assert_close(entry["values"], profile.values, rtol=1e-12)
            assert (entry["verdict"], entry["advisory"]) == (profile.verdict, profile.advisory)
        matrices = {
            tuple(c["point"]): c["matrix"]
            for c in diagnostics.get("classification", ())
            if c["verdict"] == analysis.SINGULAR
        }
        for entry in diagnostics.get("frequency", ()):
            form = QuadraticForm.from_matrix(matrices[tuple(entry["point"])])
            (estimate,) = analysis.frequency_lambda(
                field, [entry["point"]], [form], [entry["radii"]], angular_samples=samples
            )
            assert entry["defined"] == estimate.defined
            assert_close(entry["sphere_norms"], estimate.sphere_norms)
            if estimate.defined:
                assert_close(entry["lambda_star"], estimate.lambda_star)
        return diagnostics

    def test_radial_2d_matches_per_point_functions(self, tmp_path):
        # no classify, so Monneau profiles every point against the probes
        out = tmp_path / "out"
        payload = radial_config(out, ["growth", "weiss", "monneau"], nodes=129)
        assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 0
        diagnostics = self.assert_matches_per_point(out, analysis.DEFAULT_ANGULAR_SAMPLES)
        assert len(diagnostics["growth"]) > 0 and len(diagnostics["monneau"]) > 0

    def test_polynomial_3d_matches_per_point_functions(self, tmp_path):
        out = tmp_path / "out"
        payload = isotropic_3d_config(out)
        assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 0
        diagnostics = self.assert_matches_per_point(out, 16)
        assert len(diagnostics["monneau"]) > 0 and len(diagnostics["frequency"]) > 0

    def test_monneau_stays_exactly_zero_among_other_points(self):
        # the origin's profile against the field's own form is exactly zero,
        # evaluated in one batch with points where it is not
        grid = centered_box(3, 1.0, 33)
        probes = analysis.probe_forms(3, seed=3)
        field = polynomial(probes[-1]).sample(grid)
        points = [(0.0, 0.0, 0.0), (0.125, 0.0, -0.0625), (0.25, 0.25, 0.0)]
        radii = [[0.3, 0.4, 0.5]] * len(points)
        profiles = analysis.monneau_profile(field, points, probes, radii)
        assert (profiles[0][-1].values == 0.0).all()
        assert all((p.values > 0.0).all() for p in profiles[1])

    def test_no_probe_forms_without_a_profiled_point(self, tmp_path, monkeypatch):
        # all radial points are regular, so Monneau profiles none of them and
        # draws no probe forms
        reports = []
        for tag in ("unpatched", "refused"):
            if tag == "refused":

                def refuse(*args, **kwargs):
                    raise AssertionError("probe forms drawn with no point to profile")

                monkeypatch.setattr(analysis, "probe_forms", refuse)
            out = tmp_path / tag
            payload = radial_config(out, ALL_DIAGNOSTICS)
            cfg = write_config(tmp_path / f"{tag}.json", payload)
            assert main(["diagnose", "--config", cfg]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[1])["diagnostics"]["monneau"] == []


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

    def test_columns_headed_by_path_and_aligned(self, tmp_path, capsys):
        paths = []
        reports = {"a": {"x_all": True, "long_check_name": True}, "b/c": {"x_all": False}}
        for tag, checks in reports.items():
            path = tmp_path / tag / "report.json"
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps({"report_version": 1, "checks": checks}))
            paths.append(str(path))
        assert main(["report", *paths]) == 3
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["check", *paths]
        starts = [header.index(p) for p in paths]
        cells = {row.split()[0]: [row[s : s + 4].strip() for s in starts] for row in rows}
        assert cells == {"long_check_name": ["pass", "-"], "x_all": ["pass", "FAIL"]}

    def test_empty_input_exit_1(self):
        assert main(["report"]) == 1

    def test_version_mismatch_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"report_version": 99, "checks": {}}))
        assert main(["report", str(bad)]) == 1

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer_1(self, tmp_path, capsys, version):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"report_version": version, "checks": {"x": True}}))
        assert main(["report", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: report {bad} has version ")

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"report_version": 1, "checks": [1]},
            {"report_version": 1, "checks": {"growth_bounded_all": "false"}},
            {"report_version": 1, "checks": {"growth_bounded_all": 0}},
            {"report_version": 1},
        ],
        ids=["list", "checks_list", "check_string", "check_number", "no_checks"],
    )
    def test_malformed_report_exit_1(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["report", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: report {bad} must be a JSON object")
        assert captured.err.count("\n") == 1


def refused_diagnose(tmp_path, capsys, payload, prefix):
    """Assert that ``diagnose`` on ``payload``, whose output directory is
    ``tmp_path / "out"``, exits 1 with one error line starting with
    ``prefix`` and creates no output directory."""
    assert main(["diagnose", "--config", write_config(tmp_path / "c.json", payload)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


class TestUsageErrors:
    """argparse's usage errors exit 1, like every refused input: exit 2
    means the iteration limit."""

    @pytest.mark.parametrize(
        "argv",
        [["bogus"], ["diagnose"], ["diagnose", "--config", "c.json", "--seed", "abc"], []],
        ids=["unknown_verb", "no_config", "seed_not_integer", "no_verb"],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: obslab") and "error: " in err

    def test_help_exit_0(self, capsys):
        assert main(["diagnose", "-h"]) == 0
        assert "--seed" in capsys.readouterr().out

    def test_usage_error_exit_code_of_the_process(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "obslab.cli", "bogus"], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "invalid choice: 'bogus'" in done.stderr


class TestDeletedSpellings:
    """Each run has one spelling; the others are refused before any output."""

    def test_classify_verb_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", radial_config(out, ["classify"], nodes=33))
        assert main(["classify", "--config", cfg]) == 1
        assert "invalid choice: 'classify'" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_seed_flag_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", one_d_config(out))
        assert main(["solve", "--config", cfg, "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not out.exists()


class TestRefusals:
    """Refused inputs: one error line, exit 1, and no output directory."""

    @pytest.mark.parametrize(
        "path, message",
        [
            (("version",), "version is required"),
            (("problem", "nodes_per_axis"), "problem.nodes_per_axis is required"),
            (("problem", "boundary", "a"), "problem.boundary: a is required"),
        ],
        ids=["version", "nodes_per_axis", "fixture_parameter"],
    )
    def test_missing_required_key(self, tmp_path, capsys, path, message):
        payload = radial_config(tmp_path / "out", ["growth"], nodes=33)
        *sections, key = path
        target = payload
        for name in sections:
            target = target[name]
        del target[key]
        refused_diagnose(tmp_path, capsys, payload, f"error: {message}")

    @pytest.mark.parametrize(
        "problem, diagnostics, message",
        [
            ({"form": "solved"}, {}, "problem.form must be normalized|fixture, "),
            ({"form": "general"}, {}, "problem.form must be normalized|fixture, got 'general'"),
            ({"obstacle": {"constant": 0.0}}, {}, "problem.obstacle is an unknown key; "),
            (
                {"boundary": {"constant": -0.5}},
                {},
                "problem.boundary: boundary data must satisfy f >= phi on boundary nodes",
            ),
            ({"dimension": 4}, {}, "problem.dimension must be 1, 2 or 3, got 4"),
            ({}, {"selection": ["growth", "census"]}, "diagnostics.selection holds 'census'"),
            ({}, {"radii": []}, "diagnostics.radii is required when diagnostics are selected"),
            (
                {"boundary": {"fixture": "halfspace", "direction": [0.0, 0.0]}},
                {},
                "problem.boundary: halfspace direction must be nonzero",
            ),
        ],
        ids=[
            "form",
            "general_form",
            "obstacle",
            "negative_boundary",
            "dimension",
            "selection_name",
            "selection_without_radii",
            "zero_direction",
        ],
    )
    def test_refused_setting(self, tmp_path, capsys, problem, diagnostics, message):
        payload = radial_config(tmp_path / "out", ["growth"], nodes=33)
        payload["problem"].update(problem)
        payload["diagnostics"].update(diagnostics)
        refused_diagnose(tmp_path, capsys, payload, f"error: {message}")

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["unreadable", "not_json"])
    def test_report_file_refused(self, tmp_path, capsys, content):
        path = tmp_path / "report.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read report {path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec((-1.0, -1.0), (1.0, 1.0), (65, 65)),
            GridSpec((-1.0, -0.5), (1.0, 1.5), (33, 33)),
            GridSpec((-1.0,) * 3, (1.0,) * 3, (33, 33, 33)),
        ],
        ids=["nodes", "box", "dimension"],
    )
    def test_solution_file_off_the_problem_grid_refused(self, tmp_path, capsys, grid):
        # the configured problem grid is [-1, 1]^2 at 33 nodes per axis
        path = tmp_path / "u.field"
        write_field(path, ScalarField(grid, np.zeros(grid.shape)))
        payload = radial_config(tmp_path / "out", ["growth"], nodes=33)
        payload["diagnostics"]["solution_file"] = str(path)
        refused_diagnose(tmp_path, capsys, payload, f"error: solution file {path} holds ")


def test_readme_command_block_names_the_parser_verbs_and_flags():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```sh")[1].split("```")[0]
    lines = block.strip().splitlines()
    documented = {line.split()[1]: set(re.findall(r"--[a-z]+", line)) for line in lines}
    parser = cli._build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        verb: {s for a in sub._actions for s in a.option_strings if s.startswith("--")} - {"--help"}
        for verb, sub in verbs.choices.items()
    }
    assert documented == flags
