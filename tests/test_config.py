import json
from pathlib import Path

import pytest

from obslab.cli import main
from obslab.config import (
    ConfigError,
    DiagnosticsConfig,
    build_field,
    build_problem,
    load_config,
    parse_config,
)
from obslab.freeboundary import DEFAULT_KAPPA
from obslab.grid import DEFAULT_ANGULAR_SAMPLES
from obslab.solver import PROJECTED_GRADIENT, SolverConfig, SolverError

ROOT = Path(__file__).resolve().parents[1]


def shipped_configs():
    """The README example and the benchmark workload configs, by name."""
    readme = (ROOT / "README.md").read_text()
    example = readme.split("Example configuration:")[1].split("```json")[1].split("```")[0]
    configs = {"README": json.loads(example)}
    for path in sorted((ROOT / "perfbench" / "workloads").glob("*.json")):
        configs[path.stem] = json.loads(path.read_text())
    return configs


def base_payload():
    return {
        "version": 1,
        "problem": {
            "form": "normalized",
            "dimension": 1,
            "lower": [-1.0],
            "upper": [1.0],
            "nodes_per_axis": 65,
            "boundary": {"fixture": "one_d", "a": 0.5},
        },
        "solver": {"method": "psor", "omega": 1.8, "tolerance": 1e-8, "max_iterations": 5000},
        "diagnostics": {"selection": ["growth"], "radii": [0.1, 0.2]},
        "output": {"directory": "out"},
        "seed": 3,
    }


class TestParse:
    def test_full_roundtrip(self):
        cfg = parse_config(base_payload())
        assert cfg.problem.dimension == 1
        assert cfg.solver.omega == 1.8
        assert cfg.diagnostics.radii == (0.1, 0.2)
        assert cfg.seed == 3

    def test_defaults(self):
        payload = {"version": 1, "problem": base_payload()["problem"]}
        cfg = parse_config(payload)
        assert cfg.solver.method == "psor"
        assert cfg.diagnostics.selection == ()
        assert cfg.output_directory == "out"
        assert cfg.rasters is True

    def test_minimal_config_takes_owner_defaults(self):
        cfg = parse_config({"version": 1, "problem": base_payload()["problem"]})
        assert cfg.solver == SolverConfig()
        assert cfg.diagnostics.angular_samples == DEFAULT_ANGULAR_SAMPLES
        assert cfg.diagnostics.contact_kappa == DEFAULT_KAPPA

    def test_classifier_settings_parse_once(self):
        # angular_samples is the classifier's one setting that is a key
        payload = base_payload()
        payload["diagnostics"]["angular_samples"] = 32
        assert parse_config(payload).diagnostics.angular_samples == 32

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("contact_kappa", 0.0, "contact_kappa must be positive"),
            ("angular_samples", 8, "angular_samples must be >= 16"),
        ],
    )
    def test_diagnostics_settings_validated(self, key, value, message):
        payload = base_payload()
        payload["diagnostics"][key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("blowup_radius", 0.5),
            ("eigen_tol", 0.05),
            ("residual_margin", 0.05),
            ("weiss_margin", 0.1),
            ("blowup_radius", 0.0),
            ("blowup_radius", -1.0),
            ("eigen_tol", 0.0),
            ("eigen_tol", 1.0),
            ("eigen_tol", 5.0),
        ],
        ids=[
            "blowup_radius",
            "eigen_tol",
            "residual_margin",
            "weiss_margin",
            "blowup_radius_0",
            "blowup_radius_neg",
            "eigen_tol_0",
            "eigen_tol_1",
            "eigen_tol_5",
        ],
    )
    def test_deleted_classifier_key_refused(self, key, value):
        # the classifier's other settings are analysis constants, so a config
        # that sets one fails loudly, at the constant's value or at a value
        # the old range rule refused
        payload = base_payload()
        payload["diagnostics"][key] = value
        with pytest.raises(ConfigError, match=rf"^diagnostics\.{key} is an unknown key; "):
            parse_config(payload)

    def test_unknown_top_level_key_rejected(self):
        payload = base_payload()
        payload["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(payload)

    def test_unknown_nested_key_rejected(self):
        payload = base_payload()
        payload["solver"]["relax"] = 1.5
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(payload)

    def test_version_pinned(self):
        payload = base_payload()
        payload["version"] = 2
        with pytest.raises(ConfigError, match="version"):
            parse_config(payload)

    def test_integers_read_as_numbers(self):
        payload = base_payload()
        payload["problem"].update(lower=[-1], upper=[1])
        payload["solver"]["omega"] = 1
        cfg = parse_config(payload)
        assert cfg.problem.lower == (-1.0,) and type(cfg.problem.lower[0]) is float
        assert type(cfg.solver.omega) is float

    def test_omega_refused_for_projected_gradient(self, tmp_path, capsys):
        # projected gradient never reads omega, so a config that sets it is refused
        payload = base_payload()
        payload["solver"]["method"] = PROJECTED_GRADIENT
        with pytest.raises(ConfigError, match=r"^solver\.omega "):
            parse_config(payload)
        payload["output"]["directory"] = str(tmp_path / "out")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver.omega ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        del payload["solver"]["omega"]
        assert parse_config(payload).solver == SolverConfig(
            method=PROJECTED_GRADIENT, tol=1e-8, max_iterations=5000
        )

    def test_radii_must_increase(self):
        payload = base_payload()
        payload["diagnostics"]["radii"] = [0.2, 0.1]
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(payload)

    def test_rejected_values_quoted_in_short_form(self):
        long_radii = base_payload()
        long_radii["diagnostics"]["radii"] = [0.1] * 500 + ["x"]
        long_text = base_payload()
        long_text["solver"]["method"] = ["x" * 1000]
        for payload in (list(range(1000)), long_radii, long_text):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(payload)
            assert len(str(excinfo.value)) <= 120, str(excinfo.value)

    def test_fixture_kind_checked(self):
        payload = base_payload()
        payload["problem"]["boundary"] = {"fixture": "mystery"}
        with pytest.raises(ConfigError):
            parse_config(payload)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"version": 1, "seed": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(shipped_configs()))
    def test_parses_and_builds(self, name):
        cfg = parse_config(shipped_configs()[name])
        build = build_field if cfg.problem.form == "fixture" else build_problem
        assert build(cfg).grid == cfg.problem.grid()


class TestOwnerRanges:
    """Each settings dataclass checks its own ranges, with messages that
    start with the setting's config key."""

    @pytest.mark.parametrize(
        "settings",
        [{"contact_kappa": 0.0}, {"angular_samples": 8}],
        ids=["contact_kappa", "angular_samples"],
    )
    def test_diagnostics_config_refuses(self, settings):
        (key,) = settings
        defaults = dict(contact_kappa=DEFAULT_KAPPA, angular_samples=DEFAULT_ANGULAR_SAMPLES)
        with pytest.raises(ConfigError, match=f"^{key} "):
            DiagnosticsConfig((), (), **{**defaults, **settings}, solution_file=None)

    @pytest.mark.parametrize(
        "settings, key",
        [
            ({"method": "newton"}, "method"),
            ({"omega": 2.0}, "omega"),
            ({"tol": 0.0}, "tolerance"),
            ({"max_iterations": 0}, "max_iterations"),
        ],
    )
    def test_solver_config_refuses(self, settings, key):
        with pytest.raises(SolverError, match=f"^{key} "):
            SolverConfig(**settings)


class TestBuild:
    def test_normalized_problem(self):
        cfg = parse_config(base_payload())
        problem = build_problem(cfg)
        assert problem.source == 1.0
        assert (problem.obstacle == 0.0).all()
        assert problem.grid.nodes_per_axis == (65,)

    def test_fixture_field(self):
        payload = base_payload()
        payload["problem"]["form"] = "fixture"
        cfg = parse_config(payload)
        field = build_field(cfg)
        assert field.values.min() == 0.0
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_halfspace_direction_normalized(self):
        payload = base_payload()
        payload["problem"].update(
            {
                "dimension": 2,
                "lower": [-1.0, -1.0],
                "upper": [1.0, 1.0],
                "boundary": {"fixture": "halfspace", "direction": [2.0, 0.0]},
            }
        )
        cfg = parse_config(payload)
        field = build_field(cfg)
        assert field.values.max() > 0

    def test_polynomial_matrix_must_be_admissible(self):
        payload = base_payload()
        payload["problem"].update(
            {
                "dimension": 2,
                "lower": [-1.0, -1.0],
                "upper": [1.0, 1.0],
                "boundary": {"fixture": "polynomial", "matrix": [[2.0, 0.0], [0.0, 0.0]]},
            }
        )
        with pytest.raises(ConfigError):
            build_field(parse_config(payload))

    def test_config_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_payload()))
        cfg = load_config(path)
        assert cfg.problem.nodes_per_axis == 65
