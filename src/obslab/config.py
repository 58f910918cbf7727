"""Run configuration: versioned JSON schema, strictly validated.

Unknown keys are rejected at every level so that a config reruns
identically or fails loudly. An example:

.. code-block:: json

    {
      "version": 1,
      "problem": {
        "form": "normalized",
        "dimension": 2,
        "lower": [-1.0, -1.0],
        "upper": [1.0, 1.0],
        "nodes_per_axis": 257,
        "boundary": {"fixture": "radial", "a": 0.4}
      },
      "solver": {"method": "psor", "omega": 1.8,
                 "tolerance": 1e-8, "max_iterations": 200000},
      "diagnostics": {
        "selection": ["growth", "weiss", "monneau", "classify", "frequency"],
        "radii": [0.1, 0.15, 0.2, 0.25, 0.3]
      },
      "output": {"directory": "out", "rasters": true},
      "seed": 0
    }

``problem.form`` is ``normalized``, ``general`` (needs ``obstacle``), or
``fixture`` (the field *is* the sampled fixture; diagnostics only).
Fixture specs: ``{"fixture": "one_d"|"radial", "a": ...}``,
``{"fixture": "halfspace", "direction": [...]}``,
``{"fixture": "polynomial", "matrix": [[...], ...]}``, or
``{"constant": value}``. The optional ``diagnostics`` keys ``contact_kappa``,
``blowup_radius``, ``eigen_tol``, ``residual_margin``, ``weiss_margin`` and
``angular_samples`` default to ``freeboundary.DEFAULT_KAPPA`` and the fields
of ``analysis.ClassifierConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from . import fixtures
from .analysis import ClassifierConfig
from .freeboundary import DEFAULT_KAPPA
from .grid import GridSpec, ScalarField
from .solver import (
    ObstacleProblemSpec,
    SolverConfig,
    general_problem,
    normalized_problem,
)

CONFIG_VERSION = 1

DIAGNOSTIC_NAMES = ("growth", "weiss", "monneau", "classify", "frequency")


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _require_keys(section: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")


@dataclass(frozen=True)
class ProblemConfig:
    form: str  # "normalized" | "general" | "fixture"
    dimension: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes_per_axis: int
    boundary: dict
    obstacle: dict | None = None

    def grid(self) -> GridSpec:
        return GridSpec(
            lower=self.lower,
            upper=self.upper,
            nodes_per_axis=(self.nodes_per_axis,) * self.dimension,
        )


@dataclass(frozen=True)
class DiagnosticsConfig:
    selection: tuple[str, ...]
    radii: tuple[float, ...]
    contact_kappa: float = DEFAULT_KAPPA
    classifier: ClassifierConfig = ClassifierConfig()
    solution_file: str | None = None


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    solver: SolverConfig
    diagnostics: DiagnosticsConfig
    output_directory: str = "out"
    rasters: bool = True
    seed: int = 0


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(payload)


def parse_config(payload: dict) -> RunConfig:
    _require_keys(
        payload,
        "config",
        required=("version", "problem"),
        optional=("solver", "diagnostics", "output", "seed"),
    )
    if payload["version"] != CONFIG_VERSION:
        raise ConfigError(
            f"unsupported config version {payload['version']!r}; expected {CONFIG_VERSION}"
        )
    problem = _parse_problem(payload["problem"])
    solver = _parse_solver(payload.get("solver", {}))
    diagnostics = _parse_diagnostics(payload.get("diagnostics", {}))
    out = payload.get("output", {})
    _require_keys(out, "output", required=(), optional=("directory", "rasters"))
    directory = out.get("directory", "out")
    rasters = out.get("rasters", True)
    if not isinstance(rasters, bool):
        raise ConfigError("output.rasters must be a boolean")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return RunConfig(
        problem=problem,
        solver=solver,
        diagnostics=diagnostics,
        output_directory=str(directory),
        rasters=rasters,
        seed=seed,
    )


def _parse_problem(section: dict) -> ProblemConfig:
    _require_keys(
        section,
        "problem",
        required=("form", "dimension", "lower", "upper", "nodes_per_axis", "boundary"),
        optional=("obstacle",),
    )
    form = section["form"]
    if form not in ("normalized", "general", "fixture"):
        raise ConfigError(f"problem.form must be normalized|general|fixture, got {form!r}")
    dimension = section["dimension"]
    if dimension not in (1, 2, 3):
        raise ConfigError(f"problem.dimension must be 1, 2 or 3, got {dimension!r}")
    lower = tuple(float(v) for v in _as_vector(section["lower"], dimension, "problem.lower"))
    upper = tuple(float(v) for v in _as_vector(section["upper"], dimension, "problem.upper"))
    nodes = section["nodes_per_axis"]
    if not isinstance(nodes, int) or nodes < 3:
        raise ConfigError("problem.nodes_per_axis must be an integer >= 3")
    boundary = _check_source(section["boundary"], "problem.boundary")
    obstacle = None
    if form == "general":
        if "obstacle" not in section:
            raise ConfigError("general form requires problem.obstacle")
        obstacle = _check_source(section["obstacle"], "problem.obstacle")
    elif "obstacle" in section:
        raise ConfigError(f"problem.obstacle is only valid for the general form, not {form!r}")
    return ProblemConfig(
        form=form,
        dimension=dimension,
        lower=lower,
        upper=upper,
        nodes_per_axis=nodes,
        boundary=boundary,
        obstacle=obstacle,
    )


def _as_vector(value, dimension: int, where: str):
    if isinstance(value, (int, float)):
        return [value] * dimension
    if isinstance(value, list) and len(value) == dimension:
        return value
    raise ConfigError(f"{where} must be a number or a list of {dimension} numbers")


def _check_source(spec: dict, where: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    if "constant" in spec:
        _require_keys(spec, where, required=("constant",))
        if not isinstance(spec["constant"], (int, float)):
            raise ConfigError(f"{where}.constant must be a number")
        return spec
    if "fixture" not in spec:
        raise ConfigError(f"{where} needs either 'fixture' or 'constant'")
    kind = spec["fixture"]
    if kind in ("one_d", "radial"):
        _require_keys(spec, where, required=("fixture", "a"))
    elif kind == "halfspace":
        _require_keys(spec, where, required=("fixture", "direction"))
    elif kind == "polynomial":
        _require_keys(spec, where, required=("fixture", "matrix"))
    else:
        raise ConfigError(
            f"{where}.fixture must be one_d|radial|halfspace|polynomial, got {kind!r}"
        )
    return spec


def _parse_solver(section: dict) -> SolverConfig:
    _require_keys(
        section,
        "solver",
        required=(),
        optional=("method", "omega", "tolerance", "max_iterations"),
    )
    default = SolverConfig()
    try:
        return SolverConfig(
            method=section.get("method", default.method),
            omega=float(section.get("omega", default.omega)),
            tol=float(section.get("tolerance", default.tol)),
            max_iterations=int(section.get("max_iterations", default.max_iterations)),
        )
    except Exception as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def _parse_diagnostics(section: dict) -> DiagnosticsConfig:
    _require_keys(
        section,
        "diagnostics",
        required=(),
        optional=(
            "selection",
            "radii",
            "contact_kappa",
            "eigen_tol",
            "residual_margin",
            "weiss_margin",
            "blowup_radius",
            "angular_samples",
            "solution_file",
        ),
    )
    selection = tuple(section.get("selection", ()))
    for name in selection:
        if name not in DIAGNOSTIC_NAMES:
            raise ConfigError(f"unknown diagnostic {name!r}; valid: {DIAGNOSTIC_NAMES}")
    radii = tuple(float(r) for r in section.get("radii", ()))
    if selection and not radii:
        raise ConfigError("diagnostics.radii is required when diagnostics are selected")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("diagnostics.radii must be strictly increasing")
    kappa = float(section.get("contact_kappa", DEFAULT_KAPPA))
    if kappa <= 0:
        raise ConfigError("diagnostics.contact_kappa must be positive")
    default = ClassifierConfig()
    eigen_tol = float(section.get("eigen_tol", default.eigen_tol))
    if not 0 < eigen_tol < 1:
        raise ConfigError("diagnostics.eigen_tol must lie in (0, 1)")
    residual_margin = float(section.get("residual_margin", default.residual_margin))
    weiss_margin = float(section.get("weiss_margin", default.weiss_margin))
    if residual_margin < 0 or weiss_margin < 0:
        raise ConfigError("margins must be nonnegative")
    blowup = section.get("blowup_radius", default.blowup_radius)
    if blowup is not None:
        blowup = float(blowup)
        if blowup <= 0:
            raise ConfigError("diagnostics.blowup_radius must be positive")
    angular = int(section.get("angular_samples", default.angular_samples))
    if angular < 16:
        raise ConfigError("diagnostics.angular_samples must be >= 16")
    solution_file = section.get("solution_file")
    if solution_file is not None and not isinstance(solution_file, str):
        raise ConfigError("diagnostics.solution_file must be a path string")
    return DiagnosticsConfig(
        selection=selection,
        radii=radii,
        contact_kappa=kappa,
        classifier=ClassifierConfig(
            blowup_radius=blowup,
            eigen_tol=eigen_tol,
            residual_margin=residual_margin,
            weiss_margin=weiss_margin,
            angular_samples=angular,
        ),
        solution_file=solution_file,
    )


def build_fixture(spec: dict, dimension: int) -> fixtures.ReferenceSolution:
    kind = spec["fixture"]
    if kind == "one_d":
        if dimension != 1:
            raise ConfigError("one_d fixture requires dimension 1")
        return fixtures.one_d(float(spec["a"]))
    if kind == "radial":
        if dimension != 2:
            raise ConfigError("radial fixture requires dimension 2")
        return fixtures.radial(float(spec["a"]))
    if kind == "halfspace":
        direction = np.asarray(spec["direction"], dtype=float)
        if direction.shape != (dimension,):
            raise ConfigError(f"halfspace direction must have {dimension} components")
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ConfigError("halfspace direction must be nonzero")
        return fixtures.halfspace(direction / norm)
    if kind == "polynomial":
        matrix = np.asarray(spec["matrix"], dtype=float)
        if matrix.shape != (dimension, dimension):
            raise ConfigError(f"polynomial matrix must be {dimension}x{dimension}")
        try:
            return fixtures.polynomial(fixtures.QuadraticForm.from_matrix(matrix))
        except fixtures.FixtureError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown fixture {kind!r}")


def _source_values(spec: dict, grid: GridSpec) -> np.ndarray:
    if "constant" in spec:
        return np.full(grid.shape, float(spec["constant"]))
    ref = build_fixture(spec, grid.dimension)
    return ref.sample(grid).values


def build_field(config: RunConfig) -> ScalarField:
    """The sampled fixture field, for form == 'fixture' runs."""
    grid = config.problem.grid()
    return ScalarField(grid, _source_values(config.problem.boundary, grid))


def build_problem(config: RunConfig) -> ObstacleProblemSpec:
    if config.problem.form == "fixture":
        raise ConfigError("fixture-form configs carry a field, not a solvable problem")
    grid = config.problem.grid()
    boundary = _source_values(config.problem.boundary, grid)
    if config.problem.form == "normalized":
        return normalized_problem(grid, boundary)
    obstacle = ScalarField(grid, _source_values(config.problem.obstacle, grid))
    return general_problem(grid, obstacle, boundary)
