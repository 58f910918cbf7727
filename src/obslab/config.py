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
from .grid import MIN_ANGULAR_SAMPLES, GridSpec, ScalarField
from .solver import (
    ObstacleProblemSpec,
    SolverConfig,
    general_problem,
    normalized_problem,
)

CONFIG_VERSION = 1

# The diagnostics in the order a diagnose run performs them.
DIAGNOSTIC_NAMES = ("growth", "weiss", "classify", "monneau", "frequency")


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
    boundary: fixtures.ReferenceSolution | float
    obstacle: fixtures.ReferenceSolution | float | None = None

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
    boundary = _parse_source(section["boundary"], "problem.boundary", dimension)
    obstacle = None
    if form == "general":
        if "obstacle" not in section:
            raise ConfigError("general form requires problem.obstacle")
        obstacle = _parse_source(section["obstacle"], "problem.obstacle", dimension)
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


# The parameter key of each fixture kind.
_FIXTURE_PARAMETERS = dict(one_d="a", radial="a", halfspace="direction", polynomial="matrix")


def _parse_source(spec: dict, where: str, dimension: int) -> fixtures.ReferenceSolution | float:
    """A boundary or obstacle spec, checked and built: a constant as a
    float, a fixture as its reference solution."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    if "constant" in spec:
        _require_keys(spec, where, required=("constant",))
        if not isinstance(spec["constant"], (int, float)):
            raise ConfigError(f"{where}.constant must be a number")
        return float(spec["constant"])
    if "fixture" not in spec:
        raise ConfigError(f"{where} needs either 'fixture' or 'constant'")
    kind = spec["fixture"]
    if not isinstance(kind, str) or kind not in _FIXTURE_PARAMETERS:
        raise ConfigError(f"{where}.fixture must be {'|'.join(_FIXTURE_PARAMETERS)}, got {kind!r}")
    _require_keys(spec, where, required=("fixture", _FIXTURE_PARAMETERS[kind]))
    try:
        if kind in ("one_d", "radial"):
            ref = (fixtures.one_d if kind == "one_d" else fixtures.radial)(float(spec["a"]))
        elif kind == "halfspace":
            direction = np.asarray(spec["direction"], dtype=float)
            norm = np.linalg.norm(direction)
            if norm == 0:
                raise fixtures.FixtureError("halfspace direction must be nonzero")
            ref = fixtures.halfspace(direction / norm)
        else:
            ref = fixtures.polynomial(fixtures.QuadraticForm.from_matrix(spec["matrix"]))
        if ref.dimension != dimension:
            raise fixtures.FixtureError(f"{kind} fixture is {ref.dimension}D, not {dimension}D")
        return ref
    except (TypeError, ValueError) as exc:  # a FixtureError, or a parameter that is no number
        raise ConfigError(f"{where}: {exc}") from exc


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


def _number(section: dict, key: str, default) -> float:
    """diagnostics.<key>, or the default, as a float; JSON numbers only."""
    value = section.get(key, default)
    if type(value) not in (int, float):
        raise ConfigError(f"diagnostics.{key} must be a number, got {value!r}")
    return float(value)


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
    radii = section.get("radii", [])
    if type(radii) is not list or any(type(r) not in (int, float) for r in radii):
        raise ConfigError(f"diagnostics.radii must be a list of numbers, got {radii!r}")
    radii = tuple(float(r) for r in radii)
    if selection and not radii:
        raise ConfigError("diagnostics.radii is required when diagnostics are selected")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("diagnostics.radii must be strictly increasing")
    kappa = _number(section, "contact_kappa", DEFAULT_KAPPA)
    if kappa <= 0:
        raise ConfigError("diagnostics.contact_kappa must be positive")
    default = ClassifierConfig()
    eigen_tol = _number(section, "eigen_tol", default.eigen_tol)
    if not 0 < eigen_tol < 1:
        raise ConfigError("diagnostics.eigen_tol must lie in (0, 1)")
    residual_margin = _number(section, "residual_margin", default.residual_margin)
    weiss_margin = _number(section, "weiss_margin", default.weiss_margin)
    if residual_margin < 0 or weiss_margin < 0:
        raise ConfigError("margins must be nonnegative")
    blowup = section.get("blowup_radius", default.blowup_radius)
    if blowup is not None:
        blowup = _number(section, "blowup_radius", None)
        if blowup <= 0:
            raise ConfigError("diagnostics.blowup_radius must be positive")
    angular = section.get("angular_samples", default.angular_samples)
    if type(angular) is not int or angular < MIN_ANGULAR_SAMPLES:
        raise ConfigError(f"diagnostics.angular_samples must be >= {MIN_ANGULAR_SAMPLES} (an int)")
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


def _source_values(
    source: fixtures.ReferenceSolution | float, grid: GridSpec, where: str
) -> np.ndarray:
    if isinstance(source, float):
        return np.full(grid.shape, source)
    try:
        return source.sample(grid).values
    except fixtures.FixtureError as exc:  # e.g. a contact region that leaves the box
        raise ConfigError(f"{where}: {exc}") from exc


def build_field(config: RunConfig) -> ScalarField:
    """The sampled fixture field, for form == 'fixture' runs."""
    grid = config.problem.grid()
    return ScalarField(grid, _source_values(config.problem.boundary, grid, "problem.boundary"))


def build_problem(config: RunConfig) -> ObstacleProblemSpec:
    if config.problem.form == "fixture":
        raise ConfigError("fixture-form configs carry a field, not a solvable problem")
    grid = config.problem.grid()
    boundary = _source_values(config.problem.boundary, grid, "problem.boundary")
    if config.problem.form == "normalized":
        return normalized_problem(grid, boundary)
    obstacle = ScalarField(grid, _source_values(config.problem.obstacle, grid, "problem.obstacle"))
    return general_problem(grid, obstacle, boundary)
