"""Run configuration: versioned JSON schema, strictly validated.

Unknown keys are rejected at every level so that a config reruns
identically or fails loudly. Every value is read by one type rule
(:func:`_typed`). Each range rule belongs to the dataclass that holds the
setting, or to ``grid``, and its message starts with the setting's key.
An example:

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

``solver.omega`` is read by PSOR only; a config that sets it together with
``method: projected_gradient`` is refused. ``problem.form`` is
``normalized``, ``general`` (needs ``obstacle``), or
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

from dataclasses import dataclass, fields
import json
import reprlib
import sys

import numpy as np

from . import fixtures
from .analysis import ClassifierConfig
from .freeboundary import DEFAULT_KAPPA
from .grid import GridSpec, ScalarField, require_increasing
from .solver import (
    PROJECTED_GRADIENT,
    PSOR,
    ObstacleProblemSpec,
    SolverConfig,
    SolverError,
    general_problem,
    normalized_problem,
)

CONFIG_VERSION = 1

# The diagnostics in the order a diagnose run performs them.
DIAGNOSTIC_NAMES = ("growth", "weiss", "classify", "monneau", "frequency")
FORMS = ("normalized", "general", "fixture")


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass(frozen=True)
class ProblemConfig:
    form: str  # "normalized" | "general" | "fixture"
    dimension: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes_per_axis: int
    boundary: fixtures.ReferenceSolution | float
    obstacle: fixtures.ReferenceSolution | float | None

    def __post_init__(self) -> None:
        if self.form not in FORMS:
            raise ConfigError(f"form must be {'|'.join(FORMS)}, got {self.form!r}")
        if self.dimension not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {self.dimension!r}")
        for name in ("lower", "upper"):
            if type(getattr(self, name)) is float:  # one number for every axis
                object.__setattr__(self, name, (getattr(self, name),) * self.dimension)
        if (self.obstacle is None) == (self.form == "general"):
            raise ConfigError(f"obstacle is given for the general form only (form {self.form!r})")
        self.grid()  # GridSpec owns the box and node-count rules

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
    contact_kappa: float
    classifier: ClassifierConfig
    solution_file: str | None

    def __post_init__(self) -> None:
        for name in self.selection:
            if name not in DIAGNOSTIC_NAMES:
                raise ConfigError(f"selection holds {name!r}, not one of {DIAGNOSTIC_NAMES}")
        if self.selection and not self.radii:
            raise ConfigError("radii is required when diagnostics are selected")
        require_increasing(self.radii)
        if not self.contact_kappa > 0:
            raise ConfigError(f"contact_kappa must be positive, got {self.contact_kappa}")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    solver: SolverConfig
    diagnostics: DiagnosticsConfig
    output_directory: str
    rasters: bool
    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_TYPE_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string", dict: "object"}


def _type_name(kind) -> str:
    """``number``, ``list of numbers``, ``list of lists of numbers``, ..."""
    if isinstance(kind, tuple):
        return " or ".join(map(_type_name, kind))
    if isinstance(kind, list):
        head, _, rest = _type_name(kind[0]).partition(" ")
        return f"list of {head}s {rest}".rstrip()
    return _TYPE_NAMES[kind]


def _typed(value, kind):
    """``value`` read as ``kind`` by the one type rule, or None if it does
    not fit: a float is a JSON number that a float holds finitely (NaN,
    Infinity and 1e400 do not fit; an integer becomes a float) and an int a
    JSON integer, neither a boolean; other kinds match exactly. ``[k]`` is
    a list of ``k``, read as a tuple; a tuple of kinds takes the first that
    fits."""
    if isinstance(kind, tuple):
        for alternative in kind:
            if (typed := _typed(value, alternative)) is not None:
                return typed
    elif isinstance(kind, list) and type(value) is list:
        items = tuple(_typed(item, kind[0]) for item in value)
        return None if None in items else items
    elif kind is float:
        if type(value) in (float, int) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    return None


def _read(section: dict, where: str, kinds: dict) -> dict:
    """Each key of ``kinds`` (key: ``(kind, default)``, ``...`` for none)
    read from the JSON object ``section`` by :func:`_typed`, and no other
    key; JSON null reads as an absent key whose default is None. ``where``
    prefixes the key in messages."""
    unknown = sorted(set(section) - set(kinds))
    if unknown:
        raise ConfigError(f"{where}{unknown[0]} is an unknown key; valid: {', '.join(kinds)}")
    values = {}
    for key, (kind, default) in kinds.items():
        value = section.get(key)
        if value is None and (key not in section or default is None):
            if default is ...:
                raise ConfigError(f"{where}{key} is required")
            values[key] = default
        elif (typed := _typed(value, kind)) is None:
            got = reprlib.repr(value)
            raise ConfigError(f"{where}{key} must be a JSON {_type_name(kind)}, got {got}")
        else:
            values[key] = typed
    return values


def _owned(owner, where: str, *args, **settings):
    """``owner(*args, **settings)``; the owner's range error, which starts
    with the setting's key, raised as a ConfigError prefixed by ``where``."""
    try:
        return owner(*args, **settings)
    except (ValueError, SolverError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:  # malformed JSON, an over-long integer, non-UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(payload)


def parse_config(payload: dict) -> RunConfig:
    if type(payload) is not dict:
        raise ConfigError(f"the config must be a JSON object, got {reprlib.repr(payload)}")
    top = _read(
        payload,
        "",
        dict(
            version=(int, ...),
            problem=(dict, ...),
            solver=(dict, {}),
            diagnostics=(dict, {}),
            output=(dict, {}),
            seed=(int, 0),
        ),
    )
    if top["version"] != CONFIG_VERSION:
        raise ConfigError(f"version must be {CONFIG_VERSION}, got {top['version']}")
    output = _read(top["output"], "output.", dict(directory=(str, "out"), rasters=(bool, True)))
    return RunConfig(
        problem=_parse_problem(top["problem"]),
        solver=_parse_solver(top["solver"]),
        diagnostics=_parse_diagnostics(top["diagnostics"]),
        output_directory=output["directory"],
        rasters=output["rasters"],
        seed=top["seed"],
    )


def _parse_problem(section: dict) -> ProblemConfig:
    values = _read(
        section,
        "problem.",
        dict(
            form=(str, ...),
            dimension=(int, ...),
            lower=((float, [float]), ...),
            upper=((float, [float]), ...),
            nodes_per_axis=(int, ...),
            boundary=(dict, ...),
            obstacle=(dict, None),
        ),
    )
    for name in ("boundary", "obstacle"):
        if values[name] is not None:
            values[name] = _parse_source(values[name], f"problem.{name}: ")
    return _owned(ProblemConfig, "problem.", **values)


def _unit_halfspace(direction) -> fixtures.ReferenceSolution:
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise fixtures.FixtureError("halfspace direction must be nonzero")
    return fixtures.halfspace(np.asarray(direction) / norm)


def _polynomial(matrix) -> fixtures.ReferenceSolution:
    return fixtures.polynomial(fixtures.QuadraticForm.from_matrix(matrix))


# Each fixture's parameter key and kind, and the builder that takes it.
_FIXTURES = dict(
    one_d=("a", float, fixtures.one_d),
    radial=("a", float, fixtures.radial),
    halfspace=("direction", [float], _unit_halfspace),
    polynomial=("matrix", [[float]], _polynomial),
)


def _parse_source(spec: dict, where: str) -> fixtures.ReferenceSolution | float:
    """A boundary or obstacle spec, checked and built: a constant as a
    float, a fixture as its reference solution. Its messages read
    ``<where><key> ...``, ``where`` ending in a colon."""
    if "constant" in spec:
        return _read(spec, where, dict(constant=(float, ...)))["constant"]
    name = spec.get("fixture")
    if type(name) is not str or name not in _FIXTURES:
        raise ConfigError(f"{where}fixture must be {'|'.join(_FIXTURES)}, got {name!r}")
    key, kind, build = _FIXTURES[name]
    value = _read(spec, where, {"fixture": (str, ...), key: (kind, ...)})[key]
    return _owned(build, where, value)


def _parse_solver(section: dict) -> SolverConfig:
    default = SolverConfig()
    values = _read(
        section,
        "solver.",
        dict(
            method=(str, default.method),
            omega=(float, default.omega),
            tolerance=(float, default.tol),
            max_iterations=(int, default.max_iterations),
        ),
    )
    if values["method"] == PROJECTED_GRADIENT and "omega" in section:
        raise ConfigError(f"solver.omega is read by {PSOR} only, not by {PROJECTED_GRADIENT}")
    values["tol"] = values.pop("tolerance")
    return _owned(SolverConfig, "solver.", **values)


def _parse_diagnostics(section: dict) -> DiagnosticsConfig:
    # Every ClassifierConfig field is a key: an integer where its default is one.
    settings = {
        f.name: (int if type(f.default) is int else float, f.default)
        for f in fields(ClassifierConfig)
    }
    values = _read(
        section,
        "diagnostics.",
        dict(
            selection=([str], ()),
            radii=([float], ()),
            contact_kappa=(float, DEFAULT_KAPPA),
            solution_file=(str, None),
            **settings,
        ),
    )
    classifier = _owned(ClassifierConfig, "diagnostics.", **{k: values.pop(k) for k in settings})
    return _owned(DiagnosticsConfig, "diagnostics.", classifier=classifier, **values)


def _sampled(problem: ProblemConfig, name: str) -> ScalarField:
    """The boundary or obstacle source ``name`` on the problem grid; sampling
    a fixture checks its dimension and that its contact region fits the box."""
    source, grid = getattr(problem, name), problem.grid()
    if isinstance(source, float):
        return ScalarField(grid, np.full(grid.shape, source))
    return _owned(source.sample, f"problem.{name}: ", grid)


def build_field(config: RunConfig) -> ScalarField:
    """The sampled fixture field, for form == 'fixture' runs."""
    return _sampled(config.problem, "boundary")


def build_problem(config: RunConfig) -> ObstacleProblemSpec:
    if config.problem.form == "fixture":
        raise ConfigError("fixture-form configs carry a field, not a solvable problem")
    boundary = _sampled(config.problem, "boundary")
    if config.problem.form == "normalized":
        return normalized_problem(boundary.grid, boundary.values)
    return general_problem(boundary.grid, _sampled(config.problem, "obstacle"), boundary.values)
