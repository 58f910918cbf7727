"""Command-line driver.

Verbs::

    obslab solve    --config cfg.json [--out DIR]           solve + write field
    obslab diagnose --config cfg.json [--out DIR] [--seed N]
    obslab report   REPORT.json [REPORT.json ...]           merge + pass/fail matrix

A classification-only run is ``diagnose`` with ``"selection": ["classify"]``.
Exit codes: 0 ok, 1 usage/config error, 2 non-convergence, 3 acceptance
failure. Identical config + seed produce byte-identical CSV/JSON/PGM outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import reprlib
import sys
from pathlib import Path

import numpy as np

from . import analysis, freeboundary, io
from .config import ConfigError, RunConfig, build_field, build_problem, load_config
from .grid import GridError, ScalarField, admissible_radii
from .solver import IterationLimitError, SolverError, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ACCEPTANCE = 3

REPORT_VERSION = 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2, the code of non-convergence
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ConfigError, GridError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, IterationLimitError) else EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    solve_verb = sub.add_parser("solve", help="solve the configured problem")
    diagnose = sub.add_parser("diagnose", help="run the configured diagnostics")
    for verb in (solve_verb, diagnose):
        verb.add_argument("--config", required=True, help="JSON run configuration")
        verb.add_argument("--out", help="output directory (overrides config)")
    diagnose.add_argument("--seed", type=int, help="probe-form seed (overrides config)")
    rep = sub.add_parser("report", help="merge reports into a pass/fail matrix")
    rep.add_argument("reports", nargs="*", help="report JSON files")
    solve_verb.set_defaults(run=_cmd_solve)
    diagnose.set_defaults(run=_cmd_diagnose)
    rep.set_defaults(run=_cmd_report)
    return parser


def _load(args) -> tuple[RunConfig, Path]:
    config = load_config(args.config)
    return config, Path(args.out if args.out is not None else config.output_directory)


def _cmd_solve(args) -> int:
    config, out_dir = _load(args)
    _, summary = _solved(config, out_dir)
    io.write_json(out_dir / "solve_summary.json", summary)
    print(f"solved in {summary['iterations']} iterations; outputs in {out_dir}")
    return EXIT_OK


def _solved(config: RunConfig, out_dir: Path):
    """The solution of the configured problem and its summary. Creates
    ``out_dir`` once the problem is built and writes ``residuals.csv`` (also
    when the iteration limit stops the solve, whose error is re-raised) and
    ``solution.field``."""
    problem = build_problem(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = solve(problem, config.solver)
    except IterationLimitError as exc:
        _write_residuals(out_dir, exc.recorded_iterations, exc.residual_history)
        raise
    _write_residuals(out_dir, result.recorded_iterations, result.residual_history)
    io.write_field(out_dir / "solution.field", result.solution)
    return result.solution, {
        "iterations": result.iterations,
        "final_residual": float(result.residual_history[-1]),
        "final_energy": result.final_energy,
        "method": config.solver.method,
        "tolerance": config.solver.tol,
    }


def _write_residuals(out_dir: Path, iterations, history) -> None:
    """The recorded residuals, each with its iteration number."""
    io.write_csv(out_dir / "residuals.csv", ["iteration", "residual"], zip(iterations, history))


def _obtain_field(config: RunConfig, out_dir: Path):
    """The field to diagnose, its contact set, and a solver summary when it
    was solved. A field file must lie on the problem's grid; one refused for
    its grid or its values is named in the error."""
    diag = config.diagnostics
    if diag.solution_file is None:
        if config.problem.form == "fixture":
            field, solver_summary = build_field(config), None
        else:
            field, solver_summary = _solved(config, out_dir)
        return field, freeboundary.extract_contact_set(field, diag.contact_kappa), solver_summary
    path, grid = Path(diag.solution_file), config.problem.grid()
    if not path.exists():
        raise ConfigError(f"solution file {path} does not exist")
    try:
        field = io.read_field(path)
        if field.grid != grid:
            raise ConfigError(f"solution file {path} holds {field.grid}, not the problem's {grid}")
        return field, freeboundary.extract_contact_set(field, diag.contact_kappa), None
    except io.FieldFormatError:
        raise  # its message names the file
    except GridError as exc:
        raise type(exc)(f"{exc} (solution file {path})") from exc


def _cmd_diagnose(args) -> int:
    config, out_dir = _load(args)
    if args.seed is not None:  # RunConfig's rule checks the override too
        config = dataclasses.replace(config, seed=args.seed)
    field, contact, solver_summary = _obtain_field(config, out_dir)
    diag = config.diagnostics

    fb = freeboundary.extract_free_boundary(contact)
    grid = field.grid
    report: dict = {
        "report_version": REPORT_VERSION,
        "seed": config.seed,
        "grid": _entry(grid, dimension=grid.dimension, h=grid.h),
        "solver": solver_summary,
        "contact": {
            "kappa": contact.kappa,
            "epsilon": contact.epsilon,
            "contact_nodes": int(contact.mask.sum()),
            "free_boundary_nodes": len(fb),
        },
        "diagnostics": {},
        "checks": {},
    }
    if solver_summary is not None:
        report["checks"]["solver_converged"] = solver_summary["final_residual"] <= config.solver.tol

    radii = dict(zip(map(tuple, fb.points.tolist()), admissible_radii(grid, fb.points, diag.radii)))
    run = _Run(field, contact, fb, diag.angular_samples, config.seed, radii)
    point_columns = [f"x{a}" for a in range(grid.dimension)]
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, filename, columns, diagnostic in DIAGNOSTICS:
        if name in diag.selection:
            blocks, rows, checks = diagnostic(run)
            io.write_csv(out_dir / filename, [*point_columns, *columns.split()], rows)
            report["diagnostics"].update(blocks)
            report["checks"].update(checks)

    if config.rasters and grid.dimension == 2:
        io.write_pgm(out_dir / "field.pgm", field.values)
        io.write_pgm(out_dir / "contact.pgm", contact.mask.astype(float))

    io.write_json(out_dir / "report.json", report)
    print(f"diagnostics written to {out_dir}")
    return EXIT_OK


@dataclasses.dataclass
class _Run:
    """What the diagnostics of one diagnose run share."""

    field: ScalarField
    contact: freeboundary.ContactSet
    fb: freeboundary.FreeBoundarySet
    angular_samples: int
    seed: int
    radii: dict  # free-boundary point -> its admissible radii
    classifications: list | None = None  # set by classify, read by monneau and frequency

    def admissible(self, least: int, points=None) -> tuple[list, list]:
        """The points among ``points`` (default: the free boundary) whose
        balls fit at least ``least`` of the configured radii, and their radii."""
        candidates = self.radii if points is None else points
        kept = [p for p in candidates if len(self.radii[p]) >= least]
        return kept, [self.radii[p] for p in kept]

    def singular_forms(self) -> dict:
        """Fitted blow-up form per singular point; empty unless classify ran."""
        singular = [c for c in self.classifications or () if c.verdict == analysis.SINGULAR]
        return {c.point: c.form for c in singular}


def _entry(result, **extra) -> dict:
    """A report entry: every field of a dataclass as a JSON value (a fitted
    ``form`` as its ``matrix``), followed by ``extra``."""
    entry = {}
    for f in dataclasses.fields(result):
        key, value = f.name, getattr(result, f.name)
        if key == "form":
            key, value = "matrix", None if value is None else value.matrix
        entry[key] = np.asarray(value).tolist() if isinstance(value, (tuple, np.ndarray)) else value
    return {**entry, **extra}


def _profile_rows(point, profile, *key) -> list[tuple]:
    pairs = zip(profile.radii, profile.values)
    return [(*point, *key, r, v, profile.delta, profile.verdict) for r, v in pairs]


def _joined(values) -> str:
    """A vector or matrix as one CSV cell: row-major, ';'-separated."""
    return "" if values is None else ";".join(repr(v) for v in np.ravel(values).tolist())


def _nondecreasing_all(entries) -> bool:
    return all(e["advisory"] or e["verdict"] == analysis.NONDECREASING for e in entries)


def _growth(run: _Run):
    entries, rows = [], []
    points, radii = run.admissible(1)
    for point, rep in zip(points, freeboundary.growth_report(run.field, points, radii)):
        entries.append(_entry(rep))
        pairs = zip(rep.radii, rep.ratios)
        rows += [(*point, r, ratio, rep.nondegenerate, rep.bounded) for r, ratio in pairs]
    checks = {
        "growth_nondegenerate_all": all(e["nondegenerate"] for e in entries),
        "growth_bounded_all": all(e["bounded"] for e in entries),
    }
    return {"growth": entries}, rows, checks


def _weiss(run: _Run):
    points, radii = run.admissible(2)
    profiles = analysis.weiss_profile(run.field, points, radii, angular_samples=run.angular_samples)
    entries, rows = [], []
    for point, profile in zip(points, profiles):
        entries.append(_entry(profile, point=list(point)))
        rows += _profile_rows(point, profile)
    return {"weiss": entries}, rows, {"weiss_nondecreasing_all": _nondecreasing_all(entries)}


def _classify(run: _Run):
    run.classifications, census = analysis.stratify(run.field, run.fb, run.angular_samples)
    singular = [c for c in run.classifications if c.verdict == analysis.SINGULAR]
    points, forms = [c.point for c in singular], [c.form for c in singular]
    radii = [analysis.STRIP_RADIUS_FACTOR * c.blowup_radius for c in singular]
    strips = analysis.contact_strip_halfwidth(
        run.contact.mask, run.field.grid, points, forms, radii
    )
    strips, entries, rows = iter(strips), [], []
    for c in run.classifications:
        strip = next(strips) if c.verdict == analysis.SINGULAR else None
        entry = _entry(c, contact_strip_halfwidth=strip)
        entries.append(entry)
        joined = [_joined(entry["direction"]), _joined(entry["matrix"])]
        rows.append((*c.point, c.verdict, c.weiss_value, c.fit_residual, *joined, c.stratum))
    blocks = {"classification": entries, "census": census}
    return blocks, rows, {"classification_all_determined": census["undetermined"] == 0}


def _monneau(run: _Run):
    """Monneau profiles against the probe set, at singular points when the
    classifier ran (advisory at generic free-boundary points otherwise). The
    probes are drawn only when some point is profiled."""
    singular = run.classifications is not None
    points, radii = run.admissible(2, run.singular_forms() if singular else None)
    probes = analysis.probe_forms(run.field.grid.dimension, run.seed) if points else []
    samples = run.angular_samples
    profiles = analysis.monneau_profile(
        run.field, points, probes, radii, angular_samples=samples, at_singular_point=singular
    )
    entries, rows = [], []
    for point, point_profiles in zip(points, profiles):
        for k, (probe, profile) in enumerate(zip(probes, point_profiles)):
            entries.append(
                _entry(profile, point=list(point), probe=probe.matrix.tolist(), probe_index=k)
            )
            rows += _profile_rows(point, profile, k)
    return {"monneau": entries}, rows, {"monneau_nondecreasing_all": _nondecreasing_all(entries)}


def _frequency(run: _Run):
    """Sphere-norm decay exponents at singular points, against their own
    fitted blow-up forms."""
    forms = run.singular_forms()
    points, radii = run.admissible(2, forms)
    estimates = analysis.frequency_lambda(
        run.field, points, [forms[p] for p in points], radii, run.angular_samples
    )
    entries, rows = [], []
    for point, est in zip(points, estimates):
        entries.append(_entry(est, point=list(point)))
        rows.append((*point, est.defined, est.lambda_star, est.r_squared))
    return {"frequency": entries}, rows, {}


# The diagnostics in run order: selection name, CSV file, CSV columns after
# the point coordinates, and the function returning (report blocks, CSV rows,
# checks). Monneau and frequency read the classifications that classify sets.
DIAGNOSTICS = (
    ("growth", "growth.csv", "radius ratio nondegenerate bounded", _growth),
    ("weiss", "weiss_profiles.csv", "radius weiss delta verdict", _weiss),
    (
        "classify",
        "classifications.csv",
        "verdict weiss fit_residual direction matrix stratum",
        _classify,
    ),
    ("monneau", "monneau_profiles.csv", "probe radius monneau delta verdict", _monneau),
    ("frequency", "frequency.csv", "defined lambda_star r_squared", _frequency),
)


def _cmd_report(args) -> int:
    if not args.reports:
        raise ConfigError("no report files given")
    merged = [(path, _report_checks(path)) for path in args.reports]
    names = sorted({name for _, checks in merged for name in checks})
    failures = []
    rows = [["check", *(path for path, _ in merged)]]
    for name in names:
        cells = [name]
        for path, checks in merged:
            if name not in checks:
                cells.append("-")
            elif checks[name]:
                cells.append("pass")
            else:
                cells.append("FAIL")
                failures.append((name, path))
        rows.append(cells)
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if failures:
        for name, path in failures:
            print(f"FAIL: {name} in {path}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    print("all checks passed")
    return EXIT_OK


def _report_checks(path) -> dict:
    """The checks of a report file, which must be a JSON object of this
    report version whose ``checks`` is an object of JSON booleans."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    checks = payload.get("checks") if type(payload) is dict else None
    if type(checks) is not dict or any(type(v) is not bool for v in checks.values()):
        raise ConfigError(f"report {path} must be a JSON object whose checks are JSON booleans")
    version = payload.get("report_version")
    if type(version) is not int or version != REPORT_VERSION:
        version = reprlib.repr(version)
        raise ConfigError(f"report {path} has version {version}, expected {REPORT_VERSION}")
    return checks


if __name__ == "__main__":
    sys.exit(main())
