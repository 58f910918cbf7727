"""Command-line driver.

Verbs::

    obslab solve    --config cfg.json [--out DIR]           solve + write field
    obslab diagnose --config cfg.json [--out DIR] [--seed N]
    obslab classify --config cfg.json ...                   classification only
    obslab report   REPORT.json [REPORT.json ...]           merge + pass/fail matrix

Exit codes: 0 ok, 1 usage/config error, 2 non-convergence, 3 acceptance
failure. Identical config + seed produce byte-identical CSV/JSON/PGM outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, freeboundary, io
from .config import ConfigError, RunConfig, build_field, build_problem, load_config
from .grid import GridError, ScalarField
from .solver import IterationLimitError, SolverError, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_ACCEPTANCE = 3

REPORT_VERSION = 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args, selection_override=None)
        if args.command == "classify":
            return _cmd_diagnose(args, selection_override=("classify",))
        if args.command == "report":
            return _cmd_report(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, GridError, SolverError, OSError) as exc:
        if isinstance(exc, IterationLimitError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obslab", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="probe-form seed (overrides config)")

    add_common(sub.add_parser("solve", help="solve the configured problem"))
    add_common(sub.add_parser("diagnose", help="run the configured diagnostics"))
    add_common(sub.add_parser("classify", help="run classification diagnostics only"))
    rep = sub.add_parser("report", help="merge reports into a pass/fail matrix")
    rep.add_argument("reports", nargs="*", help="report JSON files")
    return parser


def _load(args) -> tuple[RunConfig, Path, int]:
    config = load_config(args.config)
    out_dir = io.ensure_directory(args.out if args.out is not None else config.output_directory)
    seed = args.seed if args.seed is not None else config.seed
    return config, out_dir, seed


def _cmd_solve(args) -> int:
    config, out_dir, _ = _load(args)
    problem = build_problem(config)
    try:
        result = solve(problem, config.solver)
    except IterationLimitError as exc:
        _write_residuals(out_dir, exc.residual_history)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    io.write_field(out_dir / "solution.field", result.solution)
    _write_residuals(out_dir, result.residual_history)
    io.write_json(out_dir / "solve_summary.json", _solve_summary(config, result))
    print(f"solved in {result.iterations} iterations; outputs in {out_dir}")
    return EXIT_OK


def _write_residuals(out_dir: Path, history) -> None:
    rows = [(k + 1, float(r)) for k, r in enumerate(history)]
    io.write_csv(out_dir / "residuals.csv", ["iteration", "residual"], rows)


def _obtain_field(config: RunConfig, out_dir: Path):
    """The field to diagnose, plus an optional solver summary."""
    diag = config.diagnostics
    if diag.solution_file is not None:
        path = Path(diag.solution_file)
        if not path.exists():
            raise ConfigError(f"solution file {path} does not exist")
        return io.read_field(path), None
    if config.problem.form == "fixture":
        return build_field(config), None
    problem = build_problem(config)
    result = solve(problem, config.solver)
    io.write_field(out_dir / "solution.field", result.solution)
    return result.solution, _solve_summary(config, result)


def _solve_summary(config: RunConfig, result) -> dict:
    return {
        "iterations": result.iterations,
        "final_residual": float(result.residual_history[-1]),
        "final_energy": result.final_energy,
        "method": config.solver.method,
        "tolerance": config.solver.tol,
    }


def _admissible_radii(field: ScalarField, point, radii) -> list[float]:
    """Radii whose balls stay inside the box and above the 4h floor."""
    grid = field.grid
    margin = min(
        min(point[a] - grid.lower[a], grid.upper[a] - point[a]) for a in range(grid.dimension)
    )
    return [r for r in radii if 4.0 * grid.h <= r <= margin]


def _cmd_diagnose(args, selection_override) -> int:
    config, out_dir, seed = _load(args)
    field, solver_summary = _obtain_field(config, out_dir)
    diag = config.diagnostics
    selection = selection_override if selection_override is not None else diag.selection

    contact = freeboundary.extract_contact_set(field, diag.contact_kappa)
    fb = freeboundary.extract_free_boundary(contact)
    grid = field.grid
    report: dict = {
        "report_version": REPORT_VERSION,
        "seed": seed,
        "grid": {
            "dimension": grid.dimension,
            "nodes_per_axis": list(grid.nodes_per_axis),
            "lower": list(grid.lower),
            "upper": list(grid.upper),
            "h": grid.h,
        },
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
    checks = report["checks"]
    if solver_summary is not None:
        checks["solver_converged"] = solver_summary["final_residual"] <= config.solver.tol

    if "growth" in selection:
        _run_growth(field, fb, diag, out_dir, report)
    if "weiss" in selection:
        _run_weiss(field, fb, diag, out_dir, report)
    classifications = None
    if "classify" in selection:
        classifications = _run_classify(field, fb, diag, contact, out_dir, report)
    if "monneau" in selection:
        _run_monneau(field, fb, diag, seed, out_dir, report, classifications)
    if "frequency" in selection:
        _run_frequency(field, diag, out_dir, report, classifications)

    if config.rasters and grid.dimension == 2:
        io.write_pgm(out_dir / "field.pgm", field.values)
        io.write_pgm(out_dir / "contact.pgm", contact.mask.astype(float))

    io.write_json(out_dir / "report.json", report)
    print(f"diagnostics written to {out_dir}")
    return EXIT_OK


def _run_growth(field, fb, diag, out_dir, report) -> None:
    rows = []
    entries = []
    all_nondeg = True
    all_bounded = True
    for point in fb.points:
        radii = _admissible_radii(field, point, diag.radii)
        if not radii:
            continue
        rep = freeboundary.growth_report(field, point, radii)
        all_nondeg &= rep.nondegenerate
        all_bounded &= rep.bounded
        entries.append(
            {
                "point": list(rep.point),
                "radii": [float(r) for r in rep.radii],
                "ratios": [float(v) for v in rep.ratios],
                "upper_constant": rep.upper_constant,
                "lower_constant": rep.lower_constant,
                "nondegenerate": rep.nondegenerate,
                "bounded": rep.bounded,
                "slack": rep.slack,
            }
        )
        for r, ratio in zip(rep.radii, rep.ratios):
            rows.append((*rep.point, float(r), float(ratio), rep.nondegenerate, rep.bounded))
    io.write_csv(
        out_dir / "growth.csv",
        [*_point_columns(field), "radius", "ratio", "nondegenerate", "bounded"],
        rows,
    )
    report["diagnostics"]["growth"] = entries
    report["checks"]["growth_nondegenerate_all"] = bool(all_nondeg)
    report["checks"]["growth_bounded_all"] = bool(all_bounded)


def _point_columns(field) -> list[str]:
    return [f"x{a}" for a in range(field.grid.dimension)]


def _run_weiss(field, fb, diag, out_dir, report) -> None:
    evaluator = analysis.WeissEvaluator(field, diag.angular_samples)
    rows = []
    entries = []
    all_mono = True
    for point in fb.points:
        radii = _admissible_radii(field, point, diag.radii)
        if len(radii) < 2:
            continue
        profile = analysis.weiss_profile(
            field, point, radii, angular_samples=diag.angular_samples, _evaluator=evaluator
        )
        all_mono &= profile.nondecreasing
        entries.append(_profile_entry(point, profile))
        for r, v in zip(profile.radii, profile.values):
            rows.append((*point, float(r), float(v), profile.delta, profile.verdict))
    io.write_csv(
        out_dir / "weiss_profiles.csv",
        [*_point_columns(field), "radius", "weiss", "delta", "verdict"],
        rows,
    )
    report["diagnostics"]["weiss"] = entries
    report["checks"]["weiss_nondecreasing_all"] = bool(all_mono)


def _profile_entry(point, profile) -> dict:
    return {
        "point": [float(c) for c in point],
        "radii": [float(r) for r in profile.radii],
        "values": [float(v) for v in profile.values],
        "delta": profile.delta,
        "verdict": profile.verdict,
        "violation_radius": profile.violation_radius,
        "violation_amount": profile.violation_amount,
        "advisory": profile.advisory,
    }


def _run_classify(field, fb, diag, contact, out_dir, report):
    cfg = analysis.ClassifierConfig(
        blowup_radius=diag.blowup_radius,
        eigen_tol=diag.eigen_tol,
        residual_margin=diag.residual_margin,
        weiss_margin=diag.weiss_margin,
        angular_samples=diag.angular_samples,
    )
    classifications, cens = analysis.stratify(field, fb, cfg)
    rows = []
    entries = []
    for c in classifications:
        direction = list(c.direction) if c.direction is not None else None
        matrix = c.form.matrix.tolist() if c.form is not None else None
        strip = None
        if c.verdict == analysis.SINGULAR and c.blowup_radius is not None:
            strip = analysis.contact_strip_halfwidth(
                contact.mask, field.grid, c.point, c.form, 4.0 * c.blowup_radius
            )
        entries.append(
            {
                "point": list(c.point),
                "verdict": c.verdict,
                "weiss_value": c.weiss_value,
                "blowup_radius": c.blowup_radius,
                "fit_residual": c.fit_residual,
                "direction": direction,
                "matrix": matrix,
                "stratum": c.stratum,
                "reason": c.reason,
                "contact_strip_halfwidth": strip,
            }
        )
        rows.append(
            (
                *c.point,
                c.verdict,
                _opt(c.weiss_value),
                _opt(c.fit_residual),
                "" if direction is None else ";".join(repr(v) for v in direction),
                "" if matrix is None else ";".join(repr(v) for row in matrix for v in row),
                "" if c.stratum is None else c.stratum,
            )
        )
    io.write_csv(
        out_dir / "classifications.csv",
        [*_point_columns(field), "verdict", "weiss", "fit_residual", "direction", "matrix", "stratum"],
        rows,
    )
    report["diagnostics"]["classification"] = entries
    report["diagnostics"]["census"] = cens
    report["checks"]["classification_all_determined"] = cens["undetermined"] == 0
    return classifications


def _opt(v):
    return "" if v is None else float(v)


def _run_monneau(field, fb, diag, seed, out_dir, report, classifications) -> None:
    """Monneau profiles against the probe set, at singular points when the
    classifier ran (advisory at generic free-boundary points otherwise)."""
    grid = field.grid
    probes = analysis.probe_forms(grid.dimension, seed)
    if classifications is not None:
        targets = [
            (c.point, True) for c in classifications if c.verdict == analysis.SINGULAR
        ]
    else:
        targets = [(tuple(float(v) for v in p), False) for p in fb.points]
    rows = []
    entries = []
    all_mono = True
    for point, singular in targets:
        radii = _admissible_radii(field, point, diag.radii)
        if len(radii) < 2:
            continue
        for k, probe in enumerate(probes):
            profile = analysis.monneau_profile(
                field,
                point,
                probe,
                radii,
                angular_samples=diag.angular_samples,
                at_singular_point=singular,
            )
            if not profile.advisory:
                all_mono &= profile.nondecreasing
            entry = _profile_entry(point, profile)
            entry["probe"] = probe.matrix.tolist()
            entry["probe_index"] = k
            entries.append(entry)
            for r, v in zip(profile.radii, profile.values):
                rows.append((*point, k, float(r), float(v), profile.delta, profile.verdict))
    io.write_csv(
        out_dir / "monneau_profiles.csv",
        [*_point_columns(field), "probe", "radius", "monneau", "delta", "verdict"],
        rows,
    )
    report["diagnostics"]["monneau"] = entries
    report["checks"]["monneau_nondecreasing_all"] = bool(all_mono)


def _run_frequency(field, diag, out_dir, report, classifications) -> None:
    """Sphere-norm decay exponents at singular points, against their own
    fitted blow-up forms."""
    rows = []
    entries = []
    if classifications is not None:
        for c in classifications:
            if c.verdict != analysis.SINGULAR:
                continue
            radii = _admissible_radii(field, c.point, diag.radii)
            if len(radii) < 2:
                continue
            est = analysis.frequency_lambda(
                field, c.point, c.form, radii, angular_samples=diag.angular_samples
            )
            entries.append(
                {
                    "point": list(c.point),
                    "defined": est.defined,
                    "lambda_star": est.lambda_star,
                    "r_squared": est.r_squared,
                    "radii": [float(r) for r in est.radii],
                    "sphere_norms": [float(v) for v in est.sphere_norms],
                }
            )
            rows.append(
                (
                    *c.point,
                    est.defined,
                    _opt(est.lambda_star),
                    _opt(est.r_squared),
                )
            )
    io.write_csv(
        out_dir / "frequency.csv",
        [*_point_columns(field), "defined", "lambda_star", "r_squared"],
        rows,
    )
    report["diagnostics"]["frequency"] = entries


def _cmd_report(args) -> int:
    if not args.reports:
        print("error: no report files given", file=sys.stderr)
        return EXIT_CONFIG
    merged = []
    for path in args.reports:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if payload.get("report_version") != REPORT_VERSION:
            print(
                f"error: report {path} has version {payload.get('report_version')!r}, "
                f"expected {REPORT_VERSION}",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        merged.append((path, payload.get("checks", {})))
    names = sorted({name for _, checks in merged for name in checks})
    failures = []
    width = max((len(n) for n in names), default=4)
    print(f"{'check'.ljust(width)}  " + "  ".join(Path(p).name for p, _ in merged))
    for name in names:
        cells = []
        for path, checks in merged:
            if name not in checks:
                cells.append("-")
            elif checks[name]:
                cells.append("pass")
            else:
                cells.append("FAIL")
                failures.append((name, path))
        print(f"{name.ljust(width)}  " + "  ".join(cells))
    if failures:
        for name, path in failures:
            print(f"FAIL: {name} in {path}", file=sys.stderr)
        return EXIT_ACCEPTANCE
    print("all checks passed")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
