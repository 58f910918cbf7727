"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced (they are also visible in captured output on
failure). Tolerances are pinned here, not calibrated elsewhere.
"""

import json
import math

import numpy as np
import pytest

from conftest import TOL, max_norm_error
from obslab.analysis import (
    classify_point,
    default_profile_delta,
    frequency_lambda,
    monneau_profile,
    probe_forms,
    stratify,
    weiss_constant,
    weiss_profile,
)
from obslab.cli import main as cli_main
from obslab.fixtures import QuadraticForm, halfspace, polynomial
from obslab.freeboundary import extract_contact_set, extract_free_boundary, growth_report
from obslab.grid import ScalarField, centered_box, interior_laplacian
from obslab.solver import complementarity_residual


def report(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {title}: {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def interface_points(field, margin: float):
    """Free-boundary nodes with at least ``margin`` of room to the box."""
    fb = extract_free_boundary(extract_contact_set(field))
    grid = field.grid
    points = []
    for p in fb.points:
        room = min(
            min(p[a] - grid.lower[a], grid.upper[a] - p[a]) for a in range(grid.dimension)
        )
        if room >= margin:
            points.append(tuple(float(v) for v in p))
    return points


class TestCriterion1:
    def test_one_d_convergence_order(self, solved_one_d):
        errors = {n: max_norm_error(case) for n, case in solved_one_d.items()}
        ratio = errors[257] / errors[513]
        times = {n: case.elapsed for n, case in solved_one_d.items()}
        oracle_fine = errors[513] <= 5 * solved_one_d[513].problem.grid.h ** 2
        ok = 3.5 <= ratio <= 4.5 and max(times.values()) < 5.0 and oracle_fine
        report(
            1,
            "1D solver convergence order",
            ok,
            f"e(2^-7)/e(2^-8) = {ratio:.3f} in [3.5, 4.5]; "
            f"errors {errors[257]:.3e}/{errors[513]:.3e}; "
            f"solve times {times[257]:.2f}s/{times[513]:.2f}s < 5s",
        )


class TestCriterion2:
    def test_radial_convergence_order(self, solved_radial):
        errors = {n: max_norm_error(case) for n, case in solved_radial.items()}
        h_fine = solved_radial[257].problem.grid.h
        ratio = errors[129] / errors[257]
        times = {n: case.elapsed for n, case in solved_radial.items()}
        bound_ok = errors[257] <= 10 * h_fine * h_fine
        time_ok = max(times.values()) < 60.0
        ratio_ok = 3.5 <= ratio <= 4.5
        # The ratio window fails at the pinned resolutions: the max-norm
        # error is dominated by free-boundary lattice-quantization noise
        # whose constant swings ~20% with grid/circle alignment (see the
        # decisions ledger; confirmed against an independent direct LCP
        # solve). Reported faithfully rather than widened.
        report(
            2,
            "2D radial convergence",
            bound_ok and time_ok and ratio_ok,
            f"e(2^-6)/e(2^-7) = {ratio:.3f} vs [3.5, 4.5]; "
            f"e(2^-7) = {errors[257]:.3e} <= 10h^2 = {10 * h_fine**2:.3e} ({bound_ok}); "
            f"solve times {times[129]:.1f}s/{times[257]:.1f}s < 60s ({time_ok})",
        )


class TestCriterion3:
    def test_uniqueness_across_methods(self, projected_gradient_solutions):
        worst = 0.0
        details = []
        for label, (case, pg_result) in projected_gradient_solutions.items():
            diff = float(
                np.abs(case.result.solution.values - pg_result.solution.values).max()
            )
            worst = max(worst, diff)
            details.append(f"{label}: {diff:.2e}")
        ok = worst <= 10 * TOL
        report(
            3,
            "uniqueness (PSOR vs projected gradient, different starts)",
            ok,
            f"max |u_psor - u_pg| = {worst:.2e} <= 10 tol = {10 * TOL:.1e} ({'; '.join(details)})",
        )


class TestCriterion4:
    def test_complementarity_and_laplacian_bounds(
        self, solved_one_d, solved_radial, solved_poly_line, projected_gradient_solutions
    ):
        fields = [
            ("one_d_257", solved_one_d[257].problem, solved_one_d[257].result.solution),
            ("one_d_513", solved_one_d[513].problem, solved_one_d[513].result.solution),
            ("radial_129", solved_radial[129].problem, solved_radial[129].result.solution),
            ("radial_257", solved_radial[257].problem, solved_radial[257].result.solution),
            ("poly_line", solved_poly_line[0].problem, solved_poly_line[0].result.solution),
        ]
        fields += [
            (f"pg_{label}", case.problem, result.solution)
            for label, (case, result) in projected_gradient_solutions.items()
        ]
        worst_res = 0.0
        worst_low = 0.0
        worst_high = 0.0
        for _, problem, solution in fields:
            res = complementarity_residual(solution, problem)
            worst_res = max(worst_res, res)
            grid = problem.grid
            deep = (slice(1, -1),) * grid.dimension
            lap = interior_laplacian(solution.values, grid.h)[deep]
            tol_disc = 10 * TOL / grid.h**2
            worst_low = min(worst_low, float(lap.min()))
            worst_high = max(worst_high, float(lap.max()) - 1.0 - tol_disc)
        ok = worst_res <= 10 * TOL and worst_low >= 0.0 and worst_high <= 0.0
        report(
            4,
            "complementarity of solved fields",
            ok,
            f"max residual {worst_res:.2e} <= {10 * TOL:.1e}; "
            f"min lap_h u = {worst_low:.2e} >= 0; "
            f"max lap_h u - (1 + 10 tol/h^2) = {worst_high:.2e} <= 0",
        )


class TestCriterion5:
    def test_nondegeneracy_radial(self, solved_radial):
        solution = solved_radial[257].result.solution
        grid = solution.grid
        radii = np.linspace(4 * grid.h, 0.3, 16)
        points = interface_points(solution, margin=0.31)
        floor = (1.0 / (2.0 * grid.dimension)) * 0.85
        worst = math.inf
        for rep in growth_report(solution, points, [radii] * len(points)):
            worst = min(worst, rep.lower_constant)
        ok = len(points) > 0 and worst >= floor
        report(
            5,
            "non-degeneracy at the free boundary",
            ok,
            f"{len(points)} interface nodes; min sup/r^2 = {worst:.3f} >= (1/2n)*0.85 = {floor:.4f}",
        )


class TestCriterion6:
    def test_weiss_constants(self):
        failures = []
        radii = (0.1, 0.2, 0.3, 0.4, 0.5)
        # n = 2 at h = 1/256
        grid2 = centered_box(2, 1.0, 513)
        c2 = math.pi / 8
        worst = 0.0
        origin2, origin1 = [(0.0, 0.0)], [(0.0,)]

        def weiss_values(field, origin):
            return weiss_profile(field, origin, [radii])[0].values

        for k, form in enumerate(probe_forms(2, seed=0)):
            values = weiss_values(polynomial(form).sample(grid2), origin2)
            for r, value in zip(radii, values):
                rel = abs(value - c2) / c2
                worst = max(worst, rel)
                if rel > 0.02:
                    failures.append(f"2D form {k} r={r}: {rel:.3%}")
        hs2 = weiss_values(halfspace([1.0, 0.0]).sample(grid2), origin2)
        for r, value in zip(radii, hs2):
            rel = abs(value - c2 / 2) / (c2 / 2)
            worst = max(worst, rel)
            if rel > 0.02:
                failures.append(f"2D halfspace r={r}: {rel:.3%}")
        # n = 1 analogues at h = 1/256
        grid1 = centered_box(1, 1.0, 513)
        p1 = weiss_values(polynomial(QuadraticForm.isotropic(1)).sample(grid1), origin1)
        h1 = weiss_values(halfspace([1.0]).sample(grid1), origin1)
        for r, value_p, value_h in zip(radii, p1, h1):
            rel_p = abs(value_p - 1 / 3) * 3
            rel_h = abs(value_h - 1 / 6) * 6
            worst = max(worst, rel_p, rel_h)
            if rel_p > 0.02:
                failures.append(f"1D quadratic r={r}: {rel_p:.3%}")
            if rel_h > 0.02:
                failures.append(f"1D halfspace r={r}: {rel_h:.3%}")
        report(
            6,
            "Weiss constants (pi/8, pi/16, 1/3, 1/6)",
            not failures,
            f"worst relative deviation {worst:.3%} <= 2%"
            + (f"; failures: {failures}" if failures else ""),
        )


class TestCriterion7:
    def test_weiss_monotone_everywhere(
        self, solved_one_d, solved_radial, solved_poly_line
    ):
        solved_fields = [
            ("one_d_257", solved_one_d[257].result.solution),
            ("one_d_513", solved_one_d[513].result.solution),
            ("radial_129", solved_radial[129].result.solution),
            ("radial_257", solved_radial[257].result.solution),
            ("poly_line", solved_poly_line[0].result.solution),
        ]
        radii = [0.1, 0.15, 0.2, 0.25, 0.3]
        total = 0
        worst_drop = 0.0
        delta_used = None
        for label, field in solved_fields:
            delta = default_profile_delta(field.grid.dimension, field.grid.h, radii[0])
            delta_used = delta
            points = interface_points(field, margin=radii[-1] + 2 * field.grid.h)
            for profile in weiss_profile(field, points, [radii] * len(points), delta=delta):
                total += 1
                if not profile.nondecreasing:
                    worst_drop = max(worst_drop, profile.violation_amount)
        ok = total > 0 and worst_drop == 0.0
        report(
            7,
            "Weiss monotonicity at every interface node",
            ok,
            f"{total} profiles nondecreasing (delta = {delta_used:.4f}); "
            f"worst violation {worst_drop:.2e}",
        )


class TestCriterion8:
    def test_monneau_at_singular_point(self, solved_poly_line):
        case, form = solved_poly_line
        solution = case.result.solution
        grid = solution.grid
        cn = weiss_constant(2)
        radii = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]
        worst_excess = -math.inf
        ((own,),) = monneau_profile(solution, [(0.0, 0.0)], [form], [radii])
        for r, value in zip(radii, own.values):
            quad_tol = max(0.02 * cn, 5 * (grid.h / r) * cn)
            worst_excess = max(worst_excess, value - 5 * quad_tol)
        delta = default_profile_delta(2, grid.h, radii[0])
        probe_ok = True
        probe_detail = []
        (probe_profiles,) = monneau_profile(
            solution, [(0.0, 0.0)], probe_forms(2, seed=0), [radii], delta=delta,
            at_singular_point=True,
        )
        for k, profile in enumerate(probe_profiles):
            probe_ok &= profile.nondecreasing
            if not profile.nondecreasing:
                probe_detail.append(f"probe {k} violated by {profile.violation_amount:.2e}")
        ok = worst_excess <= 0.0 and probe_ok
        report(
            8,
            "Monneau monotonicity at the singular point",
            ok,
            f"max M - 5*quad_tol = {worst_excess:.2e} <= 0; probe profiles nondecreasing "
            f"(delta = {delta:.4f})" + (f"; {probe_detail}" if probe_detail else ""),
        )


class TestCriterion9:
    def test_classification(self, solved_radial):
        failures = []
        angle_worst = 0.0
        frob_worst = 0.0
        for nodes in (257, 513):  # h = 1/128 and h/2
            grid = centered_box(2, 1.0, nodes)
            for k in range(8):
                angle = 2 * math.pi * k / 8
                e = np.array([math.cos(angle), math.sin(angle)])
                c = classify_point(halfspace(e).sample(grid), (0.0, 0.0))
                if c.verdict != "regular":
                    failures.append(f"halfspace {k} at {nodes}: {c.verdict}")
                    continue
                err = math.degrees(math.acos(min(1.0, abs(float(np.dot(c.direction, e))))))
                angle_worst = max(angle_worst, err)
                if err > 2.0:
                    failures.append(f"halfspace {k} at {nodes}: angle error {err:.2f} deg")
            for diag, stratum in (([1.0, 0.0], 1), ([0.5, 0.5], 0), ([0.8, 0.2], 0)):
                form = QuadraticForm.diagonal(diag)
                c = classify_point(polynomial(form).sample(grid), (0.0, 0.0))
                if c.verdict != "singular" or c.stratum != stratum:
                    failures.append(f"poly {diag} at {nodes}: {c.verdict}, m={c.stratum}")
                    continue
                frob = c.form.frobenius_distance(form)
                frob_worst = max(frob_worst, frob)
                if frob > 0.05:
                    failures.append(f"poly {diag} at {nodes}: frobenius {frob:.3f}")
        census_detail = []
        for nodes, case in solved_radial.items():
            solution = case.result.solution
            fb = extract_free_boundary(extract_contact_set(solution))
            _, census = stratify(solution, fb)
            census_detail.append(f"{nodes}: {census['regular']}/{census['total']} regular")
            if census["regular"] != census["total"]:
                failures.append(f"radial census at {nodes}: {census}")
        report(
            9,
            "blow-up classification",
            not failures,
            f"worst angle error {angle_worst:.3f} deg <= 2; worst frobenius "
            f"{frob_worst:.4f} <= 0.05; radial census {'; '.join(census_detail)}"
            + (f"; failures: {failures}" if failures else ""),
        )


class TestCriterion10:
    def test_frequency_estimator(self):
        grid = centered_box(2, 1.0, 257)
        radii = [0.1, 0.15, 0.2, 0.3, 0.4]
        form1 = QuadraticForm.diagonal([1.0, 0.0])
        origin = [(0.0, 0.0)]
        (est2,) = frequency_lambda(halfspace([1.0, 0.0]).sample(grid), origin, [form1], [radii])
        form2 = QuadraticForm.diagonal([0.6, 0.4])
        pts = grid.node_positions()
        cubic = 0.05 * (pts[:, 0] ** 3 - 3.0 * pts[:, 0] * pts[:, 1] ** 2)
        perturbed = ScalarField(
            grid, polynomial(form2).sample(grid).values + cubic.reshape(grid.shape)
        )
        (est3,) = frequency_lambda(perturbed, origin, [form2], [radii])
        (est0,) = frequency_lambda(polynomial(form2).sample(grid), origin, [form2], [radii])
        ok = (
            est2.defined
            and abs(est2.lambda_star - 2.0) <= 0.05
            and est3.defined
            and abs(est3.lambda_star - 3.0) <= 0.05
            and not est0.defined
        )
        report(
            10,
            "frequency exponent estimator",
            ok,
            f"halfspace lambda* = {est2.lambda_star:.4f} (2 +/- 0.05); "
            f"cubic lambda* = {est3.lambda_star:.4f} (3 +/- 0.05); "
            f"w == 0 defined = {est0.defined} (want False)",
        )


class TestCriterion11:
    def test_cli_determinism(self, tmp_path):
        payload = {
            "version": 1,
            "problem": {
                "form": "normalized",
                "dimension": 2,
                "lower": [-1.0, -1.0],
                "upper": [1.0, 1.0],
                "nodes_per_axis": 65,
                "boundary": {"fixture": "radial", "a": 0.4},
            },
            "solver": {"tolerance": 1e-8, "max_iterations": 50000},
            "diagnostics": {
                "selection": ["growth", "weiss", "monneau", "classify", "frequency"],
                "radii": [0.1, 0.15, 0.2, 0.25],
            },
            "seed": 11,
        }
        outputs = []
        for tag in ("run1", "run2"):
            out = tmp_path / tag
            config_path = tmp_path / f"{tag}.json"
            payload["output"] = {"directory": str(out)}
            config_path.write_text(json.dumps(payload, indent=1))
            code = cli_main(["diagnose", "--config", str(config_path)])
            assert code == 0
            outputs.append(out)
        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        mismatched = [
            name
            for name in names
            if (first / name).read_bytes() != (second / name).read_bytes()
        ]
        ok = names == sorted(p.name for p in second.iterdir()) and not mismatched
        report(
            11,
            "byte-identical diagnose reruns",
            ok,
            f"{len(names)} artifacts compared ({', '.join(names)})"
            + (f"; mismatched: {mismatched}" if mismatched else ""),
        )
