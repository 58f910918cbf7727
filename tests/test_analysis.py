import math

import numpy as np
import pytest

from obslab import analysis
from obslab.analysis import (
    C3_CALIBRATION_TOL,
    ClassifierConfig,
    WeissEvaluator,
    calibrate_weiss_constant,
    census,
    classify_point,
    contact_strip_halfwidth,
    default_profile_delta,
    frequency_lambda,
    monneau,
    monneau_profile,
    probe_forms,
    rescale_blowup,
    stratify,
    weiss_constant,
    weiss_energy,
    weiss_profile,
)
from obslab.fixtures import QuadraticForm, halfspace, one_d, polynomial, radial
from obslab.freeboundary import extract_contact_set, extract_free_boundary, growth_report
from obslab.grid import GridError, ResolutionError, ScalarField, centered_box
from obslab.solver import SolverConfig, normalized_problem, solve

C2 = math.pi / 8.0


@pytest.fixture(scope="module")
def radial_solution():
    grid = centered_box(2, 1.0, 129)
    exact = radial(0.4).sample(grid)
    problem = normalized_problem(grid, exact.values)
    result = solve(problem, SolverConfig(tol=1e-8))
    return result.solution


class TestWeissEnergy:
    def test_polynomial_constant_2d(self):
        grid = centered_box(2, 1.0, 257)
        for form in (QuadraticForm.diagonal([0.5, 0.5]), QuadraticForm.diagonal([1.0, 0.0])):
            field = polynomial(form).sample(grid)
            for r in (0.2, 0.35, 0.5):
                assert weiss_energy(field, (0.0, 0.0), r) == pytest.approx(C2, rel=0.02)

    def test_halfspace_half_constant_2d(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([1.0, 0.0]).sample(grid)
        for r in (0.2, 0.35, 0.5):
            assert weiss_energy(field, (0.0, 0.0), r) == pytest.approx(C2 / 2, rel=0.02)

    def test_one_dimensional_constants(self):
        grid = centered_box(1, 1.0, 257)
        poly = polynomial(QuadraticForm.isotropic(1)).sample(grid)
        hs = halfspace([1.0]).sample(grid)
        for r in (0.2, 0.35, 0.5):
            assert weiss_energy(poly, (0.0,), r) == pytest.approx(1 / 3, rel=0.02)
            assert weiss_energy(hs, (0.0,), r) == pytest.approx(1 / 6, rel=0.02)

    def test_frozen_c3_matches_fresh_calibration(self):
        value = calibrate_weiss_constant(3, nodes=111, angular_samples=48)
        assert abs(value - weiss_constant(3)) <= C3_CALIBRATION_TOL

    def test_resolution_floor(self):
        grid = centered_box(2, 1.0, 33)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        with pytest.raises(ResolutionError):
            weiss_energy(field, (0.0, 0.0), 2.0 * grid.h)

    def test_solved_radial_regular_point_half_constant(self, radial_solution):
        # evaluated at the exact circle point: W there is sensitive to the
        # base-point offset (the u^2 term dives once u(x0) > 0), so nodal
        # interface points a few h off the circle do not witness this claim
        assert weiss_energy(radial_solution, (0.4, 0.0), 0.1) == pytest.approx(C2 / 2, rel=0.10)


class TestWeissProfile:
    def test_homogeneous_fixture_constant_profile(self):
        grid = centered_box(2, 1.0, 257)
        field = polynomial(QuadraticForm.diagonal([0.7, 0.3])).sample(grid)
        profile = weiss_profile(field, (0.0, 0.0), [0.15, 0.2, 0.3, 0.4, 0.5])
        assert profile.nondecreasing
        # scale invariance: spread within delta
        assert profile.values.max() - profile.values.min() <= profile.delta

    def test_solved_radial_nondecreasing_at_interface(self, radial_solution):
        grid = radial_solution.grid
        fb = extract_free_boundary(extract_contact_set(radial_solution))
        radii = [0.1, 0.15, 0.2, 0.25, 0.3]
        evaluator = WeissEvaluator(radial_solution)
        for point in fb.points[:: max(1, len(fb) // 16)]:
            profile = weiss_profile(radial_solution, point, radii, _evaluator=evaluator)
            assert profile.nondecreasing

    def test_corrupted_field_flagged(self):
        # a bump near the base point inflates W at small radii, breaking
        # monotonicity by more than delta: the detector must notice
        grid = centered_box(2, 1.0, 257)
        base = halfspace([1.0, 0.0]).sample(grid)
        pts = grid.node_positions()
        bump = 0.05 * np.exp(-np.sum((pts - [0.05, 0.0]) ** 2, axis=1) / 0.03**2)
        corrupted = ScalarField(grid, base.values + bump.reshape(grid.shape))
        profile = weiss_profile(corrupted, (0.0, 0.0), [0.1, 0.2, 0.3, 0.4])
        assert profile.verdict == "violated"
        assert profile.violation_amount > profile.delta

    def test_delta_formula(self):
        assert default_profile_delta(2, 1 / 128, 0.1) == pytest.approx(
            max(0.02 * C2, 5 * (1 / 128) / 0.1 * C2)
        )


class TestMonneau:
    def test_exact_polynomial_is_zero(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([0.6, 0.4])
        field = polynomial(form).sample(grid)
        for r in (0.2, 0.4):
            assert monneau(field, (0.0, 0.0), form, r) == pytest.approx(0.0, abs=1e-28)

    def test_distinct_forms_constant_profile(self):
        # u - p is 2-homogeneous, so M is r-independent up to quadrature
        grid = centered_box(2, 1.0, 257)
        q = QuadraticForm.diagonal([0.8, 0.2])
        p = QuadraticForm.diagonal([0.5, 0.5])
        field = polynomial(q).sample(grid)
        profile = monneau_profile(field, (0.0, 0.0), p, [0.15, 0.25, 0.35, 0.45])
        assert profile.nondecreasing
        spread = profile.values.max() - profile.values.min()
        assert spread <= 0.02 * profile.values.max() + 1e-12

    def test_membership_enforced(self):
        grid = centered_box(2, 1.0, 65)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        from obslab.fixtures import FixtureError

        with pytest.raises(FixtureError):
            monneau(field, (0.0, 0.0), QuadraticForm.diagonal([0.2, 0.2]), 0.2)

    def test_advisory_flag(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.isotropic(2)
        field = polynomial(form).sample(grid)
        advisory = monneau_profile(field, (0.0, 0.0), form, [0.2, 0.3])
        confirmed = monneau_profile(
            field, (0.0, 0.0), form, [0.2, 0.3], at_singular_point=True
        )
        assert advisory.advisory and not confirmed.advisory

    def test_solved_field_stays_near_its_boundary_form(self):
        # boundary data 1/2 x1^2: the discrete solution is that quadratic,
        # so M against it is at quadrature-noise level
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([1.0, 0.0])
        boundary = polynomial(form).sample(grid)
        result = solve(normalized_problem(grid, boundary.values), SolverConfig(tol=1e-8))
        cn = weiss_constant(2)
        for r in (0.1, 0.2, 0.3, 0.4):
            quad_tol = max(0.02 * cn, 5 * (grid.h / r) * cn)
            assert monneau(result.solution, (0.0, 0.0), form, r) <= 5 * quad_tol


class TestRescaleBlowup:
    def test_homogeneous_fixture_reproduced(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([0.0, 1.0]).sample(grid)
        rescaled = rescale_blowup(field, (0.0, 0.0), 0.25)
        pts = rescaled.grid.node_positions()
        inside = np.isfinite(rescaled.values.ravel())
        exact = halfspace([0.0, 1.0]).evaluate(pts[inside])
        assert np.abs(rescaled.values.ravel()[inside] - exact).max() <= 5e-3

    def test_radius_independence_on_homogeneous_fields(self):
        grid = centered_box(2, 1.0, 257)
        field = polynomial(QuadraticForm.diagonal([0.3, 0.7])).sample(grid)
        a = rescale_blowup(field, (0.0, 0.0), 0.125)
        b = rescale_blowup(field, (0.0, 0.0), 0.5)
        inside = np.isfinite(a.values)
        assert np.abs(a.values[inside] - b.values[inside]).max() <= 5e-3

    def test_masked_outside_unit_ball(self):
        grid = centered_box(2, 1.0, 129)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        rescaled = rescale_blowup(field, (0.0, 0.0), 0.25)
        corners = rescaled.values[0, 0], rescaled.values[-1, -1]
        assert all(np.isnan(c) for c in corners)

    def test_resolution_floor(self):
        grid = centered_box(2, 1.0, 33)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        with pytest.raises(ResolutionError):
            rescale_blowup(field, (0.0, 0.0), 4.0 * grid.h)


class TestClassifyPoint:
    def test_halfspace_directions(self):
        grid = centered_box(2, 1.0, 129)
        for k in range(0, 8, 3):
            angle = 2 * math.pi * k / 8
            e = np.array([math.cos(angle), math.sin(angle)])
            field = halfspace(e).sample(grid)
            c = classify_point(field, (0.0, 0.0))
            assert c.verdict == "regular"
            err = math.degrees(math.acos(min(1.0, abs(np.dot(c.direction, e)))))
            assert err <= 2.0
            assert c.weiss_value <= 0.75 * weiss_constant(2)

    def test_polynomial_forms_and_strata(self):
        grid = centered_box(2, 1.0, 129)
        for diag, stratum in (([1.0, 0.0], 1), ([0.5, 0.5], 0), ([0.8, 0.2], 0)):
            form = QuadraticForm.diagonal(diag)
            field = polynomial(form).sample(grid)
            c = classify_point(field, (0.0, 0.0))
            assert c.verdict == "singular"
            assert c.form.frobenius_distance(form) <= 0.05
            assert c.stratum == stratum
            assert c.weiss_value >= 0.9 * weiss_constant(2)

    def test_polynomial_forms_and_strata_3d(self):
        grid = centered_box(3, 1.0, 33)
        cases = (([1 / 3, 1 / 3, 1 / 3], 0), ([0.5, 0.5, 0.0], 1), ([1.0, 0.0, 0.0], 2))
        for diag, stratum in cases:
            form = QuadraticForm.diagonal(diag)
            c = classify_point(polynomial(form).sample(grid), (0.0, 0.0, 0.0))
            assert c.verdict == "singular"
            assert c.stratum == stratum
            assert c.form.frobenius_distance(form) <= 0.01
            assert c.weiss_value >= 0.95 * weiss_constant(3)

    def test_halfspace_directions_3d(self):
        grid = centered_box(3, 1.0, 33)
        for e in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.3, -0.5, 0.8]):
            e = np.array(e) / np.linalg.norm(e)
            c = classify_point(halfspace(e).sample(grid), (0.0, 0.0, 0.0))
            assert c.verdict == "regular"
            err = math.degrees(math.acos(min(1.0, np.dot(c.direction, e))))
            assert err < 0.01
            assert c.weiss_value / weiss_constant(3) == pytest.approx(0.5, abs=0.03)

    def test_refinement_consistency(self):
        e = np.array([math.cos(0.9), math.sin(0.9)])
        verdicts = []
        directions = []
        for nodes in (129, 257):
            grid = centered_box(2, 1.0, nodes)
            field = halfspace(e).sample(grid)
            c = classify_point(field, (0.0, 0.0))
            verdicts.append(c.verdict)
            directions.append(np.array(c.direction))
        assert verdicts == ["regular", "regular"]
        assert np.abs(directions[0] - directions[1]).max() <= 0.01

    def test_one_dimensional(self):
        grid = centered_box(1, 1.0, 257)
        field = one_d(0.5).sample(grid)
        c = classify_point(field, (0.5,))
        assert c.verdict == "regular"
        assert c.direction[0] == pytest.approx(1.0)

    def test_point_too_close_to_boundary_is_undetermined(self):
        grid = centered_box(2, 1.0, 129)
        field = halfspace([1.0, 0.0]).sample(grid)
        c = classify_point(field, (0.0, -0.99))
        assert c.verdict == "undetermined"
        assert "blow-up unavailable" in c.reason


class TestStratify:
    def test_solved_radial_all_regular(self, radial_solution):
        fb = extract_free_boundary(extract_contact_set(radial_solution))
        results, cens = stratify(radial_solution, fb)
        assert cens["total"] == len(fb)
        assert cens["regular"] == cens["total"]
        # regular points carry the Weiss half-constant signature
        for c in results[:: max(1, len(results) // 16)]:
            assert c.weiss_value <= 0.75 * weiss_constant(2)

    def test_line_contact_fixture_all_singular(self):
        # measure-zero contact: detect with a sub-h^2/2 threshold so the
        # kernel-line nodes themselves are interface nodes
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([1.0, 0.0])
        field = polynomial(form).sample(grid)
        fb = extract_free_boundary(extract_contact_set(field, kappa=0.4))
        results, cens = stratify(field, fb)
        assert cens["singular"] > 0 and cens["regular"] == 0
        # the only non-singular entries are edge nodes without blow-up room
        for c in results:
            if c.verdict == "singular":
                assert c.stratum == 1
                assert c.form.frobenius_distance(form) <= 0.05
            else:
                assert "blow-up unavailable" in c.reason

    def test_adjacent_singular_forms_vary_slowly(self):
        grid = centered_box(2, 1.0, 129)
        field = polynomial(QuadraticForm.diagonal([1.0, 0.0])).sample(grid)
        ys = np.linspace(-0.4, 0.4, 9)
        forms = []
        for y in ys:
            c = classify_point(field, (0.0, float(y)))
            assert c.verdict == "singular"
            forms.append(c.form)
        for a, b in zip(forms, forms[1:]):
            assert a.frobenius_distance(b) <= 0.1

    def test_empty_free_boundary(self):
        grid = centered_box(2, 1.0, 65)
        field = ScalarField(grid, np.full(grid.shape, 2.0))
        fb = extract_free_boundary(extract_contact_set(field))
        results, cens = stratify(field, fb)
        assert results == []
        assert cens["total"] == 0


class TestFrequency:
    def test_halfspace_against_parabola_slope_two(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([1.0, 0.0]).sample(grid)
        form = QuadraticForm.diagonal([1.0, 0.0])
        est = frequency_lambda(field, (0.0, 0.0), form, [0.1, 0.15, 0.2, 0.3, 0.4])
        assert est.defined
        assert est.lambda_star == pytest.approx(2.0, abs=0.05)
        assert est.r_squared >= 0.999

    def test_manufactured_cubic_slope_three(self):
        grid = centered_box(2, 1.0, 257)
        form = QuadraticForm.diagonal([0.6, 0.4])
        pts = grid.node_positions()
        cubic = 0.05 * (pts[:, 0] ** 3 - 3.0 * pts[:, 0] * pts[:, 1] ** 2)
        values = polynomial(form).sample(grid).values + cubic.reshape(grid.shape)
        field = ScalarField(grid, values)
        est = frequency_lambda(field, (0.0, 0.0), form, [0.1, 0.15, 0.2, 0.3, 0.4])
        assert est.defined
        assert est.lambda_star == pytest.approx(3.0, abs=0.05)

    def test_zero_difference_undefined(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([0.6, 0.4])
        field = polynomial(form).sample(grid)
        est = frequency_lambda(field, (0.0, 0.0), form, [0.1, 0.2, 0.3])
        assert not est.defined
        assert est.lambda_star is None


class TestProbeForms:
    def test_probe_set_members(self):
        forms = probe_forms(2, seed=0)
        assert len(forms) == 5
        for f in forms:
            assert f.is_blowup_form()

    def test_one_dimensional_probe_set(self):
        forms = probe_forms(1, seed=0)
        assert len(forms) == 1
        assert forms[0].matrix[0, 0] == 1.0

    def test_seed_determinism(self):
        a = probe_forms(2, seed=42)
        b = probe_forms(2, seed=42)
        for fa, fb in zip(a, b):
            assert fa.frobenius_distance(fb) == 0.0


class TestContactStrip:
    def test_line_contact_strip_is_thin(self):
        grid = centered_box(2, 1.0, 257)
        form = QuadraticForm.diagonal([1.0, 0.0])
        field = polynomial(form).sample(grid)
        contact = extract_contact_set(field)
        width = contact_strip_halfwidth(contact.mask, grid, (0.0, 0.0), form, 0.25)
        # contact nodes within |x1| <= 2h: relative strip width ~ 2h/r
        assert width is not None
        assert width <= 3 * grid.h / 0.25

    def test_strip_follows_configured_eigen_tol(self):
        # eigenvalue 0.15 < eigen_tol 0.2: x1 is kernel (stratum 1), so only
        # |x0| counts and the contact strip |x0| <= 2h is thin
        grid = centered_box(2, 1.0, 257)
        mask = np.abs(grid.meshgrid()[0]) <= 2 * grid.h
        form = QuadraticForm.diagonal([0.85, 0.15])
        assert form.kernel_dimension(0.2) == 1
        width = contact_strip_halfwidth(mask, grid, (0.0, 0.0), form, 0.25, eigen_tol=0.2)
        assert width <= 3 * grid.h / 0.25

    def test_no_contact_in_ball(self):
        grid = centered_box(2, 1.0, 129)
        field = polynomial(QuadraticForm.diagonal([1.0, 0.0])).sample(grid)
        contact = extract_contact_set(field)
        width = contact_strip_halfwidth(
            contact.mask, grid, (0.5, 0.5), QuadraticForm.diagonal([1.0, 0.0]), 0.1
        )
        assert width is None


def test_census_totals():
    cls = [
        analysis.Classification(point=(0.0,), verdict=v, weiss_value=None, blowup_radius=None)
        for v in ("regular", "regular", "undetermined")
    ]
    out = census(cls)
    assert out == {
        "total": 3,
        "regular": 2,
        "singular": 0,
        "undetermined": 1,
        "singular_by_stratum": {},
    }


class TestRadiusRule:
    """Every radius series passes through ``grid.require_radii``."""

    GRID = centered_box(2, 1.0, 129)  # 4h = 0.0625: only the 2h series is too fine
    PROFILES = {
        "growth": growth_report,
        "weiss": weiss_profile,
        "monneau": lambda f, x0, radii: monneau_profile(f, x0, QuadraticForm.isotropic(2), radii),
        "frequency": lambda f, x0, radii: frequency_lambda(
            f, x0, QuadraticForm.isotropic(2), radii
        ),
    }

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "radii", [[], [0.2, 0.1], [0.1, 0.1]], ids=["empty", "unsorted", "repeated"]
    )
    def test_bad_series_rejected(self, profile, radii):
        field = radial(0.4).sample(self.GRID)
        with pytest.raises(GridError) as excinfo:
            self.PROFILES[profile](field, (0.4, 0.0), radii)
        assert not isinstance(excinfo.value, ResolutionError)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_radius_below_floor_rejected(self, profile):
        field = radial(0.4).sample(self.GRID)
        with pytest.raises(ResolutionError):
            self.PROFILES[profile](field, (0.4, 0.0), [2 * self.GRID.h])
