import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from obslab import analysis
from obslab import grid as grid_module
from obslab.analysis import (
    C3_CALIBRATED,
    ClassifierConfig,
    WeissEvaluator,
    census,
    classify_point,
    contact_strip_halfwidth,
    default_profile_delta,
    frequency_lambda,
    monneau_profile,
    probe_forms,
    rescale_blowup,
    stratify,
    unit_ball_nodes,
    weiss_constant,
    weiss_profile,
)
from obslab.fixtures import QuadraticForm, halfspace, one_d, polynomial, radial
from obslab.freeboundary import (
    FreeBoundarySet,
    extract_contact_set,
    extract_free_boundary,
    growth_report,
)
from obslab.grid import (
    BallSpec,
    GridError,
    GridSpec,
    ResolutionError,
    ScalarField,
    centered_box,
    interpolate_many,
    multilinear_sampler,
    sphere_integral,
)
from obslab.solver import SolverConfig, normalized_problem, solve

C2 = math.pi / 8.0


def weiss_at(field, x0, r):
    """W(r) around one centre."""
    return WeissEvaluator(field).at([x0], r)[0]


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
                assert weiss_at(field, (0.0, 0.0), r) == pytest.approx(C2, rel=0.02)

    def test_halfspace_half_constant_2d(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([1.0, 0.0]).sample(grid)
        for r in (0.2, 0.35, 0.5):
            assert weiss_at(field, (0.0, 0.0), r) == pytest.approx(C2 / 2, rel=0.02)

    def test_one_dimensional_constants(self):
        grid = centered_box(1, 1.0, 257)
        poly = polynomial(QuadraticForm.isotropic(1)).sample(grid)
        hs = halfspace([1.0]).sample(grid)
        for r in (0.2, 0.35, 0.5):
            assert weiss_at(poly, (0.0,), r) == pytest.approx(1 / 3, rel=0.02)
            assert weiss_at(hs, (0.0,), r) == pytest.approx(1 / 6, rel=0.02)

    def test_frozen_c3_matches_closed_form(self):
        # c_3 = |B_1| / 10 = 2 pi / 15, within the frozen value's stated
        # uncertainty
        assert weiss_constant(3) == C3_CALIBRATED
        assert abs(C3_CALIBRATED - 2.0 * math.pi / 15.0) <= 5e-4

    def test_quadrature_converges_to_c3_at_second_order(self):
        # W(1) of |x|^2 / 6 is 2 pi / 15; the ball and sphere rules are
        # second order in h on this smooth field, so the observed order
        # between 61 and 111 nodes (h = 2.2/60 and 2.2/110) is 2
        errors, spacings = [], []
        for nodes in (61, 111):
            grid = centered_box(3, 1.1, nodes)
            field = polynomial(QuadraticForm.isotropic(3)).sample(grid)
            w = WeissEvaluator(field, angular_samples=48).at([(0.0, 0.0, 0.0)], 1.0)[0]
            errors.append(w - 2.0 * math.pi / 15.0)
            spacings.append(grid.h)
        order = math.log(errors[0] / errors[1]) / math.log(spacings[0] / spacings[1])
        assert order == pytest.approx(2.0, abs=0.25)
        assert abs(errors[1]) < 5e-4

    def test_resolution_floor(self):
        grid = centered_box(2, 1.0, 33)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        with pytest.raises(ResolutionError):
            weiss_at(field, (0.0, 0.0), 2.0 * grid.h)

    def test_solved_radial_regular_point_half_constant(self, radial_solution):
        # evaluated at the exact circle point: W there is sensitive to the
        # base-point offset (the u^2 term dives once u(x0) > 0), so nodal
        # interface points a few h off the circle do not witness this claim
        assert weiss_at(radial_solution, (0.4, 0.0), 0.1) == pytest.approx(C2 / 2, rel=0.10)


class TestWeissProfile:
    def test_homogeneous_fixture_constant_profile(self):
        grid = centered_box(2, 1.0, 257)
        field = polynomial(QuadraticForm.diagonal([0.7, 0.3])).sample(grid)
        (profile,) = weiss_profile(field, [(0.0, 0.0)], [[0.15, 0.2, 0.3, 0.4, 0.5]])
        assert profile.nondecreasing
        # scale invariance: spread within delta
        assert profile.values.max() - profile.values.min() <= profile.delta

    def test_solved_radial_nondecreasing_at_interface(self, radial_solution):
        grid = radial_solution.grid
        fb = extract_free_boundary(extract_contact_set(radial_solution))
        radii = [0.1, 0.15, 0.2, 0.25, 0.3]
        points = fb.points[:: max(1, len(fb) // 16)]
        profiles = weiss_profile(radial_solution, points, [radii] * len(points))
        assert len(profiles) == len(points)
        assert all(profile.nondecreasing for profile in profiles)

    def test_corrupted_field_flagged(self):
        # a bump near the base point inflates W at small radii, breaking
        # monotonicity by more than delta: the detector must notice
        grid = centered_box(2, 1.0, 257)
        base = halfspace([1.0, 0.0]).sample(grid)
        pts = grid.node_positions()
        bump = 0.05 * np.exp(-np.sum((pts - [0.05, 0.0]) ** 2, axis=1) / 0.03**2)
        corrupted = ScalarField(grid, base.values + bump.reshape(grid.shape))
        (profile,) = weiss_profile(corrupted, [(0.0, 0.0)], [[0.1, 0.2, 0.3, 0.4]])
        assert profile.verdict == "violated"
        assert profile.violation_amount > profile.delta

    def test_delta_formula(self):
        assert default_profile_delta(2, 1 / 128, 0.1) == pytest.approx(
            max(0.02 * C2, 5 * (1 / 128) / 0.1 * C2)
        )


def monneau_values(field, x0, form, radii, **kwargs):
    """M(r) against one form around one centre, one value per radius."""
    return monneau_profile(field, [x0], [form], [radii], **kwargs)[0][0].values


class TestMonneau:
    def test_exact_polynomial_is_zero(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([0.6, 0.4])
        field = polynomial(form).sample(grid)
        values = monneau_values(field, (0.0, 0.0), form, [0.2, 0.4])
        assert_allclose(values, 0.0, rtol=0, atol=1e-28)

    def test_exact_polynomial_is_zero_3d(self):
        grid = centered_box(3, 1.0, 33)
        for form in (QuadraticForm.diagonal([0.5, 0.3, 0.2]), probe_forms(3, seed=2)[-1]):
            field = polynomial(form).sample(grid)
            values = monneau_values(field, (0.0, 0.0, 0.0), form, [0.3, 0.5])
            assert_allclose(values, 0.0, rtol=0, atol=1e-28)

    def test_distinct_forms_constant_profile(self):
        # u - p is 2-homogeneous, so M is r-independent up to quadrature
        grid = centered_box(2, 1.0, 257)
        q = QuadraticForm.diagonal([0.8, 0.2])
        p = QuadraticForm.diagonal([0.5, 0.5])
        field = polynomial(q).sample(grid)
        ((profile,),) = monneau_profile(field, [(0.0, 0.0)], [p], [[0.15, 0.25, 0.35, 0.45]])
        assert profile.nondecreasing
        spread = profile.values.max() - profile.values.min()
        assert spread <= 0.02 * profile.values.max() + 1e-12

    def test_membership_enforced(self):
        grid = centered_box(2, 1.0, 65)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        from obslab.fixtures import FixtureError

        with pytest.raises(FixtureError):
            monneau_values(field, (0.0, 0.0), QuadraticForm.diagonal([0.2, 0.2]), [0.2])

    def test_advisory_flag(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.isotropic(2)
        field = polynomial(form).sample(grid)
        ((advisory,),) = monneau_profile(field, [(0.0, 0.0)], [form], [[0.2, 0.3]])
        ((confirmed,),) = monneau_profile(
            field, [(0.0, 0.0)], [form], [[0.2, 0.3]], at_singular_point=True
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
        radii = [0.1, 0.2, 0.3, 0.4]
        for r, value in zip(radii, monneau_values(result.solution, (0.0, 0.0), form, radii)):
            quad_tol = max(0.02 * cn, 5 * (grid.h / r) * cn)
            assert value <= 5 * quad_tol


def reference_sphere_series(field, x0, form, radii, samples):
    """int_{dB_r(x0)} (u - p(. - x0))^2 per radius, with p evaluated by
    QuadraticForm.evaluate at the meshgrid node positions minus x0."""
    grid = field.grid
    pts = grid.node_positions() - np.asarray(x0, dtype=float)
    w = field.values - form.evaluate(pts).reshape(grid.shape)
    squared = ScalarField(grid, w * w)
    return np.array([sphere_integral(squared, BallSpec(x0, r), samples) for r in radii])


class TestSphereSeries:
    """Monneau and frequency form the probe on each window from the rule's
    offsets; they must match the probe evaluated at node positions."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("dyadic", [True, False], ids=["dyadic", "non_dyadic"])
    def test_matches_node_position_formula(self, n, dyadic):
        grid = centered_box(n, 1.0, {1: 129, 2: 65, 3: 33}[n] - (0 if dyadic else 2))
        h = grid.h
        rng = np.random.default_rng(n)
        pts = grid.node_positions()
        smooth = np.cos(1.7 * pts + 0.3).sum(axis=1).reshape(grid.shape)
        field = ScalarField(grid, smooth + rng.uniform(0.0, 0.2, grid.shape))
        radii = np.array([4.0, 5.5, 7.3]) * h
        node = (grid.axis(0)[grid.shape[0] // 2 + 2],) * n
        off_node = tuple(rng.uniform(-0.3, 0.3, n))
        clipped = (1.0 - radii[-1],) + (0.4 * h,) * (n - 1)  # ball touches x0 = 1
        for x0 in (node, off_node, clipped):
            for form in probe_forms(n, seed=4):
                expected = reference_sphere_series(field, x0, form, radii, 24)
                values = monneau_values(field, x0, form, radii, angular_samples=24)
                assert_allclose(values, expected / radii ** (n + 3), rtol=1e-12, atol=0.0)
                (est,) = frequency_lambda(field, [x0], [form], [radii], angular_samples=24)
                norms = np.sqrt(expected * radii ** (1 - n))
                assert_allclose(est.sphere_norms, norms, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_point"])
    def test_equal_to_inline_quadratic_bit_for_bit(self, n, shared):
        # the reference forms p as the sum of A_ab y_a y_b over (a, b) in
        # np.ndindex order, from 0, then halves it
        grid = centered_box(n, 1.0, {1: 129, 2: 65, 3: 33}[n] - 2)
        rng = np.random.default_rng(20 + n)
        field = ScalarField(grid, rng.standard_normal(grid.shape))
        points = rng.uniform(-0.3, 0.3, (5, n))
        matrices = rng.standard_normal((1, 3, n, n) if shared else (5, 1, n, n))
        forms = matrices + matrices.swapaxes(-1, -2)
        r = 5.5 * grid.h
        expected = np.empty((5, forms.shape[1]))
        for rows, u, rule in grid_module.gather(field, points, r, "sphere", 24):
            y = rule.offsets()
            block = forms if shared else forms[rows]
            for q in range(forms.shape[1]):
                a = block[:, q]
                p = sum(a[:, i, j, None] * y[:, i] * y[:, j] for i, j in np.ndindex(n, n))
                w = u - 0.5 * p
                expected[rows, q] = np.vecdot(np.square(w, out=w), rule.weights)
        values = analysis._sphere_integrals(field, points, forms, r, 24)
        assert values.tobytes() == expected.tobytes()


class TestRescaleBlowup:
    def test_homogeneous_fixture_reproduced(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([0.0, 1.0]).sample(grid)
        (rescaled,) = rescale_blowup(field, [(0.0, 0.0)], 0.25)
        exact = halfspace([0.0, 1.0]).evaluate(unit_ball_nodes(2))
        assert rescaled.shape == exact.shape
        assert np.abs(rescaled - exact).max() <= 5e-3

    def test_radius_independence_on_homogeneous_fields(self):
        grid = centered_box(2, 1.0, 257)
        field = polynomial(QuadraticForm.diagonal([0.3, 0.7])).sample(grid)
        (a,) = rescale_blowup(field, [(0.0, 0.0)], 0.125)
        (b,) = rescale_blowup(field, [(0.0, 0.0)], 0.5)
        assert a.shape == b.shape == (len(unit_ball_nodes(2)),)
        assert np.abs(a - b).max() <= 5e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_ball_nodes_cached_and_read_only(self, n):
        nodes = unit_ball_nodes(n)
        assert nodes is unit_ball_nodes(n)
        assert not nodes.flags.writeable
        assert nodes.shape[1] == n and (np.linalg.norm(nodes, axis=1) <= 1.0).all()
        ref = centered_box(n, 1.0, analysis.REF_NODES).node_positions()
        assert len(nodes) == int((np.linalg.norm(ref, axis=1) <= 1.0).sum())

    def test_resolution_floor(self):
        grid = centered_box(2, 1.0, 33)
        field = polynomial(QuadraticForm.isotropic(2)).sample(grid)
        with pytest.raises(ResolutionError):
            rescale_blowup(field, [(0.0, 0.0)], 4.0 * grid.h)


def reference_rescale_blowup(field, centers, r):
    """The per-centre sampling that the multilinear rule replaced: each row
    interpolated on its own at x0 + r x, then divided by r^2."""
    pts = unit_ball_nodes(field.grid.dimension)
    out = np.empty((len(centers), len(pts)))
    for row, x0 in zip(out, np.asarray(centers, dtype=float)):
        np.divide(interpolate_many(field, x0 + r * pts), r * r, out=row)
    return out


def blowup_centres(grid, factor, rng, count, offsets):
    """``count`` centres whose balls of radius ``factor * h`` lie in the box:
    nodes plus one of ``offsets`` (in spacings) per axis, led by the two
    centres whose balls touch the lower and the upper faces."""
    n, lower, r = grid.dimension, np.array(grid.lower), factor * grid.h
    low, high = int(np.ceil(factor + 0.5)), grid.shape[0] - 1 - int(np.ceil(factor + 0.5))
    nodes = rng.integers(low, high + 1, size=(count - 2, n))
    steps = rng.choice(offsets, size=(count - 2, n))
    inner = lower + grid.h * (nodes + steps)
    return np.vstack([lower + r, np.array(grid.upper) - r, inner])


def blowup_field(grid, rng):
    """Random values with exact and negative zeros among them."""
    values = rng.standard_normal(grid.shape)
    values[values > 1.5] = -0.0
    values[values < -1.5] = 0.0
    return ScalarField(grid, values)


# spacings 2^-4 and 2^-5, on a centred and an off-centre box: every sample
# position is exact, so the rule must give the per-centre values bit for bit
DYADIC_GRIDS = [
    GridSpec((lo,) * n, (lo + (m - 1) * h,) * n, (m,) * n)
    for n in (1, 2, 3)
    for lo, h, m in ((-1.0, 2.0**-4, 33), (-0.6875, 2.0**-5, 41))
]
# 15, 29, 57 and 61 nodes: spacings that are not powers of two
ROUNDED_GRIDS = [
    GridSpec((lo,) * n, (lo + (m - 1) * h,) * n, (m,) * n)
    for n in (1, 2, 3)
    for lo, h, m in ((-1.0, 2.0 / 14.0, 15), (-1.0, 2.0 / 28.0, 29), (0.3, 0.1, 57), (-2.7, 0.37, 61))
]


class TestBlowupRule:
    @pytest.mark.parametrize("grid", DYADIC_GRIDS, ids=lambda g: f"{g.dimension}d-{g.shape[0]}")
    @pytest.mark.parametrize("factor", [8.0, 5.0, 12.5])
    def test_matches_per_centre_sampling_bit_for_bit(self, grid, factor):
        # node and off-node centres (fractions other than 0 and 1/2 at 5h
        # and 12.5h), blocks of 1, 3 and 82 centres and one out of order
        rng = np.random.default_rng(int(factor * 10) + grid.dimension)
        field, r = blowup_field(grid, rng), factor * grid.h
        centres = blowup_centres(grid, factor, rng, 82, [0.0, 0.25, -0.375, 0.125])
        expected = reference_rescale_blowup(field, centres, r)
        sample = multilinear_sampler(field, centres, unit_ball_nodes(grid.dimension) * factor)
        for block in (slice(0, 1), slice(1, 4), slice(None), np.array([81, 0, 40])):
            assert (sample(block) / (r * r)).tobytes() == expected[block].tobytes()
        if factor >= analysis.BLOWUP_RADIUS_FACTOR:
            assert rescale_blowup(field, centres, r).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("grid", ROUNDED_GRIDS, ids=lambda g: f"{g.dimension}d-{g.shape[0]}")
    def test_matches_per_centre_sampling_to_rounding(self, grid):
        # the rule computes each sample's position from its centre's node,
        # so it differs from x0 + r x by rounding only
        rng = np.random.default_rng(grid.shape[0] + grid.dimension)
        field = blowup_field(grid, rng)
        for factor in (5.0, 8.0, 12.5):
            if 2 * factor + 2 > grid.shape[0] - 1:
                continue
            r = factor * grid.h
            centres = blowup_centres(grid, factor, rng, 12, [0.0, 0.3, -0.45])
            expected = reference_rescale_blowup(field, centres, r)
            actual = multilinear_sampler(field, centres, unit_ball_nodes(grid.dimension) * factor)
            error = np.abs(actual(slice(None)) / (r * r) - expected).max(axis=1)
            assert (error <= 1e-13 * np.abs(expected).max(axis=1)).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_whole_node_shift_keeps_every_bit(self, n):
        # the same values around a node give the same blow-up wherever the
        # node lies; x0 + r x rounds differently at different x0
        m, shift = 29, np.array([5, 3, 2][:n])
        grid = GridSpec((-1.0,) * n, (1.0,) * n, (m,) * n)
        rng = np.random.default_rng(30 + n)
        wide = rng.standard_normal(tuple(m + shift))
        near = ScalarField(grid, wide[tuple(slice(0, m) for _ in range(n))])
        far = ScalarField(grid, wide[tuple(slice(s, s + m) for s in shift)])
        r = analysis.BLOWUP_RADIUS_FACTOR * grid.h
        nodes = rng.integers(9, m - 9 - shift.max(), size=(6, n))
        at_far = grid.lower[0] + grid.h * nodes
        at_near = grid.lower[0] + grid.h * (nodes + shift)
        assert rescale_blowup(near, at_near, r).tobytes() == rescale_blowup(far, at_far, r).tobytes()

    def test_corner_off_the_grid_raises(self):
        grid = centered_box(2, 1.0, 33)
        field = blowup_field(grid, np.random.default_rng(0))
        with pytest.raises(GridError):
            multilinear_sampler(field, [(0.0, 0.0)], unit_ball_nodes(2) * 17.0)


class TestQuadraticModels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 3, 82])
    def test_equal_to_einsum_bit_for_bit(self, n, count):
        # a row of NaN stands for a fit without a positive eigenvalue
        rng = np.random.default_rng(10 * n + count)
        points = unit_ball_nodes(n)
        matrices = rng.standard_normal((count, n, n))
        matrices = matrices + matrices.mT
        matrices[count // 2] = np.nan
        expected = np.einsum("mi,bij,mj->bm", points, matrices, points)
        expected *= 0.5
        assert analysis._quadratic_models(points, matrices).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_fit_matches_lstsq(self, n):
        # the product with the design's transposed pseudo-inverse against
        # one lstsq per blow-up, at 1e-12 relative (1e-15 absolute near zero)
        rng = np.random.default_rng(n)
        points = analysis.unit_ball_nodes(n)
        rows = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.dirichlet(np.ones(n))
            form = QuadraticForm.from_matrix((q * eigs) @ q.T)
            rows.append(form.evaluate(points) + 1e-3 * rng.standard_normal(len(points)))
        rows.append(rng.random(len(points)))
        values = np.stack(rows)
        upper = np.triu_indices(n, 1)
        design = np.hstack([0.5 * points**2, points[:, upper[0]] * points[:, upper[1]]])
        reference = np.stack([np.linalg.lstsq(design, v, rcond=None)[0] for v in values])
        assert_allclose(values @ analysis._fit_arrays(n).solve, reference, rtol=1e-12, atol=1e-15)
        matrices, residuals = analysis._fit_singular(analysis._fit_arrays(n), values)
        forms = map(QuadraticForm, matrices)
        for v, coef, form, residual in zip(values, reference, forms, residuals):
            matrix = np.diag(coef[:n])
            matrix[upper] = matrix[upper[::-1]] = coef[n:]
            expected = QuadraticForm.from_matrix(matrix).project_to_blowup_form()
            assert_allclose(form.matrix, expected.matrix, rtol=1e-12, atol=1e-15)
            expected_residual = np.linalg.norm(v - expected.evaluate(points))
            assert residual == pytest.approx(expected_residual, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_singular_fit_equals_row_by_row(self, n):
        # one stacked fit of a block gives each row the bits of its own fit;
        # a row whose fit has no positive eigenvalue (a negative constant)
        # is NaN and leaves the other rows alone
        rng = np.random.default_rng(10 + n)
        points = analysis.unit_ball_nodes(n)
        rows = []
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            form = QuadraticForm.from_matrix((q * rng.dirichlet(np.ones(n))) @ q.T)
            rows.append(form.evaluate(points) + 1e-3 * rng.standard_normal(len(points)))
        rows.insert(2, np.full(len(points), -0.3))
        values = np.stack(rows)
        matrices, residuals = analysis._fit_singular(analysis._fit_arrays(n), values)
        assert matrices.shape == (len(values), n, n) and residuals.shape == (len(values),)
        for k in range(len(values)):
            matrix, residual = analysis._fit_singular(analysis._fit_arrays(n), values[k : k + 1])
            assert matrix.tobytes() == matrices[k].tobytes()
            assert residual.tobytes() == residuals[k].tobytes()
        assert np.isnan(matrices[2]).all() and np.isnan(residuals[2])
        assert np.isfinite(np.delete(residuals, 2)).all()

    def test_fit_without_positive_eigenvalue_is_undetermined(self):
        grid = centered_box(2, 1.0, 129)
        values = np.full(grid.shape, -1.2 * grid.h**2)
        values[64, 64] = 4.0 * grid.h**2
        c = classify_point(ScalarField(grid, values), (0.0, grid.h))
        assert c.verdict == "undetermined"
        assert c.reason == "quadratic fit has no positive eigenvalue"

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


@pytest.fixture(scope="module")
def halfspace_blowups_3d():
    """Blow-ups at the origin of half-space fixtures on 33^3, each as it is
    and with a seeded noise of 1e-3, one row per blow-up."""
    grid = centered_box(3, 1.0, 33)
    rng = np.random.default_rng(7)
    rows = []
    for e in ([1, 0, 0], [0, 0, 1], [1, 1, 1], [0.3, -0.5, 0.8], [-0.2, 0.9, -0.4]):
        field = halfspace(np.array(e) / np.linalg.norm(e)).sample(grid)
        blowup = rescale_blowup(field, [(0.0, 0.0, 0.0)], 8 * grid.h)[0]
        rows += [blowup, blowup + 1e-3 * rng.standard_normal(len(blowup))]
    return np.stack(rows)


class TestHalfSpaceFit3D:
    def test_tangential_gradient_vanishes(self, halfspace_blowups_3d):
        # the gradient of (1/2)||V - (1/2)[(e.x)_+]^2||^2 on the sphere
        values, points = halfspace_blowups_3d, unit_ball_nodes(3)
        directions, residuals = analysis._fit_regular(analysis._fit_arrays(3), values)
        for v, e, residual in zip(values, directions, residuals):
            assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-14)
            p = np.maximum(points @ e, 0.0)
            r = v - 0.5 * p * p
            assert residual == pytest.approx(np.linalg.norm(r), rel=1e-14)
            g = -(r * p) @ points
            assert np.linalg.norm(g - (g @ e) * e) <= 1e-10 * (v @ v)

    def test_no_random_direction_fits_better(self, halfspace_blowups_3d):
        values, points = halfspace_blowups_3d, unit_ball_nodes(3)
        _, residuals = analysis._fit_regular(analysis._fit_arrays(3), values)
        trials = np.random.default_rng(500).standard_normal((500, 3))
        trials /= np.linalg.norm(trials, axis=1, keepdims=True)
        for v, residual in zip(values, residuals):
            for chunk in np.split(trials, 10):
                models = 0.5 * np.maximum(chunk @ points.T, 0.0) ** 2
                assert residual <= np.linalg.norm(v - models, axis=1).min()

    def test_returns_each_rows_best_iterate(self, halfspace_blowups_3d, monkeypatch):
        # after k steps each row holds its least residual so far, so the
        # residual never rises with k, also on noisy quadratic blow-ups,
        # where the steps do not settle at the first minimum they meet; the
        # residual is _half_space_misfits at the returned direction
        rng = np.random.default_rng(4)
        points = unit_ball_nodes(3)
        rows = list(halfspace_blowups_3d)
        for _ in range(12):
            q = rng.standard_normal((3, 3))
            form = QuadraticForm.from_matrix(q @ q.T / np.trace(q @ q.T))
            rows.append(form.evaluate(points) + 0.03 * rng.standard_normal(len(points)))
        values, fits = np.stack(rows), []
        for steps in range(analysis.NEWTON_STEPS + 1):
            monkeypatch.setattr(analysis, "NEWTON_STEPS", steps)
            fits.append(analysis._fit_regular(analysis._fit_arrays(3), values))
        for (_, before), (_, after) in zip(fits, fits[1:]):
            assert (after <= before).all()
        directions, residuals = fits[-1]
        assert (residuals[-12:] < fits[0][1][-12:]).all()  # the steps improve on the start
        misfits = analysis._half_space_misfits(points, values, directions)
        assert misfits.tobytes() == residuals.tobytes()

    def test_stacked_fit_equals_row_by_row(self, halfspace_blowups_3d):
        values = np.vstack([halfspace_blowups_3d, np.zeros(halfspace_blowups_3d.shape[1])])
        directions, residuals = analysis._fit_regular(analysis._fit_arrays(3), values)
        for k in range(len(values)):
            direction, residual = analysis._fit_regular(analysis._fit_arrays(3), values[k : k + 1])
            assert direction.tobytes() == directions[k].tobytes()
            assert residual.tobytes() == residuals[k].tobytes()

    def test_even_blowups_start_finite(self):
        # the isotropic polynomial's blow-up at the origin is even, so its
        # moment sum V x vanishes up to rounding; a blow-up that vanishes
        # has a moment of exactly zero
        grid = centered_box(3, 1.0, 33)
        field = polynomial(QuadraticForm.isotropic(3)).sample(grid)
        even = rescale_blowup(field, [(0.0, 0.0, 0.0)], 8 * grid.h)
        values = np.vstack([even, np.zeros_like(even)])
        moment = values @ unit_ball_nodes(3)
        assert np.abs(moment[0]).max() <= 1e-12 * np.abs(values[0]).sum()
        assert not moment[1].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            directions, residuals = analysis._fit_regular(analysis._fit_arrays(3), values)
        assert np.isfinite(directions).all() and np.isfinite(residuals).all()
        assert_allclose(np.linalg.norm(directions, axis=1), 1.0, rtol=0.0, atol=1e-14)


@pytest.fixture(scope="module")
def halfspace_blowups_1d():
    """1D blow-ups (1/2)[(x)_+]^2, (1/2)[(-x)_+]^2 and 0, then the first two
    with a seeded noise of 1e-3, one row per blow-up."""
    x = unit_ball_nodes(1)[:, 0]
    rows = [0.5 * np.maximum(x, 0.0) ** 2, 0.5 * np.maximum(-x, 0.0) ** 2, np.zeros_like(x)]
    noise = 1e-3 * np.random.default_rng(1).standard_normal((2, len(x)))
    return np.vstack([rows, rows[:2] + noise])


class TestHalfSpaceFit1D:
    def test_direction_is_the_moment_sign(self, halfspace_blowups_1d):
        # a vanishing blow-up has a zero moment and takes +1
        directions, residuals = analysis._fit_regular(analysis._fit_arrays(1), halfspace_blowups_1d)
        assert directions.tolist() == [[1.0], [-1.0], [1.0], [1.0], [-1.0]]
        assert (residuals[:2] == 0.0).all()

    def test_residuals_are_half_space_misfits(self, halfspace_blowups_1d):
        values = halfspace_blowups_1d
        directions, residuals = analysis._fit_regular(analysis._fit_arrays(1), values)
        misfits = analysis._half_space_misfits(unit_ball_nodes(1), values, directions)
        assert misfits.tobytes() == residuals.tobytes()

    def test_stacked_fit_equals_row_by_row(self, halfspace_blowups_1d):
        values = halfspace_blowups_1d
        directions, residuals = analysis._fit_regular(analysis._fit_arrays(1), values)
        for k in range(len(values)):
            direction, residual = analysis._fit_regular(analysis._fit_arrays(1), values[k : k + 1])
            assert direction.tobytes() == directions[k].tobytes()
            assert residual.tobytes() == residuals[k].tobytes()


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

    @pytest.mark.parametrize(
        "case, verdicts",
        [("radial_2d", {"regular"}), ("polynomial_3d", {"singular", "undetermined"})],
    )
    def test_blocks_do_not_change_results(self, radial_solution, monkeypatch, case, verdicts):
        if case == "radial_2d":
            field = radial_solution
            fb = extract_free_boundary(extract_contact_set(field))
        else:
            grid = centered_box(3, 1.0, 25)
            field = polynomial(QuadraticForm.diagonal([0.5, 0.3, 0.2])).sample(grid)
            full = extract_free_boundary(extract_contact_set(field, kappa=0.5))
            # every 8th interface node, and second a node without blow-up room
            indices = np.insert(full.indices[::8], 1, [12, 12, 3], axis=0)
            fb = FreeBoundarySet(grid, indices, indices * grid.h + np.array(grid.lower))

        def bits(results):
            return [
                repr(
                    (c.point, c.verdict, c.weiss_value, c.blowup_radius, c.fit_residual,
                     c.direction, None if c.form is None else c.form.matrix.tolist(),
                     c.stratum, c.reason)
                )
                for c in results
            ]

        default, _ = stratify(field, fb)
        assert {c.verdict for c in default} == verdicts
        for budget in (1, 10**9):  # one point a block, then every point in one
            monkeypatch.setattr(grid_module, "GATHER_BYTES", budget)
            assert bits(stratify(field, fb)[0]) == bits(default)
        for k in range(0, len(fb), max(1, len(fb) // 6)):
            assert bits([classify_point(field, fb.points[k])]) == bits([default[k]])

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
        (est,) = frequency_lambda(field, [(0.0, 0.0)], [form], [[0.1, 0.15, 0.2, 0.3, 0.4]])
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
        (est,) = frequency_lambda(field, [(0.0, 0.0)], [form], [[0.1, 0.15, 0.2, 0.3, 0.4]])
        assert est.defined
        assert est.lambda_star == pytest.approx(3.0, abs=0.05)

    def test_zero_difference_undefined(self):
        grid = centered_box(2, 1.0, 129)
        form = QuadraticForm.diagonal([0.6, 0.4])
        field = polynomial(form).sample(grid)
        (est,) = frequency_lambda(field, [(0.0, 0.0)], [form], [[0.1, 0.2, 0.3]])
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
        (width,) = contact_strip_halfwidth(contact.mask, grid, [(0.0, 0.0)], [form], [0.25])
        # contact nodes within |x1| <= 2h: relative strip width ~ 2h/r
        assert width is not None
        assert width <= 3 * grid.h / 0.25

    def test_strip_follows_configured_eigen_tol(self):
        # eigenvalue 0.15 < eigen_tol 0.2: x1 is kernel (stratum 1), so only
        # |x0| counts and the contact strip |x0| <= 2h is thin
        grid = centered_box(2, 1.0, 257)
        mask = np.abs(grid.node_positions()[:, 0].reshape(grid.shape)) <= 2 * grid.h
        form = QuadraticForm.diagonal([0.85, 0.15])
        assert form.kernel_dimension(0.2) == 1
        (width,) = contact_strip_halfwidth(mask, grid, [(0.0, 0.0)], [form], [0.25], eigen_tol=0.2)
        assert width <= 3 * grid.h / 0.25

    def test_no_contact_in_ball(self):
        grid = centered_box(2, 1.0, 129)
        field = polynomial(QuadraticForm.diagonal([1.0, 0.0])).sample(grid)
        contact = extract_contact_set(field)
        form = QuadraticForm.diagonal([1.0, 0.0])
        assert contact_strip_halfwidth(contact.mask, grid, [(0.5, 0.5)], [form], [0.1]) == [None]


def reference_strip_halfwidth(mask, grid, x0, form, r, eigen_tol):
    """The strip half-width from the node positions of the whole grid."""
    pts = grid.node_positions()[mask.ravel()] - np.asarray(x0, dtype=float)[None, :]
    pts = pts[np.linalg.norm(pts, axis=1) <= r]
    if len(pts) == 0:
        return None
    eigvals, eigvecs = np.linalg.eigh(form.matrix)
    positive = eigvals >= eigen_tol
    if not positive.any():
        return 0.0
    return float(np.max(np.linalg.norm(pts @ eigvecs[:, positive], axis=1)) / r)


@pytest.mark.parametrize("n, nodes", [(2, 65), (2, 61), (3, 33), (3, 23)])
def test_contact_strip_matches_node_position_formula(n, nodes):
    grid = centered_box(n, 1.0, nodes)
    rng = np.random.default_rng(nodes)
    checked = 0
    for trial in range(12):
        # one call for a node centre and an off-node centre on the same mask
        mask = rng.uniform(size=grid.shape) < rng.uniform(0.01, 0.5)
        points = [tuple(grid.axis(0)[rng.integers(0, nodes, n)]), tuple(rng.uniform(-1.0, 1.0, n))]
        forms = [probe_forms(n, seed=trial)[(trial + k) % 4] for k in range(2)]
        radii = rng.uniform(2.0, 10.0, 2) * grid.h
        eigen_tol = rng.choice([0.05, 0.3, 0.99])
        widths = contact_strip_halfwidth(mask, grid, points, forms, radii, eigen_tol)
        assert len(widths) == 2
        for width, x0, form, r in zip(widths, points, forms, radii):
            expected = reference_strip_halfwidth(mask, grid, x0, form, r, eigen_tol)
            if expected is None:
                assert width is None
            else:
                assert width == pytest.approx(expected, rel=1e-12, abs=1e-15)
                checked += 1
    assert checked >= 12


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
        "growth": lambda f, x0, radii: growth_report(f, [x0], [radii]),
        "weiss": lambda f, x0, radii: weiss_profile(f, [x0], [radii]),
        "monneau": lambda f, x0, radii: monneau_profile(
            f, [x0], [QuadraticForm.isotropic(2)], [radii]
        ),
        "frequency": lambda f, x0, radii: frequency_lambda(
            f, [x0], [QuadraticForm.isotropic(2)], [radii]
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
