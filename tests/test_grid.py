import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import field_from_function
from obslab import analysis, grid
from obslab.grid import (
    GridError,
    GridSpec,
    OutOfDomainError,
    ResolutionError,
    ScalarField,
    admissible_radii,
    ball_integral,
    centered_box,
    gradient,
    interior_laplacian,
    interpolate_many,
    require_balls_in_box,
    sphere_integral,
    sup_on_ball,
)


def interpolate_one(field, point):
    return float(interpolate_many(field, np.asarray(point, dtype=float)[None, :])[0])


def quadratic_field(grid, matrix):
    matrix = np.asarray(matrix, dtype=float)
    return field_from_function(grid, lambda p: 0.5 * np.einsum("mi,ij,mj->m", p, matrix, p))


class TestGridSpec:
    def test_spacing_and_shape(self):
        g = GridSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0), nodes_per_axis=(129, 129))
        assert g.dimension == 2
        assert g.h == pytest.approx(2.0 / 128.0)
        assert g.shape == (129, 129)
        assert g.node_count == 129 * 129

    def test_rejects_empty_box(self):
        with pytest.raises(GridError):
            GridSpec(lower=(0.0,), upper=(0.0,), nodes_per_axis=(5,))

    def test_rejects_too_few_nodes(self):
        with pytest.raises(GridError):
            GridSpec(lower=(0.0,), upper=(1.0,), nodes_per_axis=(2,))

    def test_rejects_nonuniform_spacing(self):
        with pytest.raises(GridError):
            GridSpec(lower=(0.0, 0.0), upper=(1.0, 2.0), nodes_per_axis=(11, 11))

    def test_rejects_non_finite_corner(self):
        with pytest.raises(GridError, match="finite"):
            GridSpec(lower=(-np.inf, -1.0), upper=(1.0, 1.0), nodes_per_axis=(5, 5))

    @pytest.mark.parametrize("radii", [[np.nan], [0.1, np.inf], [np.nan] * 1000])
    def test_radii_must_be_finite(self, radii):
        with pytest.raises(GridError, match="finite") as excinfo:
            grid.require_increasing(radii)
        assert len(str(excinfo.value)) <= 80  # the radii are quoted in short form

    def test_rejects_dimension_4(self):
        with pytest.raises(GridError):
            GridSpec(lower=(0.0,) * 4, upper=(1.0,) * 4, nodes_per_axis=(5,) * 4)


class TestScalarField:
    def test_shape_mismatch(self):
        g = centered_box(1, 1.0, 5)
        with pytest.raises(GridError):
            ScalarField(g, np.zeros(4))

    def test_rejects_inf(self):
        g = centered_box(1, 1.0, 5)
        with pytest.raises(GridError):
            ScalarField(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_nan_anywhere(self, n):
        g = centered_box(n, 1.0, 5)
        for flat in (0, g.node_count // 2, g.node_count - 1):
            values = np.zeros(g.node_count)
            values[flat] = np.nan
            with pytest.raises(GridError, match="non-finite"):
                ScalarField(g, values.reshape(g.shape))

    def test_values_read_only(self):
        g = centered_box(1, 1.0, 5)
        f = ScalarField(g, np.zeros(5))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestDiscreteLaplacian:
    def test_unit_trace_quadratic_gives_one(self):
        # central stencil exact on quadratics
        g = centered_box(2, 1.0, 33)
        f = quadratic_field(g, [[0.3, 0.1], [0.1, 0.7]])
        assert_allclose(interior_laplacian(f.values, g.h), 1.0, atol=1e-11)

    def test_constant_annihilated(self):
        g = centered_box(3, 1.0, 9)
        f = ScalarField(g, np.full(g.shape, 4.2))
        assert_allclose(interior_laplacian(f.values, g.h), 0.0, atol=1e-12)

    def test_halfspace_kink_by_node_category(self):
        # u = (1/2)[(x1)_+]^2 with a node layer exactly at x1 = 0:
        # stencil gives 1 on x1 > 0, 0 on x1 < 0, 1/2 on the kink layer
        g = centered_box(2, 1.0, 17)
        f = field_from_function(g, lambda p: 0.5 * np.maximum(p[:, 0], 0.0) ** 2)
        lap = interior_laplacian(f.values, g.h)
        x = g.axis(0)
        for i in range(1, 16):
            expected = 1.0 if x[i] > 0 else 0.0
            if x[i] == 0.0:
                expected = 0.5
            assert_allclose(lap[i - 1, :], expected, atol=1e-12)

    def test_linearity_on_random_fields(self):
        rng = np.random.default_rng(7)
        g = centered_box(2, 1.0, 15)
        for _ in range(20):
            f1 = ScalarField(g, rng.standard_normal(g.shape))
            f2 = ScalarField(g, rng.standard_normal(g.shape))
            a, b = rng.standard_normal(2)
            combo = ScalarField(g, a * f1.values + b * f2.values)
            lhs = interior_laplacian(combo.values, g.h)
            rhs = a * interior_laplacian(f1.values, g.h) + b * interior_laplacian(f2.values, g.h)
            assert_allclose(lhs, rhs, atol=1e-9)


class TestInterpolate:
    def test_affine_exact(self):
        g = centered_box(2, 1.0, 11)
        f = field_from_function(g, lambda p: 2.0 * p[:, 0] + 3.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(50, 2))
        assert_allclose(interpolate_many(f, pts), 2.0 * pts[:, 0] + 3.0, atol=1e-12)

    def test_node_coincident_exact(self):
        g = centered_box(2, 1.0, 11)
        rng = np.random.default_rng(5)
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert interpolate_one(f, (g.axis(0)[3], g.axis(1)[7])) == pytest.approx(
            f.values[3, 7], abs=1e-14
        )

    def test_quadratic_within_2h2(self):
        # p = |x|^2/4 at (0.05, 0.05) on h = 0.1
        g = centered_box(2, 1.0, 21)
        assert g.h == pytest.approx(0.1)
        f = quadratic_field(g, [[0.5, 0.0], [0.0, 0.5]])
        value = interpolate_one(f, (0.05, 0.05))
        exact = 0.25 * (0.05**2 + 0.05**2)
        assert abs(value - exact) <= 2 * g.h**2

    def test_between_neighbor_bounds(self):
        # multilinear convexity: value within local nodal min/max
        rng = np.random.default_rng(11)
        g = centered_box(2, 1.0, 9)
        f = ScalarField(g, rng.standard_normal(g.shape))
        for _ in range(40):
            p = rng.uniform(-1, 1, size=2)
            t = (p - np.array(g.lower)) / g.h
            i0 = np.clip(np.floor(t).astype(int), 0, np.array(g.shape) - 2)
            cell = f.values[i0[0] : i0[0] + 2, i0[1] : i0[1] + 2]
            v = interpolate_one(f, p)
            assert cell.min() - 1e-12 <= v <= cell.max() + 1e-12

    def test_outside_box_raises(self):
        g = centered_box(2, 1.0, 9)
        f = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(OutOfDomainError):
            interpolate_one(f, (1.5, 0.0))


def reference_corners(base, frac, weights):
    """Each multilinear corner of the ``(m, n)`` cells ``base`` at offsets
    ``frac``: its node index as a tuple of index arrays, and ``weights``
    times its corner weight multiplied up one axis at a time."""
    for corner in itertools.product((0, 1), repeat=base.shape[1]):
        w = weights.copy()
        for a, bit in enumerate(corner):
            w *= frac[:, a] if bit else 1.0 - frac[:, a]
        yield tuple((base + corner).T), w


def reference_interpolate_many(field, points):
    """Multilinear interpolation by tuple indexing of the field, one corner
    at a time: the reference that ``interpolate_many``'s gather by flat
    index must match bit for bit."""
    grid = field.grid
    t = (np.asarray(points, dtype=float) - np.array(grid.lower)) / grid.h
    base = np.clip(np.floor(t).astype(int), 0, np.array(grid.shape) - 2)
    result = np.zeros(len(t))
    for index, weight in reference_corners(base, t - base, np.ones(len(t))):
        result += weight * field.values[index]
    return result


# 15 and 17 nodes per axis on centred and off-centre boxes, so h is not a
# power of two and the node coordinates are not symmetric about zero
GATHER_GRIDS = [
    (n, GridSpec(lower=(lo,) * n, upper=(lo + h * (m - 1),) * n, nodes_per_axis=(m,) * n))
    for n in (1, 2, 3)
    for lo, h, m in ((-1.0, 2.0 / 14.0, 15), (0.3, 0.1, 17), (-2.7, 0.37, 15))
]


class TestFlatGather:
    @staticmethod
    def probes(g, rng):
        """Blow-up stencils, random points, points on cell faces and on the
        upper and lower box faces (where the cell index is clipped)."""
        n, lower, upper = g.dimension, np.array(g.lower), np.array(g.upper)
        center = lower + g.h * (np.array(g.shape) // 2)
        ball = 3.0 * g.h * analysis.unit_ball_nodes(n)
        stencils = [center + ball, center + 0.37 * g.h + ball]
        random = rng.uniform(lower, upper, size=(200, n))
        faces = random.copy()
        faces[:, 0] = lower[0] + g.h * rng.integers(0, g.shape[0], size=len(faces))
        boxes = np.array(list(itertools.product(*zip(lower, upper))))
        on_upper = random.copy()
        on_upper[:, -1] = upper[-1]
        return np.concatenate([*stencils, random, faces, boxes, on_upper, lower + 0.0 * random])

    @pytest.mark.parametrize("n, g", GATHER_GRIDS)
    def test_matches_tuple_indexing_bit_for_bit(self, n, g):
        rng = np.random.default_rng(n)
        f = ScalarField(g, rng.standard_normal(g.shape))
        points = self.probes(g, rng)
        expected = reference_interpolate_many(f, points)
        assert interpolate_many(f, points).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corner_weights_match_one_axis_at_a_time(self, n):
        # the sphere rule's weights come from the same corners, with sample
        # weights that are not one
        rng = np.random.default_rng(20 + n)
        frac, weights = rng.random((50, n)), rng.random(50)
        base = rng.integers(0, 5, size=(50, n))
        ours = grid._corners(frac, weights)
        reference = list(reference_corners(base, frac, weights))
        assert len(ours) == len(reference) == 2**n
        for (corner, w), (index, w_ref) in zip(ours, reference):
            assert all((base[:, a] + corner[a] == index[a]).all() for a in range(n))
            assert w.tobytes() == w_ref.tobytes()


class TestBallIntegral:
    def test_ball_volume(self):
        g = centered_box(2, 1.5, 193)
        f = ScalarField(g, np.ones(g.shape))
        val = ball_integral(f, (0.0, 0.0), 1.0)
        assert abs(val - math.pi) <= 5.0 * (g.h / 1.0) * math.pi

    def test_odd_function_cancels(self):
        g = centered_box(2, 1.5, 129)
        f = field_from_function(g, lambda p: p[:, 0])
        val = ball_integral(f, (0.0, 0.0), 1.0)
        assert abs(val) <= 1e-10

    def test_weiss_bulk_closed_form(self):
        # (|grad p|^2 + 2p) for p = |x|^2/4 over B_1 is 3 pi / 8
        g = centered_box(2, 1.5, 257)
        f = field_from_function(g, lambda p: 0.75 * np.sum(p * p, axis=1))
        val = ball_integral(f, (0.0, 0.0), 1.0)
        assert val == pytest.approx(3 * math.pi / 8, rel=5e-3)

    def test_resolution_error(self):
        g = centered_box(2, 1.0, 17)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ResolutionError):
            ball_integral(f, (0.0, 0.0), 2.0 * g.h)

    def test_ball_outside_box(self):
        g = centered_box(2, 1.0, 33)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(OutOfDomainError):
            ball_integral(f, (0.9, 0.0), 0.5)

    def test_linearity_and_monotonicity(self):
        rng = np.random.default_rng(13)
        g = centered_box(2, 1.0, 65)
        ball = (0.1, -0.05), 0.5
        for _ in range(10):
            v1 = rng.standard_normal(g.shape)
            v2 = rng.standard_normal(g.shape)
            a, b = rng.standard_normal(2)
            lhs = ball_integral(ScalarField(g, a * v1 + b * v2), *ball)
            rhs = a * ball_integral(ScalarField(g, v1), *ball) + b * ball_integral(
                ScalarField(g, v2), *ball
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
            lo = np.minimum(v1, v2)
            assert ball_integral(ScalarField(g, lo), *ball) <= ball_integral(
                ScalarField(g, np.maximum(v1, v2)), *ball
            ) + 1e-12


class TestAdmissibleRadii:
    def test_admitted_radii_pass_the_box_check(self):
        # boxes with decimal corners, and radii that are the decimal
        # distances from the drawn nodes to the faces: where rounding
        # decides whether the ball touches or crosses the face
        rng = np.random.default_rng(5)
        admitted = 0
        for _ in range(200):
            n = int(rng.integers(1, 4))
            lower = rng.integers(-30, 10, n) / 10
            nodes = rng.integers(2, 9, n) * 4 + 1
            h = float(rng.integers(5, 40)) / 10 / (nodes[0] - 1)
            g = GridSpec(lower, lower + h * (nodes - 1), nodes)
            points = g.node_positions()[rng.choice(g.node_count, 10)]
            distances = np.hstack([points - g.lower, g.upper - points]).ravel()
            radii = sorted({round(float(d), 9) for d in distances} - {0.0})
            lists = admissible_radii(g, points, radii)
            assert len(lists) == len(points)
            for point, kept in zip(points, lists):
                for r in radii:
                    if r in kept:
                        require_balls_in_box(g, [point], r)
                        admitted += 1
                    elif r >= grid.MIN_RADIUS_FACTOR * g.h:
                        with pytest.raises(OutOfDomainError):
                            require_balls_in_box(g, [point], r)
        assert admitted > 300

    def test_points_must_be_rows(self):
        g = centered_box(2, 1.0, 33)
        assert admissible_radii(g, np.empty((0, 2)), [0.5]) == []
        assert admissible_radii(g, [(0.0, 0.0)], []) == [[]]
        for points in [(0.0, 0.0), [(0.0, 0.0, 0.0)]]:
            with pytest.raises(GridError):
                admissible_radii(g, points, [0.5])


class TestSphereIntegral:
    def test_quadratic_squared_on_circle(self):
        # p = |x|^2/4 is 1/4 on the unit circle: int p^2 = 2 pi / 16
        g = centered_box(2, 1.5, 257)
        f = field_from_function(g, lambda p: (0.25 * np.sum(p * p, axis=1)) ** 2)
        val = sphere_integral(f, (0.0, 0.0), 1.0, 64)
        assert val == pytest.approx(math.pi / 8, rel=5e-3)

    def test_sphere_area_3d(self):
        g = centered_box(3, 1.5, 49)
        f = ScalarField(g, np.ones(g.shape))
        val = sphere_integral(f, (0.0, 0.0, 0.0), 1.0, 32)
        assert val == pytest.approx(4 * math.pi, rel=5e-3)

    def test_odd_integrand_cancels(self):
        g = centered_box(2, 1.5, 129)
        f = field_from_function(g, lambda p: p[:, 0] * np.abs(p[:, 1]))
        val = sphere_integral(f, (0.0, 0.0), 1.0, 64)
        assert abs(val) <= 1e-10

    def test_one_dimensional_two_point_sum(self):
        g = centered_box(1, 1.0, 65)
        f = field_from_function(g, lambda p: p[:, 0] ** 2)
        val = sphere_integral(f, (0.0,), 0.5)
        assert val == pytest.approx(0.5, abs=1e-6)

    def test_homogeneous_scaling(self):
        # p two-homogeneous: int_{dB_r} p^2 = r^(n-1+4) int_{dB_1} p^2
        g = centered_box(2, 1.5, 257)
        f = field_from_function(
            g, lambda p: (0.5 * (0.6 * p[:, 0] ** 2 + 0.4 * p[:, 1] ** 2)) ** 2
        )
        base = sphere_integral(f, (0.0, 0.0), 1.0, 128)
        for r in (0.5, 0.75):
            val = sphere_integral(f, (0.0, 0.0), r, 128)
            assert val == pytest.approx(r ** (2 - 1 + 4) * base, rel=2e-3)

    def test_angular_samples_floor(self):
        g = centered_box(2, 1.0, 33)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(GridError):
            sphere_integral(f, (0.0, 0.0), 0.5, 8)


class TestSupOnBall:
    def test_halfspace_profile(self):
        g = centered_box(2, 1.0, 129)
        f = field_from_function(g, lambda p: 0.5 * np.maximum(p[:, 0], 0.0) ** 2)
        for r in (0.25, 0.5):
            s = sup_on_ball(f, (0.0, 0.0), r)
            assert abs(s - 0.5 * r * r) <= 2.0 * g.h * r

    def test_zero_field(self):
        g = centered_box(2, 1.0, 33)
        f = ScalarField(g, np.zeros(g.shape))
        assert sup_on_ball(f, (0.0, 0.0), 0.5) == 0.0

    def test_isotropic_quadratic(self):
        g = centered_box(2, 1.0, 129)
        f = field_from_function(g, lambda p: 0.25 * np.sum(p * p, axis=1))
        for r in (0.25, 0.5):
            s = sup_on_ball(f, (0.0, 0.0), r)
            assert abs(s - 0.25 * r * r) <= 2.0 * g.h * r


class TestGradient:
    def test_affine_exact_everywhere(self):
        g = centered_box(2, 1.0, 17)
        f = field_from_function(g, lambda p: 3.0 * p[:, 0] - 2.0 * p[:, 1] + 1.0)
        gx, gy = gradient(f)
        assert_allclose(gx.values, 3.0, atol=1e-12)
        assert_allclose(gy.values, -2.0, atol=1e-12)

    def test_quadratic_exact(self):
        # one-sided boundary formula is second order, so exact here too
        g = centered_box(2, 1.0, 17)
        f = quadratic_field(g, [[1.0, 0.0], [0.0, 0.0]])
        gx, gy = gradient(f)
        X = g.node_positions()[:, 0].reshape(g.shape)
        assert_allclose(gx.values, X, atol=1e-12)
        assert_allclose(gy.values, 0.0, atol=1e-12)

    def test_kink_derivative_bound(self):
        # d1 u at the kink layer of (1/2)[(x1)_+]^2 is h/4, within h/2
        g = centered_box(1, 1.0, 17)
        f = field_from_function(g, lambda p: 0.5 * np.maximum(p[:, 0], 0.0) ** 2)
        (gx,) = gradient(f)
        kink = np.argwhere(g.axis(0) == 0.0).item()
        assert abs(gx.values[kink]) <= g.h / 2.0


# Reference formulas, computed per call: the ball and sup rules from node
# distances on a bounding window, the sphere rule by interpolating at each
# sample, and the gradient's stencils written out. The cached rule kernels
# and np.gradient must reproduce them.
def reference_window(grid, center, r):
    window = []
    for a, c in enumerate(center):
        h = grid.h
        i0 = int(np.floor((c - r - grid.lower[a]) / h)) - 1
        i1 = int(np.ceil((c + r - grid.lower[a]) / h)) + 2
        window.append(slice(max(i0, 0), min(i1, grid.nodes_per_axis[a])))
    axes = [grid.axis(a)[s] - c for a, (s, c) in enumerate(zip(window, center))]
    dist = np.sqrt(sum(m * m for m in np.meshgrid(*axes, indexing="ij")))
    return tuple(window), dist


def reference_ball_integral(field, center, r):
    window, dist = reference_window(field.grid, center, r)
    weights = np.clip(0.5 + (r - dist) / field.grid.h, 0.0, 1.0)
    return float(np.sum(weights * field.values[window]) * field.grid.h**field.grid.dimension)


def reference_sup_on_ball(field, center, r):
    window, dist = reference_window(field.grid, center, r)
    return float(np.max(field.values[window][dist <= r]))


def reference_sphere_integral(field, center, r, m):
    center = np.array(center)
    if field.grid.dimension == 1:
        return float(np.sum(interpolate_many(field, center + np.array([[-r], [r]]))))
    if field.grid.dimension == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        pts = center + r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return float(np.sum(interpolate_many(field, pts)) * (2.0 * np.pi * r / m))
    theta = np.pi * (np.arange(m) + 0.5) / m
    phi = 2.0 * np.pi * np.arange(m) / m
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    direction = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    vals = interpolate_many(field, center + r * direction.reshape(-1, 3))
    weights = (r * r * np.sin(tt) * (np.pi / m) * (2.0 * np.pi / m)).ravel()
    return float(np.sum(vals * weights))


def reference_gradient(field):
    u, nd = field.values, field.grid.dimension
    out = []
    for a in range(nd):
        h = field.grid.h
        g = np.empty_like(u)

        def cut(s):
            return tuple(s if b == a else slice(None) for b in range(nd))

        g[cut(slice(1, -1))] = (u[cut(slice(2, None))] - u[cut(slice(0, -2))]) / (2.0 * h)
        g[cut(0)] = (-3.0 * u[cut(0)] + 4.0 * u[cut(1)] - u[cut(2)]) / (2.0 * h)
        g[cut(-1)] = (3.0 * u[cut(-1)] - 4.0 * u[cut(-2)] + u[cut(-3)]) / (2.0 * h)
        out.append(g)
    return out


# Nodes per axis of [-1, 1]^n for each dimension.
KERNEL_GRIDS = {1: 129, 2: 65, 3: 33}


def kernel_field(n, seed=0):
    g = centered_box(n, 1.0, KERNEL_GRIDS[n])
    rng = np.random.default_rng(seed + n)
    smooth = field_from_function(g, lambda p: np.sum(np.cos(1.3 * p + 0.2), axis=1))
    return ScalarField(g, smooth.values + rng.uniform(0.0, 0.5, g.shape) + n)


def assert_matches_reference(field, center, r, samples=32):
    ball = center, r
    for value, expected in (
        (ball_integral(field, *ball), reference_ball_integral(field, *ball)),
        (sup_on_ball(field, *ball), reference_sup_on_ball(field, *ball)),
        (sphere_integral(field, *ball, samples), reference_sphere_integral(field, *ball, samples)),
    ):
        assert abs(value - expected) <= 1e-12 * abs(expected)


class TestRuleKernels:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("radius_spacings", [3.0, 4.3, 6.0, 7.71])
    def test_node_centres_match_reference(self, n, radius_spacings):
        f = kernel_field(n)
        h = f.grid.h
        for index in (-5, 0, 7):
            center = (f.grid.axis(0)[KERNEL_GRIDS[n] // 2 + index],) * n
            assert_matches_reference(f, center, radius_spacings * h)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_off_node_centres_match_reference(self, n):
        f = kernel_field(n)
        rng = np.random.default_rng(17)
        for _ in range(6):
            r = rng.uniform(3.0, 8.0) * f.grid.h
            center = tuple(rng.uniform(-1.0 + r, 1.0 - r, n))
            assert_matches_reference(f, center, r)
        # half a spacing off a node on every axis, and just beyond the snap
        h = f.grid.h
        assert_matches_reference(f, (0.5 * h,) * n, 5.0 * h)
        assert_matches_reference(f, (1e-8 * h,) * n, 5.0 * h)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ball_touching_a_face_matches_reference(self, n):
        f = kernel_field(n)
        r = 8.0 * f.grid.h
        on_node = (1.0 - r,) + (0.0,) * (n - 1)
        off_node = (1.0 - r,) + (0.013,) * (n - 1)
        for center in (on_node, off_node, tuple(-c for c in off_node)):
            assert_matches_reference(f, center, r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_at_exactly_radius(self, n):
        # r / h = 6: the nodes at +-6h along each axis lie on the sphere
        g = centered_box(n, 1.0, KERNEL_GRIDS[n])
        f = field_from_function(g, lambda p: p[:, 0] + 0.01 * np.sum(p * p, axis=1))
        mid = KERNEL_GRIDS[n] // 2
        ball = (0.0,) * n, 6.0 * g.h
        assert sup_on_ball(f, *ball) == f.values[(mid + 6,) + (mid,) * (n - 1)]
        assert_matches_reference(f, *ball)
        assert_matches_reference(kernel_field(n), *ball)

    @pytest.mark.parametrize("n", [2, 3])
    def test_samples_on_grid_lines(self, n):
        # node centre, r / h = 8: the samples at angle 0 (and, in 2D, every
        # quarter turn) fall on grid lines or nodes
        f = kernel_field(n)
        for samples in (16, 64):
            assert_matches_reference(f, (0.0,) * n, 8.0 * f.grid.h, samples)

    def test_rule_built_once_per_radius(self):
        f = kernel_field(2)
        r = 5.5 * f.grid.h
        sphere_integral(f, (0.0, 0.0), r, 48)
        before = grid._rule.cache_info()
        for i in range(-4, 5):
            center = (f.grid.axis(0)[32 + i], f.grid.axis(1)[30 - i])
            sphere_integral(f, center, r, 48)
        after = grid._rule.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["ball", "sphere", "sup"])
    def test_window_offsets_match_node_coordinates(self, n, kind):
        # the rule's offsets are the gathered nodes' coordinates minus the
        # centre (to the node snap), the gathered values are the field at
        # those nodes, and no gathered node leaves the grid, also for balls
        # that touch a face
        f = kernel_field(n)
        h, r = f.grid.h, 5.5 * f.grid.h
        rng = np.random.default_rng(5)
        centers = [
            (f.grid.axis(0)[KERNEL_GRIDS[n] // 2 + 3],) * n,  # node
            tuple(rng.uniform(-0.5, 0.5, n)),  # off-node
            (1.0 - r,) + (0.5 * h,) * (n - 1),  # touching the face x0 = 1
            (-1.0 + r,) * n,  # touching a face on every axis
        ]
        positions = f.grid.node_positions()
        for center in centers:
            ((rows, values, rule),) = grid.gather(f, [center], r, kind, 32)
            assert rows.tolist() == [0]
            offsets = rule.offsets()
            assert values.shape == (1, len(rule.weights)) == (1, len(offsets))
            for array in (rule.nodes, rule.weights, rule.offset):
                assert not array.flags.writeable
            t = (np.array(center) - f.grid.lower) / h
            cells = np.round(t).astype(int) + rule.nodes
            assert ((cells >= 0) & (cells < f.grid.shape)).all()
            flat = np.ravel_multi_index(tuple(cells.T), f.grid.shape)
            assert_allclose(offsets, positions[flat] - center, rtol=0.0, atol=1e-9 * h)
            assert_allclose(values[0], f.values.ravel()[flat], rtol=0.0, atol=0.0)
            dist = np.linalg.norm(offsets, axis=1)
            if kind == "sup":
                assert ((rule.weights > 0) == (dist <= r)).all()
            if kind == "ball":
                assert ((rule.weights > 0) == (dist < r + 0.5 * h)).all()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rule_gathers_each_node_once(self, n):
        # every rule gathers each of its nodes once and only the nodes of
        # its nonzero weights, and drops no weight: the sup and ball rules
        # hold every node of their support, the sphere rule all the weight
        # of its samples
        f = kernel_field(n)
        r = 6.3 * f.grid.h
        for center in [(0.0,) * n, (0.013,) * n]:
            dist = np.linalg.norm(f.grid.node_positions() - center, axis=1)
            for kind, support in [("sup", dist <= r), ("ball", dist < r + 0.5 * f.grid.h)]:
                ((_, _, rule),) = grid.gather(f, [center], r, kind)
                assert len(np.unique(rule.nodes, axis=0)) == len(rule.nodes) == support.sum()
                assert (rule.weights != 0).all()
            ((_, _, rule),) = grid.gather(f, [center], r, "sphere", 32)
            assert len(np.unique(rule.nodes, axis=0)) == len(rule.nodes)
            assert (rule.weights != 0).all()
            _, sample_weights = grid._sphere_samples(n, r, 32)
            assert_allclose(rule.weights.sum(), sample_weights.sum(), rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_face_touching_sphere_samples_snap_to_the_face(self, n):
        # at r = 4.3h a sample on the face x0 = 1 rounds to a hair beyond
        # it; it is taken as on the face, so no weight leaves the grid
        f = kernel_field(n)
        r = 4.3 * f.grid.h
        for center in [(1.0 - r,) + (0.0,) * (n - 1), (-1.0 + r,) + (0.5 * f.grid.h,) * (n - 1)]:
            assert_matches_reference(f, center, r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_do_not_change_values(self, n, monkeypatch):
        # one centre per block and all centres in one block give the same
        # bits, for node and off-node centres alike
        f = kernel_field(n)
        h, m = f.grid.h, KERNEL_GRIDS[n]
        r = 5.4 * h
        rng = np.random.default_rng(11)
        nodes = f.grid.axis(0)[rng.integers(7, m - 7, size=(12, n))]
        off_node = rng.uniform(-1.0 + r + h, 1.0 - r - h, size=(5, n))
        centers = np.vstack([nodes, off_node, nodes[:2] + 0.5 * h])
        kinds = ("ball", "sphere", "sup")
        results = []
        for limit in (1, 2**40):
            monkeypatch.setattr(grid, "GATHER_BYTES", limit)
            results.append([grid.apply_rule(f, centers, r, kind, 24) for kind in kinds])
        for one, every in zip(*results):
            assert np.array_equal(one, every)
        # and a batch gives each centre what a one-centre call gives it
        for kind, batched in zip(kinds, results[1]):
            single = [grid.apply_rule(f, [c], r, kind, 24)[0] for c in centers]
            assert np.array_equal(batched, single)

    def test_batched_ball_outside_the_box_raises(self):
        f = kernel_field(2)
        r = 6.0 * f.grid.h
        inside = [(0.0, 0.0), (0.5, -0.5)]
        with pytest.raises(OutOfDomainError):
            grid.apply_rule(f, [*inside, (1.0 - 0.5 * r, 0.0)], r, "ball")
        with pytest.raises(OutOfDomainError):
            grid.apply_rule(f, [*inside, (0.0, -1.0 + 0.9 * r)], r, "sphere")
        with pytest.raises(ResolutionError):
            grid.apply_rule(f, inside, 2.0 * f.grid.h, "sup")
        with pytest.raises(GridError):
            grid.apply_rule(f, [(0.0, 0.0, 0.0)], r, "ball")

    @pytest.mark.parametrize("r", [math.nan, 0.0, -0.5], ids=["nan", "zero", "negative"])
    def test_radius_that_passes_no_floor_raises(self, r):
        # a NaN radius fails every comparison, so the floor refuses what
        # does not reach it
        f = kernel_field(2)
        for kind in ("ball", "sphere", "sup"):
            with pytest.raises(ResolutionError):
                grid.apply_rule(f, [(0.0, 0.0)], r, kind)
        for one_centre in (ball_integral, sphere_integral, sup_on_ball):
            with pytest.raises(ResolutionError):
                one_centre(f, (0.0, 0.0), r)

    def test_sup_below_rule_floor_raises(self):
        g = centered_box(2, 1.0, 33)
        f = ScalarField(g, np.ones(g.shape))
        with pytest.raises(ResolutionError):
            sup_on_ball(f, (0.0, 0.0), 2.5 * g.h)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_matches_reference(n):
    f = kernel_field(n)
    for value, expected in zip(gradient(f), reference_gradient(f)):
        assert_allclose(value.values, expected, rtol=1e-12, atol=1e-12)


# _row_norms of a 3D blow-up (17,077 samples) and ball sums of 13,085 nodes or so,
# both longer than the rows OpenBLAS's ddot runs on one thread
ROW_DOT_SCRIPT = """
import os, sys
import numpy as np
from obslab import analysis, grid
rows = np.random.default_rng(0).standard_normal((64, 17077))
box = grid.centered_box(2, 1.0, 257)
field = grid.ScalarField(box, np.random.default_rng(1).random(box.shape))
sums = grid.apply_rule(field, [(0.0, 0.0), (0.1, -0.2)], 0.5, "ball")
print((analysis._row_norms(rows).tobytes() + sums.tobytes()).hex())
print(len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None)
"""


class TestRowDot:
    def test_short_rows_take_vecdot_bits(self):
        rng = np.random.default_rng(3)
        for length in (1, 797, grid.ROW_PIECE):
            a, b = rng.standard_normal((2, 5, length))
            assert grid.row_dot(a, b).tobytes() == np.vecdot(a, b).tobytes()
            assert grid.row_dot(a, b[0]).tobytes() == np.vecdot(a, b[0]).tobytes()

    def test_long_rows_sum_their_pieces_in_order(self):
        a, b = np.random.default_rng(4).standard_normal((2, 3, 2 * grid.ROW_PIECE + 5))
        pieces = [slice(k, k + grid.ROW_PIECE) for k in range(0, a.shape[1], grid.ROW_PIECE)]
        expected = np.vecdot(a[:, pieces[0]], b[:, pieces[0]])
        for piece in pieces[1:]:
            expected = expected + np.vecdot(a[:, piece], b[:, piece])
        assert grid.row_dot(a, b).tobytes() == expected.tobytes()

    def test_same_bits_for_every_blas_thread_count(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs, tasks = [], []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", ROW_DOT_SCRIPT], env=env, capture_output=True, text=True,
                check=True, timeout=120,
            )
            bits, count = run.stdout.split()
            outputs.append(bits)
            tasks.append(count)
        assert outputs[0] and outputs[0] == outputs[1]
        if sys.platform == "linux":  # the "2" leg ran a worker, so the comparison says something
            assert tasks == ["1", str(min(2, len(os.sched_getaffinity(0))))]
