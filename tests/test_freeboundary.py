import numpy as np
import pytest

from obslab.fixtures import halfspace, one_d, polynomial, radial, QuadraticForm
from obslab.freeboundary import (
    ContactSet,
    NotANormalizedSolutionError,
    extract_contact_set,
    extract_free_boundary,
    growth_report,
)
from obslab.grid import GridError, GridSpec, ResolutionError, ScalarField, centered_box


class TestContactSet:
    def test_one_d_mask_matches_exact_interval(self):
        grid = centered_box(1, 1.0, 257)  # h = 1/128
        field = one_d(0.5).sample(grid)
        contact = extract_contact_set(field, kappa=2.0)
        x = grid.axis(0)
        # u(0.5 + s) = s^2/2 <= 2h^2 iff s <= 2h
        expected = np.abs(x) <= 0.5 + 2 * grid.h + 1e-12
        assert (contact.mask == expected).all()

    def test_strictly_positive_field_empty_mask(self):
        grid = centered_box(2, 1.0, 33)
        field = ScalarField(grid, np.full(grid.shape, 1.0))
        assert not extract_contact_set(field).mask.any()

    def test_zero_field_all_true(self):
        grid = centered_box(2, 1.0, 33)
        field = ScalarField(grid, np.zeros(grid.shape))
        assert extract_contact_set(field).mask.all()

    def test_negative_field_rejected(self):
        grid = centered_box(2, 1.0, 33)
        values = np.zeros(grid.shape)
        values[5, 5] = -1.0
        with pytest.raises(NotANormalizedSolutionError):
            extract_contact_set(ScalarField(grid, values))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    def test_kappa_outside_positive_reals_rejected(self, kappa):
        # NaN would mark no node and +inf every node, both without a word
        grid = centered_box(2, 1.0, 33)
        with pytest.raises(GridError, match="0 < kappa < inf"):
            extract_contact_set(radial(0.4).sample(grid), kappa=kappa)

    def test_kappa_monotonicity(self):
        grid = centered_box(2, 1.0, 65)
        field = radial(0.4).sample(grid)
        small = extract_contact_set(field, kappa=1.0).mask
        large = extract_contact_set(field, kappa=4.0).mask
        assert (large | ~small).all()  # raising kappa never shrinks the mask


def interface_by_node(mask):
    """Per-node reference: the nodes with an axis neighbour in each phase,
    in row-major order."""
    found = []
    for node in np.ndindex(mask.shape):
        phases = set()
        for a in range(mask.ndim):
            for step in (-1, 1):
                neighbour = list(node)
                neighbour[a] += step
                if 0 <= neighbour[a] < mask.shape[a]:
                    phases.add(bool(mask[tuple(neighbour)]))
        if len(phases) == 2:
            found.append(node)
    return np.array(found, dtype=int).reshape(-1, mask.ndim)


class TestFreeBoundary:
    @pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("dimension, nodes", [(1, 33), (2, 17), (3, 9)])
    def test_random_masks_match_per_node_reference(self, dimension, nodes, density):
        grid = centered_box(dimension, 1.0, nodes)
        rng = np.random.default_rng(dimension * 10 + int(density * 10))
        mask = rng.random(grid.shape) < density
        fb = extract_free_boundary(ContactSet(grid, mask, 2.0))
        expected = interface_by_node(mask)
        assert np.array_equal(fb.indices, expected)
        axes = [grid.axis(a) for a in range(dimension)]
        points = np.stack([axes[a][expected[:, a]] for a in range(dimension)], axis=-1)
        assert np.array_equal(fb.points, points)
        # box-face nodes are covered: in 1D an end node has one neighbour
        # and is never on the interface, in 2D and 3D some face nodes are
        on_face = ((expected == 0) | (expected == nodes - 1)).any(axis=1)
        assert on_face.any() == (dimension > 1)

    def test_one_d_two_clusters_width_two(self):
        grid = centered_box(1, 1.0, 257)
        field = one_d(0.5).sample(grid)
        fb = extract_free_boundary(extract_contact_set(field))
        xs = np.sort(fb.points[:, 0])
        left = xs[xs < 0]
        right = xs[xs > 0]
        assert len(left) <= 2 and len(right) <= 2
        assert np.abs(np.abs(xs) - 0.5).max() <= 3 * grid.h + 1e-12

    def test_radial_interface_hugs_circle(self):
        grid = centered_box(2, 1.0, 257)
        field = radial(0.4).sample(grid)
        fb = extract_free_boundary(extract_contact_set(field))
        assert len(fb) > 0
        rho = np.linalg.norm(fb.points, axis=1)
        # contact-side nodes sit within ~2h of the circle; the listed set
        # also contains their first positive-phase neighbors, so the
        # two-sided interface band is 3h wide (plus the h^2 threshold bias)
        assert np.abs(rho - 0.4).max() <= 3 * grid.h + 10 * grid.h**2
        # and the circle is fully shadowed: every angle has a nearby node
        theta = np.linspace(0, 2 * np.pi, 720)
        circle = 0.4 * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        d = np.min(
            np.linalg.norm(circle[:, None, :] - fb.points[None, :, :], axis=-1), axis=1
        )
        assert d.max() <= 3 * grid.h

    def test_empty_contact_gives_empty_boundary(self):
        grid = centered_box(2, 1.0, 33)
        field = ScalarField(grid, np.full(grid.shape, 1.0))
        fb = extract_free_boundary(extract_contact_set(field))
        assert len(fb) == 0

    def test_every_point_has_both_phase_neighbors(self):
        grid = centered_box(2, 1.0, 129)
        field = radial(0.35).sample(grid)
        contact = extract_contact_set(field)
        fb = extract_free_boundary(contact)
        mask = contact.mask
        for idx in fb.indices:
            i, j = idx
            neighbors = []
            if i > 0:
                neighbors.append(mask[i - 1, j])
            if i < grid.shape[0] - 1:
                neighbors.append(mask[i + 1, j])
            if j > 0:
                neighbors.append(mask[i, j - 1])
            if j < grid.shape[1] - 1:
                neighbors.append(mask[i, j + 1])
            assert any(neighbors) and not all(neighbors)


class TestGrowthReport:
    def test_halfspace_ratios_half(self):
        grid = centered_box(2, 1.0, 257)
        field = halfspace([1.0, 0.0]).sample(grid)
        radii = [0.1, 0.2, 0.3, 0.4]
        (rep,) = growth_report(field, [(0.0, 0.0)], [radii])
        # nodal sup lags the true sup by O(h r): ratio error O(h/r)
        for r, ratio in zip(radii, rep.ratios):
            assert abs(ratio - 0.5) <= 1.2 * grid.h / r
        assert rep.nondegenerate and rep.bounded

    def test_isotropic_polynomial_tight_nondegeneracy(self):
        # sup over B_r of |x|^2/4 is r^2/4 = (1/2n) r^2 for n = 2: the
        # non-degeneracy constant is attained, so the slack is what passes it
        grid = centered_box(2, 1.0, 257)
        field = polynomial(QuadraticForm.diagonal([0.5, 0.5])).sample(grid)
        (rep,) = growth_report(field, [(0.0, 0.0)], [[0.1, 0.2, 0.3, 0.4]])
        assert np.allclose(rep.ratios, 0.25, atol=0.02)
        assert rep.nondegenerate
        assert rep.upper_constant <= 1.0

    def test_radial_fixture_points_nondegenerate(self):
        grid = centered_box(2, 1.0, 257)
        field = radial(0.4).sample(grid)
        fb = extract_free_boundary(extract_contact_set(field))
        # FB nodes sit up to ~3h off the exact circle; sup/r^2 inflates by
        # (1 + delta/r)^2, so the C_upper <= 1 bound needs r >= 8h
        radii = np.linspace(8 * grid.h, 0.3, 8)
        points = fb.points[:: max(1, len(fb.points) // 24)]
        reports = growth_report(field, points, [radii] * len(points))
        assert len(reports) == len(points)
        for rep in reports:
            assert rep.nondegenerate
            assert rep.upper_constant <= 1.0

    def test_zero_field_is_bounded(self):
        # every ratio 0: growth is trivially stable, and degenerate
        grid = centered_box(2, 1.0, 129)
        field = ScalarField(grid, np.zeros(grid.shape))
        (rep,) = growth_report(field, [(0.0, 0.0)], [[0.1, 0.2]])
        assert (rep.ratios == 0.0).all()
        assert rep.bounded and not rep.nondegenerate

    def test_zero_ratio_below_a_positive_one_is_unbounded(self):
        # one_d(0.3) at 0: balls inside the contact interval give ratio 0,
        # the ball of radius 0.5 reaches u > 0
        grid = centered_box(1, 1.0, 257)
        (rep,) = growth_report(one_d(0.3).sample(grid), [(0.0,)], [[0.1, 0.2, 0.5]])
        assert rep.lower_constant == 0.0 < rep.upper_constant
        assert not rep.bounded and not rep.nondegenerate

    def test_radius_floor(self):
        grid = centered_box(2, 1.0, 65)
        field = radial(0.4).sample(grid)
        with pytest.raises(ResolutionError):
            growth_report(field, [(0.4, 0.0)], [[2 * grid.h]])
