import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from obslab.fixtures import (
    FixtureError,
    QuadraticForm,
    halfspace,
    one_d,
    polynomial,
    radial,
)
from obslab.grid import centered_box, interior_laplacian


class TestQuadraticForm:
    def test_requires_exact_symmetry(self):
        with pytest.raises(FixtureError):
            QuadraticForm(np.array([[1.0, 0.1], [0.0, 0.0]]))

    def test_from_matrix_symmetrizes(self):
        q = QuadraticForm.from_matrix(np.array([[1.0, 0.2], [0.0, 0.0]]))
        assert q.matrix[0, 1] == q.matrix[1, 0] == pytest.approx(0.1)

    def test_membership(self):
        assert QuadraticForm.diagonal([1.0, 0.0]).is_blowup_form()
        assert QuadraticForm.isotropic(3).is_blowup_form()
        assert not QuadraticForm.diagonal([0.5, 0.0]).is_blowup_form()  # trace 1/2
        assert not QuadraticForm.diagonal([1.5, -0.5]).is_blowup_form()  # indefinite

    def test_projection_exact_on_members(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = rng.standard_normal((3, 3))
            s = g.T @ g
            member = QuadraticForm.from_matrix(s / np.trace(s))
            projected = member.project_to_blowup_form()
            assert member.frobenius_distance(projected) <= 1e-12

    def test_projection_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            raw = QuadraticForm.from_matrix(rng.standard_normal((2, 2)))
            try:
                once = raw.project_to_blowup_form()
            except FixtureError:
                continue  # all-nonpositive draw
            twice = once.project_to_blowup_form()
            assert once.is_blowup_form()
            assert once.frobenius_distance(twice) <= 1e-12

    def test_kernel_dimension(self):
        assert QuadraticForm.diagonal([1.0, 0.0]).kernel_dimension() == 1
        assert QuadraticForm.diagonal([0.5, 0.5]).kernel_dimension() == 0
        assert QuadraticForm.diagonal([0.8, 0.2]).kernel_dimension() == 0
        assert QuadraticForm.diagonal([1.0, 0.0, 0.0]).kernel_dimension() == 2


class TestHalfspace:
    def test_point_values(self):
        ref = halfspace([1.0, 0.0])
        assert ref.evaluate([[0.5, 0.3]])[0] == pytest.approx(0.125)
        assert ref.evaluate([[-0.5, 0.3]])[0] == 0.0

    def test_axis_relabel_symmetry(self):
        ref = halfspace([0.0, 1.0])
        assert ref.evaluate([[0.3, 0.5]])[0] == pytest.approx(0.125)
        assert ref.evaluate([[0.3, -0.5]])[0] == 0.0

    def test_non_unit_direction_rejected(self):
        with pytest.raises(FixtureError):
            halfspace([1.0, 1.0])


class TestPolynomial:
    def test_point_values(self):
        ref = polynomial(QuadraticForm.diagonal([1.0, 0.0]))
        assert ref.evaluate([[0.4, 0.7]])[0] == pytest.approx(0.08)
        iso = polynomial(QuadraticForm.diagonal([0.5, 0.5]))
        assert iso.evaluate([[math.cos(1.0), math.sin(1.0)]])[0] == pytest.approx(0.25)

    def test_contact_set_is_kernel(self):
        ref = polynomial(QuadraticForm.diagonal([1.0, 0.0]))
        assert ref.in_contact([[0.0, 0.7]])[0]
        assert not ref.in_contact([[0.1, 0.7]])[0]
        # kernel dimension matches the stratum the fixture represents
        assert ref.form.kernel_dimension() == 1

    def test_nonmember_rejected(self):
        with pytest.raises(FixtureError):
            polynomial(QuadraticForm.diagonal([0.7, 0.7]))


class TestRadial:
    def test_smooth_fit_at_contact_radius(self):
        ref = radial(0.4)
        assert ref.evaluate([[0.4, 0.0]])[0] == 0.0
        # radial derivative vanishes at rho = a: u'(rho) = rho/2 - a^2/(2 rho)
        eps = 1e-6
        forward = ref.evaluate([[0.4 + eps, 0.0]])[0]
        assert forward / eps == pytest.approx(0.0, abs=1e-5)

    def test_unit_laplacian_outside_contact(self):
        # u'' + u'/rho with u = (rho^2-a^2)/4 - (a^2/2) log(rho/a) is 1
        ref = radial(0.4)
        for rho in (0.5, 0.7, 0.9):
            eps = 1e-5
            u0 = ref.evaluate([[rho, 0.0]])[0]
            up = ref.evaluate([[rho + eps, 0.0]])[0]
            um = ref.evaluate([[rho - eps, 0.0]])[0]
            upp = (up - 2 * u0 + um) / eps**2
            ur = (up - um) / (2 * eps)
            assert upp + ur / rho == pytest.approx(1.0, abs=1e-4)

    def test_closed_form_value(self):
        ref = radial(0.4)
        expected = 0.12 - 0.08 * math.log(2.0)
        assert ref.evaluate([[0.8, 0.0]])[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.064548, abs=5e-7)

    def test_invalid_radius(self):
        with pytest.raises(FixtureError):
            radial(-0.1)
        with pytest.raises(FixtureError):
            radial(1.5).sample(centered_box(2, 1.0, 17))


class TestOneD:
    def test_values_and_kink(self):
        ref = one_d(0.5)
        assert ref.evaluate([[0.5]])[0] == 0.0
        assert ref.evaluate([[1.0]])[0] == pytest.approx(0.125)
        assert ref.evaluate([[-1.0]])[0] == pytest.approx(0.125)
        assert ref.evaluate([[0.25]])[0] == 0.0

    def test_second_derivative_one_outside(self):
        ref = one_d(0.5)
        eps = 1e-5
        for x in (0.7, -0.8):
            u0 = ref.evaluate([[x]])[0]
            up = ref.evaluate([[x + eps]])[0]
            um = ref.evaluate([[x - eps]])[0]
            assert (up - 2 * u0 + um) / eps**2 == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize(
    "ref, dim",
    [
        (halfspace([1.0, 0.0]), 2),
        (polynomial(QuadraticForm.diagonal([0.6, 0.4])), 2),
        (radial(0.4), 2),
        (one_d(0.5), 1),
    ],
)
def test_sampled_fixture_solves_normalized_equation(ref, dim):
    # nonnegative; discrete Laplacian in [0 - tol, 1 + tol] at interior
    # nodes; equal to 1 where the full stencil is > 2h from the contact set
    grid = centered_box(dim, 1.0, 129)
    field = ref.sample(grid)
    assert (field.values >= 0.0).all()
    lap = interior_laplacian(field.values, grid.h)
    # stencils just outside the kink band carry O(h^2 D^4 u) truncation
    tol = 20.0 * grid.h**2
    assert lap.min() >= -tol
    assert lap.max() <= 1.0 + tol
    pts = grid.node_positions().reshape(grid.shape + (dim,))
    interior = pts[(slice(1, -1),) * dim]
    flat = interior.reshape(-1, dim)
    positive = ~ref.in_contact(flat)
    if ref.kind == "halfspace":
        distance = flat @ np.array(ref.direction)
    elif ref.kind == "polynomial":
        distance = np.abs(flat @ ref.form.matrix @ np.array([1.0, 0.0]))  # crude lower bound
        distance = np.linalg.norm(flat @ ref.form.matrix, axis=1)
    else:
        rho = np.linalg.norm(flat, axis=1) if dim == 2 else np.abs(flat[:, 0])
        distance = rho - ref.contact_radius
    away = positive & (distance > 2.0 * grid.h + grid.h)  # full stencil clear of contact
    assert_allclose(lap.reshape(-1)[away], 1.0, atol=5e-2)


@pytest.mark.parametrize(
    "ref",
    [halfspace([math.cos(0.3), math.sin(0.3)]), polynomial(QuadraticForm.diagonal([0.7, 0.3]))],
)
def test_two_homogeneity_on_node_aligned_scaling(ref):
    grid = centered_box(2, 1.0, 65)
    field = ref.sample(grid)
    # u(2x) = 4 u(x) exactly for nodes where both x and 2x are nodes
    n = grid.nodes_per_axis[0]
    mid = n // 2
    for i in range(mid - 10, mid + 11):
        for j in range(mid - 10, mid + 11):
            i2 = mid + 2 * (i - mid)
            j2 = mid + 2 * (j - mid)
            assert field.values[i2, j2] == pytest.approx(4.0 * field.values[i, j], abs=1e-13)
