"""Property tests: the classifier on rotated and reflected fixtures, the Weiss
energy on quadratic profiles, and field-file round-trips."""

import math
import tempfile
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from obslab.analysis import WeissEvaluator, classify_point
from obslab.fixtures import QuadraticForm, halfspace, polynomial
from obslab.grid import GridSpec, ScalarField, centered_box
from obslab.io import read_field, write_field

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)
GRID = centered_box(2, 1.0, 129)
GRIDS = {2: GRID, 3: centered_box(3, 1.0, 33)}
ANGLES = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@PROPERTY_SETTINGS
@given(angle=ANGLES, eigenvalue=st.one_of(st.floats(0.1, 0.9), st.just(1.0)))
def test_rotated_polynomial_classifies_singular(angle, eigenvalue):
    r = rotation(angle)
    form = QuadraticForm.from_matrix(r @ np.diag([eigenvalue, 1.0 - eigenvalue]) @ r.T)
    c = classify_point(polynomial(form).sample(GRID), (0.0, 0.0))
    assert c.verdict == "singular"
    assert c.form.frobenius_distance(form) <= 0.01
    assert c.stratum == form.kernel_dimension()


@PROPERTY_SETTINGS
@given(angle=ANGLES)
def test_rotated_halfspace_classifies_regular(angle):
    e = np.array([math.cos(angle), math.sin(angle)])
    c = classify_point(halfspace(e).sample(GRID), (0.0, 0.0))
    assert c.verdict == "regular"
    assert math.degrees(math.acos(min(1.0, np.dot(c.direction, e)))) < 0.01


@st.composite
def unit_trace_forms(draw, dimension: int) -> QuadraticForm:
    """A unit-trace PSD form G^T G / tr, of any rank from 1 to ``dimension``."""
    rank = draw(st.integers(1, dimension))
    g = draw(hnp.arrays(np.float64, (rank, dimension), elements=st.floats(-1.0, 1.0)))
    s = g.T @ g
    assume(np.trace(s) > 0.1)
    return QuadraticForm.from_matrix(s / np.trace(s))


@st.composite
def reflected_fixtures(draw):
    """A half-space or polynomial fixture in 2D or 3D, and an axis to reflect
    it across."""
    n = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        e = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
        assume(np.linalg.norm(e) > 0.1)
        ref = halfspace(e / np.linalg.norm(e))
    else:
        ref = polynomial(draw(unit_trace_forms(n)))
    return ref, draw(st.integers(0, n - 1))


@PROPERTY_SETTINGS
@given(case=reflected_fixtures())
def test_reflection_reflects_the_classification(case):
    # u(x) -> u(R x) with R flipping one axis: same verdict and stratum, and
    # the direction or fitted form reflected (R e, R A R)
    ref, axis = case
    field = ref.sample(GRIDS[ref.dimension])
    mirrored = ScalarField(field.grid, np.flip(field.values, axis=axis))
    origin = (0.0,) * ref.dimension
    c, m = classify_point(field, origin), classify_point(mirrored, origin)
    assert c.verdict == m.verdict != "undetermined"
    assert c.stratum == m.stratum
    flip = np.ones(ref.dimension)
    flip[axis] = -1.0
    if c.direction is not None:
        assert_allclose(m.direction, flip * np.array(c.direction), rtol=0.0, atol=1e-6)
    if c.form is not None:
        reflected = flip[:, None] * c.form.matrix * flip[None, :]
        assert_allclose(m.form.matrix, reflected, rtol=0.0, atol=1e-9)


@PROPERTY_SETTINGS
@given(form=unit_trace_forms(2))
def test_weiss_energy_is_pi_over_8_on_quadratic_profiles(form):
    # W(r, p) = c_2 = pi/8 for every unit-trace PSD quadratic p
    evaluator = WeissEvaluator(polynomial(form).sample(centered_box(2, 1.0, 257)))
    for r in (0.2, 0.35, 0.5):
        assert abs(evaluator.at([(0.0, 0.0)], r)[0] - math.pi / 8.0) <= 0.02 * math.pi / 8.0


@st.composite
def fields(draw) -> ScalarField:
    dimension = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.integers(3, 6), min_size=dimension, max_size=dimension))
    lower = draw(st.lists(st.floats(-10.0, 10.0), min_size=dimension, max_size=dimension))
    # one spacing for every axis, as GridSpec requires (to 1e-12 relative)
    h = draw(st.floats(0.01, 10.0))
    grid = GridSpec(
        lower=lower, upper=[lo + h * (m - 1) for lo, m in zip(lower, nodes)], nodes_per_axis=nodes
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(hnp.arrays(np.float64, grid.shape, elements=finite))
    return ScalarField(grid, values)


@PROPERTY_SETTINGS
@given(field=fields())
def test_field_file_round_trips_bit_exactly(field):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.field"
        write_field(path, field)
        back = read_field(path)
    assert back.grid == field.grid
    assert back.values.tobytes() == field.values.tobytes()
