"""Property tests: the classifier on rotated fixtures, and field-file round-trips."""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from obslab.analysis import classify_point
from obslab.fixtures import QuadraticForm, halfspace, polynomial
from obslab.grid import GridSpec, ScalarField, centered_box
from obslab.io import read_field, write_field

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)
GRID = centered_box(2, 1.0, 129)
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
def fields(draw) -> ScalarField:
    dimension = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.integers(3, 6), min_size=dimension, max_size=dimension))
    lower = draw(st.lists(st.floats(-10.0, 10.0), min_size=dimension, max_size=dimension))
    # one spacing for every axis, as GridSpec requires (to 1e-12 relative)
    h = draw(st.floats(0.01, 10.0))
    grid = GridSpec(
        lower=lower, upper=[lo + h * (m - 1) for lo, m in zip(lower, nodes)], nodes_per_axis=nodes
    )
    values = draw(hnp.arrays(np.float64, grid.shape, elements=st.floats(allow_infinity=False)))
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
