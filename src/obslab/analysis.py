"""Monotonicity profiles, blow-up classification, stratification, frequency.

The quantities implemented here drive the quantitative free-boundary
diagnostics:

* the scaled energy
  ``W(r) = r^-(n+2) int_{B_r} (|grad u|^2 + 2u) - 2 r^-(n+3) int_{dB_r} u^2``,
  nondecreasing in r and constant (= ``c_n``) on the quadratic profiles;
* the scaled sphere distance
  ``M(r, u, p) = r^-(n+3) int_{dB_r} (u - p)^2`` to a quadratic profile p,
  nondecreasing in r at singular points;
* the blow-up rescaling ``u(x0 + r x) / r^2`` at fixed unit-ball nodes,
  through one multilinear rule per centre offset from its node;
* a classifier fitting the half-space model ``(1/2)[(e.x)_+]^2`` against
  the quadratic model ``(1/2)<Ax, x>`` (A PSD, unit trace) on the field
  rescaled at ``BLOWUP_RADIUS_FACTOR * h``, with W breaking near-ties
  (``RESIDUAL_MARGIN``, ``WEISS_MARGIN``) and stratum = kernel dimension of
  the fitted matrix at ``fixtures.DEFAULT_EIGEN_TOL``. It works
  in array passes: one availability test and one W call for all points,
  then the blocks of stacked blow-ups that ``grid.multilinear_blocks``
  yields, whose half-space directions are fitted in lockstep and whose
  quadratic fits are one product with the design's pseudo-inverse, built
  once per call, and one stacked projection onto the cone. Each point's arithmetic
  is its own, so the blocks do not change results;
* a log-log slope estimator for the decay exponent of the sphere norms of
  ``w = u - p``, whose homogeneity ``lambda*`` controls how fast u settles
  onto its quadratic profile (``2 + alpha = lambda*``).

Profile fields for the quadratures are formed nodally (e.g. ``u - p`` is
subtracted at nodes before squaring and interpolating), so exact fixtures
produce exact zeros rather than interpolation residue.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .freeboundary import FreeBoundarySet
from .fixtures import DEFAULT_EIGEN_TOL, QuadraticForm, project_to_blowup_cone
from .grid import (
    DEFAULT_ANGULAR_SAMPLES,
    GridError,
    GridSpec,
    ResolutionError,
    ScalarField,
    _outside_box,
    _outside_error,
    apply_rule,
    ball_integral,  # noqa: F401 -- wrapped by name in perfbench/tracer.py
    centered_box,
    gather,
    gradient,
    interpolate_many,  # noqa: F401 -- wrapped by name in perfbench/tracer.py
    multilinear_blocks,
    per_radius,
    require_balls_in_box,
    row_dot,
    sphere_integral,  # noqa: F401 -- wrapped by name in perfbench/tracer.py
)

# Weiss constant per dimension: W(r, p) for any unit-trace PSD quadratic p,
# |B_1| / (2(n + 2)). c_3 is a one-off grid-quadrature estimate (h = 0.01,
# 96 angular samples), uncertainty ~5e-4, of 2 pi / 15; it is pinned in the
# benchmark's references and gives way to the closed form at their re-pin.
C3_CALIBRATED = 0.4188028051347664
WEISS_CONSTANTS = {1: 1.0 / 3.0, 2: math.pi / 8.0, 3: C3_CALIBRATED}

# Nodes per axis of the fixed [-1, 1]^n grid that blow-ups are sampled on,
# the blow-up radius in node spacings (also the smallest that
# rescale_blowup accepts), the start directions and golden-section steps of
# the 2D half-space fit, the Newton steps of the 3D one, and the number of
# seeded random forms among Monneau's probes.
REF_NODES = 33
BLOWUP_RADIUS_FACTOR = 8.0
# A singular point's contact strip is measured in the ball of
# STRIP_RADIUS_FACTOR times its blow-up radius.
STRIP_RADIUS_FACTOR = 4.0
DIRECTION_STARTS = 64
GOLDEN_ITERATIONS = 40
NEWTON_STEPS = 6
RANDOM_PROBES = 2
DEGENERACY_FLOOR_FACTOR = 100.0

# The classifier's tie-break: fit residuals (normalized by the blow-up's
# norm) closer than RESIDUAL_MARGIN leave the verdict to the Weiss value,
# which is inconclusive within WEISS_MARGIN * c_n of the midpoint 3 c_n / 4
# between the half-space value c_n / 2 and the quadratic value c_n.
RESIDUAL_MARGIN = 0.05
WEISS_MARGIN = 0.1

NONDECREASING = "nondecreasing"
VIOLATED = "violated"

REGULAR = "regular"
SINGULAR = "singular"
UNDETERMINED = "undetermined"


def weiss_constant(dimension: int) -> float:
    """The constant value of W on quadratic blow-up profiles."""
    return WEISS_CONSTANTS[dimension]


def default_profile_delta(dimension: int, h: float, r_min: float) -> float:
    """Monotonicity tolerance max(0.02 c_n, 5 (h / r_min) c_n)."""
    cn = weiss_constant(dimension)
    return max(0.02 * cn, 5.0 * (h / r_min) * cn)


@dataclass(frozen=True)
class Profile:
    """Sampled r -> value series with a monotonicity verdict."""

    radii: np.ndarray
    values: np.ndarray
    delta: float
    verdict: str  # NONDECREASING | VIOLATED
    violation_radius: float | None = None
    violation_amount: float | None = None
    advisory: bool = False

    @property
    def nondecreasing(self) -> bool:
        return self.verdict == NONDECREASING


def _profile(grid: GridSpec, radii, values, delta, advisory: bool = False) -> Profile:
    """The series with its verdict: Violated when a step drops by more than
    delta (None: ``default_profile_delta`` at the smallest radius)."""
    if delta is None:
        delta = default_profile_delta(grid.dimension, grid.h, radii[0])
    drops = values[:-1] - values[1:]
    if len(drops) == 0 or drops.max() <= delta:
        return Profile(radii, values, float(delta), NONDECREASING, advisory=advisory)
    k = int(np.argmax(drops))
    at, amount = float(radii[k + 1]), float(drops[k])
    return Profile(radii, values, float(delta), VIOLATED, at, amount, advisory)


class WeissEvaluator:
    """Precomputes the |grad u|^2 + 2u and u^2 integrand fields so that W
    can be evaluated cheaply at many (x0, r) pairs of the same field, at
    many centres and one radius at once."""

    def __init__(self, field: ScalarField, angular_samples: int = DEFAULT_ANGULAR_SAMPLES):
        self.field = field
        self.angular_samples = angular_samples
        grads = gradient(field)
        grad_sq = sum(g.values * g.values for g in grads)
        self.bulk = ScalarField(field.grid, grad_sq + 2.0 * field.values)
        self.surface = ScalarField(field.grid, field.values * field.values)

    def at(self, centers, r: float) -> np.ndarray:
        """W(r) around each of the ``(m, dimension)`` centres."""
        n, r = self.field.grid.dimension, float(r)
        bulk = apply_rule(self.bulk, centers, r, "ball") / r ** (n + 2)
        surf = apply_rule(self.surface, centers, r, "sphere", self.angular_samples) / r ** (n + 3)
        return bulk - 2.0 * surf


def weiss_profile(
    field: ScalarField,
    points,
    radii,
    delta: float | None = None,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
) -> list[Profile]:
    """W across radii with a NonDecreasing/Violated verdict at each point,
    over its own radii (one sequence per point), one radius at a time for
    all points that use it."""
    evaluator, points = WeissEvaluator(field, angular_samples), np.asarray(points, dtype=float)
    radii, series = per_radius(field.grid, radii, lambda k, r: evaluator.at(points[k], r))
    return [_profile(field.grid, rs, values, delta) for rs, values in zip(radii, series)]


def _sphere_integrals(field: ScalarField, points, forms, r: float, samples: int) -> np.ndarray:
    """int_{dB_r(x)} (u - p(. - x))^2 at each point x for each form p, as a
    (points, forms) array. ``forms`` is a (1, forms, n, n) stack of
    matrices that every point shares, or a (points, forms, n, n) one. The
    sphere rule's nodes are gathered once for all points and forms, and
    ``(u - p)^2`` is formed at them, p by :func:`_quadratic_models` at their
    offsets from x."""
    out = np.empty((len(points), forms.shape[1]))
    for rows, u, rule in gather(field, points, r, "sphere", samples):
        y = rule.offsets()
        block = forms if len(forms) == 1 else forms[rows]
        for q in range(forms.shape[1]):
            w = u - _quadratic_models(y, block[:, q])
            out[rows, q] = row_dot(np.square(w, out=w), rule.weights)
    return out


def monneau_profile(
    field: ScalarField,
    points,
    forms,
    radii,
    delta: float | None = None,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
    at_singular_point: bool = False,
) -> list[list[Profile]]:
    """M(r, u, p) = r^-(n+3) int_{dB_r} (u - p)^2, u translated to each
    point, across the point's own radii (one sequence per point) against
    each of ``forms``: ``profiles[k][q]`` for point k and form q, one radius
    at a time for all points that use it. The monotonicity statement
    assumes the points are singular; otherwise each verdict is attached as
    advisory only."""
    n, points = field.grid.dimension, np.asarray(points, dtype=float)
    shared = np.array([form.require_blowup_form().matrix for form in forms]).reshape(1, -1, n, n)
    radii, series = per_radius(
        field.grid,
        radii,
        lambda k, r: _sphere_integrals(field, points[k], shared, r, angular_samples),
    )
    profiles = []
    for rs, integrals in zip(radii, series):
        scaled = (integrals / np.array([r ** (n + 3) for r in rs])[:, None]).T
        profiles.append([_profile(field.grid, rs, v, delta, not at_singular_point) for v in scaled])
    return profiles


@functools.lru_cache(maxsize=3)
def unit_ball_nodes(dimension: int) -> np.ndarray:
    """The ``(m, dimension)`` positions, read-only, of the nodes of the fixed
    ``REF_NODES``-per-axis grid over [-1, 1]^n that lie in the closed unit
    ball; blow-ups are sampled there. One array per dimension."""
    pts = centered_box(dimension, 1.0, REF_NODES).node_positions()
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    pts.setflags(write=False)
    return pts


def _require_blowup_radius(grid: GridSpec, r: float) -> None:
    floor = BLOWUP_RADIUS_FACTOR * grid.h
    if not r >= floor:
        raise ResolutionError(f"blow-up radius {r} < {BLOWUP_RADIUS_FACTOR:g}h = {floor}")


def rescale_blowup(field: ScalarField, centers, r: float) -> np.ndarray:
    """u_{x0,r}(x) = u(x0 + r x) / r^2 at the :func:`unit_ball_nodes`, one row
    per centre x0 of ``centers``, from :func:`grid.multilinear_blocks`: a shift
    of the field and the centres by whole nodes keeps every bit, and on
    power-of-two spacings the values are :func:`interpolate_many`'s."""
    grid = field.grid
    _require_blowup_radius(grid, r)
    centers = require_balls_in_box(grid, centers, float(r))
    steps = unit_ball_nodes(grid.dimension) * (r / grid.h)
    values = np.empty((len(centers), len(steps)))
    for rows, block in multilinear_blocks(field, centers, steps):
        values[rows] = block
    values /= r * r
    return values


@dataclass(frozen=True)
class Classification:
    point: tuple[float, ...]
    verdict: str  # REGULAR | SINGULAR | UNDETERMINED
    weiss_value: float | None
    blowup_radius: float | None
    fit_residual: float | None = None
    direction: tuple[float, ...] | None = None  # regular: unit normal of the blow-up
    form: QuadraticForm | None = None  # singular: fitted blow-up matrix
    stratum: int | None = None  # singular: kernel dimension of the matrix
    reason: str | None = None  # undetermined: why


def _angles_to_units(angles: np.ndarray) -> np.ndarray:
    """Unit vectors of a ``(B,)`` block of azimuths."""
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _golden_section(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section minimizers of a row-wise function over [lo, hi], every
    row in lockstep: ``fn`` maps one abscissa per row to one value per row,
    and each step narrows every row's bracket on its own comparison."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_ITERATIONS):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - inv_phi * (b - a), d), np.where(left, c, a + inv_phi * (b - a))
        f = fn(np.where(left, c, d))
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    return 0.5 * (a + b)


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal to ``np.linalg.norm`` of a row of at
    most ``grid.ROW_PIECE`` entries bit for bit (``einsum`` is not)."""
    return np.sqrt(row_dot(d, d))


def _half_space_misfits(points: np.ndarray, values: np.ndarray, directions: np.ndarray):
    """||V_i - (1/2)[(e_i.x)_+]^2|| at the points for each row V_i of
    ``values`` and e_i of ``directions``, in one buffer. The stacked product
    equals ``points @ e_i`` bit for bit, which ``points @ directions.T``
    does not."""
    d = np.matmul(points, directions[:, :, None])[..., 0]
    np.maximum(d, 0.0, out=d)
    np.square(d, out=d)
    d *= 0.5
    np.subtract(values, d, out=d)
    return _row_norms(d)


class _FitArrays(NamedTuple):
    """The :func:`unit_ball_nodes` x, the products x x^T, one row of n^2 per
    node, and D (D^T D)^-1, the transposed pseudo-inverse of the design D of
    (1/2)<Ax, x> at x, one column per entry of A on and above the diagonal:
    built once per classify call, in this order, and not cached (in 3D, a
    cached design or the design first raised peak RSS by 2-3 MB)."""

    points: np.ndarray
    pairs: np.ndarray
    solve: np.ndarray


def _fit_arrays(dimension: int) -> _FitArrays:
    points = unit_ball_nodes(dimension)
    pairs = np.einsum("mi,mj->mij", points, points).reshape(len(points), dimension**2)
    a, b = np.triu_indices(dimension, 1)
    design = np.hstack([0.5 * points**2, points[:, a] * points[:, b]])
    return _FitArrays(points, pairs, design @ np.linalg.inv(design.T @ design))


def _fit_regular(arrays: _FitArrays, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares directions of the half-space model for a ``(B, m)``
    block of blow-ups, with their residuals, in lockstep over the block. 2D:
    the best of ``DIRECTION_STARTS`` directions, its azimuth refined by
    golden section (the pinned 2D directions carry its rounding). 1D and
    3D: :func:`_newton_directions`, from a closed-form start."""
    points, dimension = arrays.points, arrays.points.shape[1]
    if dimension != 2:
        return _newton_directions(arrays, values)
    candidates = _angles_to_units(2.0 * np.pi * np.arange(DIRECTION_STARTS) / DIRECTION_STARTS)
    scores = np.stack(
        [_row_norms(values - 0.5 * np.square(np.maximum(points @ e, 0.0))) for e in candidates],
        axis=1,
    )
    best = np.argmin(scores, axis=1)  # first index on ties
    half = 2.0 * math.pi / DIRECTION_STARTS
    theta = np.array([math.atan2(e[1], e[0]) for e in candidates])[best]

    def along(t: np.ndarray) -> np.ndarray:
        return _half_space_misfits(points, values, _angles_to_units(t))

    theta = _golden_section(along, theta - half, theta + half)
    directions = _angles_to_units(theta)
    return directions, _half_space_misfits(points, values, directions)


def _newton_directions(arrays: _FitArrays, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-space fit: min (1/2)||r||^2 over unit e, r = V - (1/2)[(e.x)_+]^2
    at the unit-ball nodes x. It starts from e = normalize(V @ x), the normal
    of a half-space profile (the first axis where that vanishes), takes
    ``NEWTON_STEPS`` steps on the sphere and returns each row's best iterate.
    A step uses g = -sum r (e.x)_+ x and the Hessian P (sum ((e.x)_+^2 -
    r 1{e.x > 0}) x x^T) P - (e.g) P, P = I - e e^T, or Gauss-Newton's
    P (sum (e.x)_+^2 x x^T) P where that is not positive definite. Products
    are stacked row by row, so the block does not change a row. In 1D, P = 0:
    e stays the sign of the moment, +1 where that vanishes."""
    points, pairs = arrays.points, arrays.pairs
    n = points.shape[1]
    moment = np.matmul(values[:, None, :], points)[:, 0]
    norm = _row_norms(moment)[:, None]
    e = np.divide(moment, norm, out=np.eye(n)[np.zeros(len(values), dtype=int)], where=norm > 0)
    best, misfits = e.copy(), np.full(len(values), np.inf)
    weights = np.empty((len(e), 3, len(points)))  # of x x^T in the Hessians, then of x in g
    for step in range(NEWTON_STEPS + 1):
        p = np.maximum(np.matmul(points, e[:, :, None])[..., 0], 0.0)
        square = np.square(p, out=weights[:, 0])
        r = np.subtract(values, 0.5 * square, out=weights[:, 2])
        current = _row_norms(r)  # as _half_space_misfits(points, values, e), bit for bit
        better = current <= misfits
        best[better], misfits[better] = e[better], current[better]
        if step == NEWTON_STEPS:
            return best, misfits
        np.multiply(r, p > 0.0, out=weights[:, 1])
        g = -np.matmul(np.multiply(r, p, out=r)[:, None, :], points)[:, 0]
        gauss, curvature = np.matmul(weights[:, :2], pairs).reshape(-1, 2, n, n).swapaxes(0, 1)
        outer = e[:, :, None] * e[:, None, :]  # added to both matrices: the step stays tangent
        proj = np.eye(n) - outer
        newton = proj @ (gauss - curvature) @ proj - np.vecdot(e, g)[:, None, None] * proj + outer
        definite = np.linalg.eigvalsh(newton)[:, :1, None] > 0.0
        newton = np.where(definite, newton, proj @ gauss @ proj + outer)
        e = e + np.linalg.solve(newton, -(proj @ g[..., None]))[..., 0]
        e /= _row_norms(e)[:, None]


def _quadratic_models(points: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """(1/2)<Ax, x> at the ``(m, n)`` points x for each of a ``(B, n, n)``
    stack of matrices A: A_ij x_i x_j summed over (i, j) in ``np.ndindex``
    order in one buffer, on contiguous columns of x, which equals
    ``0.5 * np.einsum("mi,bij,mj->bm", x, A, x)`` bit for bit, faster."""
    columns, shape = np.ascontiguousarray(points.T), (len(matrices), len(points))
    models, term = np.zeros(shape), np.empty(shape)
    for i, j in np.ndindex(len(columns), len(columns)):
        np.multiply(columns[i], matrices[:, i, j, None], out=term)
        models += np.multiply(term, columns[j], out=term)
    models *= 0.5
    return models


def _fit_singular(arrays: _FitArrays, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear least squares for the symmetric matrix of (1/2)<Ax, x> on a
    ``(B, m)`` block of blow-ups, projected onto the unit-trace PSD cone by
    :func:`project_to_blowup_cone`: a ``(B, n, n)`` stack of matrices and
    ``(B,)`` residuals measured after projection, both NaN in a row whose
    fit has no positive eigenvalue. Each step is one stacked call that
    works matrix by matrix, so a row's result does not depend on the block."""
    dimension = arrays.points.shape[1]
    coefs = np.matmul(values[:, None, :], arrays.solve)[:, 0]
    matrices = np.zeros((len(values), dimension, dimension))
    diagonal, (a, b) = np.arange(dimension), np.triu_indices(dimension, 1)
    matrices[:, diagonal, diagonal] = coefs[:, :dimension]
    matrices[:, a, b] = matrices[:, b, a] = coefs[:, dimension:]
    matrices = project_to_blowup_cone(matrices)
    misfits = _quadratic_models(arrays.points, matrices)
    return matrices, _row_norms(np.subtract(values, misfits, out=misfits))


def classify_point(
    field: ScalarField, x0, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> Classification:
    """Regular/singular/undetermined verdict for a free-boundary point.

    Fits both blow-up models to the rescaled field at the radius
    ``BLOWUP_RADIUS_FACTOR * h``; the lower normalized residual wins, with
    the Weiss value (near c_n/2 for half-space profiles, near c_n for
    quadratic ones) breaking ties closer than ``RESIDUAL_MARGIN``, and an
    honest Undetermined verdict when W also lies within ``WEISS_MARGIN *
    c_n`` of 3 c_n / 4. ``angular_samples`` sets W's sphere quadrature.
    The path of :func:`stratify`.
    """
    (result,) = _classify(field, [x0], angular_samples)
    return result


def stratify(
    field: ScalarField,
    fb: FreeBoundarySet,
    angular_samples: int = DEFAULT_ANGULAR_SAMPLES,
) -> tuple[list[Classification], dict]:
    """Classify every free-boundary point (see :func:`_classify`) and tally
    the census, a deterministic reduction independent of evaluation order.
    A point without a blow-up or without a quadratic fit is Undetermined."""
    results = _classify(field, fb.points, angular_samples)
    return results, census(results)


def _classify(field: ScalarField, x0s, angular_samples: int) -> list[Classification]:
    """Classifications of the points ``x0s`` at the blow-up radius
    ``BLOWUP_RADIUS_FACTOR * h``, in array passes: the blow-up's
    availability at every point in one in-box test, W at the available
    points in one call, and their blow-ups sampled and fitted in the blocks
    of :func:`grid.multilinear_blocks` (82 points in 2D, 3 in 3D). Each
    point's arithmetic is its own, so the blocks do not change a result."""
    grid, n = field.grid, field.grid.dimension
    r = BLOWUP_RADIUS_FACTOR * grid.h
    centers = np.asarray(x0s, dtype=float).reshape(len(x0s), n)
    points = [tuple(x0) for x0 in centers.tolist()]
    available = ~_outside_box(grid, centers, r)
    centers = centers[available]
    # W first, so that its fields are freed and its cached rules lie below
    # the arrays that the blocks use; then the fits' arrays and the blow-up
    # rule, once per call. This order gave the lowest peak RSS.
    weiss = WeissEvaluator(field, angular_samples).at(centers, r)
    arrays = _fit_arrays(n)
    scales, reg_residuals, sing_residuals = np.empty((3, len(centers)))
    directions, matrices = np.empty((len(centers), n)), np.empty((len(centers), n, n))
    for rows, values in multilinear_blocks(field, centers, arrays.points * (r / grid.h)):
        values /= r * r
        scales[rows] = _row_norms(values)
        directions[rows], reg_residuals[rows] = _fit_regular(arrays, values)
        matrices[rows], sing_residuals[rows] = _fit_singular(arrays, values)
    fits = zip(scales, weiss, directions, reg_residuals, matrices, sing_residuals)
    return [
        _verdict(x0, r, *next(fits))
        if ok
        else _undetermined(x0, None, None, f"blow-up unavailable: {_outside_error(x0, r)}")
        for x0, ok in zip(points, available)
    ]


def _undetermined(x0, weiss_value, r, reason: str, fit_residual=None) -> Classification:
    return Classification(x0, UNDETERMINED, weiss_value, r, fit_residual, reason=reason)


def _verdict(
    x0, r, scale, weiss_value, direction, reg_residual, matrix, sing_residual
) -> Classification:
    """One point's verdict from its blow-up's norm ``scale``, W at the
    blow-up radius (always defined: the blow-up's ball lies in the box) and
    its two fits, whose residuals are normalized by ``scale`` here. The
    stratum is the fitted matrix's kernel dimension at
    ``fixtures.DEFAULT_EIGEN_TOL``."""
    if scale <= 0.0:
        return _undetermined(x0, None, r, "rescaled field vanishes identically")
    weiss_value = float(weiss_value)
    if math.isnan(sing_residual):
        return _undetermined(x0, weiss_value, r, "quadratic fit has no positive eigenvalue")
    reg_residual, sing_residual = float(reg_residual / scale), float(sing_residual / scale)
    if abs(reg_residual - sing_residual) >= RESIDUAL_MARGIN:
        regular_wins = reg_residual < sing_residual
    else:
        # near-tie: consult the Weiss value against the midpoint 3 c_n / 4
        cn = weiss_constant(len(x0))
        midpoint = 0.75 * cn
        if abs(weiss_value - midpoint) < WEISS_MARGIN * cn:
            reason = f"fit residuals within margin ({reg_residual:.3g} vs {sing_residual:.3g}) "
            reason += "and Weiss value inconclusive"
            return _undetermined(x0, weiss_value, r, reason, min(reg_residual, sing_residual))
        regular_wins = weiss_value < midpoint

    if regular_wins:
        direction = tuple(float(c) for c in direction)
        return Classification(x0, REGULAR, weiss_value, r, reg_residual, direction=direction)
    form = QuadraticForm(matrix)
    stratum = form.kernel_dimension()
    return Classification(x0, SINGULAR, weiss_value, r, sing_residual, form=form, stratum=stratum)


def census(classifications: list[Classification]) -> dict:
    verdicts = collections.Counter(c.verdict for c in classifications)
    strata = collections.Counter(str(c.stratum) for c in classifications if c.verdict == SINGULAR)
    return {
        "total": len(classifications),
        "regular": verdicts[REGULAR],
        "singular": verdicts[SINGULAR],
        "undetermined": verdicts[UNDETERMINED],
        "singular_by_stratum": dict(sorted(strata.items())),
    }


@dataclass(frozen=True)
class FrequencyEstimate:
    lambda_star: float | None
    r_squared: float | None
    radii: np.ndarray
    defined: bool
    sphere_norms: np.ndarray


def frequency_lambda(
    field: ScalarField, points, forms, radii, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> list[FrequencyEstimate]:
    """Decay exponent of N(r) = (r^(1-n) int_{dB_r} w^2)^(1/2), w = u - p,
    at each point against its own form p, over its own radii (one sequence
    per point), one radius at a time for all points that use it.

    Least-squares slope of log N against log r over two radii or more;
    undefined (not an error) when any sphere norm sits at the degeneracy
    floor, which is the w == 0 case up to roundoff. The floor is set once
    per field.
    """
    n, points = field.grid.dimension, np.asarray(points, dtype=float)
    own = np.array([form.require_blowup_form().matrix for form in forms]).reshape(-1, 1, n, n)
    radii, series = per_radius(
        field.grid,
        radii,
        lambda k, r: _sphere_integrals(field, points[k], own[k], r, angular_samples),
    )
    if any(len(rs) < 2 for rs in radii):
        raise GridError("a frequency estimate needs at least two radii at each point")
    scale = float(np.abs(field.values).max())
    floor = DEGENERACY_FLOOR_FACTOR * np.finfo(float).eps * max(scale, 1.0)
    return [_frequency(rs, integrals[:, 0], floor, n) for rs, integrals in zip(radii, series)]


def _frequency(radii: np.ndarray, series: np.ndarray, floor: float, n: int) -> FrequencyEstimate:
    """One point's estimate from its sphere integrals of w^2."""
    norms = np.array(
        [math.sqrt(max(s * float(r) ** (1 - n), 0.0)) for s, r in zip(series, radii)]
    )
    if (norms <= floor).any():
        return FrequencyEstimate(
            lambda_star=None, r_squared=None, radii=radii, defined=False, sphere_norms=norms
        )
    logs_r = np.log(radii)
    logs_n = np.log(norms)
    design = np.stack([logs_r, np.ones_like(logs_r)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, logs_n, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((logs_n - fitted) ** 2))
    ss_tot = float(np.sum((logs_n - logs_n.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FrequencyEstimate(
        lambda_star=float(coef[0]),
        r_squared=r_squared,
        radii=radii,
        defined=True,
        sphere_norms=norms,
    )


def probe_forms(dimension: int, seed: int = 0) -> list[QuadraticForm]:
    """The fixed probe set: identity/n, rank-one in the first two axes,
    and seeded random unit-trace PSD forms (n = 1 collapses to [[1]])."""
    if dimension == 1:
        return [QuadraticForm.isotropic(1)]
    forms = [QuadraticForm.isotropic(dimension)]
    for axis in range(min(2, dimension)):
        diag = np.zeros(dimension)
        diag[axis] = 1.0
        forms.append(QuadraticForm.diagonal(diag))
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_PROBES):
        g = rng.standard_normal((dimension, dimension))
        s = g.T @ g
        forms.append(QuadraticForm.from_matrix(s / np.trace(s)))
    return forms


def contact_strip_halfwidth(
    contact_mask: np.ndarray,
    grid: GridSpec,
    points,
    forms,
    radii,
    eigen_tol: float = DEFAULT_EIGEN_TOL,
) -> list[float | None]:
    """Empirical strip half-width of the contact set near each singular
    point x0, with its fitted blow-up form and its radius r.

    Max distance (relative to r) of contact nodes in B_r(x0) from the kernel
    of the form's matrix, cut at ``eigen_tol`` as the stratum is; no decay
    rate in r is asserted. None when no contact node lies in the ball. The
    contact nodes' coordinates are formed once for all points, by
    :meth:`GridSpec.coordinates` as the free boundary's are.
    """
    nodes, widths = grid.coordinates(np.argwhere(contact_mask)), []
    for x0, form, r in zip(points, forms, radii):
        pts = nodes - np.asarray(x0, dtype=float)
        pts = pts[np.linalg.norm(pts, axis=1) <= r]
        eigvals, eigvecs = np.linalg.eigh(form.matrix)
        basis = eigvecs[:, eigvals >= eigen_tol]  # directions transverse to the kernel
        widths.append(float(np.max(np.linalg.norm(pts @ basis, axis=1)) / r) if len(pts) else None)
    return widths
