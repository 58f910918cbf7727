"""Uniform structured grids, scalar fields, stencils, and ball/sphere quadrature.

Everything downstream (solvers, free-boundary extraction, monotonicity
profiles, blow-up classification) is built on the primitives in this module:
node-based scalar fields on an axis-aligned box in dimension 1, 2 or 3,
second-order finite-difference stencils, multilinear interpolation, and
the ball, sphere and sup rules: each a weight array with its nodes' offsets
from the centre, built once per radius and applied to a window of the field.

All operations are pure: fields are immutable snapshots.
"""

from __future__ import annotations

import functools
import itertools
import reprlib
from dataclasses import dataclass

import numpy as np

_SPACING_RTOL = 1e-12
# Smallest radius, in node spacings, of a diagnostic series and of any rule.
MIN_RADIUS_FACTOR = 4.0
MIN_RULE_RADIUS_FACTOR = 3.0
DEFAULT_ANGULAR_SAMPLES = 64
MIN_ANGULAR_SAMPLES = 16


class GridError(ValueError):
    """Invalid grid, field, or ball specification."""


class OutOfDomainError(GridError):
    """A point or ball is not contained in the grid box."""


class ResolutionError(GridError):
    """The grid is too coarse for the requested operation."""


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned box with a uniform node lattice.

    Parameters
    ----------
    lower, upper : tuple of float
        Box corners, one entry per axis; ``upper > lower`` componentwise.
    nodes_per_axis : tuple of int
        Node counts (>= 3), endpoints included. Spacing
        ``(upper - lower) / (nodes - 1)`` must agree across axes to 1e-12
        relative, so a single scalar ``h`` (set at construction) describes
        the lattice.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes_per_axis: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "nodes_per_axis", tuple(int(v) for v in self.nodes_per_axis))
        n = len(self.lower)
        if n not in (1, 2, 3):
            raise GridError(f"dimension must be 1, 2 or 3, got {n}")
        if len(self.upper) != n or len(self.nodes_per_axis) != n:
            raise GridError("lower, upper and nodes_per_axis must have one entry per axis")
        if not np.isfinite(self.lower + self.upper).all():
            raise GridError(f"lower and upper must be finite, got {self.lower} and {self.upper}")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise GridError(f"upper must exceed lower on every axis, got {hi} <= {lo}")
        for m in self.nodes_per_axis:
            if m < 3:
                raise GridError(f"nodes_per_axis must be >= 3, got {m}")
        spacings = tuple(
            (hi - lo) / (m - 1) for lo, hi, m in zip(self.lower, self.upper, self.nodes_per_axis)
        )
        h0 = spacings[0]
        for ha in spacings[1:]:
            if abs(ha - h0) > _SPACING_RTOL * max(abs(h0), abs(ha)):
                raise GridError(f"lower, upper and nodes_per_axis give nonuniform spacing {spacings}")
        object.__setattr__(self, "h", h0)

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    @property
    def node_count(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    def axis(self, a: int) -> np.ndarray:
        """Node coordinates along axis ``a``."""
        return np.linspace(self.lower[a], self.upper[a], self.nodes_per_axis[a])

    def node_positions(self) -> np.ndarray:
        """All node positions as an ``(node_count, dimension)`` array."""
        mesh = np.meshgrid(*(self.axis(a) for a in range(self.dimension)), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def interior_slices(self) -> tuple[slice, ...]:
        return (slice(1, -1),) * self.dimension


def centered_box(dimension: int, half_width: float, nodes_per_axis: int) -> GridSpec:
    """Grid on ``[-half_width, half_width]^dimension``."""
    return GridSpec(
        lower=(-half_width,) * dimension,
        upper=(half_width,) * dimension,
        nodes_per_axis=(nodes_per_axis,) * dimension,
    )


@dataclass(frozen=True)
class ScalarField:
    """One finite real value per grid node, stored read-only; NaN and
    ±inf are refused when the field is made, so no consumer checks again."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise GridError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        if not np.isfinite(values).all():
            raise GridError("field contains non-finite (NaN or infinite) values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def field_from_function(grid: GridSpec, fn) -> ScalarField:
    """Sample ``fn(points) -> values`` at every node."""
    values = np.asarray(fn(grid.node_positions()), dtype=float).reshape(grid.shape)
    return ScalarField(grid, values)


@dataclass(frozen=True)
class BallSpec:
    """Closed ball ``B_r(x0)``; containment in a grid box is checked at use."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0.0:
            raise GridError(f"ball radius must be positive, got {self.radius}")


def require_ball_in_box(grid: GridSpec, ball: BallSpec) -> None:
    if len(ball.center) != grid.dimension:
        raise GridError(
            f"ball center dimension {len(ball.center)} != grid dimension {grid.dimension}"
        )
    for a, c in enumerate(ball.center):
        if c - ball.radius < grid.lower[a] or c + ball.radius > grid.upper[a]:
            raise OutOfDomainError(
                f"ball B_{ball.radius}({ball.center}) is not contained in the grid box"
            )


def require_increasing(radii) -> np.ndarray:
    """The radii as an array, finite and strictly increasing (no grid needed)."""
    radii = np.asarray([float(r) for r in radii])
    if not np.isfinite(radii).all():
        raise GridError(f"radii must be finite, got {reprlib.repr(radii.tolist())}")
    if not (np.diff(radii) > 0).all():
        raise GridError("radii must be strictly increasing")
    return radii


def require_radii(grid: GridSpec, radii) -> np.ndarray:
    """The radii as an array: non-empty, strictly increasing, the smallest
    at least ``MIN_RADIUS_FACTOR * h``."""
    radii = require_increasing(radii)
    if len(radii) == 0:
        raise GridError("need at least one radius")
    floor = MIN_RADIUS_FACTOR * grid.h
    if radii[0] < floor:
        raise ResolutionError(f"radius {radii[0]} below {MIN_RADIUS_FACTOR}h = {floor}")
    return radii


def admissible_radii(grid: GridSpec, point, radii) -> list[float]:
    """The radii whose balls around ``point`` stay inside the box and that
    are at least ``MIN_RADIUS_FACTOR * h``."""
    margin = min(
        min(point[a] - grid.lower[a], grid.upper[a] - point[a]) for a in range(grid.dimension)
    )
    return [r for r in radii if MIN_RADIUS_FACTOR * grid.h <= r <= margin]


def neighbor_sum(u: np.ndarray) -> np.ndarray:
    """Sum of the 2n axis neighbours of each interior node of ``u`` (shape
    ``m - 2`` per axis). Terms are added axis by axis,
    ``u[x - e_a] + u[x + e_a]`` first, so every caller sees the same rounding.
    """
    core = (slice(1, -1),) * u.ndim
    total = None
    for a in range(u.ndim):
        lo = core[:a] + (slice(None, -2),) + core[a + 1 :]
        hi = core[:a] + (slice(2, None),) + core[a + 1 :]
        term = u[lo] + u[hi]
        total = term if total is None else total + term
    return total


def interior_laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """The Laplacian stencil of a nodal array with spacing ``h``, at its
    interior nodes (shape ``m - 2`` per axis)."""
    core = (slice(1, -1),) * u.ndim
    return (neighbor_sum(u) - 2.0 * u.ndim * u[core]) / (h * h)


def gradient(field: ScalarField) -> tuple[ScalarField, ...]:
    """Componentwise gradient: central differences at interior nodes,
    second-order one-sided at the boundary faces (exact on quadratics)."""
    grid = field.grid
    return tuple(
        ScalarField(grid, np.gradient(field.values, grid.h, axis=a, edge_order=2))
        for a in range(grid.dimension)
    )


def interpolate_many(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at ``(m, dimension)`` points.

    Exact on affine functions and at nodes; O(h^2) on C^{1,1} fields.
    Raises :class:`OutOfDomainError` for points outside the box.
    """
    grid = field.grid
    nd = grid.dimension
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != nd:
        raise GridError(f"points must have shape (m, {nd}), got {points.shape}")
    lower = np.array(grid.lower)
    upper = np.array(grid.upper)
    eps = 1e-12 * max(abs(v) for v in (*grid.lower, *grid.upper, 1.0))
    if (points < lower - eps).any() or (points > upper + eps).any():
        raise OutOfDomainError("interpolation point outside the grid box")

    t = (points - lower) / grid.h
    base = np.clip(np.floor(t).astype(int), 0, np.array(grid.shape) - 2)
    result = np.zeros(points.shape[0])
    for index, weight in _corners(base, t - base, np.ones(points.shape[0])):
        result += weight * field.values[index]
    return result


def _corners(base: np.ndarray, frac: np.ndarray, weights: np.ndarray):
    """Each multilinear corner of the ``(m, n)`` cells ``base`` at offsets
    ``frac``: its node index and ``weights`` times its corner weight."""
    for corner in itertools.product((0, 1), repeat=base.shape[1]):
        w = weights.copy()
        for a, bit in enumerate(corner):
            w *= frac[:, a] if bit else 1.0 - frac[:, a]
        yield tuple((base + corner).T), w


def _sphere_samples(n: int, r: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights of the sphere rule. 1D: two-point sum;
    2D: uniform trapezoid in angle; 3D: latitude-longitude product rule
    with sine weights."""
    if n == 1:
        return np.array([[-1.0], [1.0]]), np.ones(2)
    if m < MIN_ANGULAR_SAMPLES:
        raise GridError(f"angular_samples must be >= {MIN_ANGULAR_SAMPLES}, got {m}")
    phi = 2.0 * np.pi * np.arange(m) / m
    if n == 2:
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.full(m, 2.0 * np.pi * r / m)
    theta = np.pi * (np.arange(m) + 0.5) / m  # polar, midpoint rule
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    direction = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    weights = r * r * np.sin(tt) * (np.pi / m) * (2.0 * np.pi / m)
    return direction.reshape(-1, 3), weights.ravel()


@functools.lru_cache(maxsize=32)
def _rule(kind: str, h: float, r: float, offset: tuple[float, ...], samples: int) -> tuple:
    """Weights of a rule on the (2 reach + 1)^n box of nodes around the node
    nearest the centre, and the box's offsets from the centre per axis, all
    read-only; ``offset`` is the centre minus that node, in spacings.
    ``ball``: ``clip(1/2 + (r - d)/h, 0, 1) h^n`` at distance d (the exact
    partial-cell measure in 1D); ``sup``: 1 on the closed ball; ``sphere``:
    the multilinear corner weights of the sphere samples."""
    n = len(offset)
    reach = int(np.ceil(r / h)) + 1
    steps = tuple((np.arange(-reach, reach + 1) - o) * h for o in offset)
    if kind == "sphere":
        directions, sample_weights = _sphere_samples(n, r, samples)
        t = reach + np.array(offset) + directions * (r / h)
        base = np.floor(t).astype(int)
        weights = np.zeros((2 * reach + 1,) * n)
        for index, w in _corners(base, t - base, sample_weights):
            np.add.at(weights, index, w)
    else:
        dist = np.sqrt(sum(m * m for m in np.meshgrid(*steps, indexing="ij")))
        inside = (dist <= r).astype(float)
        weights = {"sup": inside, "ball": np.clip(0.5 + (r - dist) / h, 0.0, 1.0) * h**n}[kind]
    for array in (weights, *steps):
        array.setflags(write=False)
    return weights, steps


def quadrature_window(
    field: ScalarField, ball: BallSpec, kind: str, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """The offsets from the centre per axis, field values and weights of
    the rule ``kind`` (``ball``, ``sphere`` or ``sup``) over ``ball``,
    clipped to the grid.

    A centre within 1e-9 spacings of a node is taken as that node. Raises
    for a ball outside the box, a radius below ``MIN_RULE_RADIUS_FACTOR *
    h``.
    """
    grid = field.grid
    require_ball_in_box(grid, ball)
    h, r = grid.h, ball.radius
    if r < MIN_RULE_RADIUS_FACTOR * h:
        raise ResolutionError(f"radius {r} < {MIN_RULE_RADIUS_FACTOR:g}h: quadrature unreliable")
    t = (np.array(ball.center) - grid.lower) / grid.h
    node = np.round(t).astype(int)
    offset = np.where(np.abs(t - node) < 1e-9, 0.0, t - node)
    samples = angular_samples if kind == "sphere" else 0
    weights, steps = _rule(kind, h, r, tuple(offset.tolist()), samples)
    reach = weights.shape[0] // 2
    lo, hi = np.maximum(node - reach, 0), np.minimum(node + reach + 1, grid.shape)
    box = tuple(map(slice, lo - node + reach, hi - node + reach))
    values = field.values[tuple(map(slice, lo, hi))]
    return tuple(s[b] for s, b in zip(steps, box)), values, weights[box]


def ball_integral(field: ScalarField, ball: BallSpec) -> float:
    """Node quadrature of the field over a ball; relative error O(h/r) worst
    case on Lipschitz integrands, far smaller in practice."""
    _, values, weights = quadrature_window(field, ball, "ball")
    return float(np.sum(weights * values))


def sphere_integral(
    field: ScalarField, ball: BallSpec, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> float:
    """Surface quadrature over the sphere bounding ``ball``, the field
    interpolated multilinearly at the samples."""
    _, values, weights = quadrature_window(field, ball, "sphere", angular_samples)
    return float(np.sum(weights * values))


def sup_on_ball(field: ScalarField, ball: BallSpec) -> float:
    """Maximum nodal value inside the closed ball."""
    _, values, weights = quadrature_window(field, ball, "sup")
    return float(np.max(values[weights > 0.0]))
