"""Uniform structured grids, scalar fields, stencils, and ball/sphere quadrature.

Everything downstream (solvers, free-boundary extraction, monotonicity
profiles, blow-up classification) is built on the primitives in this module:
node-based scalar fields on an axis-aligned box in dimension 1, 2 or 3,
second-order finite-difference stencils, multilinear interpolation, and
quadrature over balls and spheres centered at interior points.

All operations are pure: fields are immutable snapshots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

_SPACING_RTOL = 1e-12
# Ball and sphere diagnostics need radii of at least this many node spacings.
MIN_RADIUS_FACTOR = 4.0
DEFAULT_ANGULAR_SAMPLES = 64


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
        relative, so a single scalar ``h`` describes the lattice.
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
            raise GridError("lower, upper and nodes_per_axis must have equal length")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise GridError(f"empty box: upper={hi} <= lower={lo}")
        for m in self.nodes_per_axis:
            if m < 3:
                raise GridError(f"need at least 3 nodes per axis, got {m}")
        spacings = self.spacings
        h0 = spacings[0]
        for ha in spacings[1:]:
            if abs(ha - h0) > _SPACING_RTOL * max(abs(h0), abs(ha)):
                raise GridError(f"nonuniform spacing {spacings}; axes must agree to 1e-12")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes_per_axis

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (m - 1) for lo, hi, m in zip(self.lower, self.upper, self.nodes_per_axis)
        )

    @property
    def h(self) -> float:
        """Common node spacing."""
        return self.spacings[0]

    @property
    def node_count(self) -> int:
        return int(np.prod(self.nodes_per_axis))

    def axis(self, a: int) -> np.ndarray:
        """Node coordinates along axis ``a``."""
        return np.linspace(self.lower[a], self.upper[a], self.nodes_per_axis[a])

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``self.shape`` (indexing='ij')."""
        return tuple(np.meshgrid(*(self.axis(a) for a in range(self.dimension)), indexing="ij"))

    def node_positions(self) -> np.ndarray:
        """All node positions as an ``(node_count, dimension)`` array."""
        mesh = self.meshgrid()
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
    """One real value per grid node.

    ``values`` is stored read-only. Finite values are required for data
    fields (solutions, fixtures, boundary data); stencil outputs such as
    :func:`discrete_laplacian` mark nodes where the stencil is undefined
    (the boundary ring) with NaN, and reductions must exclude those nodes.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise GridError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        if np.isinf(values).any():
            raise GridError("field contains infinite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def require_finite(self, what: str = "field") -> "ScalarField":
        if not np.isfinite(self.values).all():
            raise GridError(f"{what} contains undefined (NaN) values")
        return self

    def interior(self) -> np.ndarray:
        """View of the interior nodes."""
        return self.values[self.grid.interior_slices()]


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


def require_radii(grid: GridSpec, radii) -> np.ndarray:
    """The radii as an array: non-empty, strictly increasing, the smallest
    at least ``MIN_RADIUS_FACTOR * h``."""
    radii = np.asarray([float(r) for r in radii])
    if len(radii) == 0:
        raise GridError("need at least one radius")
    if not (np.diff(radii) > 0).all():
        raise GridError("radii must be strictly increasing")
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


def _axis_window(grid: GridSpec, a: int, c: float, r: float) -> slice:
    """Indices of nodes within [c-r-h, c+r+h] along axis a."""
    h = grid.spacings[a]
    i0 = int(np.floor((c - r - grid.lower[a]) / h)) - 1
    i1 = int(np.ceil((c + r - grid.lower[a]) / h)) + 2
    return slice(max(i0, 0), min(i1, grid.nodes_per_axis[a]))


def _window_distances(grid: GridSpec, ball: BallSpec) -> tuple[tuple[slice, ...], np.ndarray]:
    """Bounding window around the ball and node distances to its center."""
    window = tuple(
        _axis_window(grid, a, ball.center[a], ball.radius) for a in range(grid.dimension)
    )
    axes = [grid.axis(a)[window[a]] - ball.center[a] for a in range(grid.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    dist = np.sqrt(sum(m * m for m in mesh))
    return window, dist


def neighbor_sum(u: np.ndarray, where: tuple[slice, ...]) -> np.ndarray:
    """Sum of the 2n axis neighbours of the nodes ``u[where]``.

    ``where`` holds one slice per axis, possibly strided, selecting interior
    nodes only. Terms are added axis by axis, ``u[x - e_a] + u[x + e_a]``
    first, so every caller sees the same rounding.
    """
    total = None
    for a, s in enumerate(where):
        start, stop, step = s.indices(u.shape[a])
        lo = where[:a] + (slice(start - 1, stop - 1, step),) + where[a + 1 :]
        hi = where[:a] + (slice(start + 1, stop + 1, step),) + where[a + 1 :]
        term = u[lo] + u[hi]
        total = term if total is None else total + term
    return total


def interior_laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """The Laplacian stencil of a nodal array with spacing ``h``, at its
    interior nodes (shape ``m - 2`` per axis)."""
    core = (slice(1, -1),) * u.ndim
    return (neighbor_sum(u, core) - 2.0 * u.ndim * u[core]) / (h * h)


def discrete_laplacian(field: ScalarField) -> ScalarField:
    """Second-order central Laplacian; boundary ring is NaN (undefined).

    The stencil sums ``(u(x+h e_a) - 2 u(x) + u(x-h e_a)) / h^2`` over axes
    and is exact on quadratics.
    """
    grid = field.grid
    out = np.full(grid.shape, np.nan)
    out[grid.interior_slices()] = interior_laplacian(field.values, grid.h)
    return ScalarField(grid, out)


def gradient(field: ScalarField) -> tuple[ScalarField, ...]:
    """Componentwise gradient: central differences at interior nodes,
    second-order one-sided at the boundary faces (exact on quadratics)."""
    grid = field.grid
    u = field.values
    nd = grid.dimension
    out = []
    for a in range(nd):
        h = grid.spacings[a]
        g = np.empty_like(u)
        mid = tuple(slice(1, -1) if b == a else slice(None) for b in range(nd))
        lo = tuple(slice(0, -2) if b == a else slice(None) for b in range(nd))
        hi = tuple(slice(2, None) if b == a else slice(None) for b in range(nd))
        g[mid] = (u[hi] - u[lo]) / (2.0 * h)

        def face(i: int) -> tuple[slice | int, ...]:
            return tuple(i if b == a else slice(None) for b in range(nd))

        g[face(0)] = (-3.0 * u[face(0)] + 4.0 * u[face(1)] - u[face(2)]) / (2.0 * h)
        g[face(-1)] = (3.0 * u[face(-1)] - 4.0 * u[face(-2)] + u[face(-3)]) / (2.0 * h)
        out.append(ScalarField(grid, g))
    return tuple(out)


def interpolate(field: ScalarField, point: np.ndarray) -> float:
    """Multilinear interpolation at a single point inside the box."""
    return float(interpolate_many(field, np.asarray(point, dtype=float)[None, :])[0])


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

    t = (points - lower) / np.array(grid.spacings)
    base = np.clip(np.floor(t).astype(int), 0, np.array(grid.shape) - 2)
    frac = t - base

    result = np.zeros(points.shape[0])
    for corner in itertools.product((0, 1), repeat=nd):
        weight = np.ones(points.shape[0])
        idx = []
        for a, bit in enumerate(corner):
            weight *= frac[:, a] if bit else (1.0 - frac[:, a])
            idx.append(base[:, a] + bit)
        result += weight * field.values[tuple(idx)]
    return result


def ball_integral(field: ScalarField, ball: BallSpec) -> float:
    """Node quadrature of the field over a ball.

    Nodes strictly inside get weight ``h^n``; cells straddling the sphere
    get the fractional weight ``clip(1/2 + (r - d)/h, 0, 1) * h^n`` (exact
    partial-cell measure in 1D). Relative error is O(h/r) worst case on
    Lipschitz integrands, far smaller in practice.
    """
    grid = field.grid
    require_ball_in_box(grid, ball)
    h = grid.h
    if ball.radius < 3.0 * h:
        raise ResolutionError(f"ball radius {ball.radius} < 3h = {3 * h}; quadrature unreliable")
    window, dist = _window_distances(grid, ball)
    weights = np.clip(0.5 + (ball.radius - dist) / h, 0.0, 1.0)
    chunk = field.values[window]
    if np.isnan(chunk[weights > 0.0]).any():
        raise GridError("ball quadrature over undefined (NaN) field values")
    return float(np.sum(weights * chunk) * h**grid.dimension)


def sphere_integral(
    field: ScalarField, ball: BallSpec, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> float:
    """Surface quadrature over the sphere bounding ``ball``.

    1D: two-point sum; 2D: uniform trapezoid in angle; 3D: latitude-
    longitude product rule with sine weights. Field values come from
    :func:`interpolate_many`.
    """
    grid = field.grid
    require_ball_in_box(grid, ball)
    h = grid.h
    r = ball.radius
    if r < 3.0 * h:
        raise ResolutionError(f"ball radius {r} < 3h = {3 * h}; quadrature unreliable")
    nd = grid.dimension
    center = np.array(ball.center)
    if nd == 1:
        pts = center[None, :] + np.array([[-r], [r]])
        return float(np.sum(interpolate_many(field, pts)))
    if angular_samples < 16:
        raise GridError(f"angular_samples must be >= 16, got {angular_samples}")
    if nd == 2:
        theta = 2.0 * np.pi * np.arange(angular_samples) / angular_samples
        pts = center[None, :] + r * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals = interpolate_many(field, pts)
        return float(np.sum(vals) * (2.0 * np.pi * r / angular_samples))
    m = angular_samples
    theta = np.pi * (np.arange(m) + 0.5) / m  # polar, midpoint rule
    phi = 2.0 * np.pi * np.arange(m) / m
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    direction = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    pts = center[None, :] + r * direction
    vals = interpolate_many(field, pts)
    weights = (r * r * np.sin(tt) * (np.pi / m) * (2.0 * np.pi / m)).ravel()
    return float(np.sum(vals * weights))


def sup_on_ball(field: ScalarField, ball: BallSpec) -> float:
    """Maximum nodal value inside the closed ball (interpolated center if
    the ball contains no node)."""
    grid = field.grid
    require_ball_in_box(grid, ball)
    window, dist = _window_distances(grid, ball)
    inside = dist <= ball.radius
    if not inside.any():
        return interpolate(field, np.array(ball.center))
    chunk = field.values[window]
    vals = chunk[inside]
    if np.isnan(vals).any():
        raise GridError("sup over undefined (NaN) field values")
    return float(np.max(vals))
