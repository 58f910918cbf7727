"""Uniform structured grids, scalar fields, stencils, and ball/sphere quadrature.

Everything downstream (solvers, free-boundary extraction, monotonicity
profiles, blow-up classification) is built on the primitives in this module:
node-based scalar fields on an axis-aligned box in dimension 1, 2 or 3,
second-order finite-difference stencils, multilinear interpolation, and
the ball, sphere and sup rules: each kept as its nonzero weights and their
nodes, built once per radius and applied at many centres at once by one
gather of the field at those nodes.

All operations are pure: fields are immutable snapshots.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_SPACING_RTOL = 1e-12
# Smallest radius, in node spacings, of a diagnostic series and of any rule.
MIN_RADIUS_FACTOR = 4.0
MIN_RULE_RADIUS_FACTOR = 3.0
DEFAULT_ANGULAR_SAMPLES = 64
MIN_ANGULAR_SAMPLES = 16
# A centre or a sphere sample this close to a node or grid line, in
# spacings, is taken as on it.
NODE_SNAP = 1e-9
# Bytes that one block of :func:`gather` (the field values and their flat
# indices, 8 bytes each per node) or :func:`multilinear_blocks` holds.
GATHER_BYTES = 2**19
# Longest piece of a row in :func:`row_dot`. OpenBLAS's ddot (``np.vecdot`` on
# float64) ran rows of 10,001 entries or more on two threads of a 2-core host,
# with other bits than one thread's, at twice the CPU and 1.2-1.5x the wall time.
ROW_PIECE = 8192


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


def _outside_box(grid: GridSpec, centers: np.ndarray, r) -> np.ndarray:
    """Whether the ball of radius ``r`` around each centre (coordinates on
    the last axis) leaves the box: the one in-box test. ``r`` broadcasts
    against the other axes, as a column of radii does."""
    return ((centers - r < grid.lower) | (centers + r > grid.upper)).any(axis=-1)


def _require_centres(grid: GridSpec, centers) -> np.ndarray:
    """The centres as an ``(m, dimension)`` array; raises for another shape."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != grid.dimension:
        raise GridError(f"ball centres must have shape (m, {grid.dimension}), got {centers.shape}")
    return centers


def require_balls_in_box(grid: GridSpec, centers, r: float) -> np.ndarray:
    """The centres as an ``(m, dimension)`` array; raises unless the ball of
    radius ``r`` around each lies in the box."""
    centers = _require_centres(grid, centers)
    outside = _outside_box(grid, centers, r)
    if outside.any():
        raise _outside_error(tuple(centers[np.argmax(outside)].tolist()), r)
    return centers


def _outside_error(center: tuple, r: float) -> OutOfDomainError:
    return OutOfDomainError(f"ball B_{r}({center}) is not contained in the grid box")


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


def admissible_radii(grid: GridSpec, points, radii) -> list[list[float]]:
    """For each of the ``(m, dimension)`` points, the radii, at least
    ``MIN_RADIUS_FACTOR * h``, whose balls around it
    :func:`require_balls_in_box` admits: one list per point."""
    points, radii, floor = _require_centres(grid, points), list(radii), MIN_RADIUS_FACTOR * grid.h
    outside = _outside_box(grid, points[:, None, :], np.array(radii)[:, None])
    return [[r for r, out in zip(radii, row) if floor <= r and not out] for row in outside]


def neighbor_pairs(u: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The views ``(u[x - e_a], u[x + e_a])`` over the interior nodes of
    ``u`` (shape ``m - 2`` per axis), axis by axis."""
    core = (slice(1, -1),) * u.ndim
    pairs = []
    for a in range(u.ndim):
        lo = core[:a] + (slice(None, -2),) + core[a + 1 :]
        hi = core[:a] + (slice(2, None),) + core[a + 1 :]
        pairs.append((u[lo], u[hi]))
    return pairs


def sum_pairs(pairs, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """``out`` filled with the sum of ``lo + hi`` over ``pairs``, ``work`` of
    its shape as scratch: the one neighbour-sum kernel. Terms are added pair by
    pair, ``lo + hi`` first, so every caller sees the same rounding."""
    np.add(*pairs[0], out=out)
    for lo, hi in pairs[1:]:
        np.add(out, np.add(lo, hi, out=work), out=out)
    return out


def neighbor_sum(u: np.ndarray) -> np.ndarray:
    """Sum of the 2n axis neighbours of each interior node of ``u`` (shape
    ``m - 2`` per axis), by :func:`sum_pairs` over :func:`neighbor_pairs`:
    axis by axis, ``u[x - e_a] + u[x + e_a]`` first."""
    out, work = (np.empty([m - 2 for m in u.shape], u.dtype) for _ in range(2))
    return sum_pairs(neighbor_pairs(u), out, work)


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
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    eps = 1e-12 * max(abs(v) for v in (*grid.lower, *grid.upper, 1.0))
    if (points < lower - eps).any() or (points > upper + eps).any():
        raise OutOfDomainError("interpolation point outside the grid box")

    t = (points - lower) / grid.h
    base = np.clip(np.floor(t).astype(int), 0, np.array(grid.shape) - 2)
    values, strides = field.values.ravel(), np.array(field.values.strides) // field.values.itemsize
    result, flat = np.zeros(points.shape[0]), base @ strides
    for corner, weight in _corners(t - base, np.ones(points.shape[0])):
        result += weight * values[flat + corner @ strides]
    return result


def _corners(frac: np.ndarray, weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The multilinear corners of cells at the ``(m, n)`` offsets ``frac``
    in ``itertools.product`` order: each one's 0/1 offset per axis and
    ``weights`` times its weight, ((w f_0) f_1) f_2 from shared partial products."""
    corners = [(np.zeros(0, dtype=int), weights)]
    for f in frac.T:
        sides = (1.0 - f, f)
        corners = [(np.append(c, bit), w * sides[bit]) for c, w in corners for bit in (0, 1)]
    return corners


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


class _Rule(NamedTuple):
    """A rule's nonzero weights, read-only: the offset of each weight's node
    from the centre's node, per axis (``nodes``), the weights, and the
    centre's offset from its node in spacings (``offset``) on a grid of
    spacing ``h``."""

    nodes: np.ndarray
    weights: np.ndarray
    offset: np.ndarray
    h: float

    def offsets(self) -> np.ndarray:
        """Each weight's node coordinates relative to the centre, one row
        per node."""
        return (self.nodes - self.offset) * self.h


@functools.lru_cache(maxsize=32)
def _rule(kind: str, h: float, r: float, offset: tuple[float, ...], samples: int) -> _Rule:
    """The rule ``kind``, built on the (2 reach + 1)^n box of nodes around
    the centre's node, reach = ceil(r/h) + 1, and kept at its nonzero
    weights; ``offset`` is the centre minus that node, in spacings.
    ``ball``: ``clip(1/2 + (r - d)/h, 0, 1) h^n`` at distance d (the exact
    partial-cell measure in 1D); ``sup``: 1 on the closed ball; ``sphere``:
    the multilinear corner weights of the samples, snapped to grid lines by
    ``NODE_SNAP``."""
    n = len(offset)
    reach = int(np.ceil(r / h)) + 1
    if kind == "sphere":
        directions, sample_weights = _sphere_samples(n, r, samples)
        t = reach + np.array(offset) + directions * (r / h)
        t = np.where(np.abs(t - np.round(t)) < NODE_SNAP, np.round(t), t)
        base = np.floor(t).astype(int)
        weights = np.zeros((2 * reach + 1,) * n)
        for corner, w in _corners(t - base, sample_weights):
            np.add.at(weights, tuple((base + corner).T), w)
    else:
        steps = [(np.arange(-reach, reach + 1) - o) * h for o in offset]
        dist = np.sqrt(sum(m * m for m in np.meshgrid(*steps, indexing="ij")))
        inside = (dist <= r).astype(float)
        weights = {"sup": inside, "ball": np.clip(0.5 + (r - dist) / h, 0.0, 1.0) * h**n}[kind]
    nodes = np.argwhere(weights)
    rule = _Rule((nodes - reach).astype(np.int32), weights[tuple(nodes.T)], np.array(offset), h)
    for array in rule[:3]:
        array.setflags(write=False)
    return rule


def _centre_groups(grid: GridSpec, centers: np.ndarray):
    """Per distinct offset of the centres from their nearest nodes, in
    spacings (0 within ``NODE_SNAP``) and ``np.unique`` order, ``(offset,
    rows, nodes)``: the increasing indices of its centres and their nodes."""
    t = (centers - grid.lower) / grid.h
    node = np.round(t).astype(int)
    offset = np.where(np.abs(t - node) < NODE_SNAP, 0.0, t - node)
    groups, group = np.unique(offset, axis=0, return_inverse=True)
    for g, o in enumerate(groups):
        rows = np.flatnonzero(group.ravel() == g)
        yield o, rows, node[rows]


def _multilinear_rule(grid: GridSpec, strides, offset, nodes, steps) -> list:
    """The multilinear rule of the centres at ``offset`` from their
    ``nodes``: each sample's nonzero :func:`_corners`, in order, grouped by
    the axes with a nonzero fraction (columns, flat offsets and weights),
    for one gather per corner slot; positions within ``NODE_SNAP`` of a grid
    line are on it. Its temporaries go on return: held through the blocks,
    they cost 40 times the page faults of a 3D classification."""
    t = offset + steps
    nearest = np.round(t)
    snap = np.abs(t - nearest) < NODE_SNAP
    t[snap] = nearest[snap]  # in place: np.where's copy raised 3D peak RSS by 2.7 MB
    low = np.floor(t).astype(int)
    frac, moving = t - low, t != low
    reach = nodes.min(0) + low.min(0), nodes.max(0) + (low + moving).max(0)
    if (reach[0] < 0).any() or (reach[1] >= grid.shape).any():
        raise GridError("a multilinear corner falls off the grid")
    axes = np.arange(grid.dimension)
    pattern, rule = moving @ (1 << axes), []
    for p in np.flatnonzero(np.bincount(pattern)):  # np.unique here raised peak RSS
        columns, active = np.flatnonzero(pattern == p), np.flatnonzero(p >> axes & 1)
        corners = _corners(frac[columns][:, active], np.ones(len(columns)))
        at = np.array([low[columns] @ strides + bits @ strides[active] for bits, _ in corners])
        rule.append((columns, at.astype(np.int32), np.array([w for _, w in corners])))
    return rule


def multilinear_blocks(field: ScalarField, centers, steps: np.ndarray):
    """Blocks ``(rows, values)`` of the field interpolated multilinearly at
    each of the ``(m, dimension)`` centres plus h times each of the ``(s,
    dimension)`` steps, by one :func:`_multilinear_rule` per centre offset:
    ``values[i]`` holds the s samples of centre ``rows[i]``, at most
    ``GATHER_BYTES // (8 s)`` centres a block. Sums start at +0.0, which a
    dropped term 0 v keeps, so exact positions give interpolate_many's bits."""
    values, strides = field.values.ravel(), np.array(field.values.strides) // field.values.itemsize
    steps = np.asarray(steps, dtype=float)
    block = max(1, GATHER_BYTES // (8 * len(steps)))
    for o, rows, nodes in _centre_groups(field.grid, np.asarray(centers, dtype=float)):
        rule, bases = _multilinear_rule(field.grid, strides, o, nodes, steps), nodes @ strides
        for start in range(0, len(rows), block):
            base = bases[start : start + block, None]
            out = np.empty((len(base), len(steps)))
            for columns, at, weights in rule:
                total = np.zeros((len(base), len(columns)))
                for corner, weight in zip(at, weights):
                    total += weight * values[base + corner]
                out[:, columns] = total
            yield rows[start : start + block], out


def gather(
    field: ScalarField, centers, r: float, kind: str, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
):
    """Blocks ``(rows, values, rule)`` of the rule ``kind`` (``ball``,
    ``sphere`` or ``sup``) over the balls of radius ``r`` around the
    ``(m, dimension)`` centres, each at most about ``GATHER_BYTES``:
    ``values[i]`` is the field at the rule's nodes around centre ``rows[i]``.
    A centre within ``NODE_SNAP`` spacings of a node is taken as that node;
    centres at the same offset from their node share one rule. Raises for a
    radius below ``MIN_RULE_RADIUS_FACTOR * h`` (NaN too), a ball outside the
    box, or a rule node off the grid (which no ball inside the box has)."""
    grid = field.grid
    h, shape = grid.h, np.array(grid.shape)
    if not r >= MIN_RULE_RADIUS_FACTOR * h:
        raise ResolutionError(f"radius {r} < {MIN_RULE_RADIUS_FACTOR:g}h: quadrature unreliable")
    centers = require_balls_in_box(grid, centers, r)
    samples = angular_samples if kind == "sphere" else 0
    values, strides = field.values.ravel(), np.array(field.values.strides) // field.values.itemsize
    for o, rows, nodes in _centre_groups(grid, centers):
        rule = _rule(kind, h, float(r), tuple(o.tolist()), samples)
        lo, hi = nodes + rule.nodes.min(axis=0), nodes + rule.nodes.max(axis=0)
        if (lo < 0).any() or (hi >= shape).any():
            raise GridError(f"a node of the {kind} rule of radius {r} falls off the grid")
        base, at = nodes @ strides, rule.nodes @ strides
        block = max(1, GATHER_BYTES // (16 * len(at)))
        for start in range(0, len(rows), block):
            yield rows[start : start + block], values[base[start : start + block, None] + at], rule


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vecdot(a, b)`` over the last axis, summed in order over pieces of ``ROW_PIECE``
    entries: the same bits at every BLAS thread count, and on shorter rows its bits."""
    pieces = (slice(k, k + ROW_PIECE) for k in range(0, a.shape[-1], ROW_PIECE))
    return sum(np.vecdot(a[..., piece], b[..., piece]) for piece in pieces)


def apply_rule(
    field: ScalarField, centers, r: float, kind: str, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> np.ndarray:
    """The rule ``kind`` at each centre, as :func:`gather` takes it: the
    weighted sum of the field (``ball``, ``sphere``) or its maximum
    (``sup``), one :func:`row_dot` or maximum per centre, so the blocks do
    not change a value."""
    centers = np.asarray(centers, dtype=float)
    out = np.empty(len(centers))
    for rows, values, rule in gather(field, centers, r, kind, angular_samples):
        out[rows] = values.max(axis=1) if kind == "sup" else row_dot(values, rule.weights)
    return out


def ball_integral(field: ScalarField, center, r: float) -> float:
    """Node quadrature of the field over the ball B_r(center); relative error
    O(h/r) worst case on Lipschitz integrands, far smaller in practice."""
    return float(apply_rule(field, [center], r, "ball")[0])


def sphere_integral(
    field: ScalarField, center, r: float, angular_samples: int = DEFAULT_ANGULAR_SAMPLES
) -> float:
    """Surface quadrature over the sphere of radius ``r`` around ``center``,
    the field interpolated multilinearly at the samples."""
    return float(apply_rule(field, [center], r, "sphere", angular_samples)[0])


def sup_on_ball(field: ScalarField, center, r: float) -> float:
    """Maximum nodal value inside the closed ball B_r(center)."""
    return float(apply_rule(field, [center], r, "sup")[0])


def per_radius(grid: GridSpec, radii, evaluate) -> tuple[list, list]:
    """Each point's radii (one sequence per point) as :func:`require_radii`
    admits them, equal sequences checked once, and each point's series over
    them from one call ``evaluate(members, r)`` per distinct radius: one
    value, or row of values, for each point index in ``members``, the points
    whose radii hold r."""
    keys = [tuple(float(r) for r in rs) for rs in radii]
    checked = {key: require_radii(grid, key) for key in dict.fromkeys(keys)}
    radii = [checked[key] for key in keys]
    slots: dict[float, list[tuple[int, int]]] = {}
    for k, rs in enumerate(radii):
        for j, r in enumerate(rs):
            slots.setdefault(float(r), []).append((k, j))
    series: list = [[None] * len(rs) for rs in radii]
    for r, at in sorted(slots.items()):
        for (k, j), value in zip(at, evaluate(np.array([k for k, _ in at], dtype=int), r)):
            series[k][j] = value
    return radii, [np.array(s) for s in series]
