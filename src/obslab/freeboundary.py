"""Contact-set and free-boundary extraction, and two-sided growth bounds.

Solutions of the normalized problem detach quadratically from the contact
set, so nodal values below ``kappa * h^2`` are indistinguishable from zero
at the grid scale; the contact mask thresholds there. Free-boundary nodes
are those with at least one face neighbor in each phase, reported as node
positions (sub-grid interface reconstruction is deliberately avoided:
every downstream diagnostic averages over balls of radius >= 4h).

``growth_report`` measures ``sup_{B_r} u / r^2`` across radii at many
points at once, each over its own radii: the upper constant checks bounded
quadratic growth, the lower one the non-degeneracy bound with the
dimensional constant ``1/(2n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridError,
    GridSpec,
    ScalarField,
    apply_rule,
    neighbor_sum,
    per_radius,
    sup_on_ball,  # noqa: F401 -- wrapped by name in perfbench/tracer.py
)

DEFAULT_KAPPA = 2.0
NONDEGENERACY_SLACK = 0.15
GROWTH_STABILITY_FACTOR = 10.0


class NotANormalizedSolutionError(GridError):
    """Field has negative values beyond the contact threshold scale."""


@dataclass(frozen=True)
class ContactSet:
    grid: GridSpec
    mask: np.ndarray
    kappa: float

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != self.grid.shape:
            raise GridError(f"mask shape {mask.shape} != grid shape {self.grid.shape}")
        mask = mask.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def epsilon(self) -> float:
        """Detection threshold kappa * h^2."""
        return self.kappa * self.grid.h**2


@dataclass(frozen=True)
class FreeBoundarySet:
    grid: GridSpec
    indices: np.ndarray  # (m, dimension) node indices
    points: np.ndarray  # (m, dimension) node positions

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class GrowthReport:
    point: tuple[float, ...]
    radii: np.ndarray
    ratios: np.ndarray  # sup_{B_r} u / r^2 per radius
    upper_constant: float  # max ratio
    lower_constant: float  # min ratio
    nondegenerate: bool
    bounded: bool
    slack: float


def extract_contact_set(field: ScalarField, kappa: float = DEFAULT_KAPPA) -> ContactSet:
    """Mask of nodes where the field is below kappa * h^2."""
    if not 0.0 < kappa < np.inf:
        raise GridError(f"kappa must satisfy 0 < kappa < inf, got {kappa}")
    eps = kappa * field.grid.h**2
    if float(field.values.min()) < -eps:
        raise NotANormalizedSolutionError(
            f"field has values down to {field.values.min():.3e}; "
            f"not a normalized-form solution (threshold -{eps:.3e})"
        )
    return ContactSet(grid=field.grid, mask=field.values <= eps, kappa=float(kappa))


def extract_free_boundary(contact: ContactSet) -> FreeBoundarySet:
    """Nodes with at least one face neighbor in each phase: counted on the
    zero-padded mask, 0 < contact neighbours < neighbours."""
    in_contact = neighbor_sum(np.pad(contact.mask.astype(int), 1))
    neighbours = neighbor_sum(np.pad(np.ones(contact.mask.shape, int), 1))
    on_interface = (0 < in_contact) & (in_contact < neighbours)
    indices = np.argwhere(on_interface)
    return FreeBoundarySet(contact.grid, indices, contact.grid.coordinates(indices))


def growth_report(field: ScalarField, points, radii) -> list[GrowthReport]:
    """Quadratic growth ratios sup_{B_r(x)} u / r^2 at each point x over
    its own radii (one sequence per point, as :func:`grid.require_radii`
    admits them), one radius at a time for all points that use it.

    Flags non-degeneracy when the smallest ratio clears ``(1/(2n)) * (1 -
    NONDEGENERACY_SLACK)`` and bounded growth when the ratios are finite
    and stable (max/min <= 10).
    """
    points = np.asarray(points, dtype=float)
    radii, sups = per_radius(field.grid, radii, lambda k, r: apply_rule(field, points[k], r, "sup"))
    n = field.grid.dimension
    return [_growth_report(n, x0, rs, sup / (rs * rs)) for x0, rs, sup in zip(points, radii, sups)]


def _growth_report(n: int, x0, radii: np.ndarray, ratios: np.ndarray) -> GrowthReport:
    """One point's report from its ratios sup_{B_r} u / r^2."""
    lower = float(ratios.min())
    upper = float(ratios.max())
    nondegenerate = lower >= (1.0 / (2.0 * n)) * (1.0 - NONDEGENERACY_SLACK)
    if upper == 0.0:
        bounded = True  # identically zero field: trivially stable
    elif lower <= 0.0:
        bounded = False
    else:
        bounded = bool(upper / lower <= GROWTH_STABILITY_FACTOR)
    return GrowthReport(
        point=tuple(float(c) for c in x0),
        radii=radii,
        ratios=ratios,
        upper_constant=upper,
        lower_constant=lower,
        nondegenerate=bool(nondegenerate),
        bounded=bounded,
        slack=NONDEGENERACY_SLACK,
    )
