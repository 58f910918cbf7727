"""Contact-set and free-boundary extraction, and two-sided growth bounds.

Solutions of the normalized problem detach quadratically from the contact
set, so nodal values below ``kappa * h^2`` are indistinguishable from zero
at the grid scale; the contact mask thresholds there. Free-boundary nodes
are those with at least one face neighbor in each phase, reported as node
positions (sub-grid interface reconstruction is deliberately avoided:
every downstream diagnostic averages over balls of radius >= 4h).

``growth_report`` measures ``sup_{B_r} u / r^2`` across radii at a point:
the upper constant checks bounded quadratic growth, the lower one the
non-degeneracy bound with the dimensional constant ``1/(2n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BallSpec, GridError, GridSpec, ScalarField, require_radii, sup_on_ball

DEFAULT_KAPPA = 2.0
DEFAULT_NONDEGENERACY_SLACK = 0.15
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
    field.require_finite("contact-set input")
    if kappa <= 0.0:
        raise GridError(f"kappa must be positive, got {kappa}")
    eps = kappa * field.grid.h**2
    if float(field.values.min()) < -eps:
        raise NotANormalizedSolutionError(
            f"field has values down to {field.values.min():.3e}; "
            f"not a normalized-form solution (threshold -{eps:.3e})"
        )
    return ContactSet(grid=field.grid, mask=field.values <= eps, kappa=float(kappa))


def extract_free_boundary(contact: ContactSet) -> FreeBoundarySet:
    """Nodes with at least one face neighbor in each phase."""
    mask = contact.mask
    nd = mask.ndim
    has_true = np.zeros_like(mask)
    has_false = np.zeros_like(mask)
    for a in range(nd):
        for forward in (True, False):
            src = [slice(None)] * nd
            dst = [slice(None)] * nd
            if forward:
                src[a] = slice(1, None)
                dst[a] = slice(0, -1)
            else:
                src[a] = slice(0, -1)
                dst[a] = slice(1, None)
            nb = mask[tuple(src)]
            has_true[tuple(dst)] |= nb
            has_false[tuple(dst)] |= ~nb
    on_interface = has_true & has_false
    indices = np.argwhere(on_interface)
    axes = [contact.grid.axis(a) for a in range(nd)]
    points = np.stack([axes[a][indices[:, a]] for a in range(nd)], axis=-1)
    return FreeBoundarySet(grid=contact.grid, indices=indices, points=points)


def growth_report(
    field: ScalarField,
    x0,
    radii,
    slack: float = DEFAULT_NONDEGENERACY_SLACK,
) -> GrowthReport:
    """Quadratic growth ratios sup_{B_r(x0)} u / r^2 over the given radii
    (as :func:`grid.require_radii` admits them).

    Flags non-degeneracy when the smallest ratio clears ``(1/(2n)) * (1 -
    slack)`` and bounded growth when the ratios are finite and stable
    (max/min <= 10).
    """
    field.require_finite("growth-report input")
    grid = field.grid
    radii = require_radii(grid, radii)
    ratios = np.empty(len(radii))
    for k, r in enumerate(radii):
        ratios[k] = sup_on_ball(field, BallSpec(tuple(x0), r)) / (r * r)
    lower = float(ratios.min())
    upper = float(ratios.max())
    n = grid.dimension
    nondegenerate = lower >= (1.0 / (2.0 * n)) * (1.0 - slack)
    if upper == 0.0:
        bounded = True  # identically zero field: trivially stable
    elif lower <= 0.0:
        bounded = False
    else:
        bounded = bool(np.isfinite(upper) and upper / lower <= GROWTH_STABILITY_FACTOR)
    return GrowthReport(
        point=tuple(float(c) for c in x0),
        radii=radii,
        ratios=ratios,
        upper_constant=upper,
        lower_constant=lower,
        nondegenerate=bool(nondegenerate),
        bounded=bounded,
        slack=float(slack),
    )
