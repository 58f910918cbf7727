"""Closed-form solutions of the normalized problem, used as oracles.

Each fixture is a nonnegative function u with distributional Laplacian
equal to the indicator of {u > 0}:

* ``halfspace(e)``  -- u(x) = (1/2) [(e.x)_+]^2, contact set {e.x <= 0};
* ``polynomial(A)`` -- u(x) = (1/2) <Ax, x> with A symmetric PSD, tr A = 1,
  contact set ker A;
* ``radial(a)``     -- 2D: u = 0 for rho <= a, (rho^2 - a^2)/4 -
  (a^2/2) log(rho/a) outside (the unique radial solution with a smooth fit
  at rho = a, from u'' + u'/rho = 1, u(a) = u'(a) = 0);
* ``one_d(a)``      -- 1D: u(x) = (1/2) (|x| - a)_+^2.

Half-space and polynomial fixtures have flat (or lower-dimensional) free
boundaries; the radial fixture supplies curved free-boundary geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, ScalarField

MEMBERSHIP_EIG_TOL = 1e-10
MEMBERSHIP_TRACE_TOL = 1e-10
# Eigenvalues below this (of a unit-trace form) count towards the kernel.
DEFAULT_EIGEN_TOL = 0.05


class FixtureError(ValueError):
    """Invalid fixture parameters."""


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric matrix A housing the quadratic p(x) = (1/2) <Ax, x>."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (1, 2, 3):
            raise FixtureError(f"matrix must be n x n with n in 1..3, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise FixtureError("matrix must be exactly symmetric (symmetrize before wrapping)")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "QuadraticForm":
        """Wrap after symmetrizing (A + A^T)/2."""
        m = np.asarray(m, dtype=float)
        return cls((m + m.T) / 2.0)

    @classmethod
    def diagonal(cls, entries) -> "QuadraticForm":
        return cls(np.diag(np.asarray(entries, dtype=float)))

    @classmethod
    def isotropic(cls, dimension: int) -> "QuadraticForm":
        return cls(np.eye(dimension) / dimension)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def is_blowup_form(self) -> bool:
        """Membership in the blow-up cone: PSD (to 1e-10) with unit trace."""
        eigs = self.eigenvalues()
        return bool(eigs.min() >= -MEMBERSHIP_EIG_TOL) and abs(self.trace - 1.0) <= MEMBERSHIP_TRACE_TOL

    def require_blowup_form(self) -> "QuadraticForm":
        if not self.is_blowup_form():
            raise FixtureError(
                f"matrix is not PSD with unit trace (eigs={self.eigenvalues()}, tr={self.trace})"
            )
        return self

    def project_to_blowup_form(self) -> "QuadraticForm":
        """Nearest-cone projection (:func:`project_to_blowup_cone`)."""
        (m,) = project_to_blowup_cone(self.matrix[None])
        if np.isnan(m).any():
            raise FixtureError("cannot project: all eigenvalues nonpositive")
        return QuadraticForm(m)

    def kernel_dimension(self, eigen_tol: float = DEFAULT_EIGEN_TOL) -> int:
        """Number of eigenvalues below eigen_tol (relative to unit trace)."""
        return int(np.sum(self.eigenvalues() < eigen_tol))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return 0.5 * np.einsum("mi,ij,mj->m", points, self.matrix, points)

    def frobenius_distance(self, other: "QuadraticForm") -> float:
        return float(np.linalg.norm(self.matrix - other.matrix))


def project_to_blowup_cone(matrices: np.ndarray) -> np.ndarray:
    """Nearest-cone projection of a ``(B, n, n)`` stack of symmetric
    matrices, one stacked call per step: clip negative eigenvalues,
    renormalize the trace to 1, symmetrize. NaN where nothing is positive."""
    eigs, vecs = np.linalg.eigh(matrices)
    eigs = np.clip(eigs, 0.0, None)
    with np.errstate(invalid="ignore"):  # 0 / 0 where nothing is positive
        eigs /= eigs.sum(axis=-1, keepdims=True)
    m = (vecs * eigs[..., None, :]) @ vecs.mT
    return (m + m.mT) / 2.0


@dataclass(frozen=True)
class ReferenceSolution:
    """Exact solution with a known contact set, evaluated in closed form."""

    kind: str  # "halfspace" | "polynomial" | "radial" | "one_d"
    dimension: int
    direction: tuple[float, ...] | None = None
    form: QuadraticForm | None = None
    contact_radius: float | None = None

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dimension:
            raise FixtureError(
                f"points have dimension {points.shape[1]}, fixture is {self.dimension}D"
            )
        if self.kind == "halfspace":
            s = points @ np.array(self.direction)
            return 0.5 * np.square(np.maximum(s, 0.0))
        if self.kind == "polynomial":
            return self.form.evaluate(points)
        if self.kind == "radial":
            a = self.contact_radius
            rho = np.linalg.norm(points, axis=1)
            out = np.zeros(len(points))
            free = rho > a
            rf = rho[free]
            out[free] = (rf**2 - a**2) / 4.0 - (a**2 / 2.0) * np.log(rf / a)
            return out
        if self.kind == "one_d":
            a = self.contact_radius
            return 0.5 * np.square(np.maximum(np.abs(points[:, 0]) - a, 0.0))
        raise FixtureError(f"unknown fixture kind {self.kind!r}")

    def in_contact(self, points: np.ndarray) -> np.ndarray:
        """Exact contact-set membership per point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "halfspace":
            return points @ np.array(self.direction) <= 0.0
        if self.kind == "polynomial":
            return np.isclose(np.linalg.norm(points @ self.form.matrix, axis=1), 0.0)
        if self.kind == "radial":
            return np.linalg.norm(points, axis=1) <= self.contact_radius
        if self.kind == "one_d":
            return np.abs(points[:, 0]) <= self.contact_radius
        raise FixtureError(f"unknown fixture kind {self.kind!r}")

    def sample(self, grid: GridSpec) -> ScalarField:
        """Evaluate the closed form at every node."""
        if grid.dimension != self.dimension:
            raise FixtureError(
                f"grid dimension {grid.dimension} != fixture dimension {self.dimension}"
            )
        if self.contact_radius is not None:
            # the contact region must sit inside the box for the fixture to
            # exercise a visible free boundary
            half_width = min(
                min(-lo, hi) for lo, hi in zip(grid.lower, grid.upper)
            )
            if self.contact_radius >= half_width:
                raise FixtureError(
                    f"contact radius {self.contact_radius} >= box half-width {half_width}"
                )
        values = self.evaluate(grid.node_positions()).reshape(grid.shape)
        return ScalarField(grid, values)


def halfspace(e) -> ReferenceSolution:
    """Half-space profile (1/2) [(e.x)_+]^2 for a unit vector e."""
    e = np.asarray(e, dtype=float)
    if e.ndim != 1 or len(e) not in (1, 2, 3):
        raise FixtureError(f"direction must be a 1D/2D/3D vector, got shape {e.shape}")
    norm = np.linalg.norm(e)
    if abs(norm - 1.0) > 1e-9:
        raise FixtureError(f"direction must be a unit vector, |e| = {norm}")
    return ReferenceSolution(kind="halfspace", dimension=len(e), direction=tuple(e))


def polynomial(form: QuadraticForm) -> ReferenceSolution:
    """Quadratic profile (1/2) <Ax, x> for A in the blow-up cone."""
    form.require_blowup_form()
    return ReferenceSolution(kind="polynomial", dimension=form.dimension, form=form)


def radial(a: float) -> ReferenceSolution:
    """2D radially symmetric solution with contact disk of radius ``a``."""
    if not a > 0.0:
        raise FixtureError(f"contact radius must be positive, got {a}")
    return ReferenceSolution(kind="radial", dimension=2, contact_radius=float(a))


def one_d(a: float) -> ReferenceSolution:
    """1D solution (1/2) (|x| - a)_+^2 with contact interval [-a, a]."""
    if not a > 0.0:
        raise FixtureError(f"contact halfwidth must be positive, got {a}")
    return ReferenceSolution(kind="one_d", dimension=1, contact_radius=float(a))
