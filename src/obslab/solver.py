"""Projected iterative solvers for the discrete obstacle problem.

One problem spec on a :class:`~obslab.grid.GridSpec` covers both forms of
the constrained Dirichlet minimization: minimize
``sum h^n (|grad_h v|^2 / 2 + source * v)`` over fields with fixed boundary
values and ``v >= obstacle``. Interior stationarity is the discrete
complementarity system ``min(v - obstacle, source - lap_h v) = 0``.

* general form: ``v >= phi`` with ``source = 0``;
* normalized form: ``obstacle = 0, source = 1`` and nonnegative boundary
  values, the discrete version of ``Delta u = 1 on {u > 0}, u >= 0``.

Both are convex quadratic programs over a box constraint, solved either by
projected SOR (node-wise Gauss-Seidel minimization followed by projection,
red-black ordering over strided sub-lattices) or by projected gradient
(full-field step then projection, with Nesterov momentum and adaptive
restart). Inputs are nodal samples; smoothness classes of the continuum
data have no discrete meaning here and are not represented.

The stopping rule is the complementarity residual in max-norm,
``max |min(u - obstacle, source - lap_h u)|`` over interior nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .grid import GridError, GridSpec, ScalarField, interior_laplacian, neighbor_sum


class SolverError(RuntimeError):
    """Solver failure."""


class IterationLimitError(SolverError):
    """Iteration budget exhausted before the residual tolerance was met."""

    def __init__(self, message: str, residual_history: np.ndarray):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass(frozen=True)
class ObstacleProblemSpec:
    """Minimize the discrete energy with linear term ``source`` over fields
    equal to ``boundary`` on the boundary ring and ``>= obstacle``.

    ``boundary`` and ``obstacle`` are full-shape nodal arrays, stored as
    read-only copies; only the ring of ``boundary`` is read, and it must
    dominate the obstacle there.
    """

    grid: GridSpec
    boundary: np.ndarray
    obstacle: np.ndarray
    source: float

    def __post_init__(self) -> None:
        for name in ("boundary", "obstacle"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != self.grid.shape:
                raise GridError(
                    f"{name} array shape {values.shape} != grid shape {self.grid.shape}"
                )
            if not np.isfinite(values).all():
                raise GridError(f"{name} data contains non-finite values")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "source", float(self.source))
        ring = _boundary_mask(self.grid.shape)
        if (self.boundary[ring] < self.obstacle[ring] - 1e-14).any():
            raise GridError("boundary data must satisfy f >= phi on boundary nodes")


def normalized_problem(grid: GridSpec, boundary: np.ndarray) -> ObstacleProblemSpec:
    """``Delta u = 1 on {u > 0}, u >= 0, u = g`` on the ring (``g >= 0``)."""
    return ObstacleProblemSpec(grid, boundary, np.zeros(grid.shape), 1.0)


def general_problem(
    grid: GridSpec, obstacle: ScalarField, boundary: np.ndarray
) -> ObstacleProblemSpec:
    """The Dirichlet energy minimized above ``obstacle``, ``v = f`` on the ring."""
    if obstacle.grid != grid:
        raise GridError("obstacle field is not on the problem grid")
    return ObstacleProblemSpec(grid, boundary, obstacle.values, 0.0)


PSOR = "psor"
PROJECTED_GRADIENT = "projected_gradient"


@dataclass(frozen=True)
class SolverConfig:
    method: str = PSOR
    omega: float = 1.8
    tol: float = 1e-8
    max_iterations: int = 200_000
    record_energy: bool = False

    def __post_init__(self) -> None:
        if self.method not in (PSOR, PROJECTED_GRADIENT):
            raise SolverError(f"unknown method {self.method!r}")
        if not 0.0 < self.omega < 2.0:
            raise SolverError(f"relaxation omega must lie in (0, 2), got {self.omega}")
        if not self.tol > 0.0:
            raise SolverError(f"tolerance must be positive, got {self.tol}")
        if self.max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    solution: ScalarField
    iterations: int
    residual_history: np.ndarray
    final_energy: float
    energy_history: np.ndarray | None = dataclass_field(default=None)


def _boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[(slice(1, -1),) * len(shape)] = False
    return mask


def _red_black(shape: tuple[int, ...]) -> tuple[list, list]:
    """Strided interior sub-lattices of each colour, red (even index sum)
    first. No two nodes of one colour are neighbours, so updating a colour
    one sub-lattice at a time equals updating it all at once."""
    colors: tuple[list, list] = ([], [])
    for offsets in itertools.product((1, 2), repeat=len(shape)):
        if all(o < m - 1 for o, m in zip(offsets, shape)):
            where = tuple(slice(o, m - 1, 2) for o, m in zip(offsets, shape))
            colors[sum(offsets) % 2].append(where)
    return colors


def _residual(u: np.ndarray, obstacle: np.ndarray, source: float, h: float) -> float:
    """``max |min(u - obstacle, source - lap_h u)|`` over interior nodes."""
    core = (slice(1, -1),) * u.ndim
    kkt = source - interior_laplacian(u, h)
    return float(np.max(np.abs(np.minimum(u[core] - obstacle[core], kkt))))


def default_initial_guess(problem: ObstacleProblemSpec) -> ScalarField:
    """Admissible start: a few plain Gauss-Seidel sweeps toward the harmonic
    extension of the boundary data, clamped to the obstacle."""
    grid = problem.grid
    boundary = problem.boundary
    ring = _boundary_mask(grid.shape)
    u = np.full(grid.shape, float(np.mean(boundary[ring])))
    u[ring] = boundary[ring]
    nd = grid.dimension
    colors = _red_black(grid.shape)
    for _ in range(10):
        for color in colors:
            for where in color:
                u[where] = neighbor_sum(u, where) / (2.0 * nd)
    u = np.maximum(u, problem.obstacle)
    u[ring] = boundary[ring]
    return ScalarField(grid, u)


def constraint_initial_guess(problem: ObstacleProblemSpec) -> ScalarField:
    """Admissible start equal to the obstacle in the interior."""
    u = problem.obstacle.copy()
    ring = _boundary_mask(problem.grid.shape)
    u[ring] = problem.boundary[ring]
    return ScalarField(problem.grid, u)


def solve(
    problem: ObstacleProblemSpec,
    config: SolverConfig = SolverConfig(),
    initial_guess: ScalarField | None = None,
) -> SolveResult:
    """Minimize the discrete energy subject to the constraint.

    Returns once the projected residual max-norm drops to ``config.tol``;
    raises :class:`IterationLimitError` (carrying the residual history)
    if ``config.max_iterations`` sweeps do not get there.
    """
    grid = problem.grid
    core = grid.interior_slices()
    ring = _boundary_mask(grid.shape)

    if initial_guess is None:
        u = default_initial_guess(problem).values.copy()
    else:
        if initial_guess.grid != grid:
            raise GridError("initial guess is not on the problem grid")
        u = initial_guess.values.copy()
        u[ring] = problem.boundary[ring]
        u[core] = np.maximum(u[core], problem.obstacle[core])

    residuals: list[float] = []
    energies: list[float] = [] if config.record_energy else None

    loop = _psor_loop if config.method == PSOR else _projected_gradient_loop
    iterations = loop(u, problem, config, residuals, energies)

    history = np.array(residuals)
    solution = ScalarField(grid, u).require_finite("solution")
    energy = dirichlet_energy(solution, problem)
    result = SolveResult(
        solution=solution,
        iterations=iterations,
        residual_history=history,
        final_energy=energy,
        energy_history=np.array(energies) if energies is not None else None,
    )
    if history[-1] > config.tol:
        raise IterationLimitError(
            f"no convergence in {config.max_iterations} iterations "
            f"(residual {history[-1]:.3e} > tol {config.tol:.3e})",
            history,
        )
    return result


def _psor_loop(u, problem, config, residuals, energies) -> int:
    nd = u.ndim
    h = problem.grid.h
    h2 = h * h
    obstacle, source = problem.obstacle, problem.source
    colors = _red_black(u.shape)
    omega = config.omega
    c0 = source * h2 / (2.0 * nd)
    for sweep in range(1, config.max_iterations + 1):
        for color in colors:
            for where in color:
                gs = neighbor_sum(u, where) / (2.0 * nd) - c0
                u[where] = np.maximum((1.0 - omega) * u[where] + omega * gs, obstacle[where])
        res = _residual(u, obstacle, source, h)
        residuals.append(res)
        if energies is not None:
            energies.append(dirichlet_energy(ScalarField(problem.grid, u), problem))
        if res <= config.tol:
            return sweep
    return config.max_iterations


def _projected_gradient_loop(u, problem, config, residuals, energies) -> int:
    nd = u.ndim
    h = problem.grid.h
    h2 = h * h
    obstacle, source = problem.obstacle, problem.source
    core = (slice(1, -1),) * nd
    psi_core = obstacle[core]
    step = h2 / (4.0 * nd)  # 1 / lambda_max bound of the scaled Hessian
    x = u[core].copy()
    y = u  # full array whose interior holds the extrapolated point
    probe = u.copy()  # full array whose interior holds the current iterate
    t = 1.0
    for iteration in range(1, config.max_iterations + 1):
        lap = interior_laplacian(y, h)
        x_new = np.maximum(y[core] + step * (lap - source), psi_core)
        # adaptive restart on the gradient-mapping sign
        if np.vdot(y[core] - x_new, x_new - x) > 0.0:
            t = 1.0
            y[core] = x_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y[core] = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x = x_new
        probe[core] = x
        res = _residual(probe, obstacle, source, h)
        residuals.append(res)
        if energies is not None:
            energies.append(dirichlet_energy(ScalarField(problem.grid, probe), problem))
        if res <= config.tol:
            break
    u[core] = x
    return iteration


def _trapezoid_weights(shape: tuple[int, ...], plain_axis: int | None = None) -> np.ndarray:
    """Outer product of per-axis trapezoid weights, 1/2 at both ends and 1
    inside (all 1 along ``plain_axis``). Products of halves and ones are
    exact, so the order of the factors does not matter."""
    w = np.ones(())
    for b, m in enumerate(shape):
        wb = np.ones(m)
        if b != plain_axis:
            wb[0] = wb[-1] = 0.5
        w = np.multiply.outer(w, wb)
    return w


def dirichlet_energy(field: ScalarField, problem: ObstacleProblemSpec) -> float:
    """The discrete energy the solver minimizes.

    Gradient part: forward-difference edge sums with trapezoid weights in
    the cross directions (so affine fields integrate exactly); normalized
    form adds the trapezoid-weighted linear term ``sum h^n w u``. Interior
    stationarity of this functional is exactly the 2n+1-point
    complementarity system.
    """
    if field.grid != problem.grid:
        raise GridError("field is not on the problem grid")
    grid = field.grid
    u = field.values
    nd = grid.dimension
    h = grid.h
    hn = h**nd
    total = 0.0
    for a in range(nd):
        diff = np.diff(u, axis=a) / h
        w = _trapezoid_weights(diff.shape, plain_axis=a)
        total += float(np.sum(w * diff * diff)) * hn / 2.0
    if problem.source != 0.0:
        total += problem.source * float(np.sum(_trapezoid_weights(u.shape) * u)) * hn
    return total


def complementarity_residual(field: ScalarField, problem: ObstacleProblemSpec) -> float:
    """Max-norm of ``min(u - obstacle, source - lap_h u)`` over interior nodes.

    Zero iff discrete complementarity holds: admissibility, the one-sided
    equation, and their pointwise product vanishing.
    """
    if field.grid != problem.grid:
        raise GridError("field is not on the problem grid")
    return _residual(field.values, problem.obstacle, problem.source, field.grid.h)
