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
in red-black order on contiguous parity sub-lattices) or by projected
gradient (full-field step then projection, with Nesterov momentum and
adaptive restart). Inputs are nodal samples; smoothness classes of the
continuum data have no discrete meaning here and are not represented.

The stopping rule is the complementarity residual in max-norm,
``max |min(u - obstacle, source - lap_h u)|`` over interior nodes (PSOR
reuses the black update's neighbour sums for it).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.method not in (PSOR, PROJECTED_GRADIENT):
            raise SolverError(f"method must be {PSOR}|{PROJECTED_GRADIENT}, got {self.method!r}")
        if not 0.0 < self.omega < 2.0:
            raise SolverError(f"omega must lie in (0, 2), got {self.omega}")
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


def _boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[(slice(1, -1),) * len(shape)] = False
    return mask


class _ParityLattice:
    """``u`` as its 2^n parity sub-lattices ``u[p_0::2, ..., p_{n-1}::2]``, each a
    contiguous copy. Along axis ``a`` the neighbours of sub-lattice ``p`` are two
    shifted slices of the one with ``p_a`` flipped, so each red-black colour (even
    index sum first) is a set of whole sub-lattices. A sweep allocates no arrays."""

    def __init__(self, u: np.ndarray, obstacle: np.ndarray | None = None):
        parities = list(itertools.product((0, 1), repeat=u.ndim))
        self.where = [tuple(slice(q, None, 2) for q in p) for p in parities]
        self.parts = {p: np.ascontiguousarray(u[w]) for p, w in zip(parities, self.where)}
        self.colors: tuple[list, list] = ([], [])
        for p, w in zip(parities, self.where):
            inner = tuple(slice(1 - q, (m - q) // 2) for q, m in zip(p, u.shape))
            nodes = self.parts[p][inner]
            pairs = []
            for a, (q, n) in enumerate(zip(p, nodes.shape)):
                other = self.parts[p[:a] + (1 - q,) + p[a + 1 :]]
                shifted = (inner[:a] + (slice(d, d + n),) + inner[a + 1 :] for d in (0, 1))
                pairs.append(tuple(other[s] for s in shifted))
            fixed = None if obstacle is None else obstacle[w][inner].copy()
            self.colors[sum(p) % 2].append((nodes, fixed, pairs, *np.empty((2, *nodes.shape))))

    def store(self, u: np.ndarray) -> None:
        for w, values in zip(self.where, self.parts.values()):
            u[w] = values

    def sweep(self, omega: float, c0: float) -> None:
        """Move each interior node ``omega`` of the way to (neighbour mean - c0)."""
        for nodes, fixed, pairs, total, work in self.colors[0] + self.colors[1]:
            _sum_pairs(pairs, total, work)
            gs = np.subtract(np.divide(total, 2.0 * nodes.ndim, out=work), c0, out=work)
            np.multiply(gs, omega, out=gs)
            np.multiply(nodes, 1.0 - omega, out=nodes)
            np.add(nodes, gs, out=nodes)
            if fixed is not None:
                np.maximum(nodes, fixed, out=nodes)

    def residual(self, source: float, h: float) -> float:
        """The complementarity residual after a sweep. It reuses the sweep's
        black neighbour sums: no red node moves after the black update."""
        for _, _, pairs, total, work in self.colors[0]:
            _sum_pairs(pairs, total, work)
        blocks = self.colors[0] + self.colors[1]
        return max(_kkt_max(u, psi, total, source, h, work) for u, psi, _, total, work in blocks)


def _sum_pairs(pairs, out: np.ndarray, work: np.ndarray) -> None:
    """The sum of ``lo + hi`` over ``pairs``, in :func:`neighbor_sum`'s order."""
    np.add(*pairs[0], out=out)
    for lo, hi in pairs[1:]:
        np.add(out, np.add(lo, hi, out=work), out=out)


def _kkt_max(u, obstacle, total, source: float, h: float, work=None) -> float:
    """``max |min(u - obstacle, source - lap_h u)|`` over the nodes ``u`` (0 if
    none), whose neighbour sums ``total`` are overwritten; the one formula."""
    lap = np.multiply(u, 2.0 * u.ndim, out=work)
    np.subtract(total, lap, out=total)
    kkt = np.subtract(source, np.divide(total, h * h, out=total), out=total)
    gap = np.minimum(np.subtract(u, obstacle, out=lap), kkt, out=lap)
    return float(np.max(np.abs(gap, out=gap), initial=0.0))


def default_initial_guess(problem: ObstacleProblemSpec) -> ScalarField:
    """Admissible start: a few plain Gauss-Seidel sweeps toward the harmonic
    extension of the boundary data, clamped to the obstacle."""
    grid = problem.grid
    boundary = problem.boundary
    ring = _boundary_mask(grid.shape)
    u = np.full(grid.shape, float(np.mean(boundary[ring])))
    u[ring] = boundary[ring]
    lattice = _ParityLattice(u)
    for _ in range(10):
        lattice.sweep(1.0, 0.0)
    lattice.store(u)
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

    One loop serves every method: the method's steps update ``u`` and yield
    the residual of each iterate, and the loop returns once that drops to
    ``config.tol``; raises :class:`IterationLimitError` (carrying the
    residual history) if ``config.max_iterations`` steps do not get there.
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

    steps = _psor_steps if config.method == PSOR else _projected_gradient_steps
    residuals: list[float] = []
    with contextlib.closing(steps(u, problem, config)) as stepping:
        for residual in itertools.islice(stepping, config.max_iterations):
            residuals.append(residual)
            if residual <= config.tol:
                break

    history = np.array(residuals)
    if history[-1] > config.tol:
        raise IterationLimitError(
            f"no convergence in {config.max_iterations} iterations "
            f"(residual {history[-1]:.3e} > tol {config.tol:.3e})",
            history,
        )
    solution = ScalarField(grid, u)
    return SolveResult(
        solution=solution,
        iterations=len(history),
        residual_history=history,
        final_energy=dirichlet_energy(solution, problem),
    )


def _psor_steps(u, problem, config):
    """Projected SOR sweeps of the parity-split ``u``, yielding the residual
    after each; ``u`` holds the last iterate once the generator is closed."""
    h = problem.grid.h
    c0 = problem.source * (h * h) / (2.0 * u.ndim)
    lattice = _ParityLattice(u, problem.obstacle)
    try:
        while True:
            lattice.sweep(config.omega, c0)
            yield lattice.residual(problem.source, h)
    finally:
        lattice.store(u)


def _projected_gradient_steps(u, problem, config):
    """Accelerated projected gradient steps from ``u``, yielding the
    residual of each iterate, which ``u`` holds."""
    nd = u.ndim
    h = problem.grid.h
    source = problem.source
    core = (slice(1, -1),) * nd
    psi_core = problem.obstacle[core]
    step = h * h / (4.0 * nd)  # 1 / lambda_max bound of the scaled Hessian
    x = u[core].copy()
    y = u.copy()  # full array whose interior holds the extrapolated point
    t = 1.0
    while True:
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
        u[core] = x
        yield _kkt_max(u[core], psi_core, neighbor_sum(u), source, h)


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
    core = field.grid.interior_slices()
    u = field.values
    return _kkt_max(u[core], problem.obstacle[core], neighbor_sum(u), problem.source, field.grid.h)
