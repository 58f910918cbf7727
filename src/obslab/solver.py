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
in red-black order) or by projected gradient (full-field step then
projection, with Nesterov momentum and adaptive restart). Inputs are nodal
samples; smoothness classes of the continuum data have no discrete meaning
here and are not represented.

PSOR keeps each parity sub-lattice as one flat array, all padded to one
shape, so that every neighbour is a constant flat shift and every ufunc of a
sweep runs on one contiguous range; the ring and pad nodes inside a range
get their stored values back after each update (:class:`_ParityLattice`).

The stopping rule is the complementarity residual in max-norm,
``max |min(u - obstacle, source - lap_h u)|`` over interior nodes. Each
method is an object that :func:`solve`'s one loop steps; its four methods,
and how the loop decides the rule from a witness node and forms the full
residual only at recorded iterations, are stated once, in :func:`solve`.
The witness's gap is evaluated by the same formula on one-element slices,
so it has the bits of that node's entry in a full pass. PSOR forms
each sub-lattice's neighbour sums once per sweep: the red sums formed from
the final black values at the end of sweep k serve both residual k and the
red update of sweep k + 1. It clamps an obstacle that is +0.0 at every node
with the scalar 0.0 and takes the residual's gap as ``min(u, kkt)``, which is
exact because ``u - (+0.0)`` is ``u`` for every ``u``. Divisions by 2n and by
``h * h`` are multiplies by the reciprocal when that is exact (a power of
two), which rounds every quotient as the divide would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridSpec, ScalarField, neighbor_pairs, neighbor_sum, sum_pairs


class SolverError(RuntimeError):
    """Solver failure."""


class IterationLimitError(SolverError):
    """Iteration budget exhausted before the residual tolerance was met. The
    recorded residuals come with their iteration numbers; the last is the
    exact residual of the last iterate."""

    def __init__(
        self, message: str, residual_history: np.ndarray, recorded_iterations: np.ndarray
    ):
        super().__init__(message)
        self.residual_history = residual_history
        self.recorded_iterations = recorded_iterations


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

# The full residual is formed once the witness's gap is at most this share of
# the last recorded residual (or at most the tolerance).
WITNESS_DROP = 0.5


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
    """``iterations`` counts the sweeps or steps; ``residual_history`` holds
    the residuals formed in full, at the iterations ``recorded_iterations``
    (1-based, increasing), the last of them the stopping iteration."""

    solution: ScalarField
    iterations: int
    residual_history: np.ndarray
    recorded_iterations: np.ndarray
    final_energy: float


def _boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[(slice(1, -1),) * len(shape)] = False
    return mask


class _ParityLattice:
    """``u`` as its 2^n parity sub-lattices ``u[p_0::2, ..., p_{n-1}::2]``, each
    one flat array padded to the common shape ``ceil(m_a / 2)`` per axis (pad
    cells hold 0). With ``S_a`` the padded stride of axis ``a``, the neighbours
    of sub-lattice ``p`` along ``a`` are the one with ``p_a`` flipped at the
    constant flat shifts ``(-S_a, 0)`` if ``p_a = 0`` and ``(0, +S_a)`` if
    ``p_a = 1``. So every ufunc of a sweep runs on one contiguous range
    ``[start, stop)`` per sub-lattice, from its first interior node to its last.
    The ring and pad nodes inside that range are listed once; an update gives
    them their stored values back, and the residual counts them as 0.
    Sub-lattices with no interior nodes are never updated. Each red-black
    colour (even index sum first) is a set of whole sub-lattices; a sweep
    allocates no arrays.

    Each sub-lattice's neighbour sums are formed once per sweep and kept. A
    black node's neighbours are red, so the black update forms its sums from
    the final red values. The red sums are formed from the final black values
    at the end of each sweep (and at construction), so the red sums formed
    at the end of sweep k serve both residual k and the red update of sweep
    k + 1. The residual forms no sums and overwrites none, and neither does
    the witness's gap.

    An obstacle that is +0.0 at every node, by bit pattern, as in every
    normalized problem, is clamped with the scalar 0.0, and the residual's gap
    is then ``min(u, kkt)``: ``u - (+0.0)`` is ``u`` for every ``u``, -0.0
    included, so both are exact. Any other obstacle (-0.0 too, whose max and
    subtraction flip the sign of some zeros) is clamped by its array.

    Built from a problem, it is :func:`solve`'s PSOR method, with the problem's
    ``source`` and ``h``, ``omega`` and ``c0 = source * h^2 / (2n)``. Built
    from ``u`` alone, for the initial guess's plain Gauss-Seidel sweeps, it
    clamps nothing, with ``omega = 1`` and ``c0 = 0``, and has no residual."""

    def __init__(self, u, problem: ObstacleProblemSpec | None = None, omega: float = 1.0):
        obstacle, self.source, self.h, self.c0, self.omega = None, 0.0, None, 0.0, omega
        if problem is not None:
            obstacle, self.source, self.h = problem.obstacle, problem.source, problem.grid.h
            self.c0 = self.source * (self.h * self.h) / (2.0 * u.ndim)
            if not obstacle.view(np.uint64).any():
                obstacle = 0.0
        self.pad = tuple((m + 1) // 2 for m in u.shape)
        strides = [math.prod(self.pad[a + 1 :]) for a in range(u.ndim)]
        parities = list(itertools.product((0, 1), repeat=u.ndim))
        self.where = [tuple(slice(q, None, 2) for q in p) for p in parities]
        self.parts = {p: self._padded(u[w]) for p, w in zip(parities, self.where)}
        self.mean = _divisor(2.0 * u.ndim)
        self.colors: tuple[list, list] = ([], [])
        for p, w in zip(parities, self.where):
            first = [1 - q for q in p]
            last = [(m - 2 - q) // 2 for q, m in zip(p, u.shape)]
            if any(f > l for f, l in zip(first, last)):
                continue
            start = sum(f * s for f, s in zip(first, strides))
            n = sum(l * s for l, s in zip(last, strides)) + 1 - start
            nodes = self.parts[p][start : start + n]
            pairs = []
            for a, (q, s) in enumerate(zip(p, strides)):
                other = self.parts[p[:a] + (1 - q,) + p[a + 1 :]]
                lo = start - (1 - q) * s
                pairs.append((other[lo : lo + n], other[lo + s : lo + s + n]))
            inside = np.zeros(self.pad, bool)
            inside[tuple(slice(f, l + 1) for f, l in zip(first, last))] = True
            edge = np.flatnonzero(~inside.ravel()[start : start + n])
            fixed = obstacle
            if isinstance(obstacle, np.ndarray):
                fixed = self._padded(obstacle[w])[start : start + n]
            block = (nodes, fixed, pairs, edge, nodes[edge], *np.empty((2, n)))
            self.colors[sum(p) % 2].append(block)
        self.blocks = self.colors[0] + self.colors[1]
        self.scratch = np.empty(math.prod(self.pad))  # the residual's KKT terms
        self.cell = np.empty((2, 1))  # the witness's
        self.witness: tuple[int, int] | None = None
        self._sum_red()

    def _padded(self, values: np.ndarray) -> np.ndarray:
        flat = np.zeros(self.pad)
        flat[tuple(slice(0, m) for m in values.shape)] = values
        return flat.ravel()

    def store(self, u: np.ndarray) -> None:
        for w, flat in zip(self.where, self.parts.values()):
            u[w] = flat.reshape(self.pad)[tuple(slice(0, m) for m in u[w].shape)]

    def _sum_red(self) -> None:
        for _, _, pairs, _, _, total, work in self.colors[0]:
            sum_pairs(pairs, total, work)

    def step(self) -> None:
        """One sweep: move each interior node ``omega`` of the way to
        (neighbour mean - c0), red from its stored sums, then black from sums
        it forms; then form the red sums again."""
        scale, by = self.mean
        red, black = self.colors
        for color in (red, black):
            for nodes, fixed, pairs, edge, kept, total, work in color:
                if color is black:
                    sum_pairs(pairs, total, work)
                gs = np.subtract(scale(total, by, out=work), self.c0, out=work)
                np.multiply(gs, self.omega, out=gs)
                np.multiply(nodes, 1.0 - self.omega, out=nodes)
                np.add(nodes, gs, out=nodes)
                if fixed is not None:
                    np.maximum(nodes, fixed, out=nodes)
                nodes[edge] = kept
        self._sum_red()

    def residual(self) -> float:
        """The complementarity residual after a sweep, from the stored sums of
        both colours. The KKT terms go to the scratch buffer, so the sums
        survive: the red ones for the next sweep. The node of the largest gap,
        the first of the first block to reach it, becomes the witness as
        ``(block, flat index)``; ring and pad positions count as 0, so it is
        an interior node unless the residual is 0."""
        nd, source, h = len(self.pad), self.source, self.h
        residual = None
        for b, (u, psi, _, edge, _, total, work) in enumerate(self.blocks):
            gaps = _kkt_gaps(u, psi, total, source, h, nd, work, edge, self.scratch[: u.size])
            value, i = _largest(gaps)
            if residual is None or value > residual:  # as max() picks among blocks
                residual, self.witness = value, (b, i)
        return residual

    def gap(self) -> float:
        """The witness's gap after a sweep: :func:`_kkt_max` on one-element
        slices of its block's nodes, obstacle and stored sums, so it has the
        bits of its entry in :meth:`residual`, into scratch of its own."""
        b, i = self.witness
        u, psi, _, _, _, total, _ = self.blocks[b]
        one = slice(i, i + 1)
        if isinstance(psi, np.ndarray):
            psi = psi[one]
        work, out = self.cell
        nd, source, h = len(self.pad), self.source, self.h
        return _kkt_max(u[one], psi, total[one], source, h, nd, work, out=out)


def _divisor(divisor: float):
    """``(ufunc, operand)`` with ``ufunc(x, operand, out=...)`` equal to
    ``x / divisor``: a multiply by the reciprocal when that is exact, i.e.
    ``divisor`` is a power of two with a finite reciprocal, else a divide. Both
    round the same exact quotient once, so they agree bit for bit, subnormal
    results included."""
    reciprocal = 1.0 / divisor
    if math.frexp(divisor)[0] == 0.5 and math.isfinite(reciprocal):
        return np.multiply, reciprocal
    return np.divide, divisor


def _kkt_gaps(
    u, obstacle, total, source: float, h: float, nd: int, work=None, edge=None, out=None
) -> np.ndarray:
    """``|min(u - obstacle, source - lap_h u)|`` at the nodes ``u`` of an
    ``nd``-dimensional grid, with neighbour sums ``total``; the one formula,
    returned in ``work``. The KKT terms overwrite ``out``, which defaults to
    ``total``. An ``obstacle`` that is not an array is the scalar +0.0, and the
    gap is then ``min(u, kkt)``. On a :class:`_ParityLattice` range ``u`` is
    flat, and its ring and pad positions ``edge`` count as 0. The division by
    ``h * h`` follows :func:`_divisor`. Every step is elementwise, so a node's
    gap has the same bits whether its slice holds one node or all of them."""
    lap = np.multiply(u, 2.0 * nd, out=work)
    kkt = np.subtract(total, lap, out=total if out is None else out)
    scale, by = _divisor(h * h)
    kkt = np.subtract(source, scale(kkt, by, out=kkt), out=kkt)
    if isinstance(obstacle, np.ndarray):
        u = np.subtract(u, obstacle, out=lap)
    gap = np.abs(np.minimum(u, kkt, out=lap), out=lap)
    if edge is not None:
        gap[edge] = 0.0
    return gap


def _kkt_max(*args, **kwargs) -> float:
    """The largest of :func:`_kkt_gaps` (0 if none), the complementarity
    residual, by ``np.maximum.reduce``, without ``np.max``'s Python wrapper."""
    return float(np.maximum.reduce(_kkt_gaps(*args, **kwargs), axis=None, initial=0.0))


def _largest(gaps: np.ndarray) -> tuple[float, int]:
    """:func:`_kkt_max` of ``gaps`` and the flat index of its first largest
    entry."""
    return float(np.maximum.reduce(gaps, axis=None, initial=0.0)), int(np.argmax(gaps))


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
        lattice.step()
    lattice.store(u)
    u = np.maximum(u, problem.obstacle)
    u[ring] = boundary[ring]
    return ScalarField(grid, u)


def solve(
    problem: ObstacleProblemSpec,
    config: SolverConfig = SolverConfig(),
    initial_guess: ScalarField | None = None,
) -> SolveResult:
    """Minimize the discrete energy subject to the constraint.

    One loop steps every method: an object built from ``(u, problem,
    config.omega)`` whose ``step()`` runs one iteration and ``store(u)``
    writes the iterate to ``u``. ``residual()`` forms the iterate's
    complementarity residual and keeps the node of its largest gap as the
    witness; ``gap()`` is that node's gap in the current iterate, with the
    bits of its entry in a full pass, so a lower bound on the residual. The
    first iteration is recorded; a later one, its residual formed, only if
    its witness's gap is at most ``max(config.tol, WITNESS_DROP * last
    recorded residual)``, and any other is proven above ``config.tol``. So
    the loop returns at the first iteration whose residual is at most
    ``config.tol``, as a check after every iteration would. If
    ``config.max_iterations`` iterations do not get there, the last iterate's
    residual is recorded and :class:`IterationLimitError` raised with the rows.
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

    # Built in the call, so no name here holds its buffers through the energy.
    method = _ParityLattice if config.method == PSOR else _ProjectedGradient
    k, recorded = _run_to_tolerance(method(u, problem, config.omega), u, config)

    numbers, values = zip(*recorded)
    history, at = np.array(values), np.array(numbers)
    if history[-1] > config.tol:
        raise IterationLimitError(
            f"no convergence in {config.max_iterations} iterations "
            f"(residual {history[-1]:.3e} > tol {config.tol:.3e})",
            history,
            at,
        )
    solution = ScalarField(grid, u)
    return SolveResult(
        solution=solution,
        iterations=k,
        residual_history=history,
        recorded_iterations=at,
        final_energy=dirichlet_energy(solution, problem),
    )


def _run_to_tolerance(method, u: np.ndarray, config: SolverConfig):
    """:func:`solve`'s loop: steps ``method`` and stores its last iterate in
    ``u``; returns the iterations run and the recorded ``(iteration,
    residual)`` rows."""
    recorded: list[tuple[int, float]] = []
    for k in range(1, config.max_iterations + 1):
        method.step()
        if k < config.max_iterations and recorded:
            if method.gap() > max(config.tol, WITNESS_DROP * recorded[-1][1]):
                continue
        recorded.append((k, method.residual()))
        if recorded[-1][1] <= config.tol:
            break
    method.store(u)
    return k, recorded


class _ProjectedGradient:
    """Accelerated projected gradient steps from ``u``, whose interior holds
    each iterate, so :meth:`store` writes nothing; the step length is fixed
    and ``omega`` unused. The steps run in three preallocated buffers, by
    ``out=`` ufuncs in the operation order of ``interior_laplacian`` and the
    plain step expressions. Only :meth:`residual` forms the iterate's
    neighbour sums; :meth:`gap` forms the witness's sum alone, by
    :func:`~obslab.grid.sum_pairs` over one-element slices of its 2n
    neighbours, so with the bits of its entry in the full sums."""

    def __init__(self, u: np.ndarray, problem: ObstacleProblemSpec, omega: float):
        nd, h = u.ndim, problem.grid.h
        core = (slice(1, -1),) * nd
        self.nd, self.h, self.source = nd, h, problem.source
        self.psi = problem.obstacle[core]
        self.length = h * h / (4.0 * nd)  # 1 / lambda_max bound of the scaled Hessian
        y = u.copy()  # full array whose interior holds the extrapolated point
        self.y, self.u = y[core], u[core]
        self.y_pairs, self.u_pairs = neighbor_pairs(y), neighbor_pairs(u)
        self.x_new, self.total, self.work = (np.empty_like(self.u) for _ in range(3))
        self.cell = np.empty((2,) + (1,) * nd)  # the witness's sum and scratch
        self.witness = None  # one-element slices of the core at the node of largest gap
        self.t = 1.0

    def step(self) -> None:
        y, u, x_new, total, work = self.y, self.u, self.x_new, self.total, self.work
        sum_pairs(self.y_pairs, total, work)  # interior_laplacian(y, h)
        np.subtract(total, np.multiply(y, 2.0 * self.nd, out=work), out=total)
        np.divide(total, self.h * self.h, out=total)
        np.multiply(np.subtract(total, self.source, out=total), self.length, out=total)
        np.maximum(np.add(y, total, out=x_new), self.psi, out=x_new)
        # adaptive restart on the gradient-mapping sign
        np.subtract(x_new, u, out=total)
        if np.vdot(np.subtract(y, x_new, out=work), total) > 0.0:
            self.t = 1.0
            np.copyto(y, x_new)
        else:
            t, self.t = self.t, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * self.t * self.t))
            np.add(x_new, np.multiply(total, (t - 1.0) / self.t, out=total), out=y)
        np.copyto(u, x_new)

    def gap(self) -> float:
        w, (total, work) = self.witness, self.cell
        sum_pairs([(lo[w], hi[w]) for lo, hi in self.u_pairs], total, work)
        return _kkt_max(self.u[w], self.psi[w], total, self.source, self.h, self.nd, work)

    def residual(self) -> float:
        total, work = self.total, self.work
        sum_pairs(self.u_pairs, total, work)
        value, i = _largest(_kkt_gaps(self.u, self.psi, total, self.source, self.h, self.nd, work))
        self.witness = tuple(slice(j, j + 1) for j in np.unravel_index(i, total.shape))
        return value

    def store(self, u: np.ndarray) -> None:
        pass


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
    grid = field.grid
    core = grid.interior_slices()
    u = field.values
    return _kkt_max(
        u[core], problem.obstacle[core], neighbor_sum(u), problem.source, grid.h, grid.dimension
    )
