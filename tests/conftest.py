"""Shared solves for the acceptance suite (session-scoped: they are the
expensive part and several criteria read the same solutions)."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from obslab.fixtures import QuadraticForm, one_d, polynomial, radial
from obslab.grid import GridSpec, ScalarField, centered_box
from obslab.solver import PROJECTED_GRADIENT, SolveResult, SolverConfig, normalized_problem, solve

TOL = 1e-8

# box for the 1D convergence study: on the node-aligned box [-1, 1] the
# sampled exact solution *is* the discrete solution (central stencil exact
# on quadratics, kinks on nodes), so the error ratio would be 0/0. This
# shift puts both kinks at 1/3-cell offsets at h = 2^-7 and 2^-8 (theta ->
# -2 theta mod 1 preserves |theta| = 1/3 under halving), giving a clean
# nonzero second-order error at every dyadic level.
ONE_D_SHIFT = 1.0 / 384.0


def field_from_function(grid: GridSpec, fn) -> ScalarField:
    """Sample ``fn(points) -> values`` at every node."""
    values = np.asarray(fn(grid.node_positions()), dtype=float).reshape(grid.shape)
    return ScalarField(grid, values)


def constraint_initial_guess(problem) -> ScalarField:
    """Admissible start equal to the obstacle in the interior."""
    u = problem.boundary.copy()
    core = problem.grid.interior_slices()
    u[core] = problem.obstacle[core]
    return ScalarField(problem.grid, u)


@dataclass(frozen=True)
class SolvedCase:
    problem: object
    exact: ScalarField
    result: SolveResult
    elapsed: float


def _solve_case(problem, exact, config=None) -> SolvedCase:
    config = config or SolverConfig(tol=TOL)
    start = time.perf_counter()
    result = solve(problem, config)
    elapsed = time.perf_counter() - start
    return SolvedCase(problem=problem, exact=exact, result=result, elapsed=elapsed)


@pytest.fixture(scope="session")
def solved_one_d():
    """1D convergence cases at h = 2^-7, 2^-8 on the shifted box."""
    cases = {}
    ref = one_d(0.5)
    for nodes in (257, 513):
        grid = GridSpec(
            lower=(-1.0 - ONE_D_SHIFT,),
            upper=(1.0 - ONE_D_SHIFT,),
            nodes_per_axis=(nodes,),
        )
        exact = ref.sample(grid)
        cases[nodes] = _solve_case(normalized_problem(grid, exact.values), exact)
    return cases


@pytest.fixture(scope="session")
def solved_radial():
    """2D radial cases at h = 2^-6, 2^-7 on [-1, 1]^2."""
    cases = {}
    ref = radial(0.4)
    for nodes in (129, 257):
        grid = centered_box(2, 1.0, nodes)
        exact = ref.sample(grid)
        cases[nodes] = _solve_case(normalized_problem(grid, exact.values), exact)
    return cases


@pytest.fixture(scope="session")
def solved_poly_line():
    """Boundary data (1/2) x1^2 on [-1, 1]^2 at h = 2^-7; the discrete
    solution coincides with the quadratic. omega = 1.95 only speeds the
    sweep count up; the fixed point is the same LCP solution."""
    grid = centered_box(2, 1.0, 257)
    form = QuadraticForm.diagonal([1.0, 0.0])
    exact = polynomial(form).sample(grid)
    problem = normalized_problem(grid, exact.values)
    case = _solve_case(problem, exact, SolverConfig(tol=TOL, omega=1.95))
    return case, form


@pytest.fixture(scope="session")
def projected_gradient_solutions(solved_one_d, solved_radial):
    """The same four problems solved by accelerated projected gradient
    from a different (constraint) initial guess."""
    out = {}
    for label, case in (
        ("one_d_257", solved_one_d[257]),
        ("one_d_513", solved_one_d[513]),
        ("radial_129", solved_radial[129]),
        ("radial_257", solved_radial[257]),
    ):
        config = SolverConfig(method=PROJECTED_GRADIENT, tol=TOL, max_iterations=800_000)
        result = solve(case.problem, config, constraint_initial_guess(case.problem))
        out[label] = (case, result)
    return out


def max_norm_error(case: SolvedCase) -> float:
    return float(np.abs(case.result.solution.values - case.exact.values).max())
