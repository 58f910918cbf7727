import gc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import constraint_initial_guess, field_from_function
from obslab import solver
from obslab.fixtures import one_d, radial
from obslab.grid import (
    GridError,
    GridSpec,
    ScalarField,
    centered_box,
    interior_laplacian,
)
from obslab.solver import (
    PROJECTED_GRADIENT,
    PSOR,
    IterationLimitError,
    ObstacleProblemSpec,
    SolverConfig,
    SolverError,
    complementarity_residual,
    default_initial_guess,
    dirichlet_energy,
    general_problem,
    normalized_problem,
    solve,
)
from obslab.solver import _divisor, _ParityLattice, _ProjectedGradient

TOL = 1e-8


def one_d_problem(nodes=257, offset=0.0):
    grid = GridSpec(lower=(-1.0 - offset,), upper=(1.0 - offset,), nodes_per_axis=(nodes,))
    exact = one_d(0.5).sample(grid)
    return normalized_problem(grid, exact.values), exact


def radial_problem(nodes=129):
    grid = centered_box(2, 1.0, nodes)
    exact = radial(0.4).sample(grid)
    return normalized_problem(grid, exact.values), exact


class TestProblemSpec:
    def test_normalized_rejects_negative_boundary(self):
        grid = centered_box(1, 1.0, 9)
        boundary = np.zeros(grid.shape)
        boundary[0] = -0.1
        with pytest.raises(GridError):
            normalized_problem(grid, boundary)

    def test_general_requires_compatible_boundary(self):
        grid = centered_box(1, 1.0, 9)
        obstacle = ScalarField(grid, np.zeros(grid.shape))
        boundary = np.full(grid.shape, -0.5)
        with pytest.raises(GridError):
            general_problem(grid, obstacle, boundary)

    def test_config_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(omega=2.5)
        with pytest.raises(SolverError):
            SolverConfig(tol=-1.0)
        with pytest.raises(SolverError):
            SolverConfig(method="newton")


class TestSolveNormalized:
    def test_one_d_matches_exact_fixture(self):
        problem, exact = one_d_problem(nodes=513)
        result = solve(problem, SolverConfig(tol=TOL))
        h = problem.grid.h
        # kinks are node-aligned here, so the discrete solution is the
        # sampled fixture itself up to solver tolerance (within 5h^2)
        assert np.abs(result.solution.values - exact.values).max() <= 5 * h * h
        assert result.residual_history[-1] <= TOL

    def test_radial_matches_exact_fixture(self):
        problem, exact = radial_problem(nodes=129)
        result = solve(problem, SolverConfig(tol=TOL))
        h = problem.grid.h
        assert np.abs(result.solution.values - exact.values).max() <= 10 * h * h

    def test_solution_invariants(self):
        problem, _ = one_d_problem(nodes=129, offset=1 / 96)
        result = solve(problem, SolverConfig(tol=TOL))
        values = result.solution.values
        assert (values >= 0.0).all()  # projection is exact
        boundary = problem.boundary
        assert values[0] == boundary[0] and values[-1] == boundary[-1]
        assert complementarity_residual(result.solution, problem) <= 10 * TOL

    def test_normalized_laplacian_comparison(self):
        # 0 <= lap_h u <= 1 + 10 tol / h^2 at full-interior-stencil nodes
        problem, _ = radial_problem(nodes=65)
        result = solve(problem, SolverConfig(tol=TOL))
        h = problem.grid.h
        lap = interior_laplacian(result.solution.values, h)[(slice(1, -1),) * 2]
        assert lap.min() >= -1e-12
        assert lap.max() <= 1.0 + 10 * TOL / (h * h)

    def test_iteration_limit_carries_history(self):
        # the last row is the exact residual of the last iterate, at the limit
        problem, _ = radial_problem(nodes=65)
        with pytest.raises(IterationLimitError) as excinfo:
            solve(problem, SolverConfig(tol=1e-12, max_iterations=3))
        error = excinfo.value
        assert error.recorded_iterations[0] == 1 and error.recorded_iterations[-1] == 3
        assert len(error.residual_history) == len(error.recorded_iterations)
        u = default_initial_guess(problem).values.copy()
        for _ in range(3):
            masked_sweep(problem, u, 1.8)
        last = complementarity_residual(ScalarField(problem.grid, u), problem)
        assert bits(error.residual_history[-1]) == bits(last)
        assert f"(residual {last:.3e} > tol" in str(error)


class TestSolveGeneral:
    def test_inactive_constraint_reduces_to_dirichlet(self):
        # obstacle -1 < min f with harmonic-extendable boundary data: the
        # solution is the unconstrained discrete harmonic extension, which
        # for affine data is the affine function itself
        grid = centered_box(2, 1.0, 65)
        obstacle = ScalarField(grid, np.full(grid.shape, -1.0))
        affine = field_from_function(grid, lambda p: 0.3 * p[:, 0] - 0.2 * p[:, 1] + 0.5)
        problem = general_problem(grid, obstacle, affine.values)
        result = solve(problem, SolverConfig(tol=TOL))
        assert np.abs(result.solution.values - affine.values).max() <= 100 * TOL

    def test_superharmonic(self):
        # lap_h u <= tol_disc everywhere for the general form
        grid = centered_box(2, 1.0, 65)
        obstacle = field_from_function(
            grid, lambda p: 0.3 - np.sum(p * p, axis=1)
        )  # dome obstacle
        boundary = np.zeros(grid.shape)
        problem = general_problem(grid, obstacle, boundary)
        result = solve(problem, SolverConfig(tol=TOL))
        lap = interior_laplacian(result.solution.values, grid.h)
        assert lap.max() <= 10 * TOL / grid.h**2
        # the obstacle is active somewhere (dome pokes above boundary data)
        assert (result.solution.values == obstacle.values).any()


class TestUniqueness:
    @pytest.mark.parametrize("make", [one_d_problem, radial_problem])
    def test_psor_and_projected_gradient_agree(self, make):
        problem, _ = make(65)
        a = solve(problem, SolverConfig(method=PSOR, tol=TOL), default_initial_guess(problem))
        b = solve(
            problem,
            SolverConfig(method=PROJECTED_GRADIENT, tol=TOL, max_iterations=500_000),
            constraint_initial_guess(problem),
        )
        assert np.abs(a.solution.values - b.solution.values).max() <= 10 * TOL


class TestEnergy:
    def test_constant_field_gradient_part_zero(self):
        grid = centered_box(2, 1.0, 33)
        field = ScalarField(grid, np.zeros(grid.shape))
        obstacle = ScalarField(grid, np.full(grid.shape, -1.0))
        problem = general_problem(grid, obstacle, np.zeros(grid.shape))
        assert dirichlet_energy(field, problem) == 0.0

    def test_affine_energy_closed_form(self):
        # c^2/2 * volume, exact under trapezoid cross weights
        grid = centered_box(2, 1.0, 33)
        c = 0.7
        field = field_from_function(grid, lambda p: c * p[:, 0])
        obstacle = ScalarField(grid, np.full(grid.shape, -10.0))
        problem = general_problem(grid, obstacle, field.values)
        assert dirichlet_energy(field, problem) == pytest.approx(c * c / 2 * 4.0, rel=1e-12)

    def test_minimality_against_admissible_bumps(self):
        problem, _ = one_d_problem(nodes=129)
        result = solve(problem, SolverConfig(tol=1e-10))
        base = dirichlet_energy(result.solution, problem)
        grid = problem.grid
        rng = np.random.default_rng(4)
        for _ in range(5):
            bump = np.zeros(grid.shape)
            k = rng.integers(1, grid.shape[0] - 1)
            bump[k] = rng.uniform(0.0, 0.1)  # nonnegative interior bump
            perturbed = ScalarField(grid, result.solution.values + bump)
            assert dirichlet_energy(perturbed, problem) >= base - 1e-12

    def test_energy_monotone_along_psor_sweeps(self):
        # drive the PSOR sweeps from solve's default start, to solve's stop
        problem, _ = radial_problem(nodes=33)
        config = SolverConfig(tol=1e-10)
        u = default_initial_guess(problem).values.copy()
        lattice = _ParityLattice(u, problem, config.omega)
        energies = []
        while True:
            lattice.step()
            lattice.store(u)
            field = ScalarField(problem.grid, u)
            energies.append(dirichlet_energy(field, problem))
            if complementarity_residual(field, problem) <= config.tol:
                break
        assert len(energies) == solve(problem, config).iterations > 1
        assert (np.diff(energies) <= 1e-12).all()

    def test_grid_mismatch_rejected(self):
        problem, _ = one_d_problem(nodes=129)
        other = ScalarField(centered_box(1, 1.0, 65), np.zeros(65))
        with pytest.raises(GridError):
            dirichlet_energy(other, problem)


class TestComplementarityResidual:
    def test_exact_fixture_residual_localized_at_kink(self):
        # misaligned kink: O(1) kkt defect only at free-boundary cells,
        # O(h^2)-clean elsewhere
        problem, exact = one_d_problem(nodes=257, offset=1 / 384)
        res = complementarity_residual(exact, problem)
        assert res <= 0.6  # kink-cell defect is theta^2/2-ish, bounded by 1/2
        grid = problem.grid
        x = grid.axis(0)[1:-1]
        lap = interior_laplacian(exact.values, grid.h)
        kkt = 1.0 - lap
        gap = exact.values[1:-1]
        local = np.abs(np.minimum(gap, kkt))
        away = np.abs(np.abs(x) - 0.5) > 2 * grid.h
        assert local[away].max() <= 1e-10

    def test_solver_output_meets_contract(self):
        problem, _ = radial_problem(nodes=65)
        result = solve(problem, SolverConfig(tol=TOL))
        assert complementarity_residual(result.solution, problem) <= 10 * TOL

    def test_constraint_violation_detected(self):
        problem, exact = one_d_problem(nodes=129)
        bad = exact.values.copy()
        bad[64] = -0.25
        res = complementarity_residual(ScalarField(problem.grid, bad), problem)
        assert res >= 0.25


class TestResidualHistory:
    def test_history_final_entry_matches_contract(self):
        problem, _ = one_d_problem(nodes=65)
        result = solve(problem, SolverConfig(tol=TOL))
        assert result.residual_history[-1] <= TOL
        assert result.iterations == result.recorded_iterations[-1]
        assert len(result.residual_history) == len(result.recorded_iterations)


def small_problem(dimension, nodes, form):
    """A small problem whose solution has a nonempty contact set. ``nodes``
    is one count for a cube on [-1, 1]^n, or one count per axis for a box
    centred at 0 with the first axis on [-1, 1]. The ``"ring"`` form is
    normalized with seeded, non-constant ring data in [0, 3), so that a sweep
    that moves a ring node, or a residual that counts one, shows; its contact
    set may be empty. The ``"zero"`` form is the general form over an obstacle
    of +0.0 with seeded ring data that is 0 on about half the ring, and
    ``"negzero"`` the normalized one over an obstacle of -0.0."""
    if isinstance(nodes, int):
        grid = centered_box(dimension, 1.0, nodes)
    else:
        half = tuple((m - 1) / (nodes[0] - 1) for m in nodes)
        grid = GridSpec(tuple(-x for x in half), half, nodes)
    if form == "normalized":
        return normalized_problem(grid, np.full(grid.shape, 0.1))
    if form == "ring":
        rng = np.random.default_rng(grid.node_count)
        return normalized_problem(grid, rng.uniform(0.0, 3.0, grid.shape))
    if form == "zero":
        rng = np.random.default_rng(grid.node_count)
        ring = np.maximum(rng.uniform(-3.0, 3.0, grid.shape), 0.0)
        return general_problem(grid, ScalarField(grid, np.zeros(grid.shape)), ring)
    if form == "negzero":
        return ObstacleProblemSpec(grid, np.full(grid.shape, 0.1), np.full(grid.shape, -0.0), 1.0)
    dome = field_from_function(grid, lambda p: 0.3 - np.sum(p * p, axis=1))
    return general_problem(grid, dome, np.zeros(grid.shape))


def masked_neighbor_sum(u):
    nd = u.ndim
    acc = None
    for a in range(nd):
        lo = tuple(slice(0, -2) if b == a else slice(1, -1) for b in range(nd))
        hi = tuple(slice(2, None) if b == a else slice(1, -1) for b in range(nd))
        term = u[lo] + u[hi]
        acc = term if acc is None else acc + term
    return acc


def masked_red_black(shape):
    index = np.meshgrid(*(np.arange(1, m - 1) for m in shape), indexing="ij")
    red = sum(index) % 2 == 0
    return red, ~red


def masked_initial_guess(problem):
    """Reference start: ten plain Gauss-Seidel red-black sweeps, each colour
    selected from a full-interior update by a parity mask."""
    nd = problem.grid.dimension
    core = (slice(1, -1),) * nd
    ring = np.ones(problem.grid.shape, dtype=bool)
    ring[core] = False
    u = np.full(problem.grid.shape, float(np.mean(problem.boundary[ring])))
    u[ring] = problem.boundary[ring]
    for _ in range(10):
        for color in masked_red_black(u.shape):
            u[core] = np.where(color, masked_neighbor_sum(u) / (2.0 * nd), u[core])
    u = np.maximum(u, problem.obstacle)
    u[ring] = problem.boundary[ring]
    return u


def masked_sweep(problem, u, omega):
    """Reference projected SOR sweep of ``u`` in place: full-interior
    candidate, parity-masked select."""
    nd = u.ndim
    core = (slice(1, -1),) * nd
    c0 = problem.source * problem.grid.h**2 / (2.0 * nd)
    for color in masked_red_black(u.shape):
        gs = masked_neighbor_sum(u) / (2.0 * nd) - c0
        cand = np.maximum((1.0 - omega) * u[core] + omega * gs, problem.obstacle[core])
        u[core] = np.where(color, cand, u[core])


def masked_residual(problem, u):
    core = (slice(1, -1),) * u.ndim
    lap = interior_laplacian(u, problem.grid.h)
    gap = u[core] - problem.obstacle[core]
    return float(np.max(np.abs(np.minimum(gap, problem.source - lap))))


def masked_psor(problem, u, omega, tol):
    """Reference projected SOR: masked sweeps until the residual is ``tol``.
    Returns the residual history; ``u`` is updated in place."""
    history = []
    while not history or history[-1] > tol:
        masked_sweep(problem, u, omega)
        history.append(masked_residual(problem, u))
    return history


def recorded_rows(result, history):
    """The reference residuals at the iterations that ``result`` recorded."""
    return [history[k - 1] for k in result.recorded_iterations]


def high_start(problem):
    """The ring data, and 3 at every interior node."""
    u = problem.boundary.copy()
    u[problem.grid.interior_slices()] = 3.0
    return u


SMALL_CASES = [
    (dimension, nodes, form)
    for dimension, sizes in ((1, (17, 18)), (2, (17, 16)), (3, (9, 10)))
    for nodes in sizes
    for form in ("normalized", "general")
]


# Non-cubic boxes, and 3 and 4 nodes per axis, where some parity
# sub-lattices have no interior nodes. The general form's dome is negative at
# every interior node of the 4^3 grid, so that grid has no general case.
LAYOUT_CASES = SMALL_CASES + [
    (dimension, nodes, form)
    for dimension, sizes in (
        (1, (3, 4)),
        (2, (3, 4, (17, 10))),
        (3, (3, 4, (9, 10, 11))),
    )
    for nodes in sizes
    for form in ("normalized", "general")
    if (dimension, nodes, form) != (3, 4, "general")
]


# Every LAYOUT_CASES shape with ring data that a leak would disturb.
RING_CASES = [
    (dimension, nodes, "ring")
    for dimension, nodes in dict.fromkeys((d, n) for d, n, _ in LAYOUT_CASES)
]


# Both sides of the lattice's zero-obstacle test on every LAYOUT_CASES shape:
# "zero" (+0.0, clamped with the scalar 0.0) and "negzero" (-0.0, clamped by
# its array).
ZERO_CASES = [
    (dimension, nodes, form)
    for dimension, nodes, _ in RING_CASES
    for form in ("zero", "negzero")
]


def case_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else None


def bits(values) -> bytes:
    """The bytes of a float array: equal iff every entry has the same bits,
    the sign of a zero included, unlike ``np.array_equal``."""
    return np.asarray(values, dtype=float).tobytes()


class TestStridedSweep:
    """PSOR on the parity-split lattice against a full-interior update with
    parity masks, bit for bit."""

    @pytest.mark.parametrize("dimension, nodes, form", LAYOUT_CASES + RING_CASES, ids=case_id)
    def test_initial_guess_equals_masked_reference(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        expected = masked_initial_guess(problem)
        assert bits(default_initial_guess(problem).values) == bits(expected)

    @pytest.mark.parametrize("dimension, nodes, form", LAYOUT_CASES, ids=case_id)
    def test_psor_equals_masked_reference(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        start = default_initial_guess(problem)
        result = solve(problem, SolverConfig(tol=1e-10), start)
        u = start.values.copy()
        history = masked_psor(problem, u, omega=1.8, tol=1e-10)
        assert bits(result.solution.values) == bits(u)
        assert bits(result.residual_history) == bits(recorded_rows(result, history))
        core = problem.grid.interior_slices()
        assert (u[core] == problem.obstacle[core]).any()  # the projection was active

    @pytest.mark.parametrize("dimension, nodes, form", RING_CASES, ids=case_id)
    def test_ring_data_stays_put(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        start = default_initial_guess(problem)
        result = solve(problem, SolverConfig(tol=1e-10), start)
        u = start.values.copy()
        history = masked_psor(problem, u, omega=1.8, tol=1e-10)
        assert bits(result.solution.values) == bits(u)
        assert bits(result.residual_history) == bits(recorded_rows(result, history))

    @pytest.mark.parametrize("dimension, nodes, form", ZERO_CASES, ids=case_id)
    def test_zero_obstacles_equal_masked_reference(self, dimension, nodes, form):
        # from 3 at every interior node, above the solution, so that on most
        # shapes the over-relaxed steps undershoot and the projection acts
        problem = small_problem(dimension, nodes, form)
        start = high_start(problem)
        result = solve(problem, SolverConfig(tol=1e-10), ScalarField(problem.grid, start))
        history = masked_psor(problem, start, omega=1.8, tol=1e-10)
        assert bits(result.solution.values) == bits(start)
        assert bits(result.residual_history) == bits(recorded_rows(result, history))
        if form == "negzero":  # the -0.0 array clamp wrote -0.0, which 0.0 would not
            assert np.signbit(start[problem.grid.interior_slices()]).any()


class TestWitness:
    """The solve forms the full residual only where its witness cannot rule
    convergence out: every iteration it leaves unrecorded is above tol in the
    reference, and it stops at the reference's first iteration at or below
    tol."""

    @pytest.mark.parametrize("method", [PSOR, PROJECTED_GRADIENT])
    @pytest.mark.parametrize(
        "dimension, nodes, form", LAYOUT_CASES + RING_CASES + ZERO_CASES, ids=case_id
    )
    def test_unrecorded_iterations_are_above_tol(self, dimension, nodes, form, method):
        problem = small_problem(dimension, nodes, form)
        start = default_initial_guess(problem)
        result = solve(problem, SolverConfig(method=method, tol=1e-10), start)
        u = start.values.copy()
        if method == PSOR:
            history = np.array(masked_psor(problem, u, omega=1.8, tol=1e-10))
        else:
            history = np.array(reference_projected_gradient(problem, u, tol=1e-10))
        recorded = result.recorded_iterations
        assert recorded[0] == 1 and (np.diff(recorded) > 0).all()
        unrecorded = np.setdiff1d(np.arange(1, result.iterations + 1), recorded)
        assert (history[unrecorded - 1] > 1e-10).all()
        assert recorded[-1] == result.iterations == np.flatnonzero(history <= 1e-10)[0] + 1
        assert bits(result.residual_history) == bits(history[recorded - 1])


class TestStoredSums:
    """The lattice keeps each colour's neighbour sums between calls. Whatever
    the order of its sweep, residual and store calls, its iterates and
    residuals are the masked reference's, bit for bit."""

    CASES = LAYOUT_CASES + RING_CASES + ZERO_CASES

    @staticmethod
    def start(problem):
        """A lattice from ``high_start`` with omega 1.8, its full array, and a
        copy for the masked reference."""
        u = high_start(problem)
        return _ParityLattice(u, problem, 1.8), u, u.copy()

    @pytest.mark.parametrize("dimension, nodes, form", CASES, ids=case_id)
    def test_sweeps_without_residuals(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        lattice, u, expected = self.start(problem)
        for _ in range(5):
            lattice.step()
            masked_sweep(problem, expected, 1.8)
        residual = lattice.residual()
        lattice.store(u)
        assert bits(u) == bits(expected)
        assert bits(residual) == bits(masked_residual(problem, expected))

    @pytest.mark.parametrize("dimension, nodes, form", CASES, ids=case_id)
    def test_residual_leaves_the_sums(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        lattice, u, expected = self.start(problem)
        for _ in range(3):
            lattice.step()
            masked_sweep(problem, expected, 1.8)
            first = lattice.residual()
            assert bits(lattice.residual()) == bits(first)
            assert bits(first) == bits(masked_residual(problem, expected))
        lattice.store(u)
        assert bits(u) == bits(expected)

    @pytest.mark.parametrize("dimension, nodes, form", CASES, ids=case_id)
    def test_store_between_sweeps(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        lattice, u, expected = self.start(problem)
        for _ in range(3):
            lattice.store(u)
            lattice.step()
            masked_sweep(problem, expected, 1.8)
        lattice.store(u)
        assert bits(u) == bits(expected)
        residual = lattice.residual()
        assert bits(residual) == bits(masked_residual(problem, expected))


class TestSharedResidual:
    @pytest.mark.parametrize("dimension, nodes, form", SMALL_CASES)
    def test_equals_laplacian_formula(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        rng = np.random.default_rng(dimension * 100 + nodes)
        field = ScalarField(problem.grid, rng.uniform(-0.2, 0.5, problem.grid.shape))
        core = problem.grid.interior_slices()
        lap = interior_laplacian(field.values, problem.grid.h)
        gap = field.values[core] - problem.obstacle[core]
        expected = float(np.max(np.abs(np.minimum(gap, problem.source - lap))))
        assert complementarity_residual(field, problem) == expected

    @pytest.mark.parametrize("method", [PSOR, PROJECTED_GRADIENT])
    @pytest.mark.parametrize(
        "dimension, nodes, form", LAYOUT_CASES + RING_CASES + ZERO_CASES, ids=case_id
    )
    def test_in_loop_residual_is_the_public_one(self, dimension, nodes, form, method):
        problem = small_problem(dimension, nodes, form)
        result = solve(problem, SolverConfig(method=method, tol=1e-10))
        assert result.residual_history[-1] == complementarity_residual(result.solution, problem)


def divisors():
    """Every divisor the solver scales by: 2n, and h * h on the layout grids."""
    spacings = sorted({small_problem(d, n, form).grid.h for d, n, form in LAYOUT_CASES})
    return [2.0 * n for n in (1, 2, 3)] + [h * h for h in spacings]


class TestExactReciprocal:
    @pytest.mark.parametrize("divisor", divisors())
    def test_equals_divide_bit_for_bit(self, divisor):
        rng = np.random.default_rng(15)
        x = rng.uniform(-4.0, 4.0, 4096) * 2.0 ** rng.integers(-1074, 8, 4096).astype(float)
        expected = np.divide(x, divisor)
        assert (np.abs(expected[expected != 0.0]) < np.finfo(float).tiny).sum() > 100  # subnormal
        ufunc, operand = _divisor(divisor)
        got = ufunc(x, operand, out=np.empty_like(x))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_only_powers_of_two_multiply(self):
        assert {_divisor(d)[0] for d in (2.0, 4.0, 1 / 64, 1 / 16, 1.0)} == {np.multiply}
        hs = (2 / 15, 2 / 17, 2 / 3)
        divides = (6.0, 3.0, *(h * h for h in hs), 2.0**-1074)  # the last one's 1/d overflows
        assert {_divisor(d)[0] for d in divides} == {np.divide}
        assert all(_divisor(d)[1] == d for d in divides)


class TestMethodLifetime:
    """The method object and its buffers are freed before the energy is
    formed, so they add nothing to a solve's peak memory."""

    @pytest.mark.parametrize("method", [PSOR, PROJECTED_GRADIENT])
    def test_no_method_object_alive_in_the_energy(self, method, monkeypatch):
        energy = solver.dirichlet_energy

        def checked(field, problem):
            gc.collect()
            methods = (_ParityLattice, _ProjectedGradient)
            assert not [o for o in gc.get_objects() if isinstance(o, methods)]
            return energy(field, problem)

        monkeypatch.setattr(solver, "dirichlet_energy", checked)
        problem, _ = radial_problem(nodes=33)
        result = solve(problem, SolverConfig(method=method))
        assert result.final_energy == energy(result.solution, problem)


class TestSpecFields:
    def test_arrays_are_read_only_copies(self):
        grid = centered_box(1, 1.0, 9)
        boundary = np.zeros(grid.shape)
        problem = ObstacleProblemSpec(grid, boundary, np.zeros(grid.shape), 1.0)
        boundary[0] = -1.0
        assert problem.boundary[0] == 0.0
        with pytest.raises(ValueError):
            problem.obstacle[0] = 1.0

    def test_shape_and_finiteness_checked(self):
        grid = centered_box(1, 1.0, 9)
        with pytest.raises(GridError):
            ObstacleProblemSpec(grid, np.zeros(8), np.zeros(grid.shape), 1.0)
        obstacle = np.zeros(grid.shape)
        obstacle[4] = np.nan
        with pytest.raises(GridError):
            ObstacleProblemSpec(grid, np.zeros(grid.shape), obstacle, 0.0)


def reference_projected_gradient(problem, u, tol):
    """Reference accelerated projected gradient: the method's loop written
    out with its own residual history and stopping test. Returns the
    history; ``u`` ends as the solution."""
    nd = u.ndim
    h = problem.grid.h
    h2 = h * h
    obstacle, source = problem.obstacle, problem.source
    core = (slice(1, -1),) * nd
    psi_core = obstacle[core]
    step = h2 / (4.0 * nd)
    x = u[core].copy()
    y = u
    probe = u.copy()
    t = 1.0
    history = []
    while not history or history[-1] > tol:
        lap = interior_laplacian(y, h)
        x_new = np.maximum(y[core] + step * (lap - source), psi_core)
        if np.vdot(y[core] - x_new, x_new - x) > 0.0:
            t = 1.0
            y[core] = x_new
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y[core] = x_new + ((t - 1.0) / t_next) * (x_new - x)
            t = t_next
        x = x_new
        probe[core] = x
        lap = interior_laplacian(probe, problem.grid.h)
        gap = probe[core] - obstacle[core]
        history.append(float(np.max(np.abs(np.minimum(gap, source - lap)))))
    u[core] = x
    return history


class TestProjectedGradientSteps:
    @pytest.mark.parametrize("dimension, nodes, form", SMALL_CASES)
    def test_equals_reference_loop(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        start = default_initial_guess(problem)
        config = SolverConfig(method=PROJECTED_GRADIENT, tol=1e-10)
        result = solve(problem, config, start)
        u = start.values.copy()
        history = reference_projected_gradient(problem, u, tol=1e-10)
        assert bits(result.solution.values) == bits(u)
        assert bits(result.residual_history) == bits(recorded_rows(result, history))
        assert result.iterations == len(history)


def random_admissible_start(problem):
    """The obstacle plus seeded uniform noise in [0, 0.5)."""
    rng = np.random.default_rng(problem.grid.node_count)
    return ScalarField(problem.grid, problem.obstacle + rng.uniform(0.0, 0.5, problem.grid.shape))


class TestStartAndMethodIndependence:
    """The discrete LCP has one solution: every start and method reaches it."""

    @pytest.mark.parametrize(
        "dimension, nodes, form",
        [(d, n, form) for d, n in ((1, 33), (2, 33), (3, 17)) for form in ("normalized", "general")],
    )
    def test_one_solution(self, dimension, nodes, form):
        problem = small_problem(dimension, nodes, form)
        starts = (default_initial_guess, constraint_initial_guess, random_admissible_start)
        solutions = [
            solve(problem, SolverConfig(method=method, tol=1e-12), start(problem)).solution.values
            for method in (PSOR, PROJECTED_GRADIENT)
            for start in starts
        ]
        for other in solutions[1:]:
            assert np.abs(other - solutions[0]).max() <= 1e-10
        core = problem.grid.interior_slices()
        assert (solutions[0][core] == problem.obstacle[core]).any()  # the obstacle binds
