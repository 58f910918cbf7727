"""Solve every pairing of boundary source and obstacle that a config could name.

    python3 tools/inert_obstacles.py [NODES]

On [-1, 1]^2 at NODES nodes per axis (default 65), each of five sources is
used as boundary data and as obstacle of the obstacle problem with source 0
(``solver.general_problem``): the constants 0 and 0.3, ``radial`` with
a = 0.4, ``halfspace`` with direction (1, 0.3) and a unit-trace PSD
``polynomial``. Each has Δφ >= 0. A pairing whose boundary data fall below
the obstacle on the ring is refused by ``ObstacleProblemSpec``; every other
one is solved by PSOR at tolerance 1e-8.

Prints one line per pairing: the number of interior nodes where
u - φ <= 1e-9 (the obstacle is active there) and min(u - φ) over the
interior. By the discrete maximum principle the count is 0 unless u ≡ φ,
which happens only when boundary and obstacle are the same constant.
Exits 1 if any other pairing has an active node.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obslab import fixtures  # noqa: E402
from obslab.grid import GridError, GridSpec, ScalarField  # noqa: E402
from obslab.solver import SolverConfig, general_problem, solve  # noqa: E402

ACTIVE_GAP = 1e-9


def sources(grid: GridSpec) -> dict[str, ScalarField]:
    def constant(value):
        return ScalarField(grid, np.full(grid.shape, value))

    direction = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
    matrix = [[0.6, 0.2], [0.2, 0.4]]
    return {
        "constant 0": constant(0.0),
        "constant 0.3": constant(0.3),
        "radial a=0.4": fixtures.radial(0.4).sample(grid),
        "halfspace (1, 0.3)": fixtures.halfspace(direction).sample(grid),
        "polynomial": fixtures.polynomial(fixtures.QuadraticForm.from_matrix(matrix)).sample(grid),
    }


def main(argv: list[str]) -> int:
    nodes = int(argv[0]) if argv else 65
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    fields = sources(grid)
    core = (slice(1, -1),) * 2
    unexpected = 0
    for boundary_name, boundary in fields.items():
        for obstacle_name, obstacle in fields.items():
            label = f"boundary {boundary_name:<19} obstacle {obstacle_name:<19}"
            try:
                problem = general_problem(grid, obstacle, boundary.values)
            except GridError as exc:
                print(f"{label} refused: {exc}")
                continue
            gap = (solve(problem, SolverConfig()).solution.values - obstacle.values)[core]
            active = int((gap <= ACTIVE_GAP).sum())
            coincident = boundary_name == obstacle_name and boundary_name.startswith("constant")
            unexpected += active > 0 and not coincident
            note = " (u ≡ φ)" if coincident else ""
            print(f"{label} active nodes {active:5d}, min(u - φ) {gap.min():.3e}{note}")
    print(f"{unexpected} pairing(s) with an active obstacle besides u ≡ φ")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
