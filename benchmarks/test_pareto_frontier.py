"""Extension bench: the energy–accuracy Pareto frontier behind Fig. 3.

The paper picks one (Γ_train, Γ_sync) winner per topology; the full
grid defines a frontier a deployer can pick from given an energy
target. Shapes checked: the frontier spans from the cheapest schedule
(Γt=1, Γs=4) to the most accurate one, and D-PSGD (Γs=0, i.e. maximal
energy) never improves on the frontier's best accuracy.
"""

import numpy as np
import pytest

from repro.analysis import frontier_from_grid
from repro.experiments import build_run, execute_run, grid_search, prepare

from .conftest import run_once


@pytest.mark.slow
def test_pareto_frontier(benchmark, bench16_cifar, tmp_path):
    def compute():
        grid = grid_search(
            bench16_cifar, tmp_path, degree=3, train_values=(1, 2, 3, 4),
            sync_values=(1, 2, 3, 4), seed=11, total_rounds=64,
        )
        frontier = frontier_from_grid(grid)
        prepared = prepare(bench16_cifar, 3, seed=11)
        dpsgd = execute_run(
            *build_run(prepared, "d-psgd", total_rounds=64), prepared.trace
        )
        return grid, frontier, dpsgd

    grid, frontier, dpsgd = run_once(benchmark, compute)

    print("\nenergy–accuracy Pareto frontier (Γ grid, 3-regular):")
    for p in frontier:
        print(f"  {p.label:10s} {p.energy_wh:6.2f} Wh  {p.accuracy * 100:5.1f}%")
    print(f"  D-PSGD     {dpsgd.meter.total_train_wh:6.2f} Wh  "
          f"{dpsgd.history.final_accuracy() * 100:5.1f}%")

    energies = np.array([p.energy_wh for p in frontier])
    accs = np.array([p.accuracy for p in frontier])

    # frontier includes the globally cheapest schedule
    assert energies.min() == grid.energy_wh.min()
    # frontier is monotone: more energy on the frontier buys accuracy
    order = np.argsort(energies)
    assert (np.diff(accs[order]) >= -1e-12).all()
    # D-PSGD spends more energy than any frontier point without beating
    # the frontier's best accuracy — the paper's headline, frontier form
    assert dpsgd.meter.total_train_wh > energies.max()
    assert dpsgd.history.final_accuracy() <= accs.max() + 0.02
