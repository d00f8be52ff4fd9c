"""Figure 3 bench: the Γ_train × Γ_sync grid search.

Paper shapes checked:

* the energy panel depends only on T_train — column-monotone in Γ_train
  and row-monotone in Γ_sync, identical across topologies;
* (Γ_train=1, Γ_sync=4) is the cheapest configuration in the grid;
* the measured energy grid equals the closed-form Eq. 4 prediction.
"""

import numpy as np
import pytest

from repro.experiments import energy_grid, grid_search

from .conftest import run_once

GRID = (1, 2, 3, 4)


@pytest.mark.slow
def test_fig3_gridsearch(benchmark, bench16_cifar, tmp_path):
    """Full 4×4 grid on the sparse topology (the paper's 6-regular
    analogue), plus the analytic energy panel."""

    def compute():
        return grid_search(
            bench16_cifar, tmp_path, degree=3, train_values=GRID,
            sync_values=GRID, seed=11, total_rounds=64,
        )

    result = run_once(benchmark, compute)

    print("\n" + result.render())
    gt, gs = result.best()
    print(f"\nbest (Γtrain, Γsync) on the sparse topology: ({gt}, {gs}) "
          f"(paper, 6-regular: (4, 4))")

    # energy grid: measured == analytic closed form
    analytic = energy_grid(bench16_cifar, train_values=GRID,
                           sync_values=GRID, total_rounds=64)
    np.testing.assert_allclose(result.energy_wh, analytic, rtol=1e-9)

    # energy monotone: more training => more energy, more sync => less
    for i in range(len(GRID)):
        assert (np.diff(result.energy_wh[i]) > 0).all()
    for j in range(len(GRID)):
        assert (np.diff(result.energy_wh[:, j]) < 0).all()

    # cheapest cell is Γtrain=1, Γsync=4 (§4.3's 302 Wh corner)
    assert result.energy_wh.argmin() == result.energy_wh.shape[1] * (len(GRID) - 1)

    # sync rounds help on the sparse graph: the best cell beats the
    # no-sync-est corner (Γsync=1, Γtrain=4)
    assert result.accuracy.max() >= result.accuracy[0, -1]


def test_fig3_optimal_sync_decreases_with_degree(benchmark, bench16_cifar,
                                                 tmp_path):
    """§4.3's intuition: denser topologies need fewer sync rounds.
    Checked as: the accuracy *cost* of cutting Γ_sync from 4 to 1 (at
    Γ_train=4) shrinks as the degree grows."""

    def compute():
        out = {}
        for degree in (3, 6):
            res = grid_search(
                bench16_cifar, tmp_path, degree=degree, train_values=(4,),
                sync_values=(1, 4), seed=11, total_rounds=64,
            )
            # accuracy[sync=4] - accuracy[sync=1]
            out[degree] = res.accuracy[1, 0] - res.accuracy[0, 0]
        return out

    gains = run_once(benchmark, compute)
    print(f"\naccuracy gain of Γsync 1→4 at degree 3: {gains[3] * 100:+.1f} pp")
    print(f"accuracy gain of Γsync 1→4 at degree 6: {gains[6] * 100:+.1f} pp")
    print("(paper: sparser topology benefits more from extra sync rounds)")
    assert gains[3] > gains[6] - 0.02
