"""Fig. 3: the Γ_train × Γ_sync grid search.

For each topology degree, the grid is a plan of SkipTrain cells, one
per (Γ_train, Γ_sync), each evaluated on the validation split (§4.3);
the result holds their final accuracy and total training energy and
picks the winner (ties resolved toward lower energy, as in §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.schedule import RoundSchedule
from .artifacts import build_plan
from .presets import ExperimentPreset
from .reporting import render_heatmap
from .sweep import plan_artifacts

__all__ = ["GridSearchResult", "grid_search", "energy_grid"]


@dataclass
class GridSearchResult:
    """Grid-search output for one degree.

    ``accuracy[i, j]`` is mean validation accuracy for Γ_sync =
    sync_values[i], Γ_train = train_values[j] (matching Fig. 3's axes:
    rows = Γ_sync, columns = Γ_train).
    """

    degree: int
    train_values: tuple[int, ...]
    sync_values: tuple[int, ...]
    accuracy: np.ndarray
    energy_wh: np.ndarray

    def best(self) -> tuple[int, int]:
        """(Γ_train, Γ_sync) with the highest accuracy; ties resolved in
        favor of the lowest energy (§4.3)."""
        best_acc = self.accuracy.max()
        candidates = np.argwhere(self.accuracy >= best_acc - 1e-12)
        best_ij = min(candidates, key=lambda ij: self.energy_wh[ij[0], ij[1]])
        i, j = best_ij
        return self.train_values[j], self.sync_values[i]

    def render(self) -> str:
        acc = render_heatmap(
            self.accuracy * 100.0,
            [f"Γsync={s}" for s in self.sync_values],
            [f"Γtrain={t}" for t in self.train_values],
            title=f"{self.degree}-regular. Validation accuracy [%]",
        )
        en = render_heatmap(
            self.energy_wh,
            [f"Γsync={s}" for s in self.sync_values],
            [f"Γtrain={t}" for t in self.train_values],
            title="Energy [Wh]",
        )
        return acc + "\n\n" + en


def grid_search(
    preset: ExperimentPreset,
    results_dir,
    degree: int,
    train_values: tuple[int, ...] = (1, 2, 3, 4),
    sync_values: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
    total_rounds: int | None = None,
    *,
    run: bool = True,
    log=None,
) -> GridSearchResult:
    """The full grid for one topology degree: one ``skiptrain`` cell
    per (Γ_train, Γ_sync), with that schedule and ``eval_on=
    "validation"`` (§4.3: tuning uses the val split)."""
    (cell,) = build_plan(preset, ("skiptrain",), degrees=(degree,),
                         seeds=(seed,), total_rounds=total_rounds)
    cells = tuple(
        replace(cell, schedule=(gt, gs), eval_on="validation")
        for gs in sync_values for gt in train_values
    )
    results = plan_artifacts(preset, cells, results_dir, run=run, log=log)
    shape = (len(sync_values), len(train_values))
    return GridSearchResult(
        degree=degree,
        train_values=tuple(train_values),
        sync_values=tuple(sync_values),
        accuracy=np.reshape([r.history.final_accuracy() for r in results], shape),
        energy_wh=np.reshape([r.meter.total_train_wh for r in results], shape),
    )


def energy_grid(
    preset: ExperimentPreset,
    train_values: tuple[int, ...] = (1, 2, 3, 4),
    sync_values: tuple[int, ...] = (1, 2, 3, 4),
    total_rounds: int | None = None,
    degree: int | None = None,
) -> np.ndarray:
    """Closed-form energy heatmap (Fig. 3's rightmost panel).

    Training energy depends only on T_train = T·Γt/(Γt+Γs) (and the
    device mix), not on the topology — reproduced analytically here and
    cross-checked against the measured grids in tests.
    """
    from ..energy.traces import build_trace

    rounds = total_rounds if total_rounds is not None else preset.total_rounds
    deg = degree if degree is not None else preset.degrees[0]
    trace = build_trace(
        preset.n_nodes, preset.workload, preset.battery_fraction, degree=deg
    )
    per_round_all = trace.train_energy_wh.sum()
    out = np.zeros((len(sync_values), len(train_values)))
    for i, gs in enumerate(sync_values):
        for j, gt in enumerate(train_values):
            t_train = RoundSchedule(gt, gs).training_rounds(rounds)
            out[i, j] = per_round_all * t_train
    return out
