"""Consensus-distance study: the mechanism behind §3.1.

The paper's argument is mechanistic: training rounds *grow* inter-node
disagreement on non-IID data, synchronization rounds *shrink* it, and
lower disagreement at evaluation time is where SkipTrain's accuracy
advantage comes from. This experiment records the consensus-distance
trajectory of each algorithm on identical data and reports the
summary statistics that make the mechanism falsifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import accuracy_auc, empirical_contraction_rate
from ..simulation.metrics import RunHistory
from .artifacts import build_plan
from .presets import ExperimentPreset
from .reporting import render_table
from .sweep import plan_artifacts

__all__ = ["ConvergenceStudyResult", "convergence_study"]

ALGORITHMS = ("d-psgd", "skiptrain", "d-psgd-allreduce")


@dataclass
class ConvergenceStudyResult:
    """Per-algorithm trajectories and summary statistics."""

    histories: dict[str, RunHistory]

    def final_consensus(self, name: str) -> float:
        return float(self.histories[name].consensus[-1])

    def contraction(self, name: str) -> float:
        return empirical_contraction_rate(self.histories[name].consensus)

    def auc(self, name: str) -> float:
        return accuracy_auc(self.histories[name])

    def render(self) -> str:
        rows = []
        for name, history in self.histories.items():
            rows.append([
                name,
                history.final_accuracy() * 100,
                self.final_consensus(name),
                self.auc(name),
            ])
        return render_table(
            ["algorithm", "final accuracy %", "final consensus dist",
             "accuracy AUC"],
            rows,
            title="Convergence / consensus study",
        )


def convergence_study(
    preset: ExperimentPreset,
    results_dir,
    degree: int | None = None,
    seed: int = 0,
    *,
    run: bool = True,
    log=None,
) -> ConvergenceStudyResult:
    """The three reference algorithms' cells on one (degree, seed)."""
    deg = degree if degree is not None else preset.degrees[0]
    cells = build_plan(preset, ALGORITHMS, degrees=(deg,), seeds=(seed,))
    results = plan_artifacts(preset, cells, results_dir, run=run, log=log)
    return ConvergenceStudyResult(histories={
        cell.algorithm: result.history for cell, result in zip(cells, results)
    })
