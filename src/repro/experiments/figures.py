"""Per-figure reproduction entry points.

Figures 1 and 4 are plans: each ``figureN`` builds the figure's
:class:`~repro.experiments.artifacts.PlanCell` s, runs the missing ones
into ``results_dir`` through :func:`~repro.experiments.sweep.run_sweep`
and renders from the artifacts (``run=False`` only renders, and a
missing cell raises with the command that makes it). Figure 7 only
builds the two partitions, so it computes in place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..data.stats import class_distribution_matrix
from ..data.partition import partition_datasets
from ..simulation.metrics import RunHistory
from .artifacts import build_plan
from .presets import ExperimentPreset
from .reporting import render_series, render_table
from .runner import prepare
from .sweep import plan_artifacts

__all__ = [
    "Figure1Result",
    "figure1",
    "Figure4Result",
    "figure4",
    "Figure7Result",
    "figure7",
]


# --------------------------------------------------------------------------
# Figure 1: D-PSGD vs D-PSGD + all-reduce
# --------------------------------------------------------------------------


@dataclass
class Figure1Result:
    """Accuracy-over-rounds comparison: plain D-PSGD (mean across nodes)
    vs hypothetical all-reduce-every-round (consensus model)."""

    dpsgd: RunHistory
    allreduce: RunHistory

    def improvement(self) -> float:
        """Final-round accuracy gain of all-reduce over D-PSGD (the ~10 %
        the paper reports)."""
        return self.allreduce.final_accuracy() - self.dpsgd.final_accuracy()

    def render(self) -> str:
        rounds = self.dpsgd.rounds
        ar_acc = np.interp(rounds, self.allreduce.rounds, self.allreduce.mean_accuracy)
        return render_series(
            rounds,
            {"D-PSGD": self.dpsgd.mean_accuracy * 100, "All-reduce": ar_acc * 100},
            x_label="round",
        )


def figure1(
    preset: ExperimentPreset,
    results_dir,
    degree: int | None = None,
    seed: int = 0,
    *,
    run: bool = True,
    log=None,
) -> Figure1Result:
    """Fig. 1 on the preset's first (sparsest) degree: the ``d-psgd``
    and ``d-psgd-allreduce`` cells."""
    deg = degree if degree is not None else preset.degrees[0]
    cells = build_plan(preset, ("d-psgd", "d-psgd-allreduce"),
                       degrees=(deg,), seeds=(seed,))
    dpsgd, allreduce = plan_artifacts(preset, cells, results_dir,
                                      run=run, log=log)
    return Figure1Result(dpsgd=dpsgd.history, allreduce=allreduce.history)


# --------------------------------------------------------------------------
# Figure 4: train/sync accuracy oscillation
# --------------------------------------------------------------------------


@dataclass
class Figure4Result:
    """Fine-grained accuracy trace distinguishing train and sync rounds."""

    history: RunHistory

    def oscillation_contrast(self) -> float:
        """Mean accuracy after sync rounds minus mean accuracy after
        training rounds, over the evaluated window (positive = the
        paper's sawtooth: sync rounds raise test accuracy)."""
        sync_accs = [
            r.mean_accuracy for r in self.history.records if not r.is_training_round
        ]
        train_accs = [
            r.mean_accuracy for r in self.history.records if r.is_training_round
        ]
        if not sync_accs or not train_accs:
            raise ValueError("window contains only one round type")
        return float(np.mean(sync_accs) - np.mean(train_accs))

    def std_contrast(self) -> float:
        """Inter-node accuracy std after train rounds minus after sync
        rounds (positive = sync shrinks disagreement, the paper's
        shaded-band behaviour)."""
        sync = [r.std_accuracy for r in self.history.records if not r.is_training_round]
        train = [r.std_accuracy for r in self.history.records if r.is_training_round]
        return float(np.mean(train) - np.mean(sync))

    def render(self) -> str:
        rows = [
            [r.round, "train" if r.is_training_round else "sync",
             r.mean_accuracy * 100, r.std_accuracy * 100]
            for r in self.history.records
        ]
        return render_table(["round", "phase", "accuracy %", "std %"], rows,
                            title="SkipTrain per-round test accuracy")


def figure4(
    preset: ExperimentPreset,
    results_dir,
    degree: int | None = None,
    seed: int = 0,
    window: int | None = None,
    *,
    run: bool = True,
    log=None,
) -> Figure4Result:
    """Fig. 4: a SkipTrain cell evaluated after every round
    (``eval_every=1``), shown over its final ``window`` rounds (default:
    the last 4 schedule periods)."""
    deg = degree if degree is not None else preset.degrees[0]
    if window is None:
        window = 4 * preset.schedule_for_degree(deg).period
    (cell,) = build_plan(preset, ("skiptrain",), degrees=(deg,), seeds=(seed,))
    (result,) = plan_artifacts(preset, (replace(cell, eval_every=1),),
                               results_dir, run=run, log=log)
    start = preset.total_rounds - window
    return Figure4Result(history=RunHistory(
        algorithm=result.history.algorithm,
        records=[r for r in result.history.records if r.round > start],
    ))


# --------------------------------------------------------------------------
# Figure 7: class distributions
# --------------------------------------------------------------------------


@dataclass
class Figure7Result:
    """Node × class count matrices for the two partition schemes."""

    shard_matrix: np.ndarray
    writer_matrix: np.ndarray

    def render(self, max_nodes: int = 10) -> str:
        def block(mat: np.ndarray, title: str) -> str:
            sub = mat[:max_nodes]
            rows = [[i] + list(map(int, row)) for i, row in enumerate(sub)]
            headers = ["node"] + [f"c{c}" for c in range(sub.shape[1])]
            return render_table(headers, rows, title=title)

        return (
            block(self.shard_matrix, "2-shard partition (CIFAR-10-like)")
            + "\n\n"
            + block(self.writer_matrix[:, : min(16, self.writer_matrix.shape[1])],
                    "writer partition (FEMNIST-like, first 16 classes)")
        )


def figure7(
    cifar_preset: ExperimentPreset,
    femnist_preset: ExperimentPreset,
    seed: int = 0,
) -> Figure7Result:
    """Build both partitions and return their class-count matrices."""
    shard_prep = prepare(cifar_preset, cifar_preset.degrees[0], seed=seed)
    shard_parts = partition_datasets(shard_prep.train, shard_prep.partition)
    writer_prep = prepare(femnist_preset, femnist_preset.degrees[0], seed=seed)
    writer_parts = partition_datasets(writer_prep.train, writer_prep.partition)
    return Figure7Result(
        shard_matrix=class_distribution_matrix(shard_parts),
        writer_matrix=class_distribution_matrix(writer_parts),
    )
