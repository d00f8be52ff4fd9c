"""Ablation bench: coordinated sync batches vs uniformly random
skipping at the same training fraction.

SkipTrain coordinates *when* everyone skips (whole synchronization
rounds); an alternative spends the same training budget by letting each
node flip an independent coin every round. The coordinated schedule
gets consecutive mixing steps (contraction λ₂^Γsync) while random
skipping never has a training-silent round. DESIGN.md §5 item 2.
"""

import numpy as np
import pytest

from repro.core import RoundSchedule
from repro.core.base import Algorithm
from repro.experiments import build_run, execute_run, prepare

from .conftest import run_once


class RandomSkip(Algorithm):
    """Every node independently trains with probability ``p`` each round
    (same expected training volume as SkipTrain with fraction p)."""

    name = "random-skip"

    def __init__(self, n_nodes: int, p: float, rng: np.random.Generator):
        super().__init__(n_nodes)
        self.p = p
        self.rng = rng

    def train_mask(self, t: int) -> np.ndarray:
        return self.rng.random(self.n_nodes) < self.p


def test_schedule_ablation_coordinated_vs_random(benchmark, bench16_cifar):
    def compute():
        prepared = prepare(bench16_cifar, 3, seed=11)
        schedule = RoundSchedule(4, 4)
        coordinated = execute_run(
            *build_run(prepared, "skiptrain", schedule=schedule), prepared.trace
        )
        random = execute_run(*build_run(
            prepared,
            RandomSkip(bench16_cifar.n_nodes, schedule.training_fraction(),
                       np.random.default_rng(0)),
        ), prepared.trace)
        return coordinated, random

    coordinated, random = run_once(benchmark, compute)

    acc_c = coordinated.history.final_accuracy()
    acc_r = random.history.final_accuracy()
    e_c = coordinated.meter.total_train_wh
    e_r = random.meter.total_train_wh
    print(f"\ncoordinated: {acc_c * 100:.1f}% @ {e_c:.2f} Wh")
    print(f"random skip: {acc_r * 100:.1f}% @ {e_r:.2f} Wh")

    # same training volume (within binomial noise)…
    assert e_r == pytest.approx(e_c, rel=0.2)
    # …but coordination should not hurt: SkipTrain's sync batches give
    # it the contraction advantage the paper's design banks on
    assert acc_c >= acc_r - 0.03
