"""Shared benchmark fixtures.

Every experiment benchmark runs exactly once (``pedantic`` with one
round) — these are end-to-end experiment regenerations, not
microbenchmarks, and each takes seconds to minutes. The timing recorded
by pytest-benchmark is the cost of regenerating the figure/table; the
printed output is the paper-shaped result.

Scales:

* ``bench16`` — 16 nodes, 80 rounds: the default for every figure/table
  bench; finishes in seconds and preserves all paper shapes.
* ``bench32`` — the full bench preset (32 nodes, 120 rounds), used by
  the headline Table 3 bench.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import SyntheticSpec
from repro.energy.traces import CIFAR10_WORKLOAD, FEMNIST_WORKLOAD
from repro.experiments.presets import ExperimentPreset, cifar10_bench, femnist_bench
from repro.nn import small_mlp


def _mlp10(rng: np.random.Generator):
    return small_mlp(64, 10, hidden=16, rng=rng)


def _mlp16(rng: np.random.Generator):
    return small_mlp(64, 16, hidden=16, rng=rng)


@pytest.fixture(scope="session")
def bench16_cifar() -> ExperimentPreset:
    """16-node CIFAR-like preset in the high-drift regime."""
    return ExperimentPreset(
        name="cifar10-bench16",
        n_nodes=16,
        degrees=(3, 4, 6),
        spec=SyntheticSpec(
            num_classes=10, channels=1, image_size=8,
            noise_std=2.5, jitter_std=0.6, prototype_resolution=4,
        ),
        num_train=16 * 150,
        num_test=600,
        partition="shard",
        model_factory=_mlp10,
        learning_rate=0.4,
        batch_size=8,
        local_steps=8,
        total_rounds=80,
        eval_every=16,
        eval_node_sample=None,
        workload=CIFAR10_WORKLOAD,
        # τ ≈ (20, 24, 50, 20) rounds vs T_train = 40: the same
        # 0.5/0.6/1.25/0.5 budget-to-training ratios as the paper's
        # Table 2 budgets against T_train = 500.
        battery_fraction=0.0074,
        tuned_schedules={3: (4, 4), 4: (3, 3), 6: (4, 2)},
    )


@pytest.fixture(scope="session")
def bench16_femnist() -> ExperimentPreset:
    """16-node FEMNIST-like preset (writer partition)."""
    return ExperimentPreset(
        name="femnist-bench16",
        n_nodes=16,
        degrees=(3, 4, 6),
        spec=SyntheticSpec(
            num_classes=16, channels=1, image_size=8,
            noise_std=1.5, jitter_std=0.5, prototype_resolution=4,
        ),
        num_train=16 * 150,
        num_test=600,
        partition="writer",
        model_factory=_mlp16,
        learning_rate=0.25,
        batch_size=8,
        local_steps=7,
        total_rounds=80,
        eval_every=16,
        eval_node_sample=None,
        workload=FEMNIST_WORKLOAD,
        # same τ/T_train ratios as the CIFAR preset (see above)
        battery_fraction=0.0242,
        tuned_schedules={3: (4, 4), 4: (3, 3), 6: (4, 2)},
        num_writers=24,
    )


@pytest.fixture(scope="session")
def bench32_cifar() -> ExperimentPreset:
    return cifar10_bench()


@pytest.fixture(scope="session")
def bench32_femnist() -> ExperimentPreset:
    return femnist_bench()


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
