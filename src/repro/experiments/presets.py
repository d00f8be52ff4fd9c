"""Experiment presets: paper-scale and bench-scale configurations.

``paper`` presets mirror Table 1 exactly (256 nodes, GN-LeNet / LEAF
CNN, 1000–3000 rounds) — runnable but far too slow for CI in pure
NumPy. ``bench`` presets preserve every structural ratio the paper's
phenomena depend on at ~1/40 the FLOPs:

* 2-shard label skew (CIFAR-like) vs writer clustering (FEMNIST-like),
* local-drift regime: enough local steps × learning rate that D-PSGD
  accumulates consensus error (the regime where SkipTrain wins),
* battery budgets covering ≈the paper's τᵢ/T_train ratios
  (0.54/0.65/1.36/0.54 across the four devices),
* three topology densities for the degree sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.schedule import RoundSchedule
from ..data.synthetic import SyntheticSpec
from ..energy.traces import CIFAR10_WORKLOAD, FEMNIST_WORKLOAD, WorkloadSpec
from ..nn import cnn_femnist, gn_lenet_cifar10, small_mlp
from ..nn.module import Module

__all__ = [
    "ExperimentPreset",
    "cifar10_bench",
    "femnist_bench",
    "cifar10_paper",
    "femnist_paper",
    "fleet_preset",
    "async_variant",
    "ASYNC_PRESETS",
    "FLEET_SIZES",
    "PRESETS",
    "get_preset",
]


@dataclass(frozen=True)
class ExperimentPreset:
    """Everything needed to instantiate one dataset/topology/training
    configuration of the paper's evaluation."""

    name: str
    n_nodes: int
    degrees: tuple[int, ...]
    spec: SyntheticSpec
    num_train: int
    num_test: int
    partition: str  # "shard" | "writer"
    model_factory: Callable[[np.random.Generator], Module]
    learning_rate: float
    batch_size: int
    local_steps: int
    total_rounds: int
    eval_every: int
    eval_node_sample: int | None
    workload: WorkloadSpec
    battery_fraction: float
    #: tuned (Γ_train, Γ_sync) per degree — Fig. 3's grid-search output
    tuned_schedules: dict[int, tuple[int, int]] = field(default_factory=dict)
    num_writers: int | None = None

    def schedule_for_degree(self, degree: int) -> RoundSchedule:
        """The tuned schedule for ``degree`` (paper defaults: (4,4) for
        6-regular, (3,3) for 8-regular, (4,2) for 10-regular)."""
        gt, gs = self.tuned_schedules.get(degree, (4, 4))
        return RoundSchedule(gt, gs)


def _bench_mlp(rng: np.random.Generator) -> Module:
    return small_mlp(64, 10, hidden=24, rng=rng)


def _bench_mlp_fem(rng: np.random.Generator) -> Module:
    return small_mlp(64, 16, hidden=24, rng=rng)


def cifar10_bench() -> ExperimentPreset:
    """Scaled CIFAR-10 analogue: 2-shard non-IID, high-drift regime."""
    return ExperimentPreset(
        name="cifar10-bench",
        n_nodes=32,
        degrees=(3, 4, 6),
        spec=SyntheticSpec(
            num_classes=10, channels=1, image_size=8,
            noise_std=2.5, jitter_std=0.6, prototype_resolution=4,
        ),
        num_train=192 * 32,
        num_test=1000,
        partition="shard",
        model_factory=_bench_mlp,
        learning_rate=0.4,
        batch_size=8,
        local_steps=10,
        total_rounds=120,
        eval_every=16,
        eval_node_sample=16,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.012,
        tuned_schedules={3: (4, 4), 4: (3, 3), 6: (4, 2)},
    )


def femnist_bench() -> ExperimentPreset:
    """Scaled FEMNIST analogue: writer-clustered, milder heterogeneity."""
    return ExperimentPreset(
        name="femnist-bench",
        n_nodes=32,
        degrees=(3, 4, 6),
        spec=SyntheticSpec(
            num_classes=16, channels=1, image_size=8,
            noise_std=1.5, jitter_std=0.5, prototype_resolution=4,
        ),
        num_train=192 * 32,
        num_test=1000,
        partition="writer",
        model_factory=_bench_mlp_fem,
        learning_rate=0.25,
        batch_size=8,
        local_steps=7,
        total_rounds=120,
        eval_every=16,
        eval_node_sample=16,
        workload=FEMNIST_WORKLOAD,
        battery_fraction=0.06,
        tuned_schedules={3: (4, 4), 4: (3, 3), 6: (4, 2)},
        num_writers=40,
    )


def cifar10_paper() -> ExperimentPreset:
    """Table 1's CIFAR-10 row at full scale. Slow in pure NumPy: on a
    2-CPU host a training round (256 GN-LeNet rows × 20
    steps) takes ~34 min and an evaluation round ~4.5 min, so a
    1000-round SkipTrain cell takes ~12 days
    (``docs/reproducing-figures.md``)."""
    return ExperimentPreset(
        name="cifar10-paper",
        n_nodes=256,
        degrees=(6, 8, 10),
        spec=SyntheticSpec(
            num_classes=10, channels=3, image_size=32,
            noise_std=2.5, jitter_std=0.6, prototype_resolution=8,
        ),
        num_train=50_000,
        num_test=5_000,
        partition="shard",
        model_factory=lambda rng: gn_lenet_cifar10(rng),
        learning_rate=0.1,
        batch_size=32,
        local_steps=20,
        total_rounds=1000,
        eval_every=50,
        eval_node_sample=32,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.10,
        tuned_schedules={6: (4, 4), 8: (3, 3), 10: (4, 2)},
    )


def femnist_paper() -> ExperimentPreset:
    """Table 1's FEMNIST row at full scale. A training round takes ~3
    min on a 2-CPU host, and the 256 × 1.69 M state is 3.46 GB, so its
    gossip mixes in place by column panels. On a host with 8,019 MiB and
    no swap one round at degree 6 took 897 s at a 6,030 MiB peak RSS
    (``docs/scaling-fleets.md``)."""
    return ExperimentPreset(
        name="femnist-paper",
        n_nodes=256,
        degrees=(6, 8, 10),
        spec=SyntheticSpec(
            num_classes=62, channels=1, image_size=28,
            noise_std=2.0, jitter_std=0.5, prototype_resolution=7,
        ),
        num_train=150_000,
        num_test=20_416,
        partition="writer",
        model_factory=lambda rng: cnn_femnist(rng),
        learning_rate=0.1,
        batch_size=16,
        local_steps=7,
        total_rounds=3000,
        eval_every=100,
        eval_node_sample=32,
        workload=FEMNIST_WORKLOAD,
        battery_fraction=0.50,
        tuned_schedules={6: (4, 4), 8: (3, 3), 10: (4, 2)},
        num_writers=400,
    )


def _fleet_mlp(rng: np.random.Generator) -> Module:
    return small_mlp(16, 4, hidden=8, rng=rng)


#: Node counts of the fleet preset family (``n{size}-fleet``).
FLEET_SIZES: tuple[int, ...] = (1024, 4096, 16384)


def fleet_preset(n_nodes: int) -> ExperimentPreset:
    """Fleet-scale smoke preset: the *node axis* at 1024–16384 nodes
    with everything else shrunk to the minimum that still exercises the
    full pipeline (4-regular topology, 2-shard label skew, a 172-param
    MLP on 4×4 images, 8 samples per node). The point is not learning
    quality but the memory/throughput envelope: with the sparse
    ``NeighborList`` representation and CSR mixing, a cell's footprint
    is O(E + n·dim) — at n=16384 the state matrix is ~22 MiB where a
    single dense n×n intermediate would be 2 GiB. Registered in the
    preset zoo (and therefore as scenarios, so churn/failure axes
    compose). The perf record is the ``sync-fleet16384`` workload of
    ``benchmarks/perf``; ``benchmarks/test_engine_throughput.py`` keeps
    the 2 GiB peak-RSS cap as a regression test."""
    if n_nodes < 2:
        raise ValueError("fleet presets need at least 2 nodes")
    return ExperimentPreset(
        name=f"n{n_nodes}-fleet",
        n_nodes=n_nodes,
        degrees=(4,),
        spec=SyntheticSpec(
            num_classes=4, channels=1, image_size=4,
            noise_std=1.5, jitter_std=0.4, prototype_resolution=2,
        ),
        num_train=8 * n_nodes,
        num_test=256,
        partition="shard",
        model_factory=_fleet_mlp,
        learning_rate=0.2,
        batch_size=4,
        local_steps=1,
        total_rounds=8,
        eval_every=4,
        eval_node_sample=64,
        workload=CIFAR10_WORKLOAD,
        battery_fraction=0.012,
        tuned_schedules={4: (2, 2)},
    )


def async_variant(base: ExperimentPreset) -> ExperimentPreset:
    """The asynchronous twin of a synchronous preset: same data,
    partition, model, topology densities, and energy trace, renamed
    ``<name>-async``. For async cells ``total_rounds`` is reinterpreted
    as the *expected activations per node* (unit-rate Poisson clocks
    make one expected activation the async analogue of one round) and
    ``eval_every`` as the evaluation cadence in expected
    activations-per-node units."""
    return dataclasses.replace(base, name=base.name + "-async")


PRESETS: dict[str, Callable[[], ExperimentPreset]] = {
    "cifar10-bench": cifar10_bench,
    "femnist-bench": femnist_bench,
    "cifar10-paper": cifar10_paper,
    "femnist-paper": femnist_paper,
    "cifar10-bench-async": lambda: async_variant(cifar10_bench()),
    "femnist-bench-async": lambda: async_variant(femnist_bench()),
    "cifar10-paper-async": lambda: async_variant(cifar10_paper()),
    "femnist-paper-async": lambda: async_variant(femnist_paper()),
    **{
        f"n{size}-fleet": (lambda size=size: fleet_preset(size))
        for size in FLEET_SIZES
    },
}

#: Preset names whose cells run on the asynchronous gossip engine.
ASYNC_PRESETS: tuple[str, ...] = tuple(
    name for name in PRESETS if name.endswith("-async")
)


def get_preset(name: str) -> ExperimentPreset:
    """Look up a preset by name."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]()
