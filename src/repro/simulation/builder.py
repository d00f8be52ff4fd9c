"""Convenience constructors wiring data, topology, energy and engine."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.partition import Partition, iid_partition, shard_partition
from ..energy.devices import DeviceProfile
from .node_bank import NodeBank
from .rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..data.synthetic import SyntheticSpec
    from ..nn.module import Module
    from .engine import EngineConfig, SimulationEngine

__all__ = ["build_nodes", "build_engine"]


def build_nodes(
    global_train: ArrayDataset,
    partition: Partition,
    batch_size: int,
    rngs: RngFactory,
    devices: tuple[DeviceProfile, ...] | None = None,
) -> NodeBank:
    """The :class:`NodeBank` for one partition of ``global_train``.

    Each node gets an independent batch-sampling stream; devices default
    to the paper's round-robin assignment over the four phones.
    """
    return NodeBank(global_train, partition, batch_size, rngs, devices)


def build_engine(
    spec: "SyntheticSpec",
    n_nodes: int,
    config: "EngineConfig",
    model_factory: Callable[[np.random.Generator], "Module"],
    *,
    seed: int = 0,
    num_train: int | None = None,
    num_test: int = 256,
    batch_size: int = 8,
    partition: str = "shard",
    topology: str = "regular",
    degree: int = 3,
) -> "SimulationEngine":
    """One-call simulation setup from a synthetic spec (benchmarks/tests).

    Wires the full pipeline — data synthesis, partition, nodes, mixing
    matrix, engine — with every stochastic component drawn from one
    :class:`RngFactory`, so two calls with the same arguments produce
    engines with identical trajectories. ``topology`` is ``"regular"`` (random
    ``degree``-regular) or ``"ring"``; ``partition`` is ``"shard"`` or
    ``"iid"``.
    """
    from ..data.synthetic import make_classification_images
    from ..topology import (
        metropolis_hastings_weights,
        regular_neighbors,
        ring_neighbors,
    )
    from .engine import SimulationEngine

    rngs = RngFactory(seed)
    if num_train is None:
        num_train = 100 * n_nodes
    train, protos = make_classification_images(spec, num_train, rngs.stream("data"))
    test, _ = make_classification_images(
        spec, num_test, rngs.stream("test"), prototypes=protos
    )
    if partition == "shard":
        parts = shard_partition(train.y, n_nodes, rng=rngs.stream("partition"))
    elif partition == "iid":
        parts = iid_partition(len(train), n_nodes, rng=rngs.stream("partition"))
    else:
        raise ValueError(f"unknown partition {partition!r}")
    nodes = build_nodes(train, parts, batch_size, rngs)
    if topology == "regular":
        graph = regular_neighbors(n_nodes, degree, seed=seed)
    elif topology == "ring":
        graph = ring_neighbors(n_nodes)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    w = metropolis_hastings_weights(graph)
    return SimulationEngine(
        model_factory(rngs.stream("model")), nodes, w, config, test,
        eval_rng=rngs.stream("eval"),
    )
