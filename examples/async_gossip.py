#!/usr/bin/env python
"""Asynchronous SkipTrain — the paper's §5.3 future-work direction.

No global rounds: every node runs on its own Poisson clock; on each
activation it optionally trains (its own local Γ_train/Γ_sync cycle)
and then pairwise-gossips with one random neighbor. Compares the async
analogues of D-PSGD and SkipTrain at the same activation budget.

Run:  python examples/async_gossip.py
"""

from repro.core import RoundSchedule
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, build_trace
from repro.nn import small_mlp
from repro.simulation import (
    AsyncDPSGD,
    AsyncGossipEngine,
    AsyncSkipTrain,
    EngineConfig,
    RngFactory,
    build_nodes,
)
from repro.topology import metropolis_hastings_weights, regular_neighbors

N_NODES = 16
ACTIVATIONS = 80
SEED = 7


def build_engine(rngs: RngFactory) -> AsyncGossipEngine:
    spec = SyntheticSpec(
        num_classes=10, channels=1, image_size=8,
        noise_std=2.5, jitter_std=0.6, prototype_resolution=4,
    )
    train, protos = make_classification_images(spec, 2400, rngs.stream("data"))
    test, _ = make_classification_images(
        spec, 600, rngs.stream("test"), prototypes=protos
    )
    partition = shard_partition(train.y, N_NODES, rng=rngs.stream("partition"))
    nodes = build_nodes(train, partition, batch_size=8, rngs=rngs)
    graph = regular_neighbors(N_NODES, 3, seed=SEED)
    model = small_mlp(64, 10, hidden=16, rng=rngs.stream("model"))
    trace = build_trace(N_NODES, CIFAR10_WORKLOAD, 0.10, degree=3)
    # one round = one expected activation per node
    config = EngineConfig(local_steps=8, learning_rate=0.4,
                          total_rounds=ACTIVATIONS, eval_every=ACTIVATIONS // 10)
    return AsyncGossipEngine(
        model, nodes, metropolis_hastings_weights(graph), config, test,
        rng=rngs.stream("events"), trace=trace,
    )


def main() -> None:
    print(f"{N_NODES} nodes, Poisson activation clocks, pairwise gossip, "
          f"{ACTIVATIONS} expected activations per node\n")

    for name, policy in [
        ("async-D-PSGD", AsyncDPSGD()),
        ("async-SkipTrain (4,4)", AsyncSkipTrain(RoundSchedule(4, 4))),
    ]:
        engine = build_engine(RngFactory(SEED))
        history = engine.run(policy)
        print(f"{name}:")
        for record in history.records:
            print(f"  t={record.time:6.1f} (event {record.activations:5d}): "
                  f"accuracy {record.mean_accuracy * 100:5.1f}%, "
                  f"consensus dist {record.consensus:8.3f}, "
                  f"train energy {record.train_energy_wh:6.2f} Wh")
        total_trains = int(engine.train_counts.sum())
        print(f"  -> {total_trains} training activations, "
              f"{engine.train_energy_wh:.2f} Wh\n")

    print("async-SkipTrain halves training energy with no global "
          "coordination — each node cycles train/sync on its own clock.")


if __name__ == "__main__":
    main()
