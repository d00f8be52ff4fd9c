#!/usr/bin/env python
"""SkipTrain on an unreliable network: crash/recovery churn.

The paper motivates SkipTrain with battery-limited IoT/UAV fleets
(§1) — devices that also drop offline. This example injects two kinds
of failures and shows the training survives: dead nodes freeze (no
training, no radio, no energy spend), survivors keep mixing with
Metropolis–Hastings weights the engine recomputes on the alive
subgraph (still doubly stochastic, so D-PSGD's convergence conditions
hold round by round).

Run:  python examples/unreliable_network.py
"""

from repro.core import RoundSchedule, SkipTrain
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
from repro.nn import small_mlp
from repro.simulation import (
    CrashWindow,
    EngineConfig,
    IndependentCrashes,
    NoFailures,
    RngFactory,
    SimulationEngine,
    build_nodes,
)
from repro.topology import metropolis_hastings_weights, regular_neighbors

N_NODES = 16
TOTAL_ROUNDS = 80
SEED = 7


def run(failure_model, label: str) -> None:
    rngs = RngFactory(SEED)
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
    graph = regular_neighbors(N_NODES, 4, seed=SEED)
    config = EngineConfig(local_steps=8, learning_rate=0.4,
                          total_rounds=TOTAL_ROUNDS, eval_every=16)
    model = small_mlp(64, 10, hidden=16, rng=rngs.stream("model"))
    meter = EnergyMeter(build_trace(N_NODES, CIFAR10_WORKLOAD, 0.10, degree=4))
    engine = SimulationEngine(
        model, nodes, metropolis_hastings_weights(graph),
        config, test, meter=meter, failure_model=failure_model,
    )
    history = engine.run(SkipTrain(N_NODES, RoundSchedule(4, 4)))
    final = history.final_accuracy()
    print(f"{label:42s} accuracy {final * 100:5.1f}%  "
          f"energy {meter.total_train_wh:5.2f} Wh  "
          f"(node train-rounds: min {meter.train_rounds.min()}, "
          f"max {meter.train_rounds.max()})")


def main() -> None:
    print(f"SkipTrain(4,4), {N_NODES} nodes, 4-regular, "
          f"{TOTAL_ROUNDS} rounds\n")
    run(NoFailures(N_NODES), "no failures")
    run(
        IndependentCrashes(N_NODES, 0.15, SEED),
        "15% independent churn per round",
    )
    run(
        CrashWindow(N_NODES, nodes=[0, 1, 2, 3], start=20, end=60),
        "4 nodes offline for rounds 20-60",
    )
    print("\ndead nodes freeze and spend nothing; survivors keep mixing — "
          "training degrades gracefully instead of failing.")


if __name__ == "__main__":
    main()
