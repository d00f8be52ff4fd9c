#!/usr/bin/env python
"""Quickstart: train a decentralized model with SkipTrain vs D-PSGD.

Builds a 16-node network on a 3-regular topology, partitions a synthetic
CIFAR-10-like dataset with the paper's 2-shard non-IID scheme, and runs
both algorithms for 80 rounds, printing accuracy and energy side by side.

Run:  python examples/quickstart.py
"""

from repro.core import DPSGD, RoundSchedule, SkipTrain
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.energy import CIFAR10_WORKLOAD, EnergyMeter, build_trace
from repro.nn import small_mlp
from repro.simulation import EngineConfig, RngFactory, SimulationEngine, build_nodes
from repro.topology import metropolis_hastings_weights, regular_neighbors

N_NODES = 16
TOTAL_ROUNDS = 80
SEED = 7


def build_engine(rngs: RngFactory) -> SimulationEngine:
    """Wire data, topology, energy and the round engine together."""
    spec = SyntheticSpec(
        num_classes=10, channels=1, image_size=8,
        noise_std=2.5, jitter_std=0.6, prototype_resolution=4,
    )
    train, protos = make_classification_images(spec, 2400, rngs.stream("data"))
    test, _ = make_classification_images(
        spec, 600, rngs.stream("test"), prototypes=protos
    )

    # the paper's 2-shard non-IID partition: ~2 classes per node
    partition = shard_partition(train.y, N_NODES, rng=rngs.stream("partition"))
    nodes = build_nodes(train, partition, batch_size=8, rngs=rngs)

    graph = regular_neighbors(N_NODES, 3, seed=SEED)
    mixing = metropolis_hastings_weights(graph)

    # the engine trains all nodes' local SGD steps as stacked GEMMs —
    # bit-identical results to a serial per-node loop, several times
    # the rounds/sec (see benchmarks/test_engine_throughput.py).
    config = EngineConfig(
        local_steps=8, learning_rate=0.4,
        total_rounds=TOTAL_ROUNDS, eval_every=16,
    )
    model = small_mlp(64, 10, hidden=16, rng=rngs.stream("model"))
    meter = EnergyMeter(build_trace(N_NODES, CIFAR10_WORKLOAD, 0.10, degree=3))
    return SimulationEngine(model, nodes, mixing, config, test, meter=meter)


def main() -> None:
    print(f"{N_NODES} nodes, 3-regular topology, 2-shard non-IID, "
          f"{TOTAL_ROUNDS} rounds\n")

    results = {}
    for name, algorithm in [
        ("D-PSGD", DPSGD(N_NODES)),
        ("SkipTrain", SkipTrain(N_NODES, RoundSchedule(4, 4))),
    ]:
        engine = build_engine(RngFactory(SEED))
        history = engine.run(algorithm)
        results[name] = (history, engine.meter)
        print(f"{name}:")
        for record in history.records:
            print(f"  round {record.round:3d}: "
                  f"accuracy {record.mean_accuracy * 100:5.1f}% "
                  f"(±{record.std_accuracy * 100:4.1f}), "
                  f"energy {record.cumulative_energy_wh:6.2f} Wh")
        print()

    dpsgd_hist, dpsgd_meter = results["D-PSGD"]
    skip_hist, skip_meter = results["SkipTrain"]
    ratio = dpsgd_meter.total_train_wh / skip_meter.total_train_wh
    gain = (skip_hist.final_accuracy() - dpsgd_hist.final_accuracy()) * 100
    print(f"SkipTrain used {ratio:.1f}x less training energy "
          f"and changed accuracy by {gain:+.1f} pp "
          f"(paper: 2x less energy, up to +7 pp).")


if __name__ == "__main__":
    main()
