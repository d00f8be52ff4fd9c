#!/usr/bin/env python
"""Topology study: how graph structure drives the value of sync rounds.

Runs SkipTrain on four topologies with very different mixing properties
(ring, torus, random regular, fully-connected) and relates the accuracy
benefit of synchronization rounds to the spectral gap of the mixing
matrix — the quantity behind the paper's §4.3 intuition.

Run:  python examples/topology_study.py
"""

from repro.core import DPSGD, RoundSchedule, SkipTrain
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.nn import small_mlp
from repro.simulation import EngineConfig, RngFactory, SimulationEngine, build_nodes
from repro.topology import (
    fully_connected_graph,
    metropolis_hastings_weights,
    mixing_time_estimate,
    regular_neighbors,
    ring_neighbors,
    spectral_gap,
    torus_neighbors,
)

N_NODES = 16
SEED = 7

TOPOLOGIES = {
    "ring (deg 2)": lambda: ring_neighbors(N_NODES),
    "torus 4x4 (deg 4)": lambda: torus_neighbors(4, 4),
    "random 6-regular": lambda: regular_neighbors(N_NODES, 6, seed=SEED),
    "fully connected": lambda: fully_connected_graph(N_NODES),
}


def run(mixing, algorithm, rngs):
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
    config = EngineConfig(local_steps=8, learning_rate=0.4,
                          total_rounds=64, eval_every=64)
    model = small_mlp(64, 10, hidden=16, rng=rngs.stream("model"))
    engine = SimulationEngine(model, nodes, mixing, config, test)
    return engine.run(algorithm).final_accuracy()


def main() -> None:
    print(f"{'topology':20s} {'gap':>6s} {'t_mix':>6s} "
          f"{'D-PSGD':>8s} {'SkipTrain':>10s} {'Δacc':>7s} {'energy':>7s}")
    print("-" * 70)
    for name, make_graph in TOPOLOGIES.items():
        mixing = metropolis_hastings_weights(make_graph())
        gap = spectral_gap(mixing)
        tmix = mixing_time_estimate(mixing)
        acc_d = run(mixing, DPSGD(N_NODES), RngFactory(SEED))
        acc_s = run(mixing, SkipTrain(N_NODES, RoundSchedule(4, 4)),
                    RngFactory(SEED))
        print(f"{name:20s} {gap:6.3f} {tmix:6.1f} "
              f"{acc_d * 100:7.1f}% {acc_s * 100:9.1f}% "
              f"{(acc_s - acc_d) * 100:+6.1f}pp    0.5x")

    print("\nSkipTrain spends half the training energy on every topology; "
          "the slowest-mixing graph (smallest spectral gap) shows the "
          "largest accuracy gain from its synchronization rounds, while "
          "fast-mixing graphs train well either way.")


if __name__ == "__main__":
    main()
