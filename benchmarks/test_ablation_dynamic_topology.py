"""Ablation bench: static vs randomized (per-round) topology.

The paper's reference [54] (Epidemic Learning) shows randomized
communication beats a fixed graph of equal degree. This bench verifies
the mixing-level mechanism (faster consensus contraction) and that
SkipTrain composes with a dynamic topology unchanged — its energy
saving is schedule-level, independent of who talks to whom.
"""

import numpy as np
import pytest

from repro.core import RoundSchedule, SkipTrain
from repro.energy.accounting import EnergyMeter
from repro.experiments import prepare
from repro.simulation import (
    EngineConfig,
    RngFactory,
    SimulationEngine,
    build_nodes,
    consensus_distance,
)
from repro.topology import RandomRegularEachRound, metropolis_hastings_weights, regular_neighbors

from .conftest import run_once


def test_dynamic_topology_ablation(benchmark, bench16_cifar):
    def compute():
        # mixing-level comparison
        n, d, rounds = 24, 3, 15
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(n, 64))
        static_w = metropolis_hastings_weights(regular_neighbors(n, d, seed=0))
        x = x0.copy()
        for _ in range(rounds):
            x = static_w @ x
        static_dist = consensus_distance(x)
        provider = RandomRegularEachRound(n, d, seed=0)
        x = x0.copy()
        for t in range(1, rounds + 1):
            x = provider(t) @ x
        dynamic_dist = consensus_distance(x)

        # end-to-end: SkipTrain on static vs dynamic graph
        prepared = prepare(bench16_cifar, 3, seed=11)
        preset = prepared.preset

        def run(mixing):
            rngs = RngFactory(11)
            cfg = EngineConfig(
                local_steps=preset.local_steps,
                learning_rate=preset.learning_rate,
                total_rounds=preset.total_rounds,
                eval_every=preset.total_rounds,
            )
            model = preset.model_factory(rngs.stream("model"))
            nodes = build_nodes(prepared.train, prepared.partition,
                                preset.batch_size, rngs)
            meter = EnergyMeter(prepared.trace)
            eng = SimulationEngine(model, nodes, mixing, cfg, prepared.test,
                                   meter=meter)
            h = eng.run(SkipTrain(preset.n_nodes, RoundSchedule(4, 4)))
            return h.final_accuracy(), meter.total_train_wh

        acc_static, e_static = run(prepared.mixing)
        acc_dynamic, e_dynamic = run(
            RandomRegularEachRound(preset.n_nodes, 3, seed=11)
        )
        return static_dist, dynamic_dist, acc_static, acc_dynamic, e_static, e_dynamic

    (static_dist, dynamic_dist, acc_static, acc_dynamic,
     e_static, e_dynamic) = run_once(benchmark, compute)

    print(f"\nconsensus distance after 15 mixing rounds — "
          f"static: {static_dist:.4f}, dynamic: {dynamic_dist:.4f}")
    print(f"SkipTrain accuracy — static graph: {acc_static * 100:.1f}%, "
          f"dynamic graph: {acc_dynamic * 100:.1f}%")

    # randomized topology mixes strictly faster
    assert dynamic_dist < static_dist
    # energy identical: the schedule, not the topology, sets the bill
    assert e_dynamic == pytest.approx(e_static)
    # dynamic topology does not hurt SkipTrain
    assert acc_dynamic > acc_static - 0.05
