"""Extension bench: the asynchronous SkipTrain of §5.3 (future work).

Shapes checked: the async gossip analogue preserves the paper's
headline trade-off — async-SkipTrain spends ≈½ the training energy of
async-D-PSGD at the same activation budget, with comparable accuracy.
"""

import pytest

from repro.core import RoundSchedule
from repro.experiments import prepare
from repro.simulation import (
    AsyncDPSGD,
    AsyncGossipEngine,
    AsyncSkipTrain,
    EngineConfig,
    RngFactory,
    build_nodes,
)
from repro.topology import metropolis_hastings_weights, regular_neighbors

from .conftest import run_once


def _engine(prepared, seed=11):
    preset = prepared.preset
    rngs = RngFactory(seed)
    model = preset.model_factory(rngs.stream("model"))
    nodes = build_nodes(prepared.train, prepared.partition,
                        preset.batch_size, rngs)
    graph = regular_neighbors(preset.n_nodes, 3, seed=seed)
    config = EngineConfig(local_steps=preset.local_steps,
                          learning_rate=preset.learning_rate,
                          total_rounds=preset.total_rounds)
    return AsyncGossipEngine(
        model, nodes, metropolis_hastings_weights(graph), config,
        prepared.test, rng=rngs.stream("events"), trace=prepared.trace,
    )


def test_async_skiptrain_extension(benchmark, bench16_cifar):
    def compute():
        prepared = prepare(bench16_cifar, 3, seed=11)
        dpsgd_engine = _engine(prepared)
        dpsgd_hist = dpsgd_engine.run(AsyncDPSGD())

        skip_engine = _engine(prepared)
        skip_hist = skip_engine.run(AsyncSkipTrain(RoundSchedule(4, 4)))
        return dpsgd_engine, dpsgd_hist, skip_engine, skip_hist

    dpsgd_engine, dpsgd_hist, skip_engine, skip_hist = run_once(
        benchmark, compute
    )

    ratio = dpsgd_engine.train_energy_wh / skip_engine.train_energy_wh
    print(f"\nasync-D-PSGD   : {dpsgd_hist.final_accuracy() * 100:5.1f}% @ "
          f"{dpsgd_engine.train_energy_wh:.2f} Wh")
    print(f"async-SkipTrain: {skip_hist.final_accuracy() * 100:5.1f}% @ "
          f"{skip_engine.train_energy_wh:.2f} Wh")
    print(f"training-energy ratio: {ratio:.2f}x "
          f"(sync version: 2.0x; no global coordination needed here)")

    assert ratio == pytest.approx(2.0, rel=0.15)
    assert skip_hist.final_accuracy() > dpsgd_hist.final_accuracy() - 0.05
