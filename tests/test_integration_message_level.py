"""Message-level integration: a full training run where aggregation
goes through explicit per-edge messages must be numerically identical
to the matrix-form engine — the justification for simulating at matrix
level (DESIGN.md §2)."""

import numpy as np

from repro.core import RoundSchedule, SkipTrain
from repro.data import make_classification_images, shard_partition
from repro.data.synthetic import SyntheticSpec
from repro.nn import small_mlp
from repro.simulation import (
    EngineConfig,
    MessagePassingNetwork,
    RngFactory,
    SimulationEngine,
    build_nodes,
)
from repro.topology import metropolis_hastings_weights, neighbor_lists, regular_neighbors

N = 8
SPEC = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                     noise_std=1.0, jitter_std=0.3, prototype_resolution=2)


class MessageLevelEngine(SimulationEngine):
    """Engine whose aggregation step routes through the explicit
    message-passing network instead of the sparse GEMM."""

    def __init__(self, network: MessagePassingNetwork, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.network = network

    def _aggregate(self, use_allreduce: bool, t: int = 1) -> None:
        assert not use_allreduce
        self.state = self.network.exchange(self.state)


def build(seed, message_level):
    rngs = RngFactory(seed)
    train, protos = make_classification_images(SPEC, 320, rngs.stream("data"))
    test, _ = make_classification_images(SPEC, 80, rngs.stream("test"),
                                         prototypes=protos)
    parts = shard_partition(train.y, N, rng=rngs.stream("partition"))
    nodes = build_nodes(train, parts, 8, rngs)
    graph = regular_neighbors(N, 3, seed=0)
    w = metropolis_hastings_weights(graph)
    cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                       total_rounds=12, eval_every=4)
    model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
    if message_level:
        network = MessagePassingNetwork(neighbor_lists(graph), w)
        return MessageLevelEngine(network, model, nodes, w, cfg, test,
                                  eval_rng=rngs.stream("eval"))
    return SimulationEngine(model, nodes, w, cfg, test,
                            eval_rng=rngs.stream("eval"))


class TestMessageLevelEquivalence:
    def test_full_training_run_identical(self):
        algo = lambda: SkipTrain(N, RoundSchedule(2, 2))  # noqa: E731
        matrix_engine = build(seed=9, message_level=False)
        h_matrix = matrix_engine.run(algo())
        message_engine = build(seed=9, message_level=True)
        h_message = message_engine.run(algo())

        np.testing.assert_allclose(matrix_engine.state,
                                   message_engine.state, atol=1e-10)
        np.testing.assert_allclose(h_matrix.mean_accuracy,
                                   h_message.mean_accuracy, atol=1e-12)

    def test_traffic_matches_schedule(self):
        """Every round communicates (train and sync alike), so traffic
        = rounds × directed edges — the energy model's premise."""
        engine = build(seed=9, message_level=True)
        engine.run(SkipTrain(N, RoundSchedule(2, 2)))
        assert engine.network.stats.rounds == 12
        assert engine.network.stats.messages_sent == 12 * N * 3
