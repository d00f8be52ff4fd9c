"""Tests for small-world/barbell graphs and time-varying topologies."""

import networkx as nx
import numpy as np
import pytest

from repro.core import DPSGD
from repro.topology import (
    RandomRegularEachRound,
    barbell_graph,
    is_doubly_stochastic,
    metropolis_hastings_weights,
    regular_neighbors,
    small_world_graph,
    spectral_gap,
)
from repro.topology.dynamic import EPOCH_CACHE


class TestNewGraphs:
    def test_small_world_connected(self):
        g = small_world_graph(20, k=4, p=0.3, seed=0)
        assert g.n_nodes == 20
        h = nx.empty_graph(20)
        h.add_edges_from(g.edges)
        assert nx.is_connected(h)

    def test_small_world_interpolates_mixing(self):
        """Rewiring improves the spectral gap over the pure ring lattice."""
        ring_like = small_world_graph(40, k=4, p=0.0, seed=0)
        rewired = small_world_graph(40, k=4, p=0.5, seed=0)
        gap_ring = spectral_gap(metropolis_hastings_weights(ring_like))
        gap_rw = spectral_gap(metropolis_hastings_weights(rewired))
        assert gap_rw > gap_ring

    def test_small_world_validation(self):
        with pytest.raises(ValueError):
            small_world_graph(5, k=6)
        with pytest.raises(ValueError):
            small_world_graph(10, p=1.5)

    def test_barbell_bottleneck(self):
        g = barbell_graph(6)
        assert g.n_nodes == 12
        # worse mixing than a regular graph of the same size
        gap_bar = spectral_gap(metropolis_hastings_weights(g))
        gap_reg = spectral_gap(
            metropolis_hastings_weights(regular_neighbors(12, 5, seed=0))
        )
        assert gap_bar < gap_reg

    def test_barbell_validation(self):
        with pytest.raises(ValueError):
            barbell_graph(2)


class TestDynamicProviders:
    def test_random_regular_each_round(self):
        provider = RandomRegularEachRound(12, 4, seed=0)
        w1, w2 = provider(1), provider(2)
        assert not np.array_equal(w1.toarray(), w2.toarray())  # different graphs
        assert provider(1) is w1  # cached
        assert is_doubly_stochastic(w1)
        assert is_doubly_stochastic(w2)

    def test_cache_eviction(self):
        """The most recent epochs stay; the oldest go first."""
        provider = RandomRegularEachRound(8, 3, seed=0)
        for t in range(1, EPOCH_CACHE + 3):
            provider(t)
        assert len(provider._cache) == EPOCH_CACHE
        assert min(provider._cache) == 3

    def test_periodic_rewiring(self):
        provider = RandomRegularEachRound(12, 4, seed=0, period=5)
        assert provider(1) is provider(5)
        assert provider(5) is not provider(6)
        assert provider(6) is provider(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomRegularEachRound(12, 4, period=0)


class TestEngineWithDynamicTopology:
    def test_run_with_changing_graph(self):
        from repro.data import make_classification_images, shard_partition
        from repro.data.synthetic import SyntheticSpec
        from repro.nn import small_mlp
        from repro.simulation import (
            EngineConfig, RngFactory, SimulationEngine, build_nodes,
        )

        n = 8
        rngs = RngFactory(0)
        spec = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                             noise_std=1.0, prototype_resolution=2)
        train, protos = make_classification_images(spec, 400,
                                                   rngs.stream("data"))
        test, _ = make_classification_images(spec, 100, rngs.stream("test"),
                                             prototypes=protos)
        parts = shard_partition(train.y, n, rng=rngs.stream("p"))
        nodes = build_nodes(train, parts, 8, rngs)
        cfg = EngineConfig(local_steps=2, learning_rate=0.2,
                           total_rounds=12, eval_every=12)
        model = small_mlp(16, 4, hidden=8, rng=rngs.stream("model"))
        provider = RandomRegularEachRound(n, 3, seed=0)
        eng = SimulationEngine(model, nodes, provider, cfg, test)
        h = eng.run(DPSGD(n))
        assert h.final_accuracy() > 0.3

    def test_dynamic_preserves_mean(self, rng):
        """Every per-round matrix is doubly stochastic, so the global
        average is conserved across the whole dynamic run."""
        provider = RandomRegularEachRound(10, 3, seed=1)
        x = rng.normal(size=(10, 6))
        mean = x.mean(axis=0).copy()
        for t in range(1, 20):
            x = provider(t) @ x
        np.testing.assert_allclose(x.mean(axis=0), mean, atol=1e-10)

    def test_dynamic_mixes_faster_than_static(self, rng):
        """The Epidemic-Learning effect: randomized graphs drive
        consensus faster than a fixed graph of equal degree."""
        from repro.simulation import consensus_distance

        n, d, rounds = 24, 3, 15
        x0 = rng.normal(size=(n, 8))
        static = metropolis_hastings_weights(regular_neighbors(n, d, seed=0))
        x_static = x0.copy()
        for _ in range(rounds):
            x_static = static @ x_static
        provider = RandomRegularEachRound(n, d, seed=0)
        x_dyn = x0.copy()
        for t in range(1, rounds + 1):
            x_dyn = provider(t) @ x_dyn
        assert consensus_distance(x_dyn) < consensus_distance(x_static)


class TestEpochSchedule:
    """Epoch ``e`` of a provider draws ``regular_neighbors`` with seed
    ``seed + 7919 * e``, whatever its period."""

    def test_graph_sequence_matches_weight_provider(self):
        provider = RandomRegularEachRound(16, 3, seed=5)
        for t in (1, 2, 7):
            expected = metropolis_hastings_weights(
                regular_neighbors(16, 3, seed=5 + 7919 * t))
            for got, want in zip(
                (provider(t).indptr, provider(t).indices, provider(t).data),
                (expected.indptr, expected.indices, expected.data),
            ):
                np.testing.assert_array_equal(got, want)

    def test_period_holds_graph_constant(self):
        provider = RandomRegularEachRound(16, 3, seed=5, period=4)
        every_round = RandomRegularEachRound(16, 3, seed=5)
        assert provider(1) is provider(4)
        np.testing.assert_array_equal(provider(4).indices, every_round(1).indices)
        np.testing.assert_array_equal(provider(5).indices, every_round(2).indices)
        assert not np.array_equal(provider(4).indices, provider(5).indices)

    def test_cache_bounded(self):
        """The cache counts epochs, not rounds."""
        provider = RandomRegularEachRound(8, 3, seed=0, period=4)
        for t in range(1, 4 * (EPOCH_CACHE + 2) + 1):
            provider(t)
        assert len(provider._cache) == EPOCH_CACHE
        assert min(provider._cache) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            RandomRegularEachRound(8, 3, period=-4)
