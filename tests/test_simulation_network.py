"""Message-passing network tests: the oracle's literal exchange
(``tests/oracle_nn.py``) ≡ matrix product."""

import numpy as np
import pytest

from repro.topology import (
    metropolis_hastings_weights,
    neighbor_lists,
    regular_neighbors,
    ring_neighbors,
    star_graph,
)
from tests.oracle_nn import MessagePassingNetwork


def make_network(graph):
    return MessagePassingNetwork(
        neighbor_lists(graph), metropolis_hastings_weights(graph)
    )


class TestExchangeEquivalence:
    @pytest.mark.parametrize("make_graph", [
        lambda: regular_neighbors(12, 4, seed=0),
        lambda: ring_neighbors(9),
        lambda: star_graph(7),
    ])
    def test_exchange_equals_matrix_product(self, make_graph, rng):
        graph = make_graph()
        net = make_network(graph)
        w = metropolis_hastings_weights(graph)
        state = rng.normal(size=(graph.n_nodes, 17))
        np.testing.assert_allclose(net.exchange(state), w @ state, atol=1e-12)

    def test_caller_buffer_untouched(self, rng):
        net = make_network(ring_neighbors(5))
        state = rng.normal(size=(5, 3))
        before = state.copy()
        net.exchange(state)
        np.testing.assert_array_equal(state, before)

    def test_repeated_exchange_converges(self, rng):
        net = make_network(regular_neighbors(10, 3, seed=1))
        state = rng.normal(size=(10, 4))
        target = state.mean(axis=0)
        for _ in range(300):
            state = net.exchange(state)
        np.testing.assert_allclose(state, np.tile(target, (10, 1)), atol=1e-6)


class TestTrafficAccounting:
    def test_message_count_is_directed_edges(self, rng):
        graph = regular_neighbors(12, 4, seed=0)
        net = make_network(graph)
        net.exchange(rng.normal(size=(12, 5)))
        assert net.stats.messages_sent == 12 * 4
        assert net.stats.rounds == 1

    def test_bytes_match_closed_form(self, rng):
        graph = ring_neighbors(6)
        net = make_network(graph)
        dim = 11
        net.exchange(rng.normal(size=(6, dim)))
        assert net.stats.bytes_sent == net.expected_bytes_per_round(dim)

    def test_per_node_bytes_proportional_to_degree(self, rng):
        graph = star_graph(5)  # hub degree 4, leaves degree 1
        net = make_network(graph)
        net.exchange(rng.normal(size=(5, 3)))
        per_node = net.stats.per_node_bytes
        assert per_node[0] == 4 * per_node[1]

    def test_accumulates_over_rounds(self, rng):
        net = make_network(ring_neighbors(5))
        state = rng.normal(size=(5, 3))
        for _ in range(4):
            state = net.exchange(state)
        assert net.stats.rounds == 4
        assert net.stats.messages_sent == 4 * 10


class TestValidation:
    def test_mismatched_mixing_support(self):
        g1 = ring_neighbors(6)
        g2 = regular_neighbors(6, 4, seed=0)
        with pytest.raises(ValueError):
            MessagePassingNetwork(
                neighbor_lists(g1), metropolis_hastings_weights(g2)
            )

    def test_wrong_state_size(self, rng):
        net = make_network(ring_neighbors(5))
        with pytest.raises(ValueError):
            net.exchange(rng.normal(size=(6, 3)))

    def test_bad_bytes_per_value(self):
        g = ring_neighbors(5)
        with pytest.raises(ValueError):
            MessagePassingNetwork(
                neighbor_lists(g), metropolis_hastings_weights(g),
                bytes_per_value=0,
            )
