"""Topology and mixing-matrix tests (hypothesis over graph families)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    NeighborList,
    adjacency_matrix,
    as_neighbor_list,
    consensus_contraction,
    erdos_renyi_graph,
    fully_connected_graph,
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
    mixing_time_estimate,
    neighbor_lists,
    regular_neighbors,
    ring_neighbors,
    spectral_gap,
    star_graph,
    torus_neighbors,
    uniform_neighbor_weights,
    validate_topology,
)


def nx_connected(g: NeighborList) -> bool:
    """networkx's verdict on the same edge set (the oracle)."""
    h = nx.empty_graph(g.n_nodes)
    h.add_edges_from(g.edges)
    return nx.is_connected(h)


class TestGraphConstructors:
    @given(st.sampled_from([(16, 3), (16, 6), (20, 4), (32, 5)]),
           st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_regular_graph_properties(self, nd, seed):
        n, d = nd
        g = regular_neighbors(n, d, seed=seed)
        assert g.n_nodes == n
        assert np.all(g.degrees == d)
        assert nx_connected(g)

    def test_regular_graph_validation(self):
        with pytest.raises(ValueError):
            regular_neighbors(10, 10)
        with pytest.raises(ValueError):
            regular_neighbors(9, 3)  # odd n*d
        with pytest.raises(ValueError):
            regular_neighbors(10, 0)

    def test_ring(self):
        g = ring_neighbors(8)
        assert np.all(g.degrees == 2)
        with pytest.raises(ValueError):
            ring_neighbors(2)

    def test_torus(self):
        g = torus_neighbors(3, 4)
        assert g.n_nodes == 12
        assert np.all(g.degrees == 4)

    def test_fully_connected(self):
        g = fully_connected_graph(6)
        assert g.number_of_edges() == 15

    def test_star(self):
        g = star_graph(7)
        assert sorted(g.degrees) == [1] * 6 + [6]

    def test_erdos_renyi_connected(self):
        g = erdos_renyi_graph(30, seed=3)
        assert nx_connected(g)

    def test_validate_rejects_disconnected(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError, match="connected"):
            validate_topology(as_neighbor_list(g))

    def test_validate_rejects_self_loop(self):
        g = nx.complete_graph(3)
        g.add_edge(1, 1)
        with pytest.raises(ValueError, match="self-loops"):
            validate_topology(as_neighbor_list(g))

    def test_validate_rejects_an_nx_graph_with_the_way_out(self):
        with pytest.raises(TypeError, match="as_neighbor_list"):
            metropolis_hastings_weights(nx.cycle_graph(5))

    # -- arrays assembled by hand get the structure from_edges guarantees --

    def test_validate_rejects_one_sided_edge(self):
        # edge 0->2 without 2->0: MH weights would be neither symmetric
        # nor doubly stochastic
        g = NeighborList([0, 2, 3, 4], [1, 2, 0, 1])
        with pytest.raises(ValueError, match="symmetric"):
            validate_topology(g)
        with pytest.raises(ValueError, match="symmetric"):
            metropolis_hastings_weights(g)

    def test_validate_rejects_hand_built_self_loop(self):
        g = NeighborList([0, 2, 4, 5], [0, 1, 0, 2, 1])
        with pytest.raises(ValueError, match="self-loops"):
            validate_topology(g)

    def test_validate_rejects_unsorted_and_duplicated_rows(self):
        # a triangle with row 0 listed descending: has_edge's binary
        # search misses an edge the graph has
        unsorted = NeighborList([0, 2, 4, 6], [2, 1, 0, 2, 0, 1])
        assert not unsorted.has_edge(0, 1)
        with pytest.raises(ValueError, match="ascending"):
            validate_topology(unsorted)
        duplicated = NeighborList([0, 2, 4], [1, 1, 0, 0])
        with pytest.raises(ValueError, match="ascending"):
            uniform_neighbor_weights(duplicated)

    def test_validate_accepts_every_generator(self):
        for g in (ring_neighbors(7), torus_neighbors(3, 4),
                  regular_neighbors(16, 3, seed=2), NeighborList([0, 0], [])):
            validate_topology(g)

    def test_adjacency_and_neighbors(self):
        g = ring_neighbors(5)
        adj = adjacency_matrix(g)
        assert adj.shape == (5, 5)
        assert adj.nnz == 10
        nbrs = neighbor_lists(g)
        np.testing.assert_array_equal(nbrs[0], [1, 4])


GRAPHS = [
    lambda: regular_neighbors(16, 4, seed=0),
    lambda: regular_neighbors(20, 6, seed=1),
    lambda: ring_neighbors(11),
    lambda: torus_neighbors(3, 3),
    lambda: fully_connected_graph(8),
    lambda: erdos_renyi_graph(15, seed=2),
    lambda: star_graph(9),
]


class TestMetropolisHastings:
    @pytest.mark.parametrize("make", GRAPHS)
    def test_symmetric_doubly_stochastic(self, make):
        w = metropolis_hastings_weights(make())
        assert is_symmetric(w)
        assert is_doubly_stochastic(w)

    @pytest.mark.parametrize("make", GRAPHS)
    def test_sparsity_matches_graph(self, make):
        g = make()
        w = metropolis_hastings_weights(g)
        # off-diagonal nonzeros: one per edge end
        assert np.count_nonzero(w.off_diagonal().data) == 2 * g.number_of_edges()

    def test_known_values_on_ring(self):
        w = metropolis_hastings_weights(ring_neighbors(4)).toarray()
        # all degrees 2: edge weight 1/3, diagonal 1/3
        assert w[0, 1] == pytest.approx(1 / 3)
        assert w[0, 0] == pytest.approx(1 / 3)

    def test_preserves_average(self, rng):
        w = metropolis_hastings_weights(regular_neighbors(12, 4, seed=0))
        x = rng.normal(size=(12, 5))
        np.testing.assert_allclose((w @ x).mean(axis=0), x.mean(axis=0),
                                   atol=1e-12)

    @pytest.mark.parametrize("make", GRAPHS)
    def test_contraction_bounded_by_lambda2(self, make, rng):
        w = metropolis_hastings_weights(make())
        x = rng.normal(size=(w.shape[0], 7))
        lam2 = 1.0 - spectral_gap(w)
        assert consensus_contraction(w, x) <= lam2 + 1e-9


class TestUniformWeights:
    def test_row_stochastic_always(self):
        w = uniform_neighbor_weights(star_graph(6))
        np.testing.assert_allclose(w.toarray().sum(axis=1), 1.0)

    def test_doubly_stochastic_on_regular(self):
        w = uniform_neighbor_weights(regular_neighbors(12, 4, seed=0))
        assert is_doubly_stochastic(w)

    def test_not_doubly_stochastic_on_star(self):
        w = uniform_neighbor_weights(star_graph(6))
        assert not is_doubly_stochastic(w)


class TestSpectral:
    def test_complete_graph_gap_is_one(self):
        w = metropolis_hastings_weights(fully_connected_graph(8))
        assert spectral_gap(w) == pytest.approx(1.0, abs=1e-9)

    def test_denser_graph_larger_gap(self):
        w3 = metropolis_hastings_weights(regular_neighbors(24, 3, seed=0))
        w8 = metropolis_hastings_weights(regular_neighbors(24, 8, seed=0))
        assert spectral_gap(w8) > spectral_gap(w3)

    def test_large_graph_sparse_path(self):
        w = metropolis_hastings_weights(regular_neighbors(100, 4, seed=0))
        gap = spectral_gap(w)
        assert 0.0 < gap < 1.0

    @pytest.mark.parametrize("n", [6, 70])
    def test_non_symmetric_w_is_refused(self, n):
        """Both eigensolvers read a symmetric matrix. The uniform weights
        of a 6-node star have eigenvalue moduli 1, 0.5 (×4) and 1/3, a
        gap of 0.5, where reading one triangle gave 0.203."""
        w = uniform_neighbor_weights(star_graph(n))
        assert not is_symmetric(w)
        with pytest.raises(ValueError, match="symmetric W"):
            spectral_gap(w)
        with pytest.raises(ValueError, match="symmetric W"):
            mixing_time_estimate(w)

    def test_mixing_time_monotone_in_gap(self):
        ring = metropolis_hastings_weights(ring_neighbors(24))
        dense = metropolis_hastings_weights(regular_neighbors(24, 8, seed=0))
        assert mixing_time_estimate(ring) > mixing_time_estimate(dense)

    def test_mixing_time_complete(self):
        w = metropolis_hastings_weights(fully_connected_graph(6))
        assert mixing_time_estimate(w) == 1.0

    def test_repeated_mixing_converges_to_mean(self, rng):
        """W^k x → column-wise mean: the consensus property SkipTrain's
        sync rounds exploit."""
        w = metropolis_hastings_weights(regular_neighbors(16, 4, seed=0))
        x = rng.normal(size=(16, 3))
        target = np.tile(x.mean(axis=0), (16, 1))
        y = x.copy()
        for _ in range(200):
            y = w @ y
        np.testing.assert_allclose(y, target, atol=1e-6)
