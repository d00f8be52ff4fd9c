"""The repo's CSR type (:class:`repro.topology.Csr`) against scipy's
sparse algebra as the oracle (``tests/oracles.py`` keeps the builds the
tree made in it): every mixing builder's arrays byte for byte, over
graph families × random alive masks, and every product — the engine's
tiled ``gossip`` and ``Csr @ x`` — byte for byte against scipy's
``w @ x``."""

import numpy as np
import oracles
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lanes
from repro.simulation import masked_mixing
from repro.simulation.engine import gossip
from repro.topology import (
    Csr,
    barbell_graph,
    erdos_renyi_graph,
    metropolis_hastings_weights,
    regular_neighbors,
    ring_neighbors,
    star_graph,
    uniform_neighbor_weights,
)

FAMILIES = {
    "regular": lambda k: regular_neighbors(10 + 2 * (k % 4), 3, seed=k),
    "ring": lambda k: ring_neighbors(3 + k % 9),
    "star": lambda k: star_graph(2 + k % 9),
    "barbell": lambda k: barbell_graph(3 + k % 3, k % 3),
    "erdos-renyi": lambda k: erdos_renyi_graph(8 + k % 8, seed=k),
}

graphs = st.builds(lambda family, k: FAMILIES[family](k),
                   st.sampled_from(sorted(FAMILIES)), st.integers(0, 50))


@st.composite
def masked(draw):
    """A graph and an alive mask over it."""
    graph = draw(graphs)
    alive = draw(st.lists(st.booleans(), min_size=graph.n_nodes,
                          max_size=graph.n_nodes))
    return graph, np.array(alive)


def arrays(w):
    """A CSR matrix's bytes, index widths fixed as the mixing digests
    fix them."""
    return [np.asarray(w.indptr, dtype=np.int64).tobytes(),
            np.asarray(w.indices, dtype=np.int64).tobytes(),
            np.asarray(w.data, dtype=np.float64).tobytes()]


class TestBuildersMatchScipyAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(masked())
    def test_masked_mixing(self, case):
        graph, alive = case
        assert arrays(masked_mixing(graph, alive)) == arrays(
            oracles.scipy_masked_mixing(graph, alive))

    def test_isolated_alive_nodes(self):
        """A star whose hub is dead leaves every leaf alive and alone:
        each keeps its own state through a diagonal of one."""
        graph, alive = star_graph(7), np.arange(7) > 0
        w = masked_mixing(graph, alive)
        assert arrays(w) == arrays(oracles.scipy_masked_mixing(graph, alive))
        np.testing.assert_array_equal(w.toarray(), np.eye(7))

    @settings(max_examples=40, deadline=None)
    @given(graphs)
    def test_metropolis_hastings_and_uniform(self, graph):
        everyone = np.ones(graph.n_nodes, dtype=bool)
        assert arrays(metropolis_hastings_weights(graph)) == arrays(
            oracles.scipy_masked_mixing(graph, everyone))
        assert arrays(uniform_neighbor_weights(graph)) == arrays(
            oracles.scipy_uniform_weights(graph))

    @settings(max_examples=40, deadline=None)
    @given(masked())
    def test_diagonal_and_the_rest(self, case):
        w = masked_mixing(*case)
        ref = oracles.as_scipy(w)
        assert w.diagonal().tobytes() == ref.diagonal().tobytes()
        assert arrays(w.off_diagonal()) == arrays(oracles.scipy_off_diagonal(ref))


@st.composite
def scipy_matrices(draw):
    """A float64 scipy CSR matrix with empty rows and ``-0.0`` entries,
    its rows' columns shuffled or sorted, its index arrays int32 or
    int64."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
    dense[rng.random(rows) < 0.3] = 0.0
    w = sp.csr_matrix(dense)
    indptr, indices, data = w.indptr, w.indices.copy(), w.data.copy()
    data[rng.random(data.size) < 0.2] = -0.0
    if draw(st.booleans()):
        for lo, hi in zip(indptr, indptr[1:]):
            order = lo + rng.permutation(hi - lo)
            indices[lo:hi], data[lo:hi] = indices[order], data[order]
    w = sp.csr_matrix((data, indices, indptr), shape=(rows, cols))
    # the constructor narrows the index arrays; set the width after it
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    w.indptr, w.indices = indptr.astype(index_dtype), indices.astype(index_dtype)
    return w


class TestProductsMatchScipy:
    @settings(max_examples=120, deadline=None)
    @given(scipy_matrices(), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_gossip_and_matmul(self, w, width, lane_count, seed):
        x = np.random.default_rng(seed).normal(size=(w.shape[1], width))
        x[::3, 0] = -0.0
        csr = Csr(w.indptr, w.indices, w.data, w.shape)
        want = (w @ x).tobytes()
        assert (csr @ x).tobytes() == want
        assert (csr @ x[:, 0]).tobytes() == (w @ x[:, 0]).tobytes()
        with pytest.MonkeyPatch.context() as patch:  # split all but empty ones
            patch.setattr(lanes, "MIN_TILE_WORK", 1)
            patch.setattr(lanes, "lane_count", lambda: lane_count)
            assert gossip(csr, x).tobytes() == want

    def test_rejects_what_the_kernel_would_read_out_of_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            Csr([0, 1], [3], [1.0], (1, 3))
        with pytest.raises(ValueError, match="malformed"):
            Csr([0, 2], [0], [1.0], (1, 3))
        w = Csr([0, 1], [2], [1.0], (1, 3))
        with pytest.raises(ValueError, match="do not fit"):
            w @ np.ones((2, 4))
        with pytest.raises(ValueError, match="do not fit"):
            w.matvecs(np.ones(3), np.zeros(2))
