"""The sparse NeighborList representation and its edge-identity
contract: generators edge-identical to the networkx constructions
(networkx itself is the oracle here), mixing weights pinned by digest to
what the deleted ``nx.Graph`` generators produced, and full engine
trajectories unchanged when the graph arrives through the
``as_neighbor_list`` boundary adapter."""

import hashlib
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core import DPSGD
from repro.simulation import EngineConfig, build_engine, masked_mixing
from repro.topology import (
    NeighborList,
    as_neighbor_list,
    barbell_graph,
    csr_connected,
    metropolis_hastings_weights,
    neighbor_lists,
    regular_neighbors,
    ring_neighbors,
    torus_neighbors,
    uniform_neighbor_weights,
)
from repro.topology.sparse import REGULAR_MAX_TRIES, validate_regular_params

MIXING_GOLDEN = Path(__file__).parent / "golden" / "mixing_digests.json"


def edge_set(graph):
    return {tuple(sorted(e)) for e in graph.edges}


def nx_regular(n, degree, seed):
    """networkx's own pairing model on the retry schedule
    ``regular_neighbors`` documents: the first connected instance of
    seeds ``seed, seed+1, ..``."""
    for attempt in range(REGULAR_MAX_TRIES):
        g = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(g):
            return g
    raise AssertionError("no connected instance")


def nx_torus(rows, cols):
    return nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(rows, cols, periodic=True), ordering="sorted"
    )


def csr_digest(w) -> str:
    """SHA-256 over a CSR matrix's structure and values, widths fixed
    so the index dtype scipy happens to pick cannot move it."""
    h = hashlib.sha256()
    for part, dtype in ((w.indptr, np.int64), (w.indices, np.int64),
                        (w.data, np.float64)):
        h.update(np.ascontiguousarray(part, dtype=dtype).tobytes())
    return h.hexdigest()


def _masked_20():
    alive = np.ones(20, dtype=bool)
    alive[[2, 7, 11, 19]] = False
    return masked_mixing(regular_neighbors(20, 4, seed=0), alive)


#: Every mixing matrix this file used to compare across the two
#: representations. ``golden/mixing_digests.json`` was recorded from
#: the ``nx.Graph`` generators (``regular_graph``/``ring_graph``/
#: ``torus_graph``) of the last tree that had them.
MIXING_CASES = {
    **{
        f"mh-regular-{n}-{d}-{s}": (
            lambda n=n, d=d, s=s: metropolis_hastings_weights(
                regular_neighbors(n, d, seed=s))
        )
        for n, d, s in [(16, 3, 0), (32, 4, 1), (64, 6, 7), (31, 4, 2),
                        (40, 4, 3), (24, 3, 1), (20, 4, 0), (12, 4, 2)]
    },
    "mh-ring-13": lambda: metropolis_hastings_weights(ring_neighbors(13)),
    "mh-torus-3x5": lambda: metropolis_hastings_weights(torus_neighbors(3, 5)),
    "uniform-regular-24-3-1": lambda: uniform_neighbor_weights(
        regular_neighbors(24, 3, seed=1)),
    "masked-regular-20-4-0": _masked_20,
}


class TestNeighborList:
    def test_from_edges_roundtrip(self):
        nbl = NeighborList.from_edges(4, [0, 1, 2], [1, 2, 3])
        assert nbl.n_nodes == 4
        assert nbl.number_of_edges() == 3
        assert list(nbl.neighbors(1)) == [0, 2]
        np.testing.assert_array_equal(nbl.degrees, [1, 2, 2, 1])
        assert nbl.has_edge(2, 3) and not nbl.has_edge(0, 3)
        u, v = nbl.edge_arrays()
        np.testing.assert_array_equal(u, [0, 1, 2])
        np.testing.assert_array_equal(v, [1, 2, 3])

    def test_edges_iterates_unique_sorted_pairs(self):
        nbl = ring_neighbors(5)
        assert set(nbl.edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}

    def test_rejects_self_loops_duplicates_and_range(self):
        with pytest.raises(ValueError, match="self-loops"):
            NeighborList.from_edges(3, [0], [0])
        with pytest.raises(ValueError, match="duplicate"):
            NeighborList.from_edges(3, [0, 1], [1, 0])
        with pytest.raises(ValueError, match="out of range"):
            NeighborList.from_edges(3, [0], [3])

    def test_from_graph_matches_edges(self):
        g = nx_torus(3, 4)
        nbl = NeighborList.from_graph(g)
        assert edge_set(nbl) == edge_set(g)
        assert as_neighbor_list(nbl) is nbl
        with pytest.raises(ValueError):  # tuple labels, not 0..n-1
            NeighborList.from_graph(nx.grid_2d_graph(3, 4))


class TestConnectivity:
    def test_connected_families(self):
        assert csr_connected(ring_neighbors(17))
        assert csr_connected(torus_neighbors(4, 5))
        assert csr_connected(regular_neighbors(30, 3, seed=1))

    def test_disconnected_detected(self):
        # two disjoint triangles
        nbl = NeighborList.from_edges(
            6, [0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3]
        )
        assert not csr_connected(nbl)

    def test_matches_networkx_on_barbell(self):
        g = nx.barbell_graph(4, 2)
        assert csr_connected(as_neighbor_list(g)) == nx.is_connected(g)
        assert edge_set(barbell_graph(4, 2)) == edge_set(g)
        g.remove_edge(4, 5)  # cut the path between the cliques
        assert csr_connected(as_neighbor_list(g)) == nx.is_connected(g)

    def test_infeasible_regular_params_rejected(self):
        with pytest.raises(ValueError, match="must be < n"):
            validate_regular_params(4, 4)
        with pytest.raises(ValueError, match="even"):
            validate_regular_params(5, 3)
        with pytest.raises(ValueError, match="perfect matching"):
            validate_regular_params(6, 1)
        with pytest.raises(ValueError, match="even"):
            regular_neighbors(7, 3)


class TestGeneratorEquivalence:
    """regular/ring/torus NeighborLists carry the exact edge set of the
    networkx constructions — the structural half of the bit-identity
    contract."""

    def test_ring_matches_nx(self):
        assert edge_set(ring_neighbors(11)) == edge_set(nx.cycle_graph(11))

    def test_torus_matches_nx(self):
        assert edge_set(torus_neighbors(4, 6)) == edge_set(nx_torus(4, 6))

    @pytest.mark.parametrize("n,degree,seed", [
        (16, 3, 0), (32, 4, 1), (64, 6, 7), (31, 4, 2),
    ])
    def test_regular_matches_nx(self, n, degree, seed):
        assert edge_set(regular_neighbors(n, degree, seed=seed)) == edge_set(
            nx_regular(n, degree, seed)
        )

    def test_regular_is_seed_stable(self):
        a = regular_neighbors(24, 3, seed=5)
        b = regular_neighbors(24, 3, seed=5)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)


class TestWeightBitIdentity:
    """Mixing matrices are a pure function of the edge set — values AND
    sparsity structure — whether the graph was generated natively or
    came in as an ``nx.Graph`` through the boundary adapter."""

    def assert_csr_identical(self, a, b):
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("pair", [
        lambda: (ring_neighbors(13), nx.cycle_graph(13)),
        lambda: (torus_neighbors(3, 5), nx_torus(3, 5)),
        lambda: (regular_neighbors(40, 4, seed=3), nx_regular(40, 4, 3)),
    ])
    def test_mh_weights(self, pair):
        nbl, g = pair()
        self.assert_csr_identical(
            metropolis_hastings_weights(nbl),
            metropolis_hastings_weights(as_neighbor_list(g)),
        )

    def test_uniform_weights(self):
        nbl, g = regular_neighbors(24, 3, seed=1), nx_regular(24, 3, 1)
        self.assert_csr_identical(
            uniform_neighbor_weights(nbl),
            uniform_neighbor_weights(as_neighbor_list(g)),
        )

    def test_masked_mixing(self):
        nbl, g = regular_neighbors(20, 4, seed=0), nx_regular(20, 4, 0)
        alive = np.ones(20, dtype=bool)
        alive[[2, 7, 11, 19]] = False
        self.assert_csr_identical(
            masked_mixing(nbl, alive), masked_mixing(as_neighbor_list(g), alive)
        )

    @pytest.mark.parametrize("name", sorted(MIXING_CASES))
    def test_mixing_digest_matches_the_nx_graph_record(self, name):
        golden = json.loads(MIXING_GOLDEN.read_text())
        assert sorted(golden) == sorted(MIXING_CASES)
        assert csr_digest(MIXING_CASES[name]()) == golden[name]

    def test_neighbor_lists_adapter(self):
        nbl, g = regular_neighbors(12, 4, seed=2), nx_regular(12, 4, 2)
        for i, (a, b) in enumerate(
            zip(neighbor_lists(nbl), neighbor_lists(as_neighbor_list(g)))
        ):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, sorted(g.neighbors(i)))


class TestTrajectoryBitIdentity:
    """The end-to-end acceptance check: an engine wired from the native
    generator produces the exact trajectory of one wired from networkx's
    own graph brought in through ``as_neighbor_list``."""

    def test_full_run_identical(self, monkeypatch):
        import repro.topology as topo
        from repro.data.synthetic import SyntheticSpec
        from repro.nn import small_mlp

        spec = SyntheticSpec(num_classes=4, channels=1, image_size=4,
                             noise_std=1.5, jitter_std=0.4,
                             prototype_resolution=2)
        cfg = EngineConfig(local_steps=2, learning_rate=0.2, total_rounds=6,
                           eval_every=3)

        def factory(rng):
            return small_mlp(16, 4, hidden=8, rng=rng)

        def run(generator):
            with monkeypatch.context() as m:
                m.setattr(topo, "regular_neighbors", generator)
                eng = build_engine(spec, 16, cfg, factory, seed=0,
                                   num_train=128, num_test=64, batch_size=4,
                                   degree=4)
            hist = eng.run(DPSGD(16))
            return eng.state.copy(), hist

        s_nx, h_nx = run(
            lambda n, d, seed=0: as_neighbor_list(nx_regular(n, d, seed))
        )
        s_sp, h_sp = run(regular_neighbors)
        np.testing.assert_array_equal(s_nx, s_sp)
        assert repr(h_nx.records) == repr(h_sp.records)


if __name__ == "__main__":
    print(json.dumps(
        {name: csr_digest(build()) for name, build in sorted(MIXING_CASES.items())},
        indent=1,
    ))
