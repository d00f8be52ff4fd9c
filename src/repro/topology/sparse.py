"""CSR-native sparse topologies: the one graph representation, and the
one sparse matrix type.

:class:`NeighborList` stores an undirected graph as the classic CSR
pair (``indptr``, ``indices``) — two integer arrays totalling
``O(V + E)`` memory — and is what every consumer (mixing weights,
masked mixing, both engines, n=16..16384) takes; every mixing
matrix is a :class:`Csr`, the same pair plus ``data``. The generators
build the arrays directly from edge lists; connectivity is a vectorized
O(V+E) breadth-first search. Nothing in this module imports
``networkx``: a caller who holds an ``nx.Graph`` converts it once at
the boundary with :func:`as_neighbor_list`, and the ablation generators
in :mod:`repro.topology.graphs` do exactly that.

Edge-identity contract
----------------------
``regular_neighbors(n, d, seed)`` is the *exact edge set* of
``nx.random_regular_graph(d, n, seed=random.Random(seed + k))`` for the
first ``k`` on the bounded retry schedule that yields a connected
graph: it runs the same stub-pairing model (Steger–Wormald) driven by
the same ``random.Random``. ``ring_neighbors``/``torus_neighbors`` are
``nx.cycle_graph``/``nx.grid_2d_graph(periodic=True)`` (row-major
labels) edge-for-edge. ``tests/test_topology_sparse.py`` asserts all
three against networkx itself and pins the resulting mixing matrices
by digest, because every artifact byte downstream depends on them.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import random  # repro: allow[rng-module-import] -- replicates networkx's random.Random-seeded pairing model bit-for-bit; graph structure is seed-derived, never ambient
import sys
from collections import defaultdict
from itertools import chain
from typing import Any, Iterator

import numpy as np

__all__ = [
    "Csr",
    "NeighborList",
    "as_neighbor_list",
    "csr_connected",
    "validate_topology",
    "adjacency_matrix",
    "neighbor_lists",
    "ring_neighbors",
    "torus_neighbors",
    "regular_neighbors",
    "REGULAR_MAX_TRIES",
]

#: Bounded, seed-stable retry schedule of ``regular_neighbors``:
#: attempt ``seed + k`` for k in ``range(REGULAR_MAX_TRIES)``, keeping
#: the accepted instance a pure function of (n, degree, seed).
REGULAR_MAX_TRIES = 100


def _bind_sparsetools() -> Any:
    """scipy's compiled sparse kernels, loaded from their file (which
    ``find_spec`` finds without importing scipy) and not through scipy's
    package init, which loads hundreds of modules no cell uses. They are
    registered under their own name, so a later ``import scipy.sparse``
    reuses them, as this reuses the ones an earlier import loaded."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        assert scipy is not None and scipy.submodule_search_locations, "needs scipy"
        spec = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "sparse"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        assert spec is not None and spec.loader is not None, "needs scipy.sparse"
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_sparsetools = _bind_sparsetools()


class Csr:
    """A float64 sparse matrix in compressed sparse row form: row ``i``
    holds ``data[indptr[i]:indptr[i+1]]`` at columns
    ``indices[indptr[i]:indptr[i+1]]``, and products sum them in that
    stored order, as scipy's ``csr_matrix`` does. The constructor checks
    the shapes and index ranges the compiled kernel trusts."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr: Any, indices: Any, data: Any,
                 shape: tuple[int, int]) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if (self.indptr.shape != (self.shape[0] + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != self.nnz or self.data.shape != self.indices.shape
                or np.any(np.diff(self.indptr) < 0)):
            raise ValueError("malformed CSR arrays")
        if self.nnz and not 0 <= self.indices.min() <= self.indices.max() < self.shape[1]:
            raise ValueError("column index out of range")

    @property
    def nnz(self) -> int:
        return self.indices.size

    def row_ids(self) -> np.ndarray:
        """Every stored entry's row (int64, length ``nnz``)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        on = self.indices == self.row_ids()
        return np.bincount(self.indices[on], self.data[on], minlength=min(self.shape))

    def off_diagonal(self) -> "Csr":
        """This matrix without its diagonal slots, the rest in stored order."""
        rows = self.row_ids()
        keep = self.indices != rows
        indptr = np.zeros_like(self.indptr)
        np.cumsum(np.bincount(rows[keep], minlength=self.shape[0]), out=indptr[1:])
        return Csr(indptr, self.indices[keep], self.data[keep], self.shape)

    def toarray(self) -> np.ndarray:
        """A dense copy for diagnostics, refused above 2**24 entries (128 MiB)."""
        if self.shape[0] * self.shape[1] > 1 << 24:
            raise ValueError(f"refusing to densify a {self.shape} matrix")
        out = np.zeros(self.shape)
        np.add.at(out, (self.row_ids(), self.indices), self.data)
        return out

    def matvecs(self, x: np.ndarray, out: np.ndarray, lo: int = 0) -> None:
        """``out += self[lo:lo + len(out)] @ x`` by ``csr_matvecs``, the
        kernel of scipy's own ``w @ x``: ``x`` holds ``shape[1]`` rows and
        ``out`` is C-contiguous float64, both as wide as the product."""
        vecs = out.shape[1] if out.ndim == 2 else 1
        if (out.dtype != np.float64 or not out.flags.c_contiguous
                or np.size(x) != self.shape[1] * vecs
                or not 0 <= lo <= self.shape[0] - len(out)):
            raise ValueError("operand shapes or layout do not fit the product")
        _sparsetools.csr_matvecs(
            len(out), self.shape[1], vecs, self.indptr[lo : lo + len(out) + 1],
            self.indices, self.data, np.ravel(x), out.reshape(-1),
        )

    def __matmul__(self, x: Any) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros((self.shape[0], *x.shape[1:]))
        self.matvecs(x, out)
        return out


class NeighborList:
    """An undirected graph with nodes ``0..n-1`` in CSR form.

    ``indices[indptr[i]:indptr[i+1]]`` are node ``i``'s neighbors in
    ascending order. :meth:`from_edges` guarantees that structure
    (sorted rows, symmetric, no self-loops or duplicates); the bare
    constructor checks only array shapes and index ranges, so arrays
    assembled by hand are vetted by :func:`validate_topology`, which
    every weight constructor calls.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        n = self.indptr.size - 1
        if n < 0 or self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ValueError("neighbor index out of range")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, n_nodes: int, u: np.ndarray, v: np.ndarray
    ) -> "NeighborList":
        """Build from undirected edge arrays (each edge listed once, in
        any order). O(E log E) from the per-row neighbor sort; no n×n
        intermediate."""
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("edge arrays must have equal length")
        if n_nodes <= 0:
            raise ValueError("need at least one node")
        if u.size:
            lo, hi = min(u.min(), v.min()), max(u.max(), v.max())
            if lo < 0 or hi >= n_nodes:
                raise ValueError(
                    f"edge endpoint out of range for n={n_nodes}"
                )
            if np.any(u == v):
                raise ValueError("self-loops are not allowed")
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        if rows.size > 1 and np.any(
            (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        ):
            raise ValueError("duplicate edges are not allowed")
        counts = np.bincount(rows, minlength=n_nodes)
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, cols)

    @classmethod
    def from_graph(cls, graph: Any) -> "NeighborList":
        """Adapter from an ``nx.Graph`` labelled ``0..n-1`` (duck-typed
        on ``number_of_nodes()`` and ``edges``; any other labelling, a
        self-loop or a parallel edge is rejected by :meth:`from_edges`)."""
        pairs = list(graph.edges)  # tuple labels must fail, not reshape into edges
        edges = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
        return cls.from_edges(graph.number_of_nodes(), edges[:, 0], edges[:, 1])

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.indptr.size - 1

    def number_of_edges(self) -> int:
        return self.indices.size // 2

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree array (int64, length n)."""
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        """Node ``i``'s neighbors, ascending (a view, do not mutate)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        k = int(np.searchsorted(nbrs, v))
        return k < nbrs.size and int(nbrs[k]) == v

    @property
    def edges(self) -> Iterator[tuple[int, int]]:
        """Unique undirected edges ``(u, v)`` with ``u < v``, in CSR
        (row-major, ascending-column) order."""
        u, v = self.edge_arrays()
        return zip(u.tolist(), v.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique undirected edges as ``(u, v)`` arrays with ``u < v``,
        in deterministic CSR order — the per-edge weight kernels in
        :mod:`repro.topology.mixing` consume these."""
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64),
                         self.degrees)
        keep = rows < self.indices
        return rows[keep], self.indices[keep]


def as_neighbor_list(topology: Any) -> NeighborList:
    """The boundary adapter for callers who hold an ``nx.Graph``: pass
    a :class:`NeighborList` straight through, convert anything else."""
    if isinstance(topology, NeighborList):
        return topology
    return NeighborList.from_graph(topology)


def csr_connected(nbl: NeighborList) -> bool:
    """O(V+E) connectivity via vectorized breadth-first search."""
    n = nbl.n_nodes
    if n <= 1:
        return True
    indptr, indices = nbl.indptr, nbl.indices
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.array([0], dtype=np.int64)
    reached = 1
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # gather all frontier nodes' neighbor slices in one shot
        offsets = np.repeat(starts - np.concatenate(([0], counts[:-1])).cumsum(),
                            counts)
        nbrs = indices[offsets + np.arange(total)]
        fresh = np.sort(nbrs[~seen[nbrs]])  # np.unique would load numpy.ma
        fresh = fresh[np.diff(fresh, prepend=-1) > 0]
        seen[fresh] = True
        reached += fresh.size
        frontier = fresh
    return reached == n


def validate_topology(graph: NeighborList) -> None:
    """Reject graphs the synchronous round model cannot run on.

    Arrays built any other way than :meth:`NeighborList.from_edges` get
    its guarantees checked here — strictly ascending rows (no duplicate
    edge, and ``has_edge``'s binary search is sound), no self-loop,
    symmetric adjacency (a one-ended edge would make Metropolis–Hastings
    weights neither symmetric nor doubly stochastic) — then connectivity,
    which consensus requires. All O(V+E), vectorized."""
    if not isinstance(graph, NeighborList):
        raise TypeError(
            f"expected a NeighborList, got {type(graph).__name__}; convert "
            f"an nx.Graph once with as_neighbor_list()"
        )
    n = graph.n_nodes
    if n == 0:
        raise ValueError("empty graph")
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    cols = graph.indices
    if np.any(rows == cols):
        raise ValueError("self-loops are not allowed")
    if np.any((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1])):
        raise ValueError(
            "neighbor rows must be strictly ascending (unsorted row or "
            "duplicate edge)"
        )
    # A.T lists the entries by column, stably: with sorted rows it is
    # sorted too, and equals A entry for entry iff A is symmetric
    order = np.argsort(cols, kind="stable")
    if not (np.array_equal(cols[order], rows)
            and np.array_equal(rows[order], cols)):
        raise ValueError(
            "adjacency must be symmetric: every edge listed from both ends"
        )
    if not csr_connected(graph):
        raise ValueError("graph must be connected")


def adjacency_matrix(graph: NeighborList) -> Csr:
    """Sparse 0/1 adjacency in CSR form (node order 0..n-1)."""
    validate_topology(graph)
    n = graph.n_nodes
    return Csr(graph.indptr, graph.indices, np.ones(graph.indices.size), (n, n))


def neighbor_lists(graph: NeighborList) -> list[np.ndarray]:
    """Per-node sorted neighbor index arrays."""
    validate_topology(graph)
    return [graph.neighbors(i).copy() for i in range(graph.n_nodes)]


# --------------------------------------------------------------------------
# Generators: ring / torus / random regular
# --------------------------------------------------------------------------


def ring_neighbors(n: int) -> NeighborList:
    """Cycle over ``n`` nodes (degree 2): the sparsest connected
    regular topology, with the worst mixing time — a stress case."""
    if n < 3:
        raise ValueError("ring needs at least 3 nodes")
    u = np.arange(n, dtype=np.int64)
    return NeighborList.from_edges(n, u, (u + 1) % n)


def torus_neighbors(rows: int, cols: int) -> NeighborList:
    """2-D periodic grid (degree 4), row-major labels."""
    if rows < 3 or cols < 3:
        raise ValueError("torus needs at least 3x3")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    u = np.concatenate([idx.ravel(), idx.ravel()])
    v = np.concatenate([right.ravel(), down.ravel()])
    return NeighborList.from_edges(rows * cols, u, v)


def _pairing_model_edges(
    n: int, degree: int, rng: random.Random
) -> set[tuple[int, int]]:
    """One run of the Steger–Wormald stub-pairing model — the exact
    algorithm (and rng consumption) behind ``nx.random_regular_graph``,
    so the sampled edge set matches it bit-for-bit for the same seed."""

    def _suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation():
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges: dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return edges


def validate_regular_params(n: int, degree: int) -> None:
    """The feasibility screen of :func:`regular_neighbors`, with
    actionable messages: parameter combinations that can
    never yield a *connected* ``degree``-regular graph fail here, not
    after a futile 100-attempt retry loop."""
    if degree >= n:
        raise ValueError(f"degree {degree} must be < n={n}")
    if (n * degree) % 2 != 0:
        raise ValueError(
            f"n*degree must be even (n={n}, degree={degree}); bump "
            f"degree or n by one"
        )
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1 and n > 2:
        raise ValueError(
            f"a 1-regular graph on n={n} nodes is a perfect matching "
            f"and cannot be connected; use degree >= 2"
        )


def regular_neighbors(n: int, degree: int, seed: int = 0) -> NeighborList:
    """Random *connected* ``degree``-regular graph on ``n`` nodes (the
    paper's topology family): the pairing model retried on the bounded,
    seed-stable schedule ``seed, seed+1, .. seed+{REGULAR_MAX_TRIES}-1``
    until the O(V+E) BFS accepts an instance."""
    validate_regular_params(n, degree)
    for attempt in range(REGULAR_MAX_TRIES):
        edges = _pairing_model_edges(n, degree, random.Random(seed + attempt))
        # in set order: from_edges sorts the rows, so the order cannot show
        arr = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges))
        graph = NeighborList.from_edges(n, arr[0::2], arr[1::2])
        if csr_connected(graph):
            return graph
    raise RuntimeError(
        f"no connected {degree}-regular graph on n={n} nodes in "
        f"{REGULAR_MAX_TRIES} tries (seeds {seed}..{seed + REGULAR_MAX_TRIES - 1}); "
        f"for sparse degrees try a denser degree or another base seed"
    )
