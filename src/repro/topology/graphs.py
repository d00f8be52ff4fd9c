"""Ablation topologies generated by networkx.

The paper evaluates on random ``d``-regular graphs (``d`` in {6, 8, 10}
over 256 nodes); those, the ring and the torus are built natively in
:mod:`repro.topology.sparse`. The families here — complete, star,
Erdős–Rényi, small-world, barbell — serve the mixing ablations and the
all-reduce comparison of Fig. 1 only, so ``networkx`` is imported when
one of them is called: no preset, scenario or sweep cell pays for it.

Every constructor returns a connected
:class:`~repro.topology.sparse.NeighborList` with nodes ``0..n-1``.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from .sparse import NeighborList, csr_connected

__all__ = [
    "fully_connected_graph",
    "erdos_renyi_graph",
    "star_graph",
    "small_world_graph",
    "barbell_graph",
]


def _from_networkx(build: Callable[[Any], Any]) -> NeighborList:
    """``build(networkx)`` as a :class:`NeighborList` — the module's one
    import site. ``from_graph`` rejects anything but labels ``0..n-1``
    and simple edges; consumers check connectivity
    (:func:`~repro.topology.sparse.validate_topology`)."""
    import networkx as nx

    return NeighborList.from_graph(build(nx))


def fully_connected_graph(n: int) -> NeighborList:
    """Complete graph: one mixing step equals an exact all-reduce."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return _from_networkx(lambda nx: nx.complete_graph(n))


def erdos_renyi_graph(n: int, p: float | None = None, seed: int = 0) -> NeighborList:
    """Connected G(n, p); defaults to p slightly above the connectivity
    threshold ``ln(n)/n``."""
    if p is None:
        p = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    for attempt in range(100):
        graph = _from_networkx(
            lambda nx: nx.erdos_renyi_graph(n, p, seed=seed + attempt)
        )
        if csr_connected(graph):
            return graph
    raise RuntimeError("no connected Erdős–Rényi instance found in 100 tries")


def star_graph(n: int) -> NeighborList:
    """Hub-and-spoke graph: the decentralized degenerate case closest to
    federated learning's central server."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return _from_networkx(lambda nx: nx.star_graph(n - 1))


def small_world_graph(n: int, k: int = 4, p: float = 0.3,
                      seed: int = 0) -> NeighborList:
    """Connected Watts–Strogatz small-world graph: a ring lattice with
    each edge rewired with probability ``p`` — interpolates between the
    slow-mixing ring (p=0) and a random graph (p=1)."""
    if k >= n:
        raise ValueError("k must be < n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return _from_networkx(
        lambda nx: nx.connected_watts_strogatz_graph(n, k, p, tries=200, seed=seed)
    )


def barbell_graph(clique: int, path: int = 0) -> NeighborList:
    """Two cliques joined by a path: the classic worst-case mixing
    topology (bottleneck edge), used to stress-test sync scheduling."""
    if clique < 3:
        raise ValueError("cliques need at least 3 nodes")
    if path < 0:
        raise ValueError("path length must be non-negative")
    return _from_networkx(lambda nx: nx.barbell_graph(clique, path))
