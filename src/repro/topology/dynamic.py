"""Time-varying topologies.

D-PSGD-style analysis extends to changing graphs (Koloskova et al.
2020), and randomized topologies are known to mix faster than any fixed
graph of the same degree (the Epidemic Learning observation the paper
cites as [54]). These providers plug into the engine's per-round
``mixing`` argument.
"""

from __future__ import annotations

from typing import Callable

from .mixing import metropolis_hastings_weights
from .sparse import Csr, NeighborList, regular_neighbors

__all__ = [
    "static_provider",
    "RegularGraphEachRound",
    "RandomRegularEachRound",
    "PeriodicRewiring",
]


def static_provider(mixing: Csr) -> Callable[[int], Csr]:
    """Wrap a fixed matrix in the provider interface."""
    return lambda t: mixing


class RegularGraphEachRound:
    """Graph-level dynamic topology: a fresh random d-regular *graph*
    every ``period`` rounds (every round by default).

    This is the structural core the matrix-level providers below derive
    their weights from, exposed separately because scenario compilation
    needs the graph itself: churn and failure masking re-derive
    Metropolis–Hastings weights on the eligible-induced subgraph, which
    requires edges, not weights. The epoch seed derivation
    (``seed + 7919 * epoch``) matches :class:`RandomRegularEachRound`
    exactly, so a dynamic scenario without churn/failures sees the same
    graph sequence whichever layer provides it.

    Graphs come back as CSR-native
    :class:`~repro.topology.sparse.NeighborList` objects, so per-round
    rewiring stays O(E) at fleet sizes.
    """

    def __init__(self, n_nodes: int, degree: int, seed: int = 0,
                 period: int = 1, cache_size: int = 8) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.n_nodes = n_nodes
        self.degree = degree
        self.seed = seed
        self.period = period
        self.cache_size = cache_size
        self._cache: dict[int, NeighborList] = {}

    def epoch(self, t: int) -> int:
        return (t - 1) // self.period + 1

    def __call__(self, t: int) -> NeighborList:
        epoch = self.epoch(t)
        if epoch not in self._cache:
            if len(self._cache) >= self.cache_size:
                self._cache.pop(min(self._cache))
            self._cache[epoch] = regular_neighbors(
                self.n_nodes, self.degree, seed=self.seed + 7919 * epoch
            )
        return self._cache[epoch]


class RandomRegularEachRound:
    """A fresh random d-regular graph every round, as mixing weights.

    Per-round matrices are cached by round index, so repeated queries
    (engine + diagnostics) see a consistent graph.
    """

    def __init__(self, n_nodes: int, degree: int, seed: int = 0,
                 cache_size: int = 64) -> None:
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self.n_nodes = n_nodes
        self.degree = degree
        self.seed = seed
        self.cache_size = cache_size
        self.graphs = RegularGraphEachRound(n_nodes, degree, seed=seed,
                                            cache_size=cache_size)
        self._cache: dict[int, Csr] = {}

    def __call__(self, t: int) -> Csr:
        if t not in self._cache:
            if len(self._cache) >= self.cache_size:
                self._cache.pop(min(self._cache))
            self._cache[t] = metropolis_hastings_weights(self.graphs(t))
        return self._cache[t]


class PeriodicRewiring:
    """Keep the same graph for ``period`` rounds, then rewire.

    Models slower membership/link churn than per-round randomization.
    """

    def __init__(self, n_nodes: int, degree: int, period: int,
                 seed: int = 0) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.inner = RandomRegularEachRound(n_nodes, degree, seed=seed)
        self.period = period

    def __call__(self, t: int) -> Csr:
        epoch = (t - 1) // self.period + 1
        return self.inner(epoch)
