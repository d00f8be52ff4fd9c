"""Time-varying topologies.

D-PSGD-style analysis extends to changing graphs (Koloskova et al.
2020), and randomized topologies are known to mix faster than any fixed
graph of the same degree (the Epidemic Learning observation the paper
cites as [54]). The provider plugs into the engine's per-round
``mixing`` argument; the engine masks each round's matrix itself when
churn or failures exclude a node.
"""

from __future__ import annotations

from .mixing import metropolis_hastings_weights
from .sparse import Csr, regular_neighbors

__all__ = ["RandomRegularEachRound"]

#: epochs one provider keeps: the async engine reads recent rounds again
#: (its churn handoffs run behind its event planner)
EPOCH_CACHE = 64


class RandomRegularEachRound:
    """A fresh random d-regular graph every ``period`` rounds (every
    round by default), as Metropolis–Hastings weights.

    Epoch ``e = (t - 1) // period + 1`` draws its graph with seed
    ``seed + 7919 * e``. Matrices are cached by epoch (the most recent
    :data:`EPOCH_CACHE`), so every round of one epoch gets the same
    matrix object and repeated queries see a consistent graph. Graphs
    are CSR-native, so per-round rewiring stays O(E) at fleet sizes.
    """

    def __init__(self, n_nodes: int, degree: int, seed: int = 0,
                 period: int = 1) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.n_nodes = n_nodes
        self.degree = degree
        self.seed = seed
        self.period = period
        self._cache: dict[int, Csr] = {}

    def __call__(self, t: int) -> Csr:
        epoch = (t - 1) // self.period + 1
        if epoch not in self._cache:
            if len(self._cache) >= EPOCH_CACHE:
                self._cache.pop(min(self._cache))
            self._cache[epoch] = metropolis_hastings_weights(regular_neighbors(
                self.n_nodes, self.degree, seed=self.seed + 7919 * epoch
            ))
        return self._cache[epoch]
