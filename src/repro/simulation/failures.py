"""Failure injection: crash/recovery churn for robustness studies.

Real IoT/smartphone fleets (the paper's target setting) lose nodes to
connectivity drops and battery deaths. A failure model produces a
per-round alive mask; the engine keeps dead nodes frozen (no training,
no communication) and re-derives Metropolis–Hastings weights on the
alive-induced subgraph so the mixing step stays symmetric and doubly
stochastic among the survivors — preserving D-PSGD's convergence
conditions round by round.
"""

from __future__ import annotations

import numpy as np

from .rng import RngFactory

__all__ = ["FailureModel", "NoFailures", "IndependentCrashes", "CrashWindow"]


class FailureModel:
    """Interface: which nodes are alive in round ``t`` (1-based)."""

    def alive(self, t: int) -> np.ndarray:
        raise NotImplementedError


class NoFailures(FailureModel):
    """All nodes alive every round (the default)."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        self.n_nodes = n_nodes
        self._mask = np.ones(n_nodes, dtype=bool)

    def alive(self, t: int) -> np.ndarray:
        return self._mask


class IndependentCrashes(FailureModel):
    """Each node is independently down with probability ``p`` each round
    (memoryless churn). Round ``t``'s draw comes from its own stream,
    ``RngFactory(seed).node_stream("failures", t)``, so ``alive(t)`` is
    a pure function of ``(seed, t)`` like :class:`CrashWindow`'s: any
    query order gives the same masks and a checkpoint needs no entry.
    The last round's mask is kept, for the async engine's per-event
    queries."""

    def __init__(self, n_nodes: int, p: float, seed: int) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if not 0.0 <= p < 1.0:
            raise ValueError("p must be in [0, 1)")
        self.n_nodes = n_nodes
        self.p = p
        self._streams = RngFactory(seed)
        self._last: tuple[int, np.ndarray] | None = None

    def alive(self, t: int) -> np.ndarray:
        if self._last is None or self._last[0] != t:
            draw = self._streams.node_stream("failures", t).random(self.n_nodes)
            self._last = (t, draw >= self.p)
        return self._last[1]


class CrashWindow(FailureModel):
    """A fixed set of nodes is down during rounds [start, end]."""

    def __init__(self, n_nodes: int, nodes: list[int],
                 start: int, end: int) -> None:
        if start < 1 or end < start:
            raise ValueError("need 1 <= start <= end")
        if any(i < 0 or i >= n_nodes for i in nodes):
            raise ValueError("node id out of range")
        self.n_nodes = n_nodes
        self.down = np.zeros(n_nodes, dtype=bool)
        self.down[list(nodes)] = True
        self.start = start
        self.end = end
        # precomputed masks: alive() is on the async engine's per-event
        # hot path, so it must not allocate
        self._in_window = ~self.down
        self._all_alive = np.ones(n_nodes, dtype=bool)

    def alive(self, t: int) -> np.ndarray:
        if self.start <= t <= self.end:
            return self._in_window
        return self._all_alive

