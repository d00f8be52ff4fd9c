"""Explicit message-level model exchange.

The engine's ``X ← WX`` sparse product is an *optimization* of what the
paper's deployment actually does: every node serializes its model,
sends it to each neighbor, and averages what it receives. This module
implements that literal message-passing form with per-edge traffic
accounting. Tests assert the two forms are numerically identical, which
is the justification for simulating at matrix level; the traffic
counters ground the communication-energy model in actual bytes moved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.sparse import Csr

__all__ = ["TrafficStats", "MessagePassingNetwork"]


@dataclass
class TrafficStats:
    """Cumulative traffic counters for one simulation."""

    messages_sent: int = 0
    bytes_sent: int = 0
    per_node_bytes: np.ndarray | None = None
    rounds: int = 0

    def record(self, n_messages: int, n_bytes: int,
               per_node: np.ndarray) -> None:
        self.messages_sent += n_messages
        self.bytes_sent += n_bytes
        if self.per_node_bytes is None:
            self.per_node_bytes = per_node.astype(np.int64)
        else:
            self.per_node_bytes += per_node
        self.rounds += 1


class MessagePassingNetwork:
    """Literal share-and-aggregate over an undirected topology.

    Each :meth:`exchange` call performs one synchronization step: every
    node sends its parameter vector to every neighbor (one message per
    directed edge) and computes the W-weighted average of its own and
    received models. Equivalent to ``W @ X`` but with explicit message
    buffers and traffic accounting.
    """

    def __init__(
        self,
        neighbor_lists: list[np.ndarray],
        mixing: Csr,
        bytes_per_value: int = 8,
    ) -> None:
        n = len(neighbor_lists)
        if mixing.shape != (n, n):
            raise ValueError("mixing matrix does not match neighbor lists")
        if bytes_per_value <= 0:
            raise ValueError("bytes_per_value must be positive")
        for i, nbrs in enumerate(neighbor_lists):
            row = set(mixing.indices[mixing.indptr[i]:mixing.indptr[i + 1]])
            row.discard(i)
            if row != set(int(j) for j in nbrs):
                raise ValueError(
                    f"mixing matrix support at node {i} does not match its "
                    f"neighbor list"
                )
        self.neighbors = neighbor_lists
        self.mixing = mixing
        self.bytes_per_value = bytes_per_value
        self.stats = TrafficStats()

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    def exchange(self, state: np.ndarray) -> np.ndarray:
        """One share+aggregate step over explicit messages.

        ``state`` is the ``(n, dim)`` matrix of flat models; the return
        value is the new state (a fresh array — the caller's buffer is
        untouched, as a real network cannot mutate a sender's memory).
        """
        n, dim = state.shape
        if n != self.n_nodes:
            raise ValueError("state row count does not match network size")

        # "send" phase: one message per directed edge
        inboxes: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(n)]
        messages = 0
        per_node_bytes = np.zeros(n, dtype=np.int64)
        msg_bytes = dim * self.bytes_per_value
        for i in range(n):
            payload = state[i]
            for j in self.neighbors[i]:
                inboxes[int(j)].append((i, payload))
                messages += 1
                per_node_bytes[i] += msg_bytes

        # "aggregate" phase: W-weighted average of own + received models
        out = np.empty_like(state)
        w = self.mixing
        for i in range(n):
            lo, hi = w.indptr[i], w.indptr[i + 1]
            row = dict(zip(w.indices[lo:hi].tolist(), w.data[lo:hi]))
            acc = row.get(i, 0.0) * state[i]
            for sender, payload in inboxes[i]:
                acc = acc + row[sender] * payload
            out[i] = acc

        self.stats.record(messages, int(per_node_bytes.sum()), per_node_bytes)
        return out

    def expected_bytes_per_round(self, dim: int) -> int:
        """Closed-form traffic of one exchange: one message of
        ``dim × bytes_per_value`` per directed edge."""
        directed_edges = sum(len(nbrs) for nbrs in self.neighbors)
        return directed_edges * dim * self.bytes_per_value
