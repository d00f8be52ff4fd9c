"""The node data plane: every node's data stream in one struct of arrays.

Model *parameters* live in the engine's shared ``(n, dim)`` state
matrix; what a node owns besides its row is a slice of the training
set, a private batch-sampling stream and a step counter. A
:class:`NodeBank` holds all ``n`` of those columnar: the global
``x``/``y`` once and by reference (in a pool worker they stay views of
the shared-memory segment), the partition in CSR form, and one Philox
generator per node. Building it is O(n + partition size), never
O(dataset): no per-node copy of the samples is made.

Batch-stream contract (what every artifact byte rests on; stated for
users in ``docs/determinism-contracts.md``): node ``i`` draws from
``rngs.node_stream("batch", i)`` and from nothing else; one local step
is exactly one ``choice(n_i, size=k_i, replace=False)`` over the node's
``n_i`` local sample positions with ``k_i = min(n_i, batch_size)``; a
node's steps are drawn in order. Streams are private, so the order in
which *different* nodes draw cannot change any value — serial,
vectorized, sharded and event-batched execution all see the same
batches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.partition import partition_csr
from ..energy.devices import DeviceProfile
from ..energy.traces import assign_devices_round_robin
from .rng import RngFactory

__all__ = ["NodeBank"]

#: columns of one packed Philox state row: counter 4, key 2, buffer 4,
#: buffer_pos, has_uint32, uinteger
_RNG_WORDS = 13


class NodeBank:
    """All nodes of one simulation, columnar.

    ``x``/``y`` are the global training arrays (shared, never copied);
    node ``i`` owns samples ``indices[offsets[i]:offsets[i + 1]]``.
    ``k[i]`` is the node's mini-batch size, ``local_steps_done[i]`` the
    number of local steps it has drawn so far, ``gens[i]`` its batch
    stream, ``devices[i]`` its device identity.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        partition: Sequence[np.ndarray],
        batch_size: int,
        rngs: RngFactory,
        devices: tuple[DeviceProfile, ...] | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.x = dataset.x
        self.y = dataset.y
        self.offsets, self.indices = partition_csr(partition, len(dataset))
        self.sizes = np.diff(self.offsets)
        n = self.sizes.shape[0]
        empty = np.flatnonzero(self.sizes == 0)
        if empty.size:
            raise ValueError(f"node {int(empty[0])} has an empty dataset")
        if devices is None:
            devices = assign_devices_round_robin(n)
        if len(devices) != n:
            raise ValueError("one device per node required")
        self.devices = devices
        self.k = np.minimum(self.sizes, batch_size)
        self.local_steps_done = np.zeros(n, dtype=np.int64)
        self.gens = [rngs.node_stream("batch", i) for i in range(n)]

    def __len__(self) -> int:
        return self.sizes.shape[0]

    def draw(self, ids: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``steps`` mini-batches for each node in ``ids``
        (distinct node ids) as *sample indices only*.

        Returns ``(idx, k)``: ``idx`` is ``(len(ids), steps, k.max())``
        int64 rows of ``x``/``y``, and row ``r`` is valid up to column
        ``k[r]`` — nodes holding fewer samples than ``batch_size`` draw
        smaller batches, the padding is never read. The caller gathers
        ``x[idx[r, s, :k[r]]]``; nothing is copied here.
        """
        ids = np.asarray(ids, dtype=np.int64)
        k = self.k[ids]
        idx = np.zeros((ids.size, steps, int(k.max(initial=0))), dtype=np.int64)
        gens = self.gens
        rows = zip(idx, ids.tolist(), self.sizes[ids].tolist(), k.tolist())
        for out, i, n_i, k_i in rows:
            choice = gens[i].choice
            for s in range(steps):
                out[s, :k_i] = choice(n_i, size=k_i, replace=False)
        # local positions -> dataset rows, through the CSR (padding
        # columns land on the node's first sample: in range, unread)
        idx += self.offsets[ids][:, None, None]
        self.local_steps_done[ids] += steps
        return self.indices[idx], k

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a run mutates: each node's stream position, packed
        into one ``(n, 13)`` uint64 block (Philox counter 4 · key 2 ·
        buffer 4 · buffer_pos · has_uint32 · uinteger), and the step
        counters."""
        packed = np.empty((len(self), _RNG_WORDS), dtype=np.uint64)
        for row, gen in zip(packed, self.gens):
            state = gen.bit_generator.state
            row[0:4] = state["state"]["counter"]
            row[4:6] = state["state"]["key"]
            row[6:10] = state["buffer"]
            row[10:] = (state["buffer_pos"], state["has_uint32"], state["uinteger"])
        return {
            "node_rng": packed,
            "node_steps_done": self.local_steps_done.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place; the bank must
        have been built exactly as for the original run."""
        packed = np.asarray(state["node_rng"])
        steps = np.asarray(state["node_steps_done"], dtype=np.int64)
        n = len(self)
        if packed.shape != (n, _RNG_WORDS) or packed.dtype != np.uint64:
            raise ValueError(
                f"snapshot holds a {packed.dtype} {packed.shape} node rng "
                f"block, expected uint64 ({n}, {_RNG_WORDS})"
            )
        if steps.shape != (n,):
            raise ValueError(
                f"snapshot has {steps.shape[0]} node step counters, "
                f"bank has {n} nodes"
            )
        for row, gen in zip(packed, self.gens):
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": row[0:4], "key": row[4:6]},
                "buffer": row[6:10],
                "buffer_pos": int(row[10]),
                "has_uint32": int(row[11]),
                "uinteger": int(row[12]),
            }
        self.local_steps_done[:] = steps
