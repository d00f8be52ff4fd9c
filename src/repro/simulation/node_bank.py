"""The node data plane: every node's data stream in one struct of arrays.

Model *parameters* live in the engine's shared ``(n, dim)`` state
matrix; what a node owns besides its row is a slice of the training
set, a private batch-sampling stream and a step counter. A
:class:`NodeBank` holds all ``n`` of those columnar: the global
``x``/``y`` once and by reference (in a pool worker they stay views of
the shared-memory segment), the partition in CSR form, and every node's
batch stream as a Philox key and a position — two arrays, no generator
objects. Building it is O(n + partition size), never O(dataset): no
per-node copy of the samples is made.

Batch-stream contract (what every artifact byte rests on; stated for
users in ``docs/determinism-contracts.md``): node ``i`` draws from
``rngs.node_stream("batch", i)`` and from nothing else; one local step
is exactly one ``choice(n_i, size=k_i, replace=False)`` over the node's
``n_i`` local sample positions with ``k_i = min(n_i, batch_size)``; a
node's steps are drawn in order. Streams are private, so the order in
which *different* nodes draw cannot change any value — node-by-node,
stacked, tiled and event-batched execution all see the same batches. :mod:`~repro.simulation.batch_stream` computes those draws for
many nodes at once, bit for bit what the numpy generators return.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import lanes
from ..data.dataset import ArrayDataset
from ..data.partition import partition_csr
from ..energy.devices import DeviceProfile
from ..energy.traces import assign_devices_round_robin
from . import batch_stream
from .rng import RngFactory

__all__ = ["NodeBank"]

#: read-ahead budget, in pre-drawn local steps over the whole bank: a
#: draw of one or two rows (the async engine's) costs the same fixed
#: numpy overhead as a draw of thousands, so a small bank pre-draws up
#: to 64 steps per node and a fleet none
_AHEAD_STEPS = 4096

#: a read-ahead's work per 32-bit stream word, in the units of the lane
#: work floor (:data:`repro.lanes.MIN_TILE_WORK`); a node's fill is
#: ``steps x (2k - 1)`` words
WORD_WORK = 32

#: a read-ahead's peak scratch per stream word, what a fill asks of the
#: lane byte budget (:data:`repro.lanes.ROW_BUDGET`): one unsplit fill's
#: ``tracemalloc`` peak per word was 79-84 B for the fleet banks (one
#: step of 4 picks) and 37-39 B for the bench banks (150-945 words a row)
WORD_BYTES = 80


class NodeBank:
    """All nodes of one simulation, columnar.

    ``x``/``y`` are the global training arrays (shared, never copied);
    node ``i`` owns samples ``indices[offsets[i]:offsets[i + 1]]``.
    ``k[i]`` is the node's mini-batch size, ``local_steps_done[i]`` the
    number of local steps it has drawn so far, ``devices[i]`` its device
    identity. Its batch stream is ``keys[i]``, the Philox key of
    ``rngs.node_stream("batch", i)``, and ``consumed[i]``, the number of
    32-bit words of that stream the steps handed out so far have used.
    """

    # the read-ahead is a cache of what (keys, consumed) determine: a
    # restored bank refills it from the checkpointed cursor
    _CHECKPOINT_EXEMPT = ("_ahead_idx", "_ahead_end", "_ahead_at")

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
        self.keys = batch_stream.philox_keys(rngs.seed, "batch", n)
        self.consumed = np.zeros(n, dtype=np.int64)
        # read-ahead: node i's next pre-drawn steps are slots
        # _ahead_at[i].. of _ahead_idx[i] (dataset rows) and _ahead_end[i]
        # (stream position after each); sized on first draw
        self._ahead_idx = np.zeros((n, 0, int(self.k.max())), dtype=np.int64)
        self._ahead_end = np.zeros((n, 0), dtype=np.int64)
        self._ahead_at = np.zeros(n, dtype=np.int64)

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

        Steps are independent ``choice`` calls, so a node's next few may
        be drawn before they are asked for: requests are served from a
        read-ahead refilled at the node's cursor. ``consumed`` only ever
        counts the steps handed out.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if steps < 1:
            raise ValueError("steps must be positive")
        if ids.size:
            ordered = np.sort(ids)
            if ordered[0] < 0 or ordered[-1] >= len(self):
                raise IndexError(
                    f"node ids must lie in [0, {len(self)}), "
                    f"got [{ordered[0]}, {ordered[-1]}]"
                )
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError(
                    f"node ids drawn together must be distinct, got {ids.tolist()}"
                )
        width = steps * max(1, min(64, _AHEAD_STEPS // len(self)) // steps)
        if self._ahead_end.shape[1] != width:
            self._ahead_idx = np.zeros(
                (len(self), width, self._ahead_idx.shape[2]), dtype=np.int64
            )
            self._ahead_end = np.zeros((len(self), width), dtype=np.int64)
            self._ahead_at[:] = width
        if (self._ahead_at[ids] + steps > width).any():
            # one pass for every node that has run dry, asked for or not
            self._read_ahead(np.flatnonzero(self._ahead_at + steps > width))
        at = self._ahead_at[ids]
        k = self.k[ids]
        idx = self._ahead_idx[
            ids[:, None], at[:, None] + np.arange(steps), : int(k.max(initial=0))
        ]
        at += steps
        self.consumed[ids] = self._ahead_end[ids, at - 1]
        self._ahead_at[ids] = at
        self.local_steps_done[ids] += steps
        return idx, k

    def _read_ahead(self, ids: np.ndarray) -> None:
        """Fill ``ids``' read-ahead with the steps that follow their
        cursors, in contiguous tiles of ``ids`` cut by work and bytes and
        run on every lane (:mod:`repro.lanes`). Streams are private, so a
        tile's picks, ends and cursors are what one unsplit fill writes."""
        steps = self._ahead_end.shape[1]
        columns = int(self.k[ids].max())
        words = steps * (2 * columns - 1)

        def fill(t: int, lo: int, hi: int) -> None:
            part = ids[lo:hi]
            picks, ends = batch_stream.sample(
                self.keys[part], self.consumed[part], self.sizes[part],
                self.k[part], steps, columns,
            )
            # local positions -> dataset rows, through the CSR (padding
            # columns land on the node's first sample: in range, unread)
            picks += self.offsets[part][:, None, None]
            self._ahead_idx[part, :, :columns] = self.indices[picks]
            self._ahead_end[part] = ends
            self._ahead_at[part] = 0

        bounds = lanes.tile_bounds(ids.size, words * WORD_WORK, words * WORD_BYTES)
        lanes.run_tiles(fill, bounds)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Everything a run mutates: each node's stream position, as the
        ``(n, 13)`` uint64 block of numpy ``Philox`` states standing
        there (counter 4 · key 2 · buffer 4 · buffer_pos · has_uint32 ·
        uinteger), and the step counters. Steps read ahead but not yet
        handed out are not part of it."""
        return {
            "node_rng": batch_stream.pack_states(self.keys, self.consumed),
            "node_steps_done": self.local_steps_done.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place; the bank must
        have been built exactly as for the original run (a snapshot of
        other streams — another seed — is refused)."""
        packed = np.asarray(state["node_rng"])
        steps = np.asarray(state["node_steps_done"], dtype=np.int64)
        n, words = len(self), batch_stream.RNG_WORDS
        if packed.shape != (n, words) or packed.dtype != np.uint64:
            raise ValueError(
                f"snapshot holds a {packed.dtype} {packed.shape} node rng "
                f"block, expected uint64 ({n}, {words})"
            )
        if steps.shape != (n,):
            raise ValueError(
                f"snapshot has {steps.shape[0]} node step counters, "
                f"bank has {n} nodes"
            )
        foreign = np.flatnonzero((packed[:, 4:6] != self.keys).any(axis=1))
        if foreign.size:
            raise ValueError(
                f"snapshot's batch stream of node {int(foreign[0])} is keyed "
                f"differently from this run's: it was taken under another seed"
            )
        self.consumed[:] = batch_stream.unpack_positions(packed)
        self._ahead_at[:] = self._ahead_end.shape[1]
        self.local_steps_done[:] = steps
