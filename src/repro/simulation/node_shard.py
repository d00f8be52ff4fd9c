"""Node-axis sharding for one synchronous cell.

The sweep pool (:mod:`repro.experiments.pool`) parallelizes *across*
cells; at fleet scale a single cell is itself the bottleneck — one
n=16384 round is 16384 local-training problems that are embarrassingly
parallel. This module shards the **node axis** of one cell across
long-lived fork workers: each worker owns a contiguous block of node
ids, receives three arrays per round — its state rows and the sample
indices and batch widths the parent drew for them — runs the engine's
pure block trainer
(:meth:`~repro.simulation.engine.SimulationEngine._train_block`)
against the training data it inherited through the fork, and ships the
trained rows back; the parent scatters them and runs the gossip GEMM
over the merged matrix.

Bit-identity contract — sharded artifacts are byte-identical to
unsharded ones:

* Every rng stream stays in the parent: the engine draws the round's
  sample indices from its :class:`~repro.simulation.node_bank.NodeBank`
  before dispatching, exactly as it does unsharded. Checkpoints
  therefore capture the true stream positions, and kill/resume works
  across sharded and unsharded processes.
* Block training is a pure function of (rows, indices): plain SGD has
  no cross-node state (``momentum > 0`` is rejected at construction,
  the same exclusion the vectorized path makes), so partitioning the
  node loop cannot change any trained row's bits.
* Losses are returned in ascending node order (blocks are contiguous
  and dispatched in order), matching the serial loop's list exactly.

Workers are forked once per cell and fed over pipes; a worker that
raises ships its traceback back and the round fails loudly
(:class:`NodeShardError`). Requires the ``fork`` start method (Linux),
like every other pool in this repo.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationEngine

__all__ = ["NodeShardError", "NodeShardPool", "shard_blocks"]


class NodeShardError(RuntimeError):
    """A node-shard worker failed (or died) mid-round; the message
    carries the worker-side traceback when one was reported."""


def shard_blocks(n_nodes: int, shards: int) -> tuple[tuple[int, int], ...]:
    """Contiguous ``[lo, hi)`` node blocks, one per shard, sizes as
    even as possible (``np.array_split`` semantics). Contiguity is what
    lets the checkpoint codec store per-shard state blocks that
    concatenate back into the full matrix."""
    if shards <= 0:
        raise ValueError("shards must be positive")
    if shards > n_nodes:
        raise ValueError(
            f"node_shards={shards} exceeds the cell's {n_nodes} nodes"
        )
    bounds = np.linspace(0, n_nodes, shards + 1).astype(np.int64)
    return tuple((int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]))


def _worker_main(engine: "SimulationEngine", conn) -> None:
    """Worker loop: inherit the engine through the fork (model, loss,
    optimizer, the bank's training data — never its live state matrix
    or rng streams), then answer pure block-training requests until
    the ``None`` sentinel."""
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            out, losses = engine._train_block(*task)
            conn.send(("ok", out, losses))
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass


class NodeShardPool:
    """K fork workers, each owning one contiguous node block of one
    engine's fleet. Attach with
    :meth:`SimulationEngine.set_node_sharder`; detach and :meth:`close`
    when the cell finishes (the sweep orchestrator does both)."""

    def __init__(self, engine: "SimulationEngine", shards: int) -> None:
        if engine.config.momentum > 0.0:
            raise ValueError(
                "node sharding requires momentum=0: the serial momentum "
                "buffer is shared across nodes, so partitioning the node "
                "loop would change which nodes share it"
            )
        if "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "node sharding requires the fork start method "
                "(unavailable on this platform)"
            )
        self.blocks = shard_blocks(engine.n_nodes, shards)
        self._ctx = mp.get_context("fork")
        self._conns = []
        self._workers = []
        for _lo, _hi in self.blocks:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main, args=(engine, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._workers.append(proc)

    @property
    def shards(self) -> int:
        return len(self.blocks)

    def train_round(
        self, state: np.ndarray, ids: np.ndarray, idx: np.ndarray, k: np.ndarray
    ) -> list[float]:
        """One round's local-training stage over masked node ids
        (ascending) and the sample indices drawn for them: fan the
        blocks out, scatter the trained rows back into ``state``.
        Returns per-node mean losses in ascending node order."""
        dispatched: list[tuple[int, np.ndarray]] = []
        for shard, (lo, hi) in enumerate(self.blocks):
            a = int(np.searchsorted(ids, lo))
            b = int(np.searchsorted(ids, hi))
            if a == b:
                continue
            block_ids = ids[a:b]
            self._conns[shard].send((state[block_ids], idx[a:b], k[a:b]))
            dispatched.append((shard, block_ids))
        losses: list[float] = []
        for shard, block_ids in dispatched:
            try:
                reply = self._conns[shard].recv()
            except EOFError:
                raise NodeShardError(
                    f"node-shard worker {shard} died without reporting"
                ) from None
            if reply[0] == "err":
                raise NodeShardError(
                    f"node-shard worker {shard} failed\n"
                    f"--- worker traceback ---\n{reply[1]}"
                )
            _, out, block_losses = reply
            state[block_ids] = out
            losses.extend(block_losses.tolist())
        return losses

    def close(self) -> None:
        """Send sentinels, join, and force-kill stragglers (idempotent)."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=10)
        for conn in self._conns:
            conn.close()
        self._conns = []
        self._workers = []

    def __enter__(self) -> "NodeShardPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
