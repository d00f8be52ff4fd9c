"""Row tiles on every CPU the process owns.

Three hot loops of a simulation round work row by row and never mix
rows: the stacked trainer (a node's parameter row), the gossip product
(a node's output row of ``W @ X``) and the bank's batch read-ahead (a
node's private batch stream). Each may therefore cut its rows into
contiguous tiles and work on them at the same time, one tile per
*lane*: tile 0 on the calling thread, the others on the process's lane
threads, while numpy and scipy's compiled sparse product (bound by
:class:`repro.topology.Csr`) hold no GIL inside their kernels. A
row's arithmetic is the same wherever it runs, so tiling never moves a
byte; the lane count and the work floor only decide where a row runs.

This module is the one place that decides both and runs the tiles:
:func:`lane_count` is the process's share of its affinity mask,
:func:`tile_bounds` cuts a call by one work floor
(:data:`MIN_TILE_WORK`) and one byte budget (:data:`ROW_BUDGET`), and
:func:`run_tiles` dispatches, in waves when a call has more tiles than
lanes. A call below two tiles' work within the budget — every small,
async or pool-worker call — runs whole on the calling thread.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = [
    "MIN_TILE_WORK",
    "ROW_BUDGET",
    "affinity_cpus",
    "lane_count",
    "run_tiles",
    "share_cpus",
    "tile_bounds",
    "wave_width",
]

T = TypeVar("T")


def affinity_cpus() -> tuple[int, str]:
    """``(cpus, source)``: how many CPUs this process may run on.

    The scheduler affinity mask — ``len(os.sched_getaffinity(0))`` —
    reflects cgroup cpusets and ``taskset`` restrictions in containers,
    where ``os.cpu_count()`` reports the host's full core count; the
    latter is the fallback on platforms without affinity support
    (macOS). One probe for the sweep's worker count and the lanes alike.
    """
    try:
        return max(1, len(os.sched_getaffinity(0))), "sched_getaffinity"
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1), "cpu_count"


#: Cell processes sharing this process's CPUs: 1 unless a worker pool
#: forked this process (:func:`share_cpus`).
_cell_processes = 1


def share_cpus(processes: int) -> int:
    """Declare that ``processes`` cell processes — this one included —
    run at once on this process's CPUs, so :func:`lane_count` takes
    only its share; returns the previous count. A persistent pool calls
    it in each forked worker."""
    global _cell_processes
    previous, _cell_processes = _cell_processes, processes
    return previous


def lane_count() -> int:
    """How many tiles one call may run at once: this process's share of
    the CPUs in its affinity mask."""
    return max(1, affinity_cpus()[0] // _cell_processes)


#: Least work one tile must get for a call to be split at all, in
#: multiply-adds of the stacked trainer (rows x ``dim`` x batch width).
#: Each caller states its per-row work in these units. Measured on a
#: 2-CPU Intel Xeon host as one call's unsplit time over its time on two
#: lanes, the latter two inside running cells:
#:
#: * trainer (:class:`~repro.nn.batched.BatchedTrainer`) — the bench MLP
#:   (dim 1810, width 8, E=10) at 64 rows (0.46 M per tile) 0.99x, 96
#:   rows (0.70 M) 1.39x; the fleet MLP (dim 172, width 4, E=1) at 512
#:   rows (0.18 M) 0.92x, 1024 rows (0.35 M) 1.39x;
#: * gossip (:func:`~repro.simulation.engine.gossip`; ``dim`` x stored
#:   entries per row) — the bench MLP at degree 6 at 64 rows (0.41 M)
#:   1.02x, 128 rows (0.81 M) 1.32x, 256 rows (1.6 M) 1.57x; the fleet
#:   MLP at degree 4, which streams its state from memory, at 4,096 rows
#:   (1.8 M) 0.88-0.93x, 8,192 rows (3.5 M) 0.91-1.55x, 16,384 rows
#:   (7.0 M) 1.71-1.78x;
#: * draws (:meth:`~repro.simulation.node_bank.NodeBank.draw`;
#:   :data:`~repro.simulation.node_bank.WORD_WORK` per stream word) — the
#:   bench bank at 256 rows (0.61 M) 0.71x; the fleet bank at 8,192 rows
#:   (0.92 M) 0.97x, 16,384 rows (1.8 M) 1.63x.
#:
#: The trainer and the bench gossip break even at 0.2-0.5 M per tile and
#: the draws near 1 M, so 1 M is the floor. Only the fleet's gossip,
#: bound by memory, splits below its break-even: up to 12% slower per
#: product between 2,439 nodes, where it starts to split, and about
#: 8,000. The bench MLP trains split from 145 rows and the fleet MLP
#: from 3,049; the fleet's draws split from 9,363 nodes.
MIN_TILE_WORK = 1 << 20


#: Most bytes one tile may add to the workspace of the lane that runs
#: it. A call whose rows need more is cut into more tiles than lanes,
#: run in waves (:func:`run_tiles`), so a lane's workspace holds one
#: tile, not its share of the call. Callers state their per-row bytes:
#: the stacked trainer and evaluator, and the bank's read-ahead
#: (:data:`~repro.simulation.node_bank.WORD_BYTES`); gossip does not.
#: Measured on the same host as :data:`MIN_TILE_WORK`, min of 15 calls:
#:
#: * the bench MLP (26.2 KiB a row at width 8), 256 rows on two lanes:
#:   two 128-row tiles 19.0 ms, 64-row waves 22.4 ms (+18%: each wave
#:   is more numpy calls, so more GIL handoffs); on one lane: one tile
#:   44.2 ms, 64-row chunks 26.6 ms (-40%; a later best-of-15 curve
#:   under ``taskset -c 0`` read 36.1 against 33.0 ms, -8%, in
#:   ``docs/small-blocks.md``);
#: * the fleet MLP (3.2 KiB a row at width 4), 16,384 rows on two lanes:
#:   8,192-row tiles 36.8 ms, 1,024-2,048-row waves 25.8-33.1 ms.
#:
#: The floor is ``sync-paper256``: its 256-row calls must stay two
#: 128-row tiles, which needs 3.3 MiB. A GN-LeNet row at batch 32 needs
#: 156 MiB, so the paper CNN trains one row per tile.
ROW_BUDGET = 4 << 20


def tile_bounds(rows: int, row_work: int, row_bytes: int = 0) -> list[int]:
    """Bounds ``0 = b_0 < b_1 < ... < b_T = rows`` of the contiguous,
    near-equal tiles ``rows`` rows of ``row_work`` work and ``row_bytes``
    workspace each run as.

    The work floor (:data:`MIN_TILE_WORK`) gives one tile per lane, but
    no more than gives each tile the floor; the budget
    (:data:`ROW_BUDGET`) then asks for as many tiles as keep each tile's
    ``rows x row_bytes`` under it (one row a tile when a row alone
    outgrows it), rounded up to a multiple of the lanes in use so the
    waves stay balanced. A call below two tiles' work within the budget
    never probes the CPUs."""
    work = rows * row_work
    split = 1
    if work >= 2 * MIN_TILE_WORK:
        split = min(rows, lane_count(), work // max(MIN_TILE_WORK, 1))
    tiles = split
    if row_bytes:
        # whole rows per tile, so a tile's rows fit the budget unless
        # one row alone outgrows it
        capped = -(-rows // max(1, ROW_BUDGET // row_bytes))
        if capped > split:
            width = min(lane_count(), capped)
            tiles = min(rows, -(-capped // width) * width)
    if tiles == 1:
        return [0, rows]
    return [rows * t // tiles for t in range(tiles + 1)]


#: The process's lane threads by lane index, each created on the first
#: split that needs its lane. One single-thread executor per lane, so a
#: thread that finishes its lane early never takes another lane's tiles
#: (which would serialise two lanes). A forked child forgets them.
_lane_threads: dict[int, ThreadPoolExecutor] = {}


def _lane_executor(lane: int) -> ThreadPoolExecutor:
    threads = _lane_threads.get(lane)
    if threads is None:
        from concurrent.futures import ThreadPoolExecutor

        threads = _lane_threads[lane] = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"lane{lane}"
        )
    return threads


def _forget_lane_threads() -> None:
    # threads do not survive a fork, but the executors' bookkeeping
    # does: a child that submitted to one would wait on it forever
    global _lane_threads
    _lane_threads = {}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane_threads)


def wave_width(tiles: int) -> int:
    """How many lanes :func:`run_tiles` runs ``tiles`` tiles on: one
    per tile while the lanes suffice, else every lane, in waves."""
    return 1 if tiles == 1 else min(lane_count(), tiles)


def run_tiles(fn: Callable[[int, int, int], T], bounds: list[int]) -> list[T]:
    """``[fn(lane, lo, hi) for each tile [lo, hi) of bounds]``, the tiles
    run on ``W =`` :func:`wave_width` lanes at once: tile ``t`` on
    lane ``t mod W``, each lane's tiles in order, lane 0 on this thread
    and the others on lane threads. So a call with more tiles than lanes
    runs in waves, and ``fn`` may keep per-lane scratch. Returns only
    after every lane has stopped, so no lane still writes once this
    returns or raises; then re-raises the first failure — lane 0's,
    else the lowest failed lane's. A lane stops at its first failing
    tile."""
    tiles = len(bounds) - 1
    if tiles == 1:
        return [fn(0, bounds[0], bounds[1])]
    width = wave_width(tiles)

    def lane(w: int) -> list[T]:
        return [fn(w, bounds[t], bounds[t + 1]) for t in range(w, tiles, width)]

    if width == 1:
        return lane(0)
    futures = [_lane_executor(w).submit(lane, w) for w in range(1, width)]
    from concurrent.futures import wait

    try:
        head = lane(0)
    finally:
        wait(futures)
    done = [head, *(future.result() for future in futures)]
    return [done[t % width][t // width] for t in range(tiles)]
