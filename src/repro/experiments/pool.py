"""Persistent shared-memory worker pool for sweep execution.

The per-group fork pool this replaces re-paid process startup and
dataset preparation for every (preset, degree, seed) group, which made
``--jobs 4`` *slower* than serial on small cells. This subsystem keeps
two mechanisms separate and composable:

* :class:`SharedDatasetCache` — the parent process synthesizes each
  distinct dataset (one per (preset, seed, partition-override, α) key)
  via :func:`~repro.experiments.runner.prepare_data` and publishes its
  arrays into one :class:`multiprocessing.shared_memory.SharedMemory`
  segment. Workers rebind the arrays zero-copy (``np.ndarray`` views
  over the mapped buffer, marked read-only) from the picklable
  :class:`SharedDataset` descriptor that travels with each task. The
  parent is the only process that ever creates, owns or unlinks a
  segment.
* :class:`PersistentPool` — long-lived fork workers, each handed one
  cell at a time by the parent over its own pipe. Workers are forked
  once per sweep, so presets, model factories, lookup closures and
  round hooks never need to be picklable (the ``run_one`` closure is
  inherited through the fork). A worker that raises ships the
  formatted traceback back and stops; one that dies without reporting
  (hard crash) is seen through its process sentinel. Either way the
  parent raises :class:`PoolWorkerError` naming the cell at once.

Lifecycle contract: a segment lives only while a cell needs it.
Callers :meth:`~SharedDatasetCache.pin` a data key once per cell that
will train on it and :meth:`~SharedDatasetCache.unpin` it as each cell
ends; a dataset no cell is waiting for is unlinked
(:meth:`~SharedDatasetCache.release`) — at once in a sweep, which knows
its whole plan, and past a byte budget of least-recently-used idle
datasets in the daemon (:data:`IDLE_DATASET_BUDGET`), which cannot know
what will be resubmitted. Worker side, :func:`bind_data` keeps only
the segment of the cell in hand attached. So parent and workers each
map O(jobs) datasets, not the whole sweep.
:meth:`SharedDatasetCache.close` (the sweep's ``finally``, whether it
succeeded, failed, or was interrupted) unlinks whatever is still
published, with an ``atexit`` hook as the last-resort backstop; every
segment is unlinked exactly once. The ``shm-unlink`` rule of ``repro
check`` enforces the same contract statically on any future
``SharedMemory(create=True)`` call site.

Platform constraint: the pool requires the ``fork`` start method
(Linux). ``multiprocessing.shared_memory`` itself is portable, but the
no-pickling property of the worker context is not — on other platforms
run ``jobs=1`` per shard and split work with ``--shard`` instead.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import os
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import Connection, wait
from typing import Callable, Hashable

import numpy as np

from ..data.dataset import ArrayDataset
from ..lanes import share_cpus
from .artifacts import PlanCell
from .presets import ExperimentPreset
from .runner import PreparedData

__all__ = [
    "IDLE_DATASET_BUDGET",
    "PoolWorkerError",
    "SharedDataset",
    "SharedDatasetCache",
    "PersistentPool",
    "bind_data",
]


class PoolWorkerError(RuntimeError):
    """A pool worker failed while executing a cell.

    ``cell_id`` names the cell that raised (empty when the worker died
    without reporting); ``worker_traceback`` is the worker-side
    formatted traceback, embedded in the message so the original
    failure is visible at the call site that observed it.
    """

    def __init__(self, cell_id: str, worker_traceback: str) -> None:
        self.cell_id = cell_id
        self.worker_traceback = worker_traceback
        where = f"cell {cell_id}" if cell_id else "a worker"
        super().__init__(
            f"sweep pool worker failed while running {where}\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )


@dataclass(frozen=True)
class SharedDataset:
    """Picklable descriptor of one published dataset segment.

    ``arrays`` maps each logical array (``"train.x"``, ``"train.y"``,
    …, ``"partition.<i>"``) to its (shape, dtype, byte offset) within
    the segment; ``num_classes`` carries the (train, test, validation)
    class counts the :class:`~repro.data.dataset.ArrayDataset`
    constructors need. Everything else about a cell (preset object,
    degree, topology) is resolved worker-side, so this descriptor stays
    small and queue-friendly.
    """

    segment: str
    seed: int
    num_classes: tuple[int, int, int]
    arrays: tuple[tuple[str, tuple[int, ...], str, int], ...]


def _data_arrays(data: PreparedData) -> list[tuple[str, np.ndarray]]:
    """The flat, ordered array inventory of one :class:`PreparedData`."""
    items = [
        ("train.x", data.train.x),
        ("train.y", data.train.y),
        ("test.x", data.test.x),
        ("test.y", data.test.y),
        ("validation.x", data.validation.x),
        ("validation.y", data.validation.y),
    ]
    items.extend(
        (f"partition.{i}", part) for i, part in enumerate(data.partition)
    )
    return [(name, np.ascontiguousarray(arr)) for name, arr in items]


#: Bytes of published datasets that no accepted cell is waiting for
#: which ``repro serve`` keeps, least recently used first out, so a
#: resubmitted seed starts without a ``prepare_data``. Eight
#: ``cifar10-bench`` datasets; a paper-scale dataset (~1.2 GB) exceeds
#: it on its own and is released with its last cell.
IDLE_DATASET_BUDGET = 32 << 20


class SharedDatasetCache:
    """Parent-side registry of published dataset segments, keyed by the
    sweep's data key. Owns every segment it creates.

    A dataset's life is publish → release → (backstop) close. Between
    the first two it is *pinned* while cells wait for it — one
    :meth:`pin` per cell, one :meth:`unpin` as the cell ends — and
    turns *idle* with its last unpin. Idle datasets stay published,
    least recently unpinned first out, up to ``idle_budget`` bytes: 0
    (a sweep counts its plan's cells per key up front, so an idle
    dataset is a finished one) or :data:`IDLE_DATASET_BUDGET` (the
    daemon). A dataset nobody ever pinned stays until :meth:`release`
    or :meth:`close`, which unlinks whatever is left (idempotent; also
    registered with ``atexit`` as a backstop). Unlinking is guarded by
    pid, so a forked child inheriting the object can never unlink
    segments from under its siblings.
    """

    def __init__(self, idle_budget: int = 0) -> None:
        self._owner_pid = os.getpid()
        self._idle_budget = idle_budget
        self._segments: dict[Hashable, shared_memory.SharedMemory] = {}
        self._published: dict[Hashable, SharedDataset] = {}
        self._keys: list[Hashable] = []
        self._pins: dict[Hashable, int] = {}
        #: published, unpinned keys, least recently unpinned first
        self._idle: dict[Hashable, None] = {}
        atexit.register(self.close)

    def get(self, key: Hashable) -> SharedDataset | None:
        """The live descriptor of ``key`` (``None`` once released)."""
        return self._published.get(key)

    @property
    def keys(self) -> tuple[Hashable, ...]:
        """Every key published so far, in publication order — released
        ones included (a few dozen bytes each)."""
        return tuple(self._keys)

    @property
    def live(self) -> tuple[Hashable, ...]:
        """Keys whose segment exists right now."""
        return tuple(self._published)

    def publish(self, key: Hashable, data: PreparedData) -> SharedDataset:
        """Copy ``data``'s arrays into a fresh shared-memory segment and
        return the descriptor workers bind from."""
        if key in self._published:
            raise ValueError(f"data key {key!r} already published")
        arrays = _data_arrays(data)
        offsets, size = [], 0
        for _, arr in arrays:
            offsets.append(size)
            size += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
        try:
            table = []
            for (name, arr), offset in zip(arrays, offsets):
                dst = np.ndarray(
                    arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset
                )
                dst[...] = arr
                del dst  # release the buffer view so close() can unmap
                table.append((name, arr.shape, arr.dtype.str, offset))
            meta = SharedDataset(
                segment=shm.name,
                seed=data.seed,
                num_classes=(
                    data.train.num_classes,
                    data.test.num_classes,
                    data.validation.num_classes,
                ),
                arrays=tuple(table),
            )
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        self._segments[key] = shm
        self._published[key] = meta
        self._keys.append(key)
        return meta

    def pin(self, key: Hashable) -> None:
        """One more cell will train on ``key`` (published or not yet)."""
        self._pins[key] = self._pins.get(key, 0) + 1
        self._idle.pop(key, None)

    def unpin(self, key: Hashable) -> None:
        """A cell pinned on ``key`` ended (done, failed or lost). With
        its last cell the dataset turns idle, and idle datasets past
        the budget are released, oldest first."""
        left = self._pins[key] - 1
        if left:
            self._pins[key] = left
            return
        del self._pins[key]
        if key in self._published:
            self._idle[key] = None
        while self._idle and self._idle_budget < sum(
            self._segments[idle].size for idle in self._idle
        ):
            self.release(next(iter(self._idle)))

    def release(self, key: Hashable) -> None:
        """Unmap and unlink ``key``'s segment now (a no-op for a key
        that is not published, and in a forked child). Workers still
        attached keep their mapping until they drop it; no new cell can
        bind it."""
        if os.getpid() != self._owner_pid:
            return  # a forked child inherited this object; not ours
        shm = self._segments.pop(key, None)
        if shm is None:
            return
        del self._published[key]
        self._idle.pop(key, None)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Unlink every segment still published (idempotent,
        fork-safe)."""
        if os.getpid() != self._owner_pid:
            return  # a forked child inherited this object; not ours
        for key in list(self._segments):
            self.release(key)
        self._keys.clear()
        self._pins.clear()
        atexit.unregister(self.close)

    def __enter__(self) -> "SharedDatasetCache":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Worker-side: the attachment of the cell in hand, by segment name.
_BINDINGS: dict[str, shared_memory.SharedMemory] = {}
#: Worker-side: attachments dropped by :func:`bind_data` that a live
#: array view has so far kept from unmapping; retried at every bind.
_DEFERRED: list[shared_memory.SharedMemory] = []


def _unmapped(shm: shared_memory.SharedMemory) -> bool:
    """Close one attachment; ``False`` if an array over it is alive
    (the views hold a buffer export, so the mapping cannot go from
    under them — the close is refused and can be repeated)."""
    try:
        shm.close()
    except BufferError:
        return False
    return True


def bind_data(meta: SharedDataset, preset: ExperimentPreset) -> PreparedData:
    """Rebind one published dataset inside a worker, zero-copy.

    Attaches to the segment (once per run of cells sharing it) and
    builds read-only ``np.ndarray`` views over the mapped buffer — no
    pixel is copied on the feature arrays, which is what makes a cell's
    marginal cost independent of dataset size. Every *other* segment
    this process had attached is dropped first, so a worker maps the
    dataset of the cell in hand and nothing else. A segment some view
    still exports (a finished cell's garbage not yet collected) refuses
    to unmap; that one close is retried at the next bind and never
    fails the cell. ``preset`` is the worker-resolved preset the
    rebound :class:`PreparedData` should carry (for scenario cells it
    is the battery-adjusted base, which never affects the array bytes).
    """
    dropped = [
        _BINDINGS.pop(name) for name in list(_BINDINGS) if name != meta.segment
    ]
    _DEFERRED[:] = [shm for shm in _DEFERRED + dropped if not _unmapped(shm)]
    shm = _BINDINGS.get(meta.segment)
    if shm is None:
        shm = shared_memory.SharedMemory(name=meta.segment)
        _BINDINGS[meta.segment] = shm
    views: dict[str, np.ndarray] = {}
    for name, shape, dtype, offset in meta.arrays:
        # frombuffer, not ndarray(buffer=...): its arrays (and every
        # view derived from them) hold the buffer export that makes
        # unmapping under a live view an error instead of a crash
        arr = np.frombuffer(
            shm.buf, dtype=np.dtype(dtype), count=math.prod(shape),
            offset=offset,
        ).reshape(shape)
        arr.flags.writeable = False  # published data is immutable
        views[name] = arr
    n_parts = sum(1 for name, *_ in meta.arrays if name.startswith("partition."))
    train_classes, test_classes, val_classes = meta.num_classes
    return PreparedData(
        preset=preset,
        seed=meta.seed,
        train=ArrayDataset(views["train.x"], views["train.y"], train_classes),
        test=ArrayDataset(views["test.x"], views["test.y"], test_classes),
        validation=ArrayDataset(
            views["validation.x"], views["validation.y"], val_classes
        ),
        partition=[views[f"partition.{i}"] for i in range(n_parts)],
    )


@dataclass
class _Worker:
    """Parent-side handle on one fork worker: its process, the parent
    end of its private duplex pipe, and the cell it holds ("" = idle)."""

    process: "mp.process.BaseProcess"
    conn: Connection
    cell_id: str = ""


def _worker_main(
    run_one: Callable[..., bool],
    conn: Connection,
    progress: bool,
    inherited: list[Connection],
    jobs: int,
) -> None:
    """Worker loop over this worker's own pipe: receive a ``(cell,
    *extra)`` task, run it, answer ``("ok", resumed)`` — or ``("err",
    traceback)`` once, and stop — until the parent closes the channel.
    With ``progress`` enabled, ``run_one`` receives a trailing
    ``report(done, total)`` callable that ships ``("progress", done,
    total)``. The channel a message arrives on names its worker and
    cell. ``inherited`` are the parent-side ends the fork copied (this
    and the sibling channels, the wake pipe): only with them closed here
    does a closed channel — or a vanished parent — read as EOF.
    ``jobs`` is the pool's size: the worker's cells train on their
    ``1/jobs`` share of the CPUs (:func:`~repro.lanes.share_cpus`).
    """
    for end in inherited:
        end.close()
    share_cpus(jobs)

    def report(done: int, total: int) -> None:
        conn.send(("progress", done, total))

    try:
        while True:
            task = conn.recv()
            try:
                resumed = run_one(*task, report) if progress else run_one(*task)
            except BaseException:
                conn.send(("err", traceback.format_exc()))
                return
            conn.send(("ok", resumed))
    except (EOFError, OSError):
        return  # retired: the parent closed this channel, or is gone


class PersistentPool:
    """Long-lived fork workers, each fed over its own duplex pipe.

    ``run_one(cell, *extra) -> resumed`` executes a single cell inside
    a worker; it is captured at construction and inherited through the
    fork, so nothing about it needs to be picklable (the ``extra``
    task elements — the shared-dataset descriptor, and for served jobs
    an inline scenario spec — do travel through the pipe and must
    pickle). Use as a context manager: ``__enter__`` forks the
    workers, ``__exit__`` closes their channels and joins them
    (terminating first if the block is leaving on an error).

    Tasks are parent-dispatched: :meth:`submit` hands a task to an idle
    worker or parks it in the parent's backlog, and a worker gets its
    next task when it reports ``ok`` — so the parent always knows which
    cell a worker holds, and a worker's death can break no channel but
    its own. Callers interleave :meth:`submit` with :meth:`next_result`
    and :meth:`close_intake` after the last task (``run_sweep``);
    ``repro serve`` also has other threads :meth:`wake` the collector,
    and :meth:`revive` workers after a failure.

    Liveness is event-driven: :meth:`next_result` is one blocking wait
    over every worker's pipe and process sentinel plus the wake pipe, so
    a worker that dies — holding a cell or idle — raises
    :class:`PoolWorkerError` (naming the cell, if any) the moment it
    dies. There is no poll period.
    """

    def __init__(
        self,
        jobs: int,
        run_one: Callable[..., bool],
        *,
        progress: bool = False,
        on_start: Callable[[str], None] | None = None,
        on_progress: Callable[[str, int, int], None] | None = None,
    ) -> None:
        if jobs <= 0:
            raise ValueError("jobs must be positive")
        if "fork" not in mp.get_all_start_methods():
            raise ValueError(
                "the persistent pool requires the fork start method "
                "(unavailable on this platform); use jobs=1 and split "
                "work across machines with shard=I/N instead"
            )
        self._ctx = mp.get_context("fork")
        self._run_one = run_one
        self._jobs = jobs
        self._progress = progress
        self._on_start = on_start
        self._on_progress = on_progress
        self._workers: list[_Worker] = []
        #: submitted tasks not yet handed to a worker; non-empty only
        #: while every worker is busy
        self._backlog: deque[tuple] = deque()
        self._intake_closed = False
        # non-blocking write end: wake() never stalls its caller, and a
        # full pipe already means a wake-up is pending
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        os.set_blocking(self._wake_w.fileno(), False)

    def __enter__(self) -> "PersistentPool":
        # fork point: everything run_one closes over is frozen into the
        # workers here, so callers must fully build the closure first
        for _ in range(self._jobs):
            self._workers.append(self._spawn_worker())
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        for worker in self._workers:
            if exc_type is not None and worker.process.is_alive():
                worker.process.terminate()
            worker.conn.close()  # all at once, so the joins overlap
        while self._workers:
            self._retire(self._workers[0])
        self._wake_r.close()
        self._wake_w.close()

    def _spawn_worker(self) -> _Worker:
        # attaching a segment registers it with the resource tracker; a
        # worker forked before the parent's tracker is up would start
        # its own, which "cleans up" — unlinks from under the parent —
        # every segment that worker attached when the worker exits
        resource_tracker.ensure_running()
        conn, child_conn = self._ctx.Pipe()
        inherited = [conn, self._wake_r, self._wake_w]
        inherited += [worker.conn for worker in self._workers]
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._run_one, child_conn, self._progress, inherited, self._jobs),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker's death must read as EOF here
        return _Worker(process, conn)

    def _retire(self, worker: _Worker) -> None:
        """Drop a worker. Closing its channel is the retirement notice:
        an idle worker sees EOF and exits, a busy one at its next send
        (only shutdown retires busy workers)."""
        self._workers.remove(worker)
        worker.conn.close()
        worker.process.join(timeout=10)
        if worker.process.is_alive():  # refused to die; don't hang
            worker.process.kill()
            worker.process.join(timeout=10)

    @property
    def outstanding(self) -> int:
        """Submitted cells not yet completed (backlogged or running)."""
        return len(self._backlog) + self.busy

    @property
    def busy(self) -> int:
        """Cells currently being executed by a worker."""
        return sum(1 for worker in self._workers if worker.cell_id)

    def wake(self) -> None:
        """Make a blocked :meth:`next_result` return ``None`` now. One
        byte on a pipe: safe from any thread and from a signal handler,
        and a no-op once the pool has shut down."""
        try:
            self._wake_w.send_bytes(b"\0")
        except OSError:
            pass

    def submit(self, task: tuple) -> None:
        """Accept one ``(cell, *extra)`` task; an idle worker gets it
        at once, otherwise it waits in the backlog."""
        if self._intake_closed:
            raise RuntimeError("pool intake is closed")
        self._backlog.append(task)
        self._dispatch()

    def close_intake(self) -> None:
        """Stop accepting tasks; retire each worker as it runs dry."""
        self._intake_closed = True
        self._dispatch()

    def _dispatch(self) -> None:
        """Hand each idle worker the oldest backlogged task or, with
        the backlog empty and intake closed, retire it."""
        for worker in [w for w in self._workers if not w.cell_id]:
            if self._backlog:
                task = self._backlog.popleft()
                try:
                    worker.conn.send(task)
                except OSError:  # killed while idle; next_result reports it
                    self._backlog.appendleft(task)
                    continue
                worker.cell_id = task[0].cell_id
                if self._on_start is not None:
                    self._on_start(worker.cell_id)
            elif self._intake_closed:
                self._retire(worker)

    def next_result(self, timeout: float | None = None) -> tuple[str, bool] | None:
        """Block until the next completed cell and return ``(cell_id,
        resumed)``; return ``None`` if :meth:`wake` was called or
        ``timeout`` seconds (default: no limit) passed first.
        ``progress`` messages are routed to the constructor callback.

        Raises :class:`PoolWorkerError` when a worker reports a cell
        failure or dies (holding a cell or idle); the failed/lost cell
        is no longer outstanding and the worker is gone, so a supervisor
        can mark the cell failed, :meth:`revive` and keep collecting.
        """
        while True:
            if self.outstanding and not self._workers:
                raise PoolWorkerError(
                    "", f"no worker left for {self.outstanding} "
                    f"outstanding cell(s); revive() the pool")
            ready = wait(
                [self._wake_r]
                + [worker.conn for worker in self._workers]
                + [worker.process.sentinel for worker in self._workers],
                timeout,
            )
            if not ready:
                return None
            worker = next(
                (w for w in self._workers
                 if w.conn in ready or w.process.sentinel in ready),
                None,
            )
            if worker is None:  # only the wake pipe fired
                while self._wake_r.poll():
                    self._wake_r.recv_bytes()
                return None
            try:
                # what a worker sent before dying is still readable when
                # its sentinel fires: messages always precede the death
                msg = worker.conn.recv() if worker.conn.poll() else None
            except (EOFError, OSError):  # exited, or was killed mid-send
                msg = None
            cell_id = worker.cell_id
            if msg is None:
                self._retire(worker)
                raise PoolWorkerError(
                    cell_id,
                    f"worker pid {worker.process.pid} died without "
                    f"reporting (exit code {worker.process.exitcode} — "
                    f"killed or crashed hard) while "
                    + (f"running cell {cell_id}" if cell_id else "idle"),
                )
            if msg[0] == "progress":
                if self._on_progress is not None:
                    self._on_progress(cell_id, msg[1], msg[2])
                continue
            worker.cell_id = ""
            if msg[0] == "err":  # the worker stops after reporting
                self._retire(worker)
                raise PoolWorkerError(cell_id, msg[1])
            self._dispatch()
            return cell_id, msg[1]

    def revive(self) -> int:
        """Replace lost workers with fresh forks, hand them backlogged
        tasks, and return how many were spawned — what the serve
        dispatcher does after a :class:`PoolWorkerError`, so one crashed
        cell does not take the daemon down. A worker found dead while
        idle is replaced too; one that died holding a cell is left for
        :meth:`next_result` to report. No-op once intake is closed."""
        for worker in list(self._workers):
            if not worker.cell_id and not worker.process.is_alive():
                self._retire(worker)
        if self._intake_closed:
            return 0
        spawned = self._jobs - len(self._workers)
        for _ in range(spawned):
            self._workers.append(self._spawn_worker())
        self._dispatch()
        return spawned
