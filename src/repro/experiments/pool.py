"""Persistent fork worker pool for sweep and serve execution.

The per-group fork pool this replaces re-paid process startup and
dataset preparation for every (preset, degree, seed) group, which made
``--jobs 4`` *slower* than serial on small cells.
:class:`PersistentPool` keeps long-lived fork workers, each handed one
cell at a time by the parent over its own pipe. Workers are forked
once per sweep, so presets, model factories, lookup closures and round
hooks never need to be picklable (the ``run_one`` closure is inherited
through the fork). A worker that raises ships the formatted traceback
back and stops; one that dies without reporting (hard crash) is seen
through its process sentinel. Either way the parent raises
:class:`PoolWorkerError` naming the cell at once.

A worker is a cell runtime: ``run_one`` prepares the cell's dataset
itself, into a one-slot cache private to the worker
(:class:`~repro.experiments.sweep.DatasetCache`), so the parent never
synthesizes, copies or holds one, and a worker holds one at a time.
What the pool knows of datasets is each task's data key: an idle
worker gets a task of the key it last ran first, then one of a key no
worker holds, then the oldest, so consecutive cells of a key share one
preparation, a key queued at once is prepared at most once per worker,
and no worker idles while tasks wait. Log lines a worker's cell emits
(the ``prep`` line) travel over the worker's pipe to the parent.

Platform constraint: the pool requires the ``fork`` start method
(Linux); on other platforms run ``jobs=1`` per shard and split work
with ``--shard`` instead.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, Hashable

from ..lanes import share_cpus

__all__ = ["PoolWorkerError", "PersistentPool"]


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


@dataclass
class _Worker:
    """Parent-side handle on one fork worker: its process, the parent
    end of its private duplex pipe, the cell it holds ("" = idle) and
    the data key of the last task it was handed — the dataset its
    private cache holds."""

    process: "mp.process.BaseProcess"
    conn: Connection
    cell_id: str = ""
    key: Hashable = None


def _worker_main(
    run_one: Callable[..., bool],
    conn: Connection,
    log: bool,
    progress: bool,
    inherited: list[Connection],
    jobs: int,
) -> None:
    """Worker loop over this worker's own pipe: receive a ``(cell,
    *extra)`` task, run it, answer ``("ok", resumed)`` — or ``("err",
    traceback)`` once, and stop — until the parent closes the channel.
    With ``log`` enabled, ``run_one`` receives a trailing ``log(line)``
    callable that ships ``("log", line)``; with ``progress``, then a
    ``report(done, total)`` that ships ``("progress", done, total)``.
    The channel a message arrives on names its worker and cell.
    ``inherited`` are the parent-side ends the fork copied (this and the
    sibling channels, the wake pipe): only with them closed here does a
    closed channel — or a vanished parent — read as EOF. ``jobs`` is
    the pool's size: the worker's cells train on their ``1/jobs`` share
    of the CPUs (:func:`~repro.lanes.share_cpus`).
    """
    for end in inherited:
        end.close()
    share_cpus(jobs)
    relays: list[Callable] = []
    if log:
        relays.append(lambda line: conn.send(("log", line)))
    if progress:
        relays.append(lambda done, total: conn.send(("progress", done, total)))
    try:
        while True:
            task = conn.recv()
            try:
                resumed = run_one(*task, *relays)
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
    task elements — for served jobs an inline scenario spec — do travel
    through the pipe and must pickle). Use as a context manager:
    ``__enter__`` forks the workers and hands them whatever was
    submitted before, ``__exit__`` closes their channels and joins them
    (terminating first if the block is leaving on an error).

    Tasks are parent-dispatched: :meth:`submit` hands a task to an idle
    worker or parks it in the parent's backlog, and a worker gets its
    next task when it reports ``ok`` — so the parent always knows which
    cell a worker holds, and a worker's death can break no channel but
    its own. Which backlogged task an idle worker gets is decided by
    the tasks' data keys (:meth:`_pick`). Callers submit, then
    :meth:`close_intake` after the last task and collect with
    :meth:`next_result` (``run_sweep`` submits its whole shard before
    the fork, so the first hand-out sees every key); ``repro serve``
    also has other threads :meth:`wake` the collector, and
    :meth:`revive` workers after a failure.

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
        on_log: Callable[[str, str], None] | None = None,
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
        self._on_log = on_log
        self._workers: list[_Worker] = []
        #: ``(key, task)`` submitted but not yet handed to a worker,
        #: oldest first; non-empty only while every worker is busy
        self._backlog: list[tuple[Hashable, tuple]] = []
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
        self._dispatch()
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
        conn, child_conn = self._ctx.Pipe()
        inherited = [conn, self._wake_r, self._wake_w]
        inherited += [worker.conn for worker in self._workers]
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._run_one, child_conn, self._on_log is not None,
                  self._progress, inherited, self._jobs),
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

    def submit(self, task: tuple, key: Hashable = None) -> None:
        """Accept one ``(cell, *extra)`` task whose cell trains on the
        dataset of data ``key``; an idle worker gets it at once,
        otherwise it waits in the backlog."""
        if self._intake_closed:
            raise RuntimeError("pool intake is closed")
        self._backlog.append((key, task))
        self._dispatch()

    def close_intake(self) -> None:
        """Stop accepting tasks; retire each worker as it runs dry."""
        self._intake_closed = True
        self._dispatch()

    def _pick(self, worker: _Worker) -> int:
        """The backlog index an idle worker takes: the oldest task of
        the key it last ran (its dataset is in hand), else the oldest of
        a key no worker holds (nobody would reuse it), else the oldest.
        So a key is prepared at most once per worker, and no worker
        idles while a task waits."""
        keys = [key for key, _ in self._backlog]
        if worker.key in keys:
            return keys.index(worker.key)
        held = {other.key for other in self._workers}
        return next((at for at, key in enumerate(keys) if key not in held), 0)

    def _dispatch(self) -> None:
        """Hand each idle worker its :meth:`_pick` or, with the backlog
        empty and intake closed, retire it."""
        for worker in [w for w in self._workers if not w.cell_id]:
            if self._backlog:
                at = self._pick(worker)
                key, task = self._backlog.pop(at)
                try:
                    worker.conn.send(task)
                except OSError:  # killed while idle; next_result reports it
                    self._backlog.insert(at, (key, task))
                    continue
                worker.cell_id, worker.key = task[0].cell_id, key
                if self._on_start is not None:
                    self._on_start(worker.cell_id)
            elif self._intake_closed:
                self._retire(worker)

    def next_result(self, timeout: float | None = None) -> tuple[str, bool] | None:
        """Block until the next completed cell and return ``(cell_id,
        resumed)``; return ``None`` if :meth:`wake` was called or
        ``timeout`` seconds (default: no limit) passed first.
        ``progress`` and ``log`` messages are routed to the constructor
        callbacks.

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
            if msg[0] == "log":
                self._on_log(cell_id, msg[1])
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
