"""``repro serve``: the live scenario-serving daemon.

One :class:`ScenarioServer` owns four moving parts:

* a :class:`~http.server.ThreadingHTTPServer` front end (``POST
  /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/result``, ``GET
  /metrics``, ``GET /healthz``) whose handler threads only touch the
  thread-safe :class:`~.jobs.JobStore` and
  :class:`~.metrics.MetricsRegistry`;
* the :class:`~.jobs.JobStore` FIFO, bounded in cells (full → 429);
* a single *dispatcher* thread that claims queued jobs, feeds each
  cell with its data key
  (:func:`~repro.experiments.sweep.cell_data_coords`) to the
  :class:`~repro.experiments.pool.PersistentPool`, and folds
  start/progress/log/completion events back into the store, the
  metrics and the log. It never prepares or holds a dataset. It blocks
  in ``pool.next_result()`` with no poll period; every state change it
  must react to (a submission, the start of a drain, release of the
  ``pause_dispatch`` hook, ``close``) wakes it through
  ``pool.wake()``;
* the pool itself, forked once at :meth:`ScenarioServer.start` — so
  everything ``run_one`` closes over is frozen then, and inline
  scenario specs (which arrive *after* the fork) travel to workers
  with each task instead. Each worker prepares its cells' datasets
  into its own :class:`~repro.experiments.sweep.DatasetCache`, which
  holds one: the latest cell's, dropped before the next key is
  prepared. The pool hands a cell to the worker that last ran its key
  first, so consecutive cells of one seed share one ``prepare_data``;
  a seed that comes back after another one is prepared again.

A served cell runs :func:`~repro.experiments.sweep.run_cell_from_data`
— the very function ``repro sweep``'s workers (and its ``--jobs 1``
loop) run — which is what makes a served artifact byte-identical to
its ``repro sweep`` twin. The daemon adds only what is its own: the
inline-spec lookup and the progress throttle.

Graceful drain: SIGTERM/SIGINT (or :meth:`ScenarioServer.begin_drain`)
flips the daemon into draining — new submissions get 503, every
accepted job runs to completion, then the pool and HTTP server shut
down and :meth:`serve_forever` returns 0.

Real time is load-bearing here (arrival timestamps, queueing latency,
rate denominators), unlike in the engine packages — the ``det-
wallclock`` suppressions below each mark one such site. Nothing a
worker computes ever depends on them.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..artifacts import artifact_path, load_cell_artifact
from ..pool import PersistentPool, PoolWorkerError
from ..presets import get_preset
from ..sweep import (
    DatasetCache,
    cell_data_coords,
    cell_dataset,
    resolve_auto_jobs,
    run_cell_from_data,
)
from .jobs import CellInFlightError, QueueFullError
from .jobs import Job, JobStore, parse_job_request
from .metrics import MetricsRegistry

__all__ = ["DrainingError", "ServeConfig", "ScenarioServer"]


#: largest ``POST /jobs`` body read (413 past it); specs are a few KiB
MAX_BODY_BYTES = 1 << 20


class DrainingError(RuntimeError):
    """The daemon is draining and accepts no new jobs (HTTP 503)."""


class _PauseHook(threading.Event):
    """``pause_dispatch``: while set the dispatcher claims no queued
    jobs; ``clear()`` also wakes it, since it no longer polls."""

    def __init__(self, on_release: Callable[[], None]) -> None:
        super().__init__()
        self._on_release = on_release

    def clear(self) -> None:
        super().clear()
        self._on_release()


def _wall_now() -> float:
    """Unix-time lifecycle stamps (submitted/started/finished), echoed
    back to clients so the load generator can decompose latency into
    queue wait and run time. The single sanctioned wall-clock read of
    the daemon: simulation state never derives from it."""
    return time.time()  # repro: allow[det-wallclock] -- job arrival/queueing timestamps genuinely need real time; no engine state derives from them


def _mono_now() -> float:
    """Monotonic clock for the uptime/rate gauges' denominator."""
    return time.monotonic()  # repro: allow[det-wallclock] -- scrape-time rate gauges need a real elapsed-time denominator; no engine state derives from it


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a daemon."""

    results_dir: str = "serve-results"
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); the bound port is on
    #: :attr:`ScenarioServer.port` either way.
    port: int = 8765
    #: worker count; ``"auto"`` resolves like ``repro sweep --jobs auto``
    jobs: int | str = "auto"
    #: backlog bound in *cells* (not jobs) — exceeding it rejects the
    #: submission with 429
    queue_limit: int = 256
    checkpoint_every: int = 0
    #: ~how many progress reports each cell ships (rounds/sec meter
    #: resolution); the worker throttles to total/updates
    progress_updates: int = 32
    log: Callable[[str], None] | None = None


class _ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    app: "ScenarioServer"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY plus a buffered wfile (flushed once per request by
    # handle_one_request): headers and body leave as one segment, where
    # two unbuffered writes stall ~40 ms on Nagle x delayed ACK
    disable_nagle_algorithm = True
    wbufsize = 1 << 16

    @property
    def app(self) -> "ScenarioServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        self.app._say(f"http: {format % args}")

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_text(code, json.dumps(payload), "application/json")

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        app = self.app
        if self.path == "/metrics":
            self._send_text(
                200, app.metrics.render(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if self.path == "/healthz":
            status = "draining" if app.draining else "ok"
            self._send_json(200, {"status": status})
            return
        if self.path.startswith("/jobs/"):
            parts = self.path.removeprefix("/jobs/").split("/")
            job = app.store.get(parts[0])
            if job is None:
                self._send_json(404, {"error": f"unknown job {parts[0]!r}"})
                return
            if parts[1:] == []:
                self._send_json(200, job.to_json())
                return
            if parts[1:] == ["result"]:
                if job.state == "done":
                    self._send_json(200, app.job_result(job))
                elif job.state == "failed":
                    self._send_json(200, {
                        "job_id": job.job_id, "state": "failed",
                        "error": job.error})
                else:
                    self._send_json(202, job.to_json())
                return
        self._send_json(404, {"error": f"no route for {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/jobs":
            self._send_json(404, {"error": f"no route for {self.path!r}"})
            return
        length = self.headers.get("Content-Length", "")
        if not length.isdigit() or int(length) > MAX_BODY_BYTES:
            # the body stays unread, so the connection cannot be reused
            self.close_connection = True
            if length.isdigit():
                self._send_json(413, {"error": "body too large"})
            else:
                self._send_json(400, {"error": "bad Content-Length"})
            return
        try:
            obj = json.loads(self.rfile.read(int(length)) or b"null")
        except ValueError:
            self._send_json(400, {"error": "body must be valid JSON"})
            return
        try:
            accepted = self.app.submit_job(obj)
        except DrainingError as exc:
            self._send_json(503, {"error": str(exc)})
        except QueueFullError as exc:
            self._send_json(429, {"error": str(exc)})
        except CellInFlightError as exc:
            self._send_json(409, {"error": str(exc)})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
        else:
            self._send_json(202, accepted)


class ScenarioServer:
    """The serve daemon. ``start()`` forks the pool and begins
    accepting jobs; ``begin_drain()`` + ``wait()`` + ``close()`` (or
    :meth:`serve_forever`, which wires those to SIGTERM) tear it down.

    ``preset_lookup``/``scenario_lookup`` default to the global
    registries; tests inject tiny presets and private scenario zoos
    through them, exactly like ``run_sweep``.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        preset_lookup: Callable | None = None,
        scenario_lookup: Callable | None = None,
    ) -> None:
        from ...scenarios.registry import get_scenario

        self.config = config
        self._preset_lookup = preset_lookup or get_preset
        self._scenario_lookup = scenario_lookup or get_scenario
        if config.jobs == "auto":
            self.jobs, self.jobs_source = resolve_auto_jobs()
        else:
            self.jobs, self.jobs_source = int(config.jobs), "explicit"
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        self.store = JobStore(config.queue_limit)
        self.metrics = MetricsRegistry()
        self._draining = threading.Event()
        self._started = False
        self._closed = False
        self._dispatcher_error: BaseException | None = None
        self._httpd: _ServeHTTPServer | None = None
        #: built here, forked at :meth:`start`
        self._pool = PersistentPool(
            self.jobs,
            self._run_one,
            progress=True,
            on_start=lambda cell_id: self.store.cell_started(
                cell_id, _wall_now()),
            on_progress=self._on_cell_progress,
            on_log=lambda cell_id, line: self._say(line),
        )
        #: filled only inside the workers, each in its own copy
        self._datasets = DatasetCache()
        #: test hook — while set, the dispatcher claims no new queued
        #: jobs (completions still flow), making 429 tests deterministic
        self.pause_dispatch = _PauseHook(self._pool.wake)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        #: last progress count seen per in-flight cell, evicted on
        #: completion — the delta source for the rounds/events counters
        self._progress_seen: dict[str, int] = {}
        self._start_clock = 0.0
        self._wire_metrics()

    # -- metrics ----------------------------------------------------------

    def _wire_metrics(self) -> None:
        m = self.metrics
        self.m_jobs_accepted = m.counter(
            "repro_serve_jobs_accepted_total", "Jobs admitted to the queue")
        self.m_jobs_rejected = m.counter(
            "repro_serve_jobs_rejected_total",
            "Jobs rejected (bounded queue full)")
        self.m_jobs_completed = m.counter(
            "repro_serve_jobs_completed_total", "Jobs finished successfully")
        self.m_jobs_failed = m.counter(
            "repro_serve_jobs_failed_total", "Jobs finished with a failure")
        self.m_cells_completed = m.counter(
            "repro_serve_cells_completed_total", "Plan cells completed")
        self.m_cells_failed = m.counter(
            "repro_serve_cells_failed_total", "Plan cells failed")
        self.m_rounds = m.counter(
            "repro_serve_rounds_total",
            "Synchronous training rounds executed across all cells")
        self.m_events = m.counter(
            "repro_serve_events_total",
            "Asynchronous gossip events executed across all cells")
        self.m_energy = m.counter(
            "repro_serve_energy_wh_total",
            "Simulated energy spent by completed cells (train + comm, Wh)")
        m.gauge(
            "repro_serve_queue_depth",
            "Cells accepted but not yet running",
            fn=self._queue_depth)
        m.gauge(
            "repro_serve_busy_workers",
            "Pool workers currently executing a cell",
            fn=lambda: self._pool.busy)
        m.gauge(
            "repro_serve_workers",
            "Configured pool worker count",
            fn=lambda: self.jobs)
        m.gauge(
            "repro_serve_draining",
            "1 while the daemon drains toward shutdown",
            fn=lambda: float(self._draining.is_set()))
        m.gauge(
            "repro_serve_uptime_seconds", "Seconds since start()",
            fn=self._uptime)
        m.gauge(
            "repro_serve_cells_per_second",
            "Completed cells per second of uptime",
            fn=lambda: self._rate(self.m_cells_completed.value))
        m.gauge(
            "repro_serve_rounds_per_second",
            "Synchronous rounds per second of uptime",
            fn=lambda: self._rate(self.m_rounds.value))
        m.gauge(
            "repro_serve_events_per_second",
            "Asynchronous events per second of uptime",
            fn=lambda: self._rate(self.m_events.value))
        self.m_job_energy = m.gauge_family(
            "repro_serve_job_energy_wh",
            "Simulated energy spent per completed job (Wh)",
            label="job_id")

    def _uptime(self) -> float:
        return _mono_now() - self._start_clock if self._started else 0.0

    def _rate(self, total: float) -> float:
        uptime = self._uptime()
        return total / uptime if uptime > 0 else 0.0

    def _queue_depth(self) -> float:
        backlog = max(0, self._pool.outstanding - self._pool.busy)
        return float(self.store.queued_cells() + backlog)

    # -- lifecycle --------------------------------------------------------

    def _say(self, msg: str) -> None:
        if self.config.log is not None:
            self.config.log(msg)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ScenarioServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._start_clock = _mono_now()
        self._pool.__enter__()
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.app = self
        threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True
        ).start()
        self._dispatcher.start()
        return self

    def begin_drain(self) -> None:
        """Refuse new jobs and let the dispatcher finish accepted
        ones; :meth:`wait` returns once everything has drained. Safe
        from a signal handler: a flag and one byte on the wake pipe."""
        if not self._draining.is_set():
            self._say("draining: finishing accepted jobs")
            self._draining.set()
            self._pool.wake()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the dispatcher exits (drain complete); returns
        whether it did. Re-raises a dispatcher crash."""
        if self._started:
            self._dispatcher.join(timeout)
            if self._dispatcher.is_alive():
                return False
        if self._dispatcher_error is not None:
            raise self._dispatcher_error
        return True

    def close(self) -> None:
        """Tear everything down (idempotent). Call after
        :meth:`begin_drain` + :meth:`wait` for a graceful exit; calling
        it cold just shuts down hard."""
        if self._closed:
            return
        self._closed = True
        self._draining.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
        # the dispatcher owns the pool: have it leave (drained or not)
        # before the pool's channels close under it
        self._pool.wake()
        if self._started:
            self._dispatcher.join(timeout=10)
        self._pool.__exit__(None, None, None)

    def serve_forever(self) -> int:
        """The CLI entry: install SIGTERM/SIGINT drain handlers, block
        until drained, tear down, return a process exit code."""
        import signal

        def handle(signum, frame):
            self.begin_drain()

        previous = {
            sig: signal.signal(sig, handle)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            self.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.close()
        return 0

    # -- submission (HTTP threads) ---------------------------------------

    def submit_job(self, obj: object) -> dict:
        """Admit one job; returns its status document as admitted."""
        if self._draining.is_set():
            raise DrainingError("server is draining; not accepting jobs")
        try:
            cells, inline_spec, normalized = parse_job_request(
                obj,
                scenario_lookup=self._scenario_lookup,
                preset_lookup=self._preset_lookup,
                known_scenarios=self.store.inline_specs,
            )
            now = _wall_now()
            job = self.store.submit(cells, normalized, inline_spec, now)
        except QueueFullError:
            self.m_jobs_rejected.inc()
            raise
        self.m_jobs_accepted.inc()
        self._say(f"accepted {job.job_id}: {len(job.cells)} cell(s)")
        accepted = job.to_json()  # before the dispatcher can start it
        self._pool.wake()
        return accepted

    def job_result(self, job: Job) -> dict:
        """The completed job's artifact summary (``GET .../result``)."""
        artifacts = []
        for served in job.cells:
            path = artifact_path(self.config.results_dir, served.cell)
            artifact = load_cell_artifact(path)
            artifacts.append({
                "cell_id": served.cell.cell_id,
                "artifact": str(path),
                "schema": artifact["schema"],
                "resumed": served.resumed,
                "results": artifact["results"],
            })
        return {
            "job_id": job.job_id,
            "state": job.state,
            "energy_wh": job.energy_wh,
            "cells": artifacts,
        }

    # -- worker side ------------------------------------------------------

    def _run_one(self, cell, spec, log, report) -> bool:
        """Executes inside a forked pool worker. ``spec`` is the job's
        inline scenario spec (or ``None`` for registered scenarios and
        plain cells); everything else resolves through the closures
        frozen at the fork. ``log`` relays the ``prep`` line of a
        dataset this worker prepares to the daemon's log."""
        lookup = self._scenario_lookup
        if spec is not None:

            def lookup(name):
                return spec if name == spec.name else self._scenario_lookup(name)

        n_nodes = self._preset_lookup(cell.preset).n_nodes
        total = cell.total_rounds * cell.units_per_round(n_nodes)
        step = max(1, total // max(1, self.config.progress_updates))

        def progress(done: int, total_units: int) -> None:
            if done % step == 0 or done >= total_units:
                report(done, total_units)

        lookups = dict(preset_lookup=self._preset_lookup, scenario_lookup=lookup)
        return run_cell_from_data(
            cell,
            cell_dataset(cell, self._datasets, log=log, **lookups),
            self.config.results_dir,
            **lookups,
            checkpoint_every=self.config.checkpoint_every,
            progress=progress,
        )

    # -- dispatcher thread ------------------------------------------------

    def _scenario_for(self, name: str):
        return self.store.inline_specs.get(name) or self._scenario_lookup(name)

    def _cell_energy(self, cell) -> float:
        artifact = load_cell_artifact(
            artifact_path(self.config.results_dir, cell)
        )
        results = artifact["results"]
        return float(results["total_train_wh"]) + float(
            results["total_comm_wh"]
        )

    def _on_cell_progress(self, cell_id: str, done: int, total: int) -> None:
        seen = self._progress_seen.get(cell_id, 0)
        if done > seen:
            self._progress_seen[cell_id] = done
            found = self.store.cell_for(cell_id)
            if found is not None:
                self._count_units(found[1], done - seen)
        self.store.cell_progress(cell_id, done, total)

    def _count_units(self, served, delta: int) -> None:
        if served.cell.kind == "async":
            self.m_events.inc(delta)
        else:
            self.m_rounds.inc(delta)

    def _submit_job(self, job: Job) -> None:
        """Enqueue the job's cells with their data keys (skipping cells
        whose artifact already exists — served resubmissions are
        idempotent, like ``repro sweep`` reruns)."""
        now = _wall_now()
        for served in job.cells:
            cell = served.cell
            if artifact_path(self.config.results_dir, cell).is_file():
                self.store.cell_started(cell.cell_id, now)
                self.store.cell_done(
                    cell.cell_id, False, self._cell_energy(cell), now
                )
                self._finish_bookkeeping(job, cell_completed=False)
                self._say(f"skip {cell.cell_id} (artifact exists)")
                continue
            key = cell_data_coords(
                cell, preset_lookup=self._preset_lookup,
                scenario_lookup=self._scenario_for,
            )[0]
            n_nodes = self._preset_lookup(cell.preset).n_nodes
            served.total_units = cell.total_rounds * cell.units_per_round(n_nodes)
            self._pool.submit((cell, job.inline_spec), key)

    def _finish_bookkeeping(self, job: Job, *, cell_completed: bool) -> None:
        """Roll job/cell completion into the counters (store already
        updated)."""
        if cell_completed:
            self.m_cells_completed.inc()
        if job.unfinished_cells:
            return
        if job.state == "done":
            self.m_jobs_completed.inc()
            self.m_job_energy.set(job.job_id, job.energy_wh)
            self._say(f"finished {job.job_id} ({job.energy_wh:.3f} Wh)")
        elif job.state == "failed":
            self.m_jobs_failed.inc()
            self._say(f"failed {job.job_id}: {job.error.splitlines()[-1] if job.error else ''}")

    def _handle_completion(self, cell_id: str, resumed: bool) -> None:
        seen = self._progress_seen.pop(cell_id, 0)
        now = _wall_now()
        found = self.store.cell_for(cell_id)
        if found is None:
            return
        job, served = found
        # credit the units the throttled progress stream never
        # reported, so the counters reach total_units exactly
        if served.total_units > seen:
            self._count_units(served, served.total_units - seen)
        try:
            energy = self._cell_energy(served.cell)
        except (FileNotFoundError, KeyError, ValueError):
            energy = 0.0
        self.m_energy.inc(energy)
        self.store.cell_done(cell_id, resumed, energy, now)
        self._finish_bookkeeping(job, cell_completed=True)

    def _handle_worker_error(self, exc: PoolWorkerError) -> None:
        now = _wall_now()
        self._say(f"worker failure: {exc.cell_id or '<unattributed>'}")
        if exc.cell_id:
            self._progress_seen.pop(exc.cell_id, None)
            self.m_cells_failed.inc()
            result = self.store.cell_failed(
                exc.cell_id, exc.worker_traceback, now
            )
            if result is not None:
                self._finish_bookkeeping(result[0], cell_completed=False)
        revived = self._pool.revive()
        if revived:
            self._say(f"revived {revived} worker(s)")

    def _dispatch_loop(self) -> None:
        try:
            while True:
                while not self.pause_dispatch.is_set() and (
                    job := self.store.next_queued()
                ):
                    try:
                        self._submit_job(job)
                    except BaseException:
                        tb = traceback.format_exc()
                        now = _wall_now()
                        for served in job.cells:
                            if served.state == "pending":
                                self.store.cell_failed(
                                    served.cell.cell_id, tb, now
                                )
                        self._finish_bookkeeping(job, cell_completed=False)
                        self._say(f"failed to dispatch {job.job_id}")
                if self._closed or (
                    self._draining.is_set()
                    and self._pool.outstanding == 0
                    and self.store.all_done()
                ):
                    return
                try:
                    result = self._pool.next_result()
                except PoolWorkerError as exc:
                    self._handle_worker_error(exc)
                    continue
                if result is not None:
                    self._handle_completion(*result)
        except BaseException as exc:
            self._dispatcher_error = exc
            self._draining.set()
            raise
