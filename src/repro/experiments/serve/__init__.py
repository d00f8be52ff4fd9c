"""Live scenario serving: the ``repro serve`` daemon and its load
generator.

Batch sweeps (:func:`repro.experiments.run_sweep`) execute a plan that
is fully known up front. This package adds the open-loop arrival
workload class the ROADMAP's live-service item calls for: jobs —
scenario specs plus seeds — arrive over HTTP *while* earlier jobs are
still running, multiplex onto the same :class:`~repro.experiments.pool.
PersistentPool`, and write the exact same per-cell artifacts through
the same :func:`~repro.experiments.sweep.run_cell` path, so a served
cell is byte-identical to its batch twin.

Layout (everything stdlib + the already-present numpy stack; no new
dependencies):

* :mod:`.metrics` — a minimal thread-safe Prometheus text-format
  registry (counters, gauges, one bounded label family).
* :mod:`.jobs` — job parsing, the :class:`~.jobs.JobStore` FIFO with a
  bounded backlog, and per-cell progress bookkeeping.
* :mod:`.server` — :class:`~.server.ScenarioServer`: the
  ThreadingHTTPServer front end, the dispatcher thread that feeds the
  pool, and graceful SIGTERM drain.
* :mod:`.loadgen` — the seeded open-loop load generator
  (Poisson/trace/closed arrival processes over a weighted scenario
  mix) and its ``repro/loadgen-report/v1`` report.
"""

from .jobs import (
    CellInFlightError,
    Job,
    JobStore,
    QueueFullError,
    parse_job_request,
)
from .loadgen import LOADGEN_SCHEMA, build_schedule, parse_mix, run_loadgen
from .metrics import MetricsRegistry
from .server import ServeConfig, ScenarioServer

__all__ = [
    "CellInFlightError",
    "Job",
    "JobStore",
    "LOADGEN_SCHEMA",
    "MetricsRegistry",
    "QueueFullError",
    "ScenarioServer",
    "ServeConfig",
    "build_schedule",
    "parse_job_request",
    "parse_mix",
    "run_loadgen",
]
