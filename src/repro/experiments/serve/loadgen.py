"""``repro loadgen``: a seeded open-loop load generator for the serve
daemon.

Open-loop means arrivals are scheduled *before* any response comes
back — jobs land while earlier ones still run, which is the workload
class batch sweeps cannot express and the ROADMAP's live-service item
exists for. The schedule itself is pure and seeded
(:func:`build_schedule` draws every arrival offset and scenario choice
from one ``RngFactory`` stream), so the same seed and mix always
produce the identical submission sequence — the loadgen determinism
test pins exactly that. Only the *replay* of the schedule touches real
clocks.

Three arrival processes:

* ``"poisson"`` — exponential inter-arrivals at ``rate`` jobs/second;
* ``"trace"`` — offsets replayed from a trace file (a JSON list of
  ``{"offset_s": float, "scenario"?: name}`` entries; entries without
  a scenario draw from the weighted mix);
* ``"closed"`` — no arrival process at all: submit, wait for the job
  to finish, submit the next (the benchmark's jobs/sec mode).

Each submitted job gets its own disjoint seed block (``seed_base +
index·seeds_per_job …``), so no two jobs ever race to write one cell
artifact. The report (``repro/loadgen-report/v1``) records the
schedule, per-job latency decomposition — submit round-trip, queue
wait and run time from the server's own timestamps, end-to-end wall
time from the client's — and summary percentiles.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...simulation.rng import RngFactory

__all__ = [
    "LOADGEN_SCHEMA",
    "ArrivalEvent",
    "build_schedule",
    "parse_mix",
    "run_loadgen",
]

LOADGEN_SCHEMA = "repro/loadgen-report/v1"

ARRIVAL_PROCESSES = ("poisson", "trace", "closed")


@dataclass(frozen=True)
class ArrivalEvent:
    """One scheduled submission: seconds after start, scenario name."""

    offset_s: float
    scenario: str


def parse_mix(pairs: list[str]) -> list[tuple[str, float]]:
    """Parse ``name=weight`` strings (weight defaults to 1) into a
    weighted scenario mix."""
    if not pairs:
        raise ValueError("the mix needs at least one scenario")
    mix = []
    for pair in pairs:
        name, sep, weight = pair.partition("=")
        if not name:
            raise ValueError(f"bad mix entry {pair!r}")
        value = float(weight) if sep else 1.0
        if value <= 0:
            raise ValueError(f"mix weight for {name!r} must be positive")
        mix.append((name, value))
    return mix


def build_schedule(
    mix: list[tuple[str, float]],
    *,
    process: str = "poisson",
    rate: float = 1.0,
    n_jobs: int = 8,
    seed: int = 0,
    trace: list[dict] | None = None,
) -> list[ArrivalEvent]:
    """The deterministic arrival schedule — every random draw comes
    from ``RngFactory(seed).stream("loadgen")``, so (seed, mix,
    process, rate, n_jobs, trace) fully determine the output."""
    if process not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"process must be one of {ARRIVAL_PROCESSES}, got {process!r}"
        )
    if not mix:
        raise ValueError("the mix needs at least one scenario")
    names = [name for name, _ in mix]
    weights = np.asarray([weight for _, weight in mix], dtype=float)
    probabilities = weights / weights.sum()
    rng = RngFactory(seed).stream("loadgen")

    def draw_name() -> str:
        return names[int(rng.choice(len(names), p=probabilities))]

    if process == "trace":
        if trace is None:
            raise ValueError('process "trace" needs a trace')
        events = []
        last = 0.0
        for i, entry in enumerate(trace):
            if not isinstance(entry, dict) or "offset_s" not in entry:
                raise ValueError(
                    f'trace entry {i} must be an object with "offset_s"'
                )
            offset = float(entry["offset_s"])
            if offset < last:
                raise ValueError(
                    f"trace offsets must be non-decreasing (entry {i})"
                )
            last = offset
            name = entry.get("scenario") or draw_name()
            if name not in names:
                raise ValueError(
                    f"trace entry {i} names scenario {name!r} outside "
                    f"the mix {names}"
                )
            events.append(ArrivalEvent(offset_s=offset, scenario=name))
        return events
    if process == "closed":
        return [
            ArrivalEvent(offset_s=0.0, scenario=draw_name())
            for _ in range(n_jobs)
        ]
    if rate <= 0:
        raise ValueError("poisson rate must be positive")
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n_jobs))
    return [
        ArrivalEvent(offset_s=float(offset), scenario=draw_name())
        for offset in offsets
    ]


def _now() -> float:
    """Client-side clock for replaying arrival offsets and measuring
    latency; concentrated here so the determinism linter sees exactly
    one sanctioned wallclock read in this module."""
    return time.monotonic()  # repro: allow[det-wallclock] -- replaying arrival offsets and measuring client-side latency requires a real clock; no engine state derives from it


class _Client:
    """The load generator's one kept-alive connection to the daemon: no
    TCP handshake (nor a fresh server thread) per status poll."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urllib.parse.urlsplit(url)
        self._prefix = parts.path.rstrip("/")
        self._conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=timeout
        )

    def close(self) -> None:
        self._conn.close()

    def request(self, path: str, payload: dict | None = None):
        """One JSON request/response round trip (``POST`` when there is
        a payload); returns (status, body)."""
        data = json.dumps(payload).encode() if payload is not None else None
        self._conn.request(
            "POST" if data is not None else "GET",
            self._prefix + path,
            body=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        response = self._conn.getresponse()
        return response.status, json.loads(response.read() or b"null")


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _summary(jobs: list[dict], wall_s: float) -> dict:
    completed = [job for job in jobs if job["state"] == "done"]
    total = [job["total_s"] for job in completed]
    queue = [job["queue_wait_s"] for job in completed]
    return {
        "jobs_submitted": len(jobs),
        "jobs_completed": len(completed),
        "jobs_failed": sum(1 for job in jobs if job["state"] == "failed"),
        "wall_s": wall_s,
        "throughput_jobs_per_s": len(completed) / wall_s if wall_s > 0 else 0.0,
        "total_s_p50": _percentile(total, 50),
        "total_s_p95": _percentile(total, 95),
        "queue_wait_s_p50": _percentile(queue, 50),
        "queue_wait_s_p95": _percentile(queue, 95),
    }


def run_loadgen(
    url: str,
    schedule: list[ArrivalEvent],
    *,
    seeds_per_job: int = 1,
    seed_base: int = 0,
    rounds: int | None = None,
    process: str = "poisson",
    timeout_s: float = 600.0,
    poll_interval_s: float = 0.02,
    log: Callable[[str], None] | None = None,
) -> dict:
    """Replay ``schedule`` against a running serve daemon and return
    the ``repro/loadgen-report/v1`` report body.

    Open-loop processes sleep to each arrival offset and submit
    regardless of outstanding jobs; ``process="closed"`` ignores
    offsets and waits for each job before submitting the next. Every
    job ``i`` runs seeds ``seed_base + i·seeds_per_job`` onward, which
    keeps all submitted cells distinct.
    """
    say = log if log is not None else (lambda msg: None)
    clock = _now
    client = _Client(url)
    jobs: list[dict] = []
    start = clock()

    def submit(index: int, event: ArrivalEvent) -> dict:
        seeds = [
            seed_base + index * seeds_per_job + k
            for k in range(seeds_per_job)
        ]
        body: dict = {"scenario": event.scenario, "seeds": seeds}
        if rounds is not None:
            body["rounds"] = rounds
        sent = clock()
        status, response = client.request("/jobs", body)
        record = {
            "index": index,
            "scenario": event.scenario,
            "seeds": seeds,
            "scheduled_offset_s": event.offset_s,
            "submitted_offset_s": sent - start,
            "submit_latency_s": clock() - sent,
            "http_status": status,
            "job_id": response.get("job_id") if status == 202 else None,
            "state": "submitted" if status == 202 else "rejected",
            "error": None if status == 202 else response.get("error"),
        }
        if status == 202:
            say(f"submitted {record['job_id']} ({event.scenario})")
        else:
            say(f"rejected ({status}): {record['error']}")
        return record

    def await_done(record: dict) -> None:
        if record["job_id"] is None:
            return
        deadline = clock() + timeout_s
        while True:
            status, body = client.request(f"/jobs/{record['job_id']}")
            if status == 200 and body["state"] in ("done", "failed"):
                record["state"] = body["state"]
                record["error"] = body.get("error") or None
                record["energy_wh"] = body.get("energy_wh", 0.0)
                submitted = body.get("submitted_at")
                started = body.get("started_at")
                finished = body.get("finished_at")
                record["queue_wait_s"] = (
                    started - submitted
                    if started is not None and submitted is not None
                    else 0.0
                )
                record["run_s"] = (
                    finished - started
                    if finished is not None and started is not None
                    else 0.0
                )
                record["total_s"] = clock() - start - record["submitted_offset_s"]
                return
            if clock() > deadline:
                record["state"] = "timeout"
                record["error"] = f"no completion within {timeout_s}s"
                return
            time.sleep(poll_interval_s)

    try:
        for index, event in enumerate(schedule):
            if process != "closed":
                delay = event.offset_s - (clock() - start)
                if delay > 0:
                    time.sleep(delay)
            record = submit(index, event)
            jobs.append(record)
            if process == "closed":
                await_done(record)
        for record in jobs:
            if record["state"] == "submitted":
                await_done(record)
    finally:
        client.close()
    wall_s = clock() - start
    report = {
        "schema": LOADGEN_SCHEMA,
        "config": {
            "url": url,
            "process": process,
            "seeds_per_job": seeds_per_job,
            "seed_base": seed_base,
            "rounds": rounds,
        },
        "schedule": [
            {"offset_s": event.offset_s, "scenario": event.scenario}
            for event in schedule
        ],
        "jobs": jobs,
        "summary": _summary(jobs, wall_s),
    }
    say(
        f"{report['summary']['jobs_completed']}/{len(jobs)} jobs done in "
        f"{wall_s:.2f}s"
    )
    return report
