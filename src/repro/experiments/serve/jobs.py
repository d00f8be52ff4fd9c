"""Job parsing and the bounded FIFO job store of the serve daemon.

A *job* is what one ``POST /jobs`` submits: a scenario (by registry
name or as an inline ``ScenarioSpec`` document) or a plain preset
coordinate, expanded over its seeds into the same deterministic
:class:`~repro.experiments.artifacts.PlanCell` list a batch sweep
would build — which is the whole byte-identity story: from here on a
served cell and its batch twin are literally the same plan cell.

The :class:`JobStore` is the single synchronization point between the
HTTP threads (submit, status reads) and the dispatcher thread (claim
queued jobs, record per-cell lifecycle). Backlog is bounded in
*cells*, not jobs, so one giant job cannot sneak under a job-count
limit; past the bound, submissions fail with :class:`QueueFullError`
(HTTP 429).

All timestamps stored here are plain ``time.time()`` floats supplied
by the callers — the store itself never reads a clock, which keeps it
trivially testable.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from ...scenarios.compile import build_scenario_plan
from ...scenarios.spec import ScenarioSpec
from ..artifacts import PlanCell, build_plan

__all__ = [
    "CellInFlightError",
    "Job",
    "JobStore",
    "QueueFullError",
    "ServedCell",
    "parse_job_request",
]


class QueueFullError(RuntimeError):
    """The store's cell backlog bound would be exceeded."""


class CellInFlightError(ValueError):
    """A submitted cell is still in flight under another job (HTTP 409
    — two jobs would race to write the same artifact)."""


@dataclass
class ServedCell:
    """One plan cell inside a job, with its serving lifecycle."""

    cell: PlanCell
    state: str = "pending"  # pending | running | done | failed
    resumed: bool = False
    done_units: int = 0
    total_units: int = 0
    error: str = ""

    def to_json(self) -> dict:
        return {
            "cell_id": self.cell.cell_id,
            "state": self.state,
            "resumed": self.resumed,
            "done_units": self.done_units,
            "total_units": self.total_units,
            "error": self.error,
        }


@dataclass
class Job:
    """One submitted job: a cell list plus lifecycle bookkeeping.

    ``request`` is the normalized submission echo; ``inline_spec``
    carries a spec submitted inline (one the scenario registry does not
    know), which the dispatcher ships to workers alongside each cell.
    """

    job_id: str
    request: dict
    cells: list[ServedCell]
    inline_spec: ScenarioSpec | None = None
    state: str = "queued"  # queued | running | done | failed
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    error: str = ""
    #: summed from cell artifacts as they complete
    energy_wh: float = 0.0

    @property
    def cell_ids(self) -> list[str]:
        return [served.cell.cell_id for served in self.cells]

    @property
    def unfinished_cells(self) -> int:
        return sum(
            1 for served in self.cells
            if served.state not in ("done", "failed")
        )

    def to_json(self) -> dict:
        done = sum(1 for served in self.cells if served.state == "done")
        return {
            "job_id": self.job_id,
            "state": self.state,
            "request": self.request,
            "cells_total": len(self.cells),
            "cells_done": done,
            "cells": [served.to_json() for served in self.cells],
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "energy_wh": self.energy_wh,
            "error": self.error,
        }


_REQUEST_KEYS = frozenset(
    {"scenario", "spec", "preset", "algorithm", "degree", "seeds", "rounds"}
)


def _parse_seeds(obj: dict) -> tuple[int, ...]:
    seeds = obj.get("seeds")
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
    ):
        raise ValueError('"seeds" must be a non-empty list of integers')
    if len(set(seeds)) != len(seeds):
        raise ValueError('"seeds" must not repeat')
    return tuple(seeds)


def _parse_rounds(obj: dict) -> int | None:
    rounds = obj.get("rounds")
    if rounds is None:
        return None
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds <= 0:
        raise ValueError('"rounds" must be a positive integer')
    return rounds


def parse_job_request(
    obj: object,
    *,
    scenario_lookup,
    preset_lookup,
    known_scenarios,
) -> tuple[tuple[PlanCell, ...], ScenarioSpec | None, dict]:
    """Validate one ``POST /jobs`` body into ``(cells, inline_spec,
    normalized_request)``; raises ``ValueError`` with a client-facing
    message on any malformed input (HTTP 400).

    Three request shapes:

    * ``{"scenario": name, "seeds": [...], "rounds"?: N}`` — a
      registered scenario (every preset is auto-registered as one).
    * ``{"spec": {...}, "seeds": [...], "rounds"?: N}`` — an inline
      ``ScenarioSpec`` document. Its name must not shadow a registered
      scenario (the artifact's ``cell.scenario`` field would become
      ambiguous between two different specs).
    * ``{"preset": name, "algorithm": name, "degree"?: d, "seeds":
      [...], "rounds"?: N}`` — a plain preset cell, exactly the batch
      ``repro sweep`` coordinate; the algorithm decides its engine.
    """
    if not isinstance(obj, dict):
        raise ValueError("job request must be a JSON object")
    unknown = set(obj) - _REQUEST_KEYS
    if unknown:
        raise ValueError(f"unknown job request keys: {sorted(unknown)}")
    modes = [key for key in ("scenario", "spec", "preset") if key in obj]
    if len(modes) != 1:
        raise ValueError(
            'job request must carry exactly one of "scenario", "spec" '
            'or "preset"'
        )
    seeds = _parse_seeds(obj)
    rounds = _parse_rounds(obj)
    mode = modes[0]

    if mode == "scenario":
        name = obj["scenario"]
        if not isinstance(name, str):
            raise ValueError('"scenario" must be a string')
        try:
            spec = scenario_lookup(name)
        except KeyError as exc:
            raise ValueError(str(exc)) from exc
        cells = build_scenario_plan(
            spec, seeds=seeds, total_rounds=rounds,
            preset=preset_lookup(spec.preset),
        )
        normalized = {"scenario": name, "seeds": list(seeds)}
        if rounds is not None:
            normalized["rounds"] = rounds
        return cells, None, normalized

    if mode == "spec":
        if not isinstance(obj["spec"], dict):
            raise ValueError('"spec" must be a JSON object')
        spec = ScenarioSpec.from_dict(obj["spec"])
        try:
            scenario_lookup(spec.name)
        except KeyError:
            pass
        else:
            raise ValueError(
                f"inline spec name {spec.name!r} shadows a registered "
                f"scenario; submit it under a distinct name"
            )
        prior = known_scenarios.get(spec.name)
        if prior is not None and prior != spec:
            raise ValueError(
                f"inline spec name {spec.name!r} was already served "
                f"with a different definition; artifacts would collide"
            )
        cells = build_scenario_plan(
            spec, seeds=seeds, total_rounds=rounds,
            preset=preset_lookup(spec.preset),
        )
        normalized = {"spec": spec.to_dict(), "seeds": list(seeds)}
        if rounds is not None:
            normalized["rounds"] = rounds
        return cells, spec, normalized

    preset_name = obj["preset"]
    algorithm = obj.get("algorithm")
    if not isinstance(preset_name, str):
        raise ValueError('"preset" must be a string')
    if not isinstance(algorithm, str):
        raise ValueError('"algorithm" is required with "preset"')
    try:
        preset = preset_lookup(preset_name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    degree = obj.get("degree", preset.degrees[0])
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise ValueError('"degree" must be an integer')
    if degree not in preset.degrees:
        raise ValueError(
            f"degree {degree} not in preset {preset_name!r} degrees "
            f"{list(preset.degrees)}"
        )
    cells = build_plan(
        preset,
        algorithms=(algorithm,),
        degrees=(degree,),
        seeds=seeds,
        total_rounds=rounds if rounds is not None else preset.total_rounds,
    )
    normalized = {
        "preset": preset_name,
        "algorithm": algorithm,
        "degree": degree,
        "seeds": list(seeds),
    }
    if rounds is not None:
        normalized["rounds"] = rounds
    return cells, None, normalized


class JobStore:
    """Thread-safe FIFO store of jobs with a bounded cell backlog."""

    def __init__(self, queue_limit: int) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._queued: deque[str] = deque()
        self._by_cell: dict[str, str] = {}
        self._next_id = 0
        #: cells accepted and not yet done/failed, and jobs with any —
        #: counters, so admission and drain checks stay O(1) however
        #: many jobs the daemon has ever accepted
        self._outstanding_cells = 0
        self._unfinished_jobs = 0
        #: inline spec definitions seen so far, by name — guards a later
        #: resubmission of the same name with a different body
        self._inline_specs: dict[str, ScenarioSpec] = {}

    @property
    def inline_specs(self) -> dict[str, ScenarioSpec]:
        return self._inline_specs

    def submit(
        self,
        cells,
        request: dict,
        inline_spec: ScenarioSpec | None,
        now: float,
    ) -> Job:
        """Admit one parsed job; raises :class:`QueueFullError` past
        the backlog bound and :class:`CellInFlightError` when a cell is
        already in flight under another job."""
        with self._lock:
            backlog = self._outstanding_cells
            if backlog + len(cells) > self.queue_limit:
                raise QueueFullError(
                    f"queue full: {backlog} cell(s) outstanding + "
                    f"{len(cells)} submitted > limit {self.queue_limit}"
                )
            for cell in cells:
                owner = self._by_cell.get(cell.cell_id)
                if owner is not None:
                    raise CellInFlightError(
                        f"cell {cell.cell_id} is already in flight "
                        f"under job {owner}"
                    )
            job = Job(
                job_id=f"job-{self._next_id}",
                request=request,
                cells=[ServedCell(cell=cell) for cell in cells],
                inline_spec=inline_spec,
                submitted_at=now,
            )
            self._next_id += 1
            self._outstanding_cells += len(cells)
            self._unfinished_jobs += 1
            self._jobs[job.job_id] = job
            self._queued.append(job.job_id)
            for cell in cells:
                self._by_cell[cell.cell_id] = job.job_id
            if inline_spec is not None:
                self._inline_specs[inline_spec.name] = inline_spec
            return job

    def next_queued(self) -> Job | None:
        """Claim the oldest queued job (dispatcher thread only)."""
        with self._lock:
            if not self._queued:
                return None
            return self._jobs[self._queued.popleft()]

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def queued_cells(self) -> int:
        """Cells belonging to jobs not yet claimed by the dispatcher."""
        with self._lock:
            return sum(
                self._jobs[job_id].unfinished_cells
                for job_id in self._queued
            )

    def all_done(self) -> bool:
        with self._lock:
            return not self._unfinished_jobs

    def cell_for(self, cell_id: str) -> tuple[Job, ServedCell] | None:
        """The (job, cell) pair currently owning ``cell_id``, if any."""
        with self._lock:
            return self._job_for_cell(cell_id)

    def _job_for_cell(self, cell_id: str) -> tuple[Job, ServedCell] | None:
        job_id = self._by_cell.get(cell_id)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        for served in job.cells:
            if served.cell.cell_id == cell_id:
                return job, served
        return None

    def cell_started(self, cell_id: str, now: float) -> Job | None:
        with self._lock:
            found = self._job_for_cell(cell_id)
            if found is None:
                return None
            job, served = found
            served.state = "running"
            if job.state == "queued":
                job.state = "running"
            if job.started_at is None:
                job.started_at = now
            return job

    def cell_progress(self, cell_id: str, done: int, total: int) -> None:
        with self._lock:
            found = self._job_for_cell(cell_id)
            if found is None:
                return
            _, served = found
            served.done_units = done
            served.total_units = total

    def _settle(
        self, job: Job, served: ServedCell, state: str, now: float
    ) -> None:
        """Move one cell to done/failed, and the job with its last."""
        if served.state not in ("done", "failed"):
            self._outstanding_cells -= 1
        served.state = state
        if job.unfinished_cells:
            return
        self._unfinished_jobs -= 1
        failed = any(served.state == "failed" for served in job.cells)
        job.state = "failed" if failed else "done"
        job.finished_at = now
        for served in job.cells:
            self._by_cell.pop(served.cell.cell_id, None)

    def cell_done(
        self, cell_id: str, resumed: bool, energy_wh: float, now: float
    ) -> tuple[Job, ServedCell] | None:
        with self._lock:
            found = self._job_for_cell(cell_id)
            if found is None:
                return None
            job, served = found
            served.resumed = resumed
            served.done_units = served.total_units or served.done_units
            job.energy_wh += energy_wh
            self._settle(job, served, "done", now)
            return job, served

    def cell_failed(
        self, cell_id: str, error: str, now: float
    ) -> tuple[Job, ServedCell] | None:
        with self._lock:
            found = self._job_for_cell(cell_id)
            if found is None:
                return None
            job, served = found
            served.error = error
            job.error = error
            self._settle(job, served, "failed", now)
            return job, served
