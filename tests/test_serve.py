"""Serve-daemon battery: job lifecycle over HTTP, byte identity with
the batch sweep, Prometheus scrape format, backpressure (429) and
duplicate (409) handling, drain semantics — plus the loadgen's
deterministic schedules and an end-to-end open-loop run.

Servers bind ``127.0.0.1:0`` (ephemeral ports) and run in-process with
injected preset/scenario lookups, so the suite needs no network beyond
loopback and no registry pollution. The one subprocess test drives
``python -m repro serve`` with a registered preset, SIGKILLs its idle
pool worker and drains it with SIGTERM.
"""

import dataclasses
from http.client import HTTPConnection
import json
import multiprocessing as mp
import os
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.experiments import build_plan, run_sweep
from repro.experiments.serve import (
    CellInFlightError,
    JobStore,
    QueueFullError,
    ScenarioServer,
    ServeConfig,
    build_schedule,
    parse_mix,
    run_loadgen,
)
from repro.scenarios import AlgorithmSpec, DataSpec, ScenarioSpec

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the serve daemon runs cells on the fork-based pool",
)


@pytest.fixture
def serve_preset(tiny_preset):
    return dataclasses.replace(tiny_preset, name="servetiny",
                               total_rounds=8, eval_every=4)


@pytest.fixture
def serve_scenario():
    return ScenarioSpec(
        name="servesc",
        preset="servetiny",
        total_rounds=8,
        eval_every=4,
        data=DataSpec(partition="dirichlet", alpha=0.5),
        algorithm=AlgorithmSpec(name="skiptrain"),
    )


def http(url, payload=None, timeout=30.0):
    """One JSON round trip; returns (status, parsed body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


def wait_for_job(url, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while True:
        status, body = http(f"{url}/jobs/{job_id}")
        assert status == 200, (status, body)
        if body["state"] in ("done", "failed"):
            return body
        assert time.monotonic() < deadline, f"{job_id} never finished"
        time.sleep(0.05)


@pytest.fixture
def server(serve_preset, serve_scenario, tmp_path):
    presets = {serve_preset.name: serve_preset}
    scenarios = {serve_scenario.name: serve_scenario}
    srv = ScenarioServer(
        ServeConfig(results_dir=str(tmp_path / "served"), port=0, jobs=2),
        preset_lookup=presets.__getitem__,
        scenario_lookup=scenarios.__getitem__,
    )
    srv.start()
    try:
        yield srv
    finally:
        srv.begin_drain()
        srv.close()


PRESET_JOB = {
    "preset": "servetiny", "algorithm": "d-psgd", "degree": 3,
    "seeds": [0, 1], "rounds": 8,
}


def _children(pid):
    """Live child pids of ``pid``, read from ``/proc``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue
        if int(ppid) == pid and state != "Z":
            kids.append(int(stat.parent.name))
    return kids


class TestJobLifecycle:
    def test_preset_job_runs_to_done(self, server):
        status, job = http(f"{server.url}/jobs", PRESET_JOB)
        assert status == 202
        assert job["state"] == "queued"
        assert job["cells_total"] == 2
        body = wait_for_job(server.url, job["job_id"])
        assert body["state"] == "done"
        assert body["cells_done"] == 2
        assert body["energy_wh"] > 0
        assert body["started_at"] >= body["submitted_at"]
        assert body["finished_at"] >= body["started_at"]
        status, result = http(f"{server.url}/jobs/{job['job_id']}/result")
        assert status == 200
        assert len(result["cells"]) == 2
        for cell in result["cells"]:
            assert Path(cell["artifact"]).is_file()
            assert "final_accuracy" in cell["results"]

    def test_scenario_job_runs_to_done(self, server):
        status, job = http(
            f"{server.url}/jobs", {"scenario": "servesc", "seeds": [0]}
        )
        assert status == 202
        body = wait_for_job(server.url, job["job_id"])
        assert body["state"] == "done"
        [cell] = body["cells"]
        assert "servesc" in cell["cell_id"]

    def test_inline_spec_job(self, server):
        spec = {
            "name": "inline-sc",
            "preset": "servetiny",
            "total_rounds": 8,
            "eval_every": 4,
            "algorithm": {"name": "d-psgd"},
        }
        status, job = http(
            f"{server.url}/jobs", {"spec": spec, "seeds": [0]}
        )
        assert status == 202, job
        body = wait_for_job(server.url, job["job_id"])
        assert body["state"] == "done"
        # a second inline spec reusing the name with different content
        # is rejected; identical content is accepted
        conflicting = dict(spec, total_rounds=6)
        status, err = http(
            f"{server.url}/jobs", {"spec": conflicting, "seeds": [1]}
        )
        assert status == 400
        assert "inline-sc" in err["error"]

    def test_result_while_running_is_202(self, server):
        server.pause_dispatch.set()
        try:
            _, job = http(f"{server.url}/jobs", PRESET_JOB)
            status, body = http(f"{server.url}/jobs/{job['job_id']}/result")
            assert status == 202
            assert body["state"] == "queued"
        finally:
            server.pause_dispatch.clear()
        wait_for_job(server.url, job["job_id"])

    def test_progress_is_reported(self, server):
        _, job = http(f"{server.url}/jobs", PRESET_JOB)
        body = wait_for_job(server.url, job["job_id"])
        for cell in body["cells"]:
            assert cell["state"] == "done"
            assert cell["done_units"] == cell["total_units"] == 8


class TestValidation:
    def test_unknown_job_is_404(self, server):
        assert http(f"{server.url}/jobs/job-999")[0] == 404
        assert http(f"{server.url}/jobs/job-999/result")[0] == 404
        assert http(f"{server.url}/nope")[0] == 404

    @pytest.mark.parametrize("bad", [
        {},  # no mode at all
        {"preset": "servetiny"},  # missing algorithm/degree/seeds
        {"preset": "nope", "algorithm": "d-psgd", "degree": 3, "seeds": [0]},
        {"preset": "servetiny", "algorithm": "d-psgd", "degree": 7,
         "seeds": [0]},  # degree not in preset
        {"preset": "servetiny", "algorithm": "async-skiptrain", "degree": 3,
         "kind": "sync", "seeds": [0]},  # async algorithm forced sync
        {"preset": "servetiny", "algorithm": "d-psgd", "degree": 3,
         "kind": "async", "seeds": [0]},  # sync algorithm forced async
        {"scenario": "nope", "seeds": [0]},
        {"scenario": "servesc", "preset": "servetiny", "algorithm": "d-psgd",
         "degree": 3, "seeds": [0]},  # two modes at once
        {"scenario": "servesc", "seeds": []},
        {"scenario": "servesc", "seeds": [0, 0]},
        {"scenario": "servesc", "seeds": [0], "rounds": 0},
        {"scenario": "servesc", "seeds": [0], "bogus_key": 1},
        # unknown names are refused at submission, not in the worker
        {"preset": "servetiny", "algorithm": "nope", "degree": 3,
         "seeds": [0]},
        {"preset": "servetiny", "algorithm": "Async-D-PSGD", "degree": 3,
         "seeds": [0]},  # names are exact: not a sync cell
        {"spec": {"name": "bad-algo", "preset": "servetiny",
                  "algorithm": {"name": "nope"}}, "seeds": [0]},
    ])
    def test_bad_requests_are_400(self, server, bad):
        status, body = http(f"{server.url}/jobs", bad)
        assert status == 400, (bad, body)
        assert body["error"]

    def test_duplicate_in_flight_cell_is_409(self, server):
        server.pause_dispatch.set()
        try:
            status, first = http(f"{server.url}/jobs", PRESET_JOB)
            assert status == 202
            status, err = http(f"{server.url}/jobs", PRESET_JOB)
            assert status == 409
            assert "already in flight" in err["error"]
        finally:
            server.pause_dispatch.clear()
        wait_for_job(server.url, first["job_id"])
        # once the first job finished, resubmission is fine (the cells
        # are skip-finished against existing artifacts)
        status, again = http(f"{server.url}/jobs", PRESET_JOB)
        assert status == 202
        assert wait_for_job(server.url, again["job_id"])["state"] == "done"

    @pytest.mark.parametrize("length, expected", [
        (None, 400),  # missing
        ("-1", 400),
        ("12abc", 400),
        ("1.5", 400),
        ("", 400),
        (str((1 << 20) + 1), 413),  # over the fixed 1 MiB cap
        (str(1 << 40), 413),
    ])
    def test_bad_content_length_is_rejected_unread(
        self, server, length, expected
    ):
        """The handler must decide from the header alone: it never
        reads (or waits for) a body it is about to refuse, and it drops
        the connection, whose unread bytes would poison keep-alive."""
        conn = HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.putrequest("POST", "/jobs")
            if length is not None:
                conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == expected, body
            assert body["error"]
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()
        assert http(f"{server.url}/healthz")[0] == 200
        assert server.store.jobs() == []

    def test_body_at_the_cap_is_read(self, server):
        padded = json.dumps(PRESET_JOB).encode().ljust(1 << 20)
        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/jobs", body=padded)
            response = conn.getresponse()
            job = json.loads(response.read())
            assert response.status == 202, job
        finally:
            conn.close()
        assert wait_for_job(server.url, job["job_id"])["state"] == "done"


class TestJobStoreCounters:
    """``JobStore`` admits and drains from O(1) counters instead of
    walking every job ever accepted; the counters must agree with that
    walk after every transition, so 429 and drain completion fire at
    exactly the points they always did."""

    @staticmethod
    def _cells(*seeds):
        from repro.experiments.artifacts import PlanCell

        return [
            PlanCell(preset="servetiny", algorithm="d-psgd", degree=3,
                     seed=seed, total_rounds=1, kind="sync")
            for seed in seeds
        ]

    @staticmethod
    def _walk(store):
        """The pre-counter definitions, recomputed from the jobs."""
        jobs = store.jobs()
        backlog = sum(job.unfinished_cells for job in jobs)
        drained = all(job.state in ("done", "failed") for job in jobs)
        return backlog, drained

    def _check(self, store):
        backlog, drained = self._walk(store)
        assert store.all_done() == drained
        room = store.queue_limit - backlog
        # admission flips exactly at the bound: room+1 cells never fit
        with pytest.raises(QueueFullError):
            store.submit(self._cells(*range(900, 901 + room)), {}, None, 0.0)
        return backlog

    def test_counters_match_the_walk_through_every_transition(self):
        store = JobStore(queue_limit=4)
        assert self._check(store) == 0
        first = store.submit(self._cells(0, 1), {}, None, 1.0)
        assert self._check(store) == 2
        with pytest.raises(QueueFullError):
            store.submit(self._cells(2, 3, 4), {}, None, 1.0)
        with pytest.raises(CellInFlightError):
            store.submit(self._cells(1), {}, None, 1.0)
        assert self._check(store) == 2  # rejections admit nothing
        second = store.submit(self._cells(2, 3), {}, None, 2.0)
        assert self._check(store) == 4
        assert store.next_queued() is first
        store.cell_started(first.cell_ids[0], 3.0)
        assert self._check(store) == 4
        store.cell_done(first.cell_ids[0], False, 1.0, 4.0)
        assert self._check(store) == 3
        # a cell settled twice (dispatch failure, then the pool's own
        # report) leaves the backlog only once
        store.cell_failed(first.cell_ids[1], "boom", 5.0)
        assert first.state == "failed"
        store.cell_failed(first.cell_ids[1], "boom", 5.0)
        assert self._check(store) == 2
        assert store.next_queued() is second
        store.cell_failed(second.cell_ids[0], "boom", 6.0)
        store.cell_done(second.cell_ids[0], False, 0.0, 6.5)
        assert self._check(store) == 1
        assert not store.all_done()
        store.cell_done(second.cell_ids[1], False, 1.0, 7.0)
        assert self._check(store) == 0
        assert store.all_done()
        # freed capacity is usable, and finished cells may be resubmitted
        third = store.submit(self._cells(0, 1, 2, 3), {}, None, 8.0)
        assert self._check(store) == 4
        assert not store.all_done()
        for cell_id in third.cell_ids:
            store.cell_done(cell_id, False, 0.0, 9.0)
        assert self._check(store) == 0
        assert store.all_done()


class TestBackpressure:
    def test_queue_overflow_is_429(self, serve_preset, serve_scenario,
                                   tmp_path):
        srv = ScenarioServer(
            ServeConfig(results_dir=str(tmp_path / "served"), port=0,
                        jobs=1, queue_limit=2),
            preset_lookup={serve_preset.name: serve_preset}.__getitem__,
            scenario_lookup={serve_scenario.name: serve_scenario}.__getitem__,
        )
        srv.start()
        srv.pause_dispatch.set()
        try:
            status, first = http(
                f"{srv.url}/jobs", {"scenario": "servesc", "seeds": [0, 1]}
            )
            assert status == 202
            status, err = http(
                f"{srv.url}/jobs", {"scenario": "servesc", "seeds": [2]}
            )
            assert status == 429
            assert "queue" in err["error"]
            scrape = urllib.request.urlopen(f"{srv.url}/metrics").read()
            assert b"repro_serve_jobs_rejected_total 1.0" in scrape
            srv.pause_dispatch.clear()
            assert wait_for_job(srv.url, first["job_id"])["state"] == "done"
            # capacity freed: the previously rejected job now fits
            status, retry = http(
                f"{srv.url}/jobs", {"scenario": "servesc", "seeds": [2]}
            )
            assert status == 202
            assert wait_for_job(srv.url, retry["job_id"])["state"] == "done"
        finally:
            srv.begin_drain()
            srv.close()


class TestByteIdentity:
    def test_daemon_and_sweep_share_the_worker_body(self):
        """Served ≡ swept by construction: the daemon imports the very
        functions ``run_sweep`` is made of and re-implements neither."""
        from repro.experiments import sweep
        from repro.experiments.serve import server

        assert server.run_cell_from_data is sweep.run_cell_from_data
        assert server.cell_dataset is sweep.cell_dataset
        for name in ("bind_data", "prepare_data", "prepared_from_data",
                     "run_cell"):
            assert not hasattr(server, name)

    def test_served_artifacts_identical_to_batch_sweep(
        self, server, serve_preset, serve_scenario, tmp_path
    ):
        """The tentpole contract: a served job's raw artifacts are
        byte-for-byte what ``repro sweep`` writes for the same cells."""
        _, preset_job = http(f"{server.url}/jobs", PRESET_JOB)
        _, scenario_job = http(
            f"{server.url}/jobs", {"scenario": "servesc", "seeds": [0]}
        )
        done = wait_for_job(server.url, preset_job["job_id"])
        done_sc = wait_for_job(server.url, scenario_job["job_id"])
        assert done["state"] == done_sc["state"] == "done"

        from repro.scenarios.compile import build_scenario_plan

        plan = build_plan(serve_preset, ("d-psgd",), degrees=(3,),
                          seeds=(0, 1), total_rounds=8)
        plan += build_scenario_plan(serve_scenario, seeds=(0,),
                                    preset=serve_preset)
        batch_dir = tmp_path / "batch"
        run_sweep(
            plan, batch_dir, jobs=1,
            preset_lookup={serve_preset.name: serve_preset}.__getitem__,
            scenario_lookup={
                serve_scenario.name: serve_scenario
            }.__getitem__,
        )
        served_raw = Path(server.config.results_dir) / "raw"
        for cell in plan:
            served = (served_raw / f"{cell.cell_id}.json").read_bytes()
            batch = (batch_dir / "raw" / f"{cell.cell_id}.json").read_bytes()
            assert served == batch, f"artifact differs for {cell.cell_id}"


class TestDatasetResidency:
    """The daemon's half of the dataset lifecycle: its dispatcher never
    prepares or holds a dataset; each worker prepares its cells' own
    and keeps idle ones least recently used inside a byte budget."""

    def test_the_dispatcher_never_prepares(
        self, serve_preset, serve_scenario, tmp_path, monkeypatch
    ):
        """A pid spy on ``prepare_data``, inherited by the forked
        workers: every call runs in a worker, none in the daemon."""
        from repro.experiments import sweep

        spool = tmp_path / "preps"
        spool.mkdir()
        real = sweep.prepare_data

        def spy(preset, seed=0, **kwargs):
            (spool / f"{os.getpid()}-{seed}-{time.monotonic_ns()}").touch()
            return real(preset, seed=seed, **kwargs)

        monkeypatch.setattr(sweep, "prepare_data", spy)
        srv = ScenarioServer(
            ServeConfig(results_dir=str(tmp_path / "served"), port=0, jobs=2),
            preset_lookup={serve_preset.name: serve_preset}.__getitem__,
            scenario_lookup={serve_scenario.name: serve_scenario}.__getitem__,
        ).start()
        try:
            _, preset_job = http(f"{srv.url}/jobs", PRESET_JOB)
            _, scenario_job = http(
                f"{srv.url}/jobs", {"scenario": "servesc", "seeds": [0]})
            for job in (preset_job, scenario_job):
                assert wait_for_job(srv.url, job["job_id"])["state"] == "done"
        finally:
            srv.begin_drain()
            srv.close()
        pids = {int(path.name.split("-")[0]) for path in spool.iterdir()}
        assert pids and os.getpid() not in pids

    def test_idle_datasets_are_kept_to_the_budget_and_reused(
        self, serve_preset, serve_scenario, tmp_path, monkeypatch
    ):
        from repro.experiments.runner import prepare_data
        from repro.experiments.serve import server as server_module

        one = prepare_data(serve_preset, seed=0).nbytes
        # room for two idle datasets beside the latest one, not three
        monkeypatch.setattr(server_module, "IDLE_DATASET_BUDGET", 2 * one + 1)
        lines: list[str] = []
        srv = ScenarioServer(
            ServeConfig(results_dir=str(tmp_path / "served"), port=0,
                        jobs=1, log=lines.append),
            preset_lookup={serve_preset.name: serve_preset}.__getitem__,
            scenario_lookup={serve_scenario.name: serve_scenario}.__getitem__,
        )
        srv.start()

        def run(seed, algorithm="d-psgd"):
            _, job = http(f"{srv.url}/jobs", {
                **PRESET_JOB, "seeds": [seed], "algorithm": algorithm})
            assert wait_for_job(srv.url, job["job_id"])["state"] == "done"

        def preps():
            return [line for line in lines if line.startswith("prep")]

        try:
            for seed in range(6):
                run(seed)
            # the worker's prep lines reach the daemon's log, one a seed
            assert preps() == [f"prep servetiny seed={seed}" for seed in range(6)]
            # a resubmitted seed within the budget relays no prep line ...
            run(3, algorithm="skiptrain")
            assert len(preps()) == 6
            # ... one past it is prepared again, and the dataset that
            # goes is the least recently used one (4), not the oldest (3)
            run(0, algorithm="skiptrain")
            assert len(preps()) == 7
            run(4, algorithm="skiptrain")
            assert preps()[-1] == "prep servetiny seed=4"
            assert len(preps()) == 8
        finally:
            srv.begin_drain()
            srv.close()


SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.e+-]+(inf|nan)?$"
)


class TestMetrics:
    def test_scrape_format_and_counters(self, server):
        _, job = http(f"{server.url}/jobs", PRESET_JOB)
        wait_for_job(server.url, job["job_id"])
        with urllib.request.urlopen(f"{server.url}/metrics") as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == (
                "text/plain; version=0.0.4; charset=utf-8"
            )
            text = response.read().decode()
        assert text.endswith("\n")
        helped, typed, samples = set(), {}, {}
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                typed[name] = kind
            else:
                assert SAMPLE.match(line), f"bad sample line: {line!r}"
                name = line.split("{")[0].split(" ")[0]
                base = name.split("{")[0]
                assert base in helped and base in typed, (
                    f"sample {base} missing HELP/TYPE"
                )
                samples[line.split(" ")[0]] = float(line.split(" ")[-1])
        assert typed["repro_serve_jobs_accepted_total"] == "counter"
        assert typed["repro_serve_queue_depth"] == "gauge"
        assert samples["repro_serve_jobs_accepted_total"] == 1.0
        assert samples["repro_serve_jobs_completed_total"] == 1.0
        assert samples["repro_serve_jobs_failed_total"] == 0.0
        assert samples["repro_serve_cells_completed_total"] == 2.0
        assert samples["repro_serve_rounds_total"] == 16.0
        assert samples["repro_serve_energy_wh_total"] > 0
        assert samples["repro_serve_workers"] == 2.0
        assert samples["repro_serve_uptime_seconds"] > 0
        job_sample = (
            f'repro_serve_job_energy_wh{{job_id="{job["job_id"]}"}}'
        )
        assert job_sample in samples
        assert samples[job_sample] > 0


class TestLatencyAnatomy:
    """The serve path is event-driven end to end: a reply is one TCP
    segment, and the dispatcher is woken by the state changes it must
    react to instead of finding them at its next poll."""

    @staticmethod
    def _raw_get(sock, path):
        """One request on a kept-alive raw socket; returns (the bytes
        of the first ``recv``, round-trip seconds)."""
        request = f"GET {path} HTTP/1.1\r\nHost: serve\r\n\r\n".encode()
        started = time.perf_counter()
        sock.sendall(request)
        first = sock.recv(1 << 16)
        return first, time.perf_counter() - started

    def test_reply_is_one_segment_and_round_trips_are_fast(self, server):
        _, job = http(f"{server.url}/jobs", PRESET_JOB)
        wait_for_job(server.url, job["job_id"])
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.settimeout(5)
            trips = []
            for _ in range(20):
                first, rtt = self._raw_get(sock, f"/jobs/{job['job_id']}")
                trips.append(rtt)
                # headers and body left the server in one send, so one
                # recv sees the complete response
                head, sep, body = first.partition(b"\r\n\r\n")
                assert sep, first
                length = int(re.search(
                    rb"(?i)content-length: (\d+)", head).group(1))
                assert len(body) == length
                assert json.loads(body)["state"] == "done"
        # two unbuffered sends without TCP_NODELAY cost ~40 ms each way
        # round (Nagle x delayed ACK) on a kept-alive connection
        assert statistics.median(trips) < 0.010, trips

    def test_parked_dispatcher_starts_a_job_at_once(self, server):
        """With the dataset already published, queue wait is a wake-up
        and a pipe write — it used to be whatever was left of the 0.2 s
        poll period (0.1 s on average)."""
        _, warm = http(f"{server.url}/jobs", dict(PRESET_JOB, seeds=[0]))
        wait_for_job(server.url, warm["job_id"])
        time.sleep(0.3)  # the dispatcher is back in its blocking wait
        _, job = http(f"{server.url}/jobs", dict(
            PRESET_JOB, seeds=[0], algorithm="skiptrain"))
        body = wait_for_job(server.url, job["job_id"])
        assert body["state"] == "done"
        assert body["started_at"] - body["submitted_at"] < 0.1

    def test_drain_of_an_idle_daemon_returns_at_once(self, server):
        time.sleep(0.3)  # the dispatcher is parked in its blocking wait
        started = time.monotonic()
        server.begin_drain()
        assert server.wait(timeout=5)
        assert time.monotonic() - started < 0.1

    def test_releasing_the_pause_hook_wakes_the_dispatcher(self, server):
        server.pause_dispatch.set()
        _, job = http(f"{server.url}/jobs", PRESET_JOB)
        time.sleep(0.3)  # woken by the submission, parked again: paused
        assert http(f"{server.url}/jobs/{job['job_id']}")[1]["state"] == (
            "queued"
        )
        server.pause_dispatch.clear()
        assert wait_for_job(server.url, job["job_id"])["state"] == "done"


class TestDrain:
    def test_drain_rejects_new_work_and_finishes_accepted(self, server):
        status, health = http(f"{server.url}/healthz")
        assert (status, health["status"]) == (200, "ok")
        _, job = http(f"{server.url}/jobs", PRESET_JOB)
        server.begin_drain()
        status, health = http(f"{server.url}/healthz")
        assert (status, health["status"]) == (200, "draining")
        status, err = http(
            f"{server.url}/jobs", {"scenario": "servesc", "seeds": [5]}
        )
        assert status == 503
        assert "drain" in err["error"]
        server.wait(timeout=60)
        assert http(f"{server.url}/jobs/{job['job_id']}")[1]["state"] == "done"

    def test_sigterm_drains_subprocess(self, tmp_path):
        """The shipped CLI end to end: start ``repro serve`` on an
        ephemeral port, SIGKILL its idle pool worker (the daemon sees
        the dead pipe at once and revives one), submit a real
        (registered-preset) job, SIGTERM the daemon mid-service, and
        require a clean drain — exit code 0 with the job's artifact on
        disk."""
        from repro.experiments.presets import get_preset

        degree = get_preset("cifar10-bench").degrees[0]
        results = tmp_path / "served"
        src_root = str(Path(__file__).parents[1] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--results-dir", str(results), "--jobs", "1"],
            env=dict(os.environ, PYTHONPATH=src_root, PYTHONUNBUFFERED="1"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

        lines = queue.Queue()
        threading.Thread(target=lambda: [lines.put(line) for line in proc.stdout],
                         daemon=True).start()

        def read_until(pattern):
            deadline = time.monotonic() + 30
            while True:
                try:
                    line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
                except queue.Empty:
                    pytest.fail(f"the daemon printed no line matching {pattern!r}")
                if match := re.search(pattern, line):
                    return match

        try:
            url = read_until(r"serving on (http://\S+)").group(1)
            [worker] = _children(proc.pid)
            os.kill(worker, signal.SIGKILL)
            read_until(r"revived 1 worker")
            [revived] = _children(proc.pid)
            assert revived != worker
            status, job = http(f"{url}/jobs", {
                "preset": "cifar10-bench", "algorithm": "d-psgd",
                "degree": degree, "seeds": [0], "rounds": 2,
            })
            assert status == 202, job
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            read_until(r"drained; exiting")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        [artifact] = (results / "raw").glob("*.json")
        assert json.loads(artifact.read_text())["results"]


class TestLoadgen:
    def test_parse_mix(self):
        assert parse_mix(["a", "b=2.5"]) == [("a", 1.0), ("b", 2.5)]
        with pytest.raises(ValueError):
            parse_mix([])
        with pytest.raises(ValueError):
            parse_mix(["a=0"])
        with pytest.raises(ValueError):
            parse_mix(["=3"])

    def test_schedule_is_deterministic(self):
        mix = [("a", 1.0), ("b", 3.0)]
        one = build_schedule(mix, process="poisson", rate=5.0, n_jobs=32,
                             seed=11)
        two = build_schedule(mix, process="poisson", rate=5.0, n_jobs=32,
                             seed=11)
        assert one == two
        other = build_schedule(mix, process="poisson", rate=5.0, n_jobs=32,
                               seed=12)
        assert one != other
        offsets = [event.offset_s for event in one]
        assert offsets == sorted(offsets)
        # the weighted mix is actually sampled, not round-robined
        names = {event.scenario for event in one}
        assert names == {"a", "b"}

    def test_trace_replay_is_exact(self):
        trace = [
            {"offset_s": 0.0, "scenario": "a"},
            {"offset_s": 0.5},
            {"offset_s": 2.0, "scenario": "a"},
        ]
        schedule = build_schedule([("a", 1.0)], process="trace", trace=trace,
                                  seed=3)
        assert [event.offset_s for event in schedule] == [0.0, 0.5, 2.0]
        assert all(event.scenario == "a" for event in schedule)
        with pytest.raises(ValueError, match="non-decreasing"):
            build_schedule([("a", 1.0)], process="trace",
                           trace=[{"offset_s": 1.0}, {"offset_s": 0.5}])
        with pytest.raises(ValueError, match="outside"):
            build_schedule([("a", 1.0)], process="trace",
                           trace=[{"offset_s": 0.0, "scenario": "zzz"}])

    def test_open_loop_run_against_server(self, server):
        """End-to-end: a fast poisson schedule over the scenario mix,
        every job completes, and the report carries the latency
        decomposition the schema promises."""
        schedule = build_schedule([("servesc", 1.0)], process="poisson",
                                  rate=50.0, n_jobs=3, seed=5)
        report = run_loadgen(
            server.url, schedule, seeds_per_job=1, seed_base=100,
            rounds=8, process="poisson", timeout_s=120.0,
        )
        assert report["schema"] == "repro/loadgen-report/v1"
        summary = report["summary"]
        assert summary["jobs_submitted"] == 3
        assert summary["jobs_completed"] == 3
        assert summary["jobs_failed"] == 0
        assert summary["throughput_jobs_per_s"] > 0
        for record in report["jobs"]:
            assert record["state"] == "done"
            assert record["total_s"] > 0
            assert record["queue_wait_s"] >= 0
            assert record["run_s"] > 0
        # disjoint seed blocks: no two jobs share a cell
        all_seeds = [s for r in report["jobs"] for s in r["seeds"]]
        assert len(all_seeds) == len(set(all_seeds))
