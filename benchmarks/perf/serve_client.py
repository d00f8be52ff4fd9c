"""The serve workload's own daemon handle and closed-loop client.

One thread, one keep-alive connection: the next job is sent only when
the previous one has been observed ``done``. Status is polled every
:data:`POLL_S` — the repo's ``run_loadgen`` polls at 0.2 s, which would
put a 0–0.2 s sawtooth on every latency sample.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Client", "Daemon", "JobTiming", "POLL_S"]

POLL_S = 0.010
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 15.0


class Daemon:
    """A ``repro serve`` child process bound to an ephemeral port."""

    def __init__(self, command: list[str], env: dict[str, str], log: Path) -> None:
        self._command = command
        self._env = env
        self._log = log
        self._proc: subprocess.Popen | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def start(self) -> None:
        """Spawn the daemon and return once ``/healthz`` answers 200."""
        with open(self._log, "ab") as log:
            self._proc = subprocess.Popen(
                self._command, env=self._env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        assert self._proc.stdout is not None
        # the daemon prints this line (flushed) even under --quiet
        line = self._proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(
                f"serve daemon did not come up (first line {line!r}; "
                f"see {self._log})"
            )
        self.port = int(line.rsplit(":", 1)[1])
        client = Client(self.port)
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while True:
                try:
                    status, _, _ = client.request("GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("serve daemon never became healthy")
                time.sleep(POLL_S)
        finally:
            client.close()

    def stop(self) -> int | None:
        """SIGTERM (graceful drain), then kill; always reaps. Returns
        the exit code, ``None`` if the daemon was never started."""
        proc = self._proc
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._proc = None
        return proc.returncode


@dataclass
class JobTiming:
    """What the client saw of one job. ``error`` is empty for a job
    that was accepted with 202 and reached ``done``."""

    seed: int
    error: str = ""
    latency_s: float = 0.0
    submit_rtt_s: float = 0.0
    status_rtts_s: list[float] = field(default_factory=list)
    seen_done_wall: float = 0.0
    job: dict = field(default_factory=dict)


class Client:
    """One persistent HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int) -> None:
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def close(self) -> None:
        self._conn.close()

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, bytes, float]:
        """``(status, payload, round-trip seconds)``."""
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        t0 = time.perf_counter()
        try:
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
        except (http.client.HTTPException, ConnectionError):
            # the server dropped the idle connection: one fresh attempt
            self._conn.close()
            self._conn.request(method, path, body=data, headers=headers)
            response = self._conn.getresponse()
        payload = response.read()
        return response.status, payload, time.perf_counter() - t0

    def run_job(self, body: dict, seed: int) -> JobTiming:
        """Submit one job and poll until it is ``done`` or ``failed``."""
        timing = JobTiming(seed=seed)
        t0 = time.perf_counter()
        status, payload, timing.submit_rtt_s = self.request("POST", "/jobs", body)
        if status != 202:
            timing.error = f"submit: HTTP {status}: {payload[:200]!r}"
            return timing
        job_id = json.loads(payload)["job_id"]
        deadline = t0 + JOB_TIMEOUT_S
        while True:
            status, payload, rtt = self.request("GET", f"/jobs/{job_id}")
            timing.status_rtts_s.append(rtt)
            if status != 200:
                timing.error = f"status: HTTP {status}"
                return timing
            job = json.loads(payload)
            if job["state"] in ("done", "failed"):
                timing.latency_s = time.perf_counter() - t0
                timing.seen_done_wall = time.time()
                timing.job = job
                if job["state"] == "failed":
                    timing.error = f"job failed: {job.get('error', '')[:200]}"
                return timing
            if time.perf_counter() > deadline:
                timing.error = f"timeout after {JOB_TIMEOUT_S:.0f}s"
                return timing
            time.sleep(POLL_S)
