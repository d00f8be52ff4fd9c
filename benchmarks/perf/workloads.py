"""The four workloads. Each is a unit of fixed work (a *lap*) that the
child process repeats; ``--seed`` only re-keys rng streams (cell and
job seeds are ``seed*1000 + i``) — it never changes the number or kind
of cells, rounds, events or jobs.

Inside a lap a workload drops *sector marks* at boundaries the public
API exposes (every round through ``round_hook``, every dataset
preparation and every eighth completed cell through ``run_sweep``'s
``log``, every served job). The child sums each sector's best time over
the laps — the *ideal lap* — because this host's noise comes in bursts
shorter than a lap (see README, "Rejected designs").

Only the API the ROADMAP keeps is called: ``prepare``, ``build_plan``,
``build_scenario_plan``, ``run_cell``, ``run_sweep(pool="persistent")``,
``aggregate_results``, ``write_summary_csv`` and ``python -m repro
serve`` over HTTP. All cells run ``vectorized=True``. ``repro`` is
imported inside ``setup`` so the child can time the import.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import proctree
from .hostinfo import child_env
from .serve_client import Client, Daemon, JobTiming
from .stats import percentile

__all__ = ["FULL", "SMOKE", "SCALES", "WORKLOADS", "Check", "LapOutcome", "Scale"]


@dataclass(frozen=True)
class Scale:
    """How much work a lap holds and how many laps a run needs."""

    name: str
    paper_nodes: int
    paper_rounds: int
    fleet_nodes: int
    fleet_rounds: int
    sweep_rounds: int
    sweep_degrees: tuple[int, ...]
    sweep_sync_seeds: int
    sweep_async_seeds: int
    serve_lap_jobs: int
    serve_warm_jobs: int
    #: timed laps a run completes before ``--seconds`` may end it
    min_laps: int
    #: timed laps after which a run ends whatever ``--seconds`` allows
    max_laps: int | None
    #: timed laps per phase of a ``--trace 1`` run
    traced_laps: int
    #: fresh children whose exec→ready time feeds ``setup_s``
    setup_samples: int


#: Laps of 2.3–2.7 s on the 2-CPU reference host when it is quiet, so
#: ``--seconds 20`` holds seven or eight of them; five are run however
#: slow the host is, because every sector needs its samples.
FULL = Scale(
    name="full", paper_nodes=256, paper_rounds=16, fleet_nodes=16384,
    fleet_rounds=12, sweep_rounds=8, sweep_degrees=(3, 4, 6),
    sweep_sync_seeds=4, sweep_async_seeds=24, serve_lap_jobs=10,
    serve_warm_jobs=4, min_laps=5, max_laps=None, traced_laps=3,
    setup_samples=4,
)
#: Same code paths in seconds: what the tier-1 smoke test runs.
SMOKE = Scale(
    name="smoke", paper_nodes=32, paper_rounds=8, fleet_nodes=1024,
    fleet_rounds=8, sweep_rounds=4, sweep_degrees=(3,), sweep_sync_seeds=1,
    sweep_async_seeds=2, serve_lap_jobs=6, serve_warm_jobs=1, min_laps=1,
    max_laps=1, traced_laps=1, setup_samples=1,
)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


@dataclass
class Check:
    """One output check; a failed one makes the run incorrect."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class LapOutcome:
    """What one lap produced: its artifact digest (``None`` where laps
    are not byte-comparable), the operations it attempted, the ones
    that failed, and per-operation latencies where the workload has
    them (served jobs)."""

    ops: int
    digest: str | None = None
    failed: list[str] = field(default_factory=list)
    jobs: list[JobTiming] = field(default_factory=list)


def tree_digest(results_dir: Path) -> str:
    """SHA-256 over every raw artifact and the summary CSV under
    ``results_dir`` (relative path + bytes, sorted)."""
    digest = hashlib.sha256()
    files = sorted((results_dir / "raw").glob("*.json"))
    summary = results_dir / "summary.csv"
    if summary.is_file():
        files.append(summary)
    for path in files:
        digest.update(path.relative_to(results_dir).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class _Killed(Exception):
    """Raised from the public ``round_hook`` to kill a cell mid-run."""


class RoundTimer:
    """A ``round_hook`` that splits round wall time by kind. The hook
    fires after every round, so a round's time is the gap to the
    previous firing; the first round of a run has no previous firing
    and is skipped."""

    def __init__(self) -> None:
        self.train_s: list[float] = []
        self.sync_s: list[float] = []
        self._last: float | None = None

    def begin_run(self) -> None:
        self._last = None

    def record(self, trains: bool) -> None:
        now = time.perf_counter()
        if self._last is not None:
            (self.train_s if trains else self.sync_s).append(now - self._last)
        self._last = now

    def metrics(self) -> dict[str, float | None]:
        def p50_ms(samples: list[float]) -> float | None:
            return statistics.median(samples) * 1e3 if samples else None

        return {
            "simulation.engine.train_round_ms_p50": p50_ms(self.train_s),
            "simulation.engine.sync_round_ms_p50": p50_ms(self.sync_s),
        }


class Workload:
    """Base: fixed work per lap, fresh results directory per lap."""

    name = ""
    work_unit = ""
    why = ""
    #: whether the child itself imports ``repro`` and runs cells (the
    #: serve child is only a client; its daemon pays the import)
    runs_program_in_process = True

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.scale = scale
        self.workdir = workdir
        self.base_seed = seed * 1000
        self.traced = False
        self.round_timer: RoundTimer | None = None
        self._reference: str | None = None
        self._marks: list[tuple[float, float]] = []

    # -- protocol -----------------------------------------------------------

    @property
    def work_per_lap(self) -> float:
        raise NotImplementedError

    def start_tracing(self, daemon_launcher: list[str]) -> None:
        """Called before ``setup`` in the traced phase of a ``--trace 1``
        run: laps additionally split round time by kind through the
        public ``round_hook``. ``daemon_launcher`` is the command prefix
        that runs the program's CLI under the recorder, for a workload
        that spawns it."""
        self.traced = True
        self.round_timer = RoundTimer()

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> list[Check]:
        """One untimed lap; its digest becomes the reference every
        timed lap must reproduce."""
        outcome, _ = self.marked_lap("warmup")
        self._reference = outcome.digest
        return [Check("warm-up lap", not outcome.failed, "; ".join(outcome.failed))]

    def lap(self, label: str) -> LapOutcome:
        raise NotImplementedError

    def mark(self) -> None:
        """A sector boundary: (wall clock, CPU of the process tree)."""
        self._marks.append((time.perf_counter(), proctree.tree_cpu_s()))

    def marked_lap(self, label: str) -> tuple[LapOutcome, list[tuple[float, float]]]:
        """One lap plus its sector marks, first and last being the
        lap's own start and end."""
        self._marks = []
        self.mark()
        outcome = self.lap(label)
        self.mark()
        # hand the list over: marks dropped outside a lap (the traced
        # run's jobs=1 sweep) must not extend this one
        marks, self._marks = self._marks, []
        return outcome, marks

    def extra_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics only this workload can measure."""
        return {}

    def finish(self) -> list[Check]:
        return []

    def close(self) -> None:
        """Release whatever ``setup`` started."""

    # -- helpers ------------------------------------------------------------

    def _round_hook(self, trains, kill_at: int | None = None):
        """The ``round_hook`` of one sync cell run: a sector mark per
        round, the round-kind split when traced, the kill when asked."""
        timer = self.round_timer
        if timer is not None:
            timer.begin_run()

        def hook(engine, t, history, last_eval):
            self.mark()
            if timer is not None:
                timer.record(trains(t))
            if t == kill_at:
                raise _Killed

        return hook

    def _fresh_dir(self, label: str) -> Path:
        path = self.workdir / f"lap-{label}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _digest_outcome(self, results_dir: Path, ops: int, failed: list[str]) -> LapOutcome:
        digest = tree_digest(results_dir)
        if self._reference is not None and digest != self._reference:
            failed.append(
                f"artifact digest {digest[:12]} differs from the warm-up "
                f"lap's {self._reference[:12]}"
            )
        shutil.rmtree(results_dir, ignore_errors=True)
        return LapOutcome(ops=ops, digest=digest, failed=failed)


class SyncPaper(Workload):
    """The paper's node count on the sync engine, plus a cell that is
    killed mid-run and resumed from its checkpoint."""

    name = "sync-paper256"
    work_unit = "node-rounds"
    why = (
        "the paper's n=256 on the sync engine, one cell straight through and "
        "one killed at a checkpoint and resumed: dense kernels and batch "
        "sampling dominate, checkpoint save+load sits beside them"
    )

    @property
    def work_per_lap(self) -> float:
        return self.scale.paper_nodes * self.scale.paper_rounds * 2

    def setup(self) -> None:
        from repro.experiments import build_plan, cifar10_bench, prepare

        n, rounds = self.scale.paper_nodes, self.scale.paper_rounds
        self._rounds = rounds
        self._ckpt_every = rounds // 2
        self._preset = dataclasses.replace(
            cifar10_bench(), name=f"cifar10-bench-n{n}", n_nodes=n, degrees=(6,),
            num_train=192 * n, eval_every=rounds // 2,
            eval_node_sample=min(32, n), total_rounds=rounds,
        )
        self._prepared = prepare(self._preset, 6, seed=self.base_seed)
        self._straight, self._resumed = build_plan(
            self._preset, ["skiptrain", "d-psgd"], degrees=[6],
            seeds=[self.base_seed], total_rounds=rounds,
        )
        self._schedule = self._preset.schedule_for_degree(6)

    def _skiptrain_round(self, t: int) -> bool:
        return self._schedule.is_training_round(t)

    @staticmethod
    def _dpsgd_round(t: int) -> bool:
        return True

    def _run(self, cell, results_dir: Path, *, checkpoint_every=0, hook=None) -> bool:
        from repro.experiments import run_cell

        try:
            _, resumed = run_cell(
                self._preset, cell, results_dir, prepared=self._prepared,
                vectorized=True, checkpoint_every=checkpoint_every, round_hook=hook,
            )
        finally:
            self.mark()
        return resumed

    def warmup(self) -> list[Check]:
        from repro.experiments import artifact_path

        checks = super().warmup()
        # the killed-and-resumed artifact must be the uninterrupted one's bytes
        lap_dir, ref_dir = self._fresh_dir("resumed"), self._fresh_dir("reference")
        self._kill_and_resume(lap_dir)
        self._run(self._resumed, ref_dir)
        same = (
            artifact_path(lap_dir, self._resumed).read_bytes()
            == artifact_path(ref_dir, self._resumed).read_bytes()
        )
        for path in (lap_dir, ref_dir):
            shutil.rmtree(path, ignore_errors=True)
        checks.append(Check("killed-and-resumed == uninterrupted", same))
        return checks

    def _kill_and_resume(self, results_dir: Path) -> list[str]:
        failed: list[str] = []
        try:
            self._run(
                self._resumed, results_dir, checkpoint_every=self._ckpt_every,
                hook=self._round_hook(self._dpsgd_round, self._ckpt_every + 1),
            )
            failed.append("the kill hook never fired")
        except _Killed:
            pass
        resumed = self._run(
            self._resumed, results_dir, checkpoint_every=self._ckpt_every,
            hook=self._round_hook(self._dpsgd_round),
        )
        if not resumed:
            failed.append("the second run did not resume from the checkpoint")
        if any((results_dir / "checkpoints").glob("*")):
            failed.append("a checkpoint outlived its artifact")
        return failed

    def lap(self, label: str) -> LapOutcome:
        results_dir = self._fresh_dir(label)
        self._run(
            self._straight, results_dir, hook=self._round_hook(self._skiptrain_round)
        )
        failed = self._kill_and_resume(results_dir)
        return self._digest_outcome(results_dir, 2, failed)

    def extra_metrics(self) -> dict[str, float | None]:
        return self.round_timer.metrics() if self.round_timer else {}


class SyncFleet(Workload):
    """The same engine at n=16384 with a 172-parameter model: kernels
    are cheap, per-node Python and CSR gossip are not."""

    name = "sync-fleet16384"
    work_unit = "node-rounds"
    why = (
        "the sync engine at n=16384 with a 172-parameter model: per-node "
        "Python, build_nodes and CSR gossip dominate instead of kernels, and "
        "peak RSS guards the 2 GiB fleet gate"
    )

    @property
    def work_per_lap(self) -> float:
        return self.scale.fleet_nodes * self.scale.fleet_rounds

    def setup(self) -> None:
        from repro.experiments import build_plan, prepare
        from repro.experiments.presets import fleet_preset

        rounds = self.scale.fleet_rounds
        self._preset = dataclasses.replace(
            fleet_preset(self.scale.fleet_nodes), total_rounds=rounds,
            eval_every=rounds // 2,
        )
        degree = self._preset.degrees[0]
        self._prepared = prepare(self._preset, degree, seed=self.base_seed)
        (self._cell,) = build_plan(
            self._preset, ["skiptrain"], degrees=[degree],
            seeds=[self.base_seed], total_rounds=rounds,
        )
        self._schedule = self._preset.schedule_for_degree(degree)

    def lap(self, label: str) -> LapOutcome:
        from repro.experiments import run_cell

        results_dir = self._fresh_dir(label)
        run_cell(
            self._preset, self._cell, results_dir, prepared=self._prepared,
            vectorized=True,
            round_hook=self._round_hook(self._schedule.is_training_round),
        )
        self.mark()
        return self._digest_outcome(results_dir, 1, [])

    def extra_metrics(self) -> dict[str, float | None]:
        return self.round_timer.metrics() if self.round_timer else {}


class SweepMixed(Workload):
    """The orchestration path in bulk: small sync cells that share
    datasets six ways plus async scenario cells that share none,
    through the persistent pool, then aggregation."""

    name = "sweep-mixed48"
    work_unit = "cells"
    why = (
        "48 small cells (24 sync sharing datasets six ways, 24 async churn "
        "scenarios sharing none) through run_sweep(jobs=2) + aggregate: "
        "prepare, publish, dispatch and artifact I/O are a visible share"
    )
    jobs = 2
    #: completed cells per sector of the pooled phase: wide enough that
    #: which of the two workers finishes first hardly moves a boundary
    CHUNK = 8

    @property
    def work_per_lap(self) -> float:
        return float(len(self._cells))

    def _log(self):
        """``run_sweep``'s progress callback as a sector source: the
        parent prepares datasets one by one, then collects completions."""
        completed = 0

        def log(message: str) -> None:
            nonlocal completed
            if message.startswith("prep"):
                self.mark()
            elif " ran " in message:
                completed += 1
                if completed % self.CHUNK == 0:
                    self.mark()

        return log

    def setup(self) -> None:
        from repro.experiments import build_plan, get_preset
        from repro.scenarios import build_scenario_plan, get_scenario

        scale, base = self.scale, self.base_seed
        sync = build_plan(
            get_preset("cifar10-bench"), ["skiptrain", "d-psgd"],
            degrees=scale.sweep_degrees,
            seeds=[base + i for i in range(scale.sweep_sync_seeds)],
            total_rounds=scale.sweep_rounds,
        )
        scenario = build_scenario_plan(
            get_scenario("churn-async"),
            seeds=tuple(base + 100 + i for i in range(scale.sweep_async_seeds)),
            total_rounds=scale.sweep_rounds,
        )
        self._cells = sync + scenario
        self._jobs1_wall: float | None = None
        self._jobs2_walls: list[float] = []

    def _sweep(self, results_dir: Path, jobs: int) -> list[str]:
        from repro.experiments import aggregate_results, run_sweep, write_summary_csv

        stats = run_sweep(
            self._cells, results_dir, jobs=jobs, pool="persistent",
            vectorized=True, log=self._log(),
        )
        self.mark()
        rows, _ = aggregate_results(results_dir)
        write_summary_csv(rows, results_dir / "summary.csv")
        failed: list[str] = []
        if len(stats.ran) != len(self._cells):
            failed.append(f"ran {len(stats.ran)} of {len(self._cells)} cells")
        # stricter than "no gaps": every summary group holds exactly the
        # seeds the plan gave it (the two halves differ in seed count, so
        # the repo's union-relative gap report is non-empty by design)
        planned: dict[tuple, list[int]] = {}
        for cell in self._cells:
            key = (cell.preset, cell.algorithm, cell.scenario, cell.degree)
            planned.setdefault(key, []).append(cell.seed)
        got = {
            (r.preset, r.algorithm, r.scenario, r.degree): list(r.seeds)
            for r in rows
        }
        if got != {key: sorted(seeds) for key, seeds in planned.items()}:
            failed.append("aggregated seed coverage differs from the plan")
        return failed

    def lap(self, label: str) -> LapOutcome:
        results_dir = self._fresh_dir(label)
        t0 = time.perf_counter()
        failed = self._sweep(results_dir, self.jobs)
        self._jobs2_walls.append(time.perf_counter() - t0)
        return self._digest_outcome(results_dir, len(self._cells), failed)

    def finish(self) -> list[Check]:
        if not self.traced:  # the jobs=1 lap belongs to traced runs
            return []
        results_dir = self._fresh_dir("jobs1")
        t0 = time.perf_counter()
        failed = self._sweep(results_dir, 1)
        self._jobs1_wall = time.perf_counter() - t0
        outcome = self._digest_outcome(results_dir, len(self._cells), failed)
        return [Check("jobs=1 == jobs=2", not outcome.failed, "; ".join(outcome.failed))]

    def extra_metrics(self) -> dict[str, float | None]:
        if self._jobs1_wall is None or not self._jobs2_walls:
            return {}
        return {
            "experiments.pool.speedup_vs_jobs1":
                self._jobs1_wall / min(self._jobs2_walls),
        }


class ServeClosed(Workload):
    """The same pool used for latency: one client in closed loop
    against ``python -m repro serve``."""

    name = "serve-closed1"
    work_unit = "jobs"
    why = (
        "one closed-loop client against `repro serve --jobs 1`, one job kind: "
        "a cell runs ~0.09 s of a ~0.33 s job, the rest is accept, queue, "
        "dispatch-poll and respond, which the batch workloads bypass"
    )
    runs_program_in_process = False
    ROUNDS = 8
    DEGREE = 3

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self._launcher = [sys.executable, "-m", "repro"]
        self._daemon: Daemon | None = None
        self._client: Client | None = None
        self._next_seed = self.base_seed
        self._timed: list[JobTiming] = []
        self._daemon_marks: list[tuple[int, float, float]] = []

    @property
    def work_per_lap(self) -> float:
        return float(self.scale.serve_lap_jobs)

    @property
    def results_dir(self) -> Path:
        return self.workdir / "served"

    def start_tracing(self, daemon_launcher: list[str]) -> None:
        super().start_tracing(daemon_launcher)
        self._launcher = daemon_launcher

    def setup(self) -> None:
        shutil.rmtree(self.results_dir, ignore_errors=True)
        tmp = self.workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self._daemon = Daemon(
            self._launcher + [
                "serve", "--port", "0", "--jobs", "1", "--vectorized", "--quiet",
                "--results-dir", str(self.results_dir),
            ],
            env=child_env(tmp),
            log=self.workdir / "daemon.log",
        )
        self._daemon.start()
        self._client = Client(self._daemon.port)

    def _body(self, seed: int) -> dict:
        return {
            "preset": "cifar10-bench", "algorithm": "skiptrain",
            "degree": self.DEGREE, "seeds": [seed], "rounds": self.ROUNDS,
        }

    def _jobs(self, count: int) -> LapOutcome:
        assert self._client is not None
        outcome = LapOutcome(ops=count)
        for _ in range(count):
            seed, self._next_seed = self._next_seed, self._next_seed + 1
            timing = self._client.run_job(self._body(seed), seed)
            self.mark()
            outcome.jobs.append(timing)
            if timing.error:
                outcome.failed.append(f"job seed={seed}: {timing.error}")
        return outcome

    def _mark_daemon(self) -> None:
        # (timed jobs so far, daemon-tree CPU, daemon RSS): per-job slopes
        assert self._daemon is not None
        pid = self._daemon.pid
        cpu = proctree.process_cpu_s(pid) + sum(
            proctree.process_cpu_s(p) for p in proctree.descendants(pid)
        )
        self._daemon_marks.append(
            (len(self._timed), cpu, proctree.process_rss_kib(pid))
        )

    def warmup(self) -> list[Check]:
        outcome = self._jobs(self.scale.serve_warm_jobs)
        self._mark_daemon()
        return [Check("warm-up jobs", not outcome.failed, "; ".join(outcome.failed))]

    def lap(self, label: str) -> LapOutcome:
        outcome = self._jobs(self.scale.serve_lap_jobs)
        self._timed.extend(outcome.jobs)
        self._mark_daemon()
        return outcome

    def extra_metrics(self) -> dict[str, float | None]:
        assert self._client is not None
        done = [t for t in self._timed if not t.error]
        if not done:
            return {}

        queue = [t.job["started_at"] - t.job["submitted_at"] for t in done]
        run = [t.job["finished_at"] - t.job["started_at"] for t in done]
        respond = [t.seen_done_wall - t.job["finished_at"] for t in done]
        status = [rtt for t in done for rtt in t.status_rtts_s]
        scrapes = [self._client.request("GET", "/metrics")[2] for _ in range(5)]
        span = sum(t.latency_s for t in done)
        metrics: dict[str, float | None] = {
            "serve.job_latency_p90_s": percentile([t.latency_s for t in done], 0.9),
            "serve.queue_wait_p50_s": statistics.median(queue),
            "serve.queue_wait_p90_s": percentile(queue, 0.9),
            "serve.run_p50_s": statistics.median(run),
            "serve.respond_delay_p50_ms": statistics.median(respond) * 1e3,
            "serve.submit_rtt_p50_ms":
                statistics.median(t.submit_rtt_s for t in done) * 1e3,
            "serve.status_rtt_p50_ms": statistics.median(status) * 1e3,
            "serve.metrics_scrape_ms": statistics.median(scrapes) * 1e3,
            "serve.jobs_per_s": len(done) / span,
        }
        (n0, cpu0, rss0), (n1, cpu1, rss1) = (
            self._daemon_marks[0], self._daemon_marks[-1]
        )
        metrics["serve.daemon_cpu_per_job_ms"] = (cpu1 - cpu0) / (n1 - n0) * 1e3
        metrics["serve.rss_growth_per_job_kib"] = (rss1 - rss0) / (n1 - n0)
        return metrics

    def finish(self) -> list[Check]:
        """Three sampled served artifacts must equal ``run_cell`` on the
        same coordinates."""
        from repro.experiments import artifact_path, build_plan, get_preset, run_cell

        done = [t for t in self._timed if not t.error]
        if not done:
            return [Check("served == run_cell", False, "no job completed")]
        sample = {done[0].seed, done[len(done) // 2].seed, done[-1].seed}
        preset = get_preset("cifar10-bench")
        reference = self._fresh_dir("reference")
        mismatched = []
        for cell in build_plan(
            preset, ["skiptrain"], degrees=[self.DEGREE], seeds=sorted(sample),
            total_rounds=self.ROUNDS,
        ):
            run_cell(preset, cell, reference, vectorized=True)
            served = artifact_path(self.results_dir, cell)
            if (
                not served.is_file()
                or served.read_bytes() != artifact_path(reference, cell).read_bytes()
            ):
                mismatched.append(cell.cell_id)
        shutil.rmtree(reference, ignore_errors=True)
        return [Check("served == run_cell", not mismatched, ", ".join(mismatched))]

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None
        shutil.rmtree(self.results_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SyncPaper, SyncFleet, SweepMixed, ServeClosed)
}
