"""Parallel-correctness battery for the persistent shared-memory sweep
pool (:mod:`repro.experiments.pool`).

The contract under test: a ``jobs=N`` sweep through the persistent pool
produces an artifact tree byte-identical to ``jobs=1`` — across sync,
async, and scenario cells, under sharding, skip-finished reruns,
mid-cell checkpoints, and any dispatch/completion order — while every
distinct dataset is prepared exactly once (for every ``jobs``), a
crashed worker fails the sweep fast with its original traceback, and no
shared-memory segment ever outlives the sweep (success, failure, or
KeyboardInterrupt).
"""

import dataclasses
import gc
import multiprocessing as mp
import os
import random
import weakref
from pathlib import Path

import pytest

from repro.experiments import (
    PersistentPool,
    PoolWorkerError,
    SharedDatasetCache,
    aggregate_results,
    artifact_path,
    async_variant,
    build_plan,
    cell_dataset,
    run_cell_from_data,
    run_sweep,
    write_summary_csv,
)
from repro.experiments.artifacts import checkpoint_dir, checkpoint_path
from repro.scenarios import (
    AlgorithmSpec,
    ChurnEventSpec,
    ChurnSpec,
    DataSpec,
    ScenarioSpec,
)
from repro.scenarios.compile import build_scenario_plan

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the persistent pool requires the fork start method",
)

SHM_DIR = Path("/dev/shm")


def shm_segments() -> set:
    """Current multiprocessing shared-memory entries in /dev/shm."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}


@pytest.fixture
def micro_preset(tiny_preset):
    """The orchestration-test preset: 12 rounds, eval every 2, sampled
    evaluation, budgets that keep constrained algorithms active."""
    return dataclasses.replace(
        tiny_preset,
        name="micro",
        total_rounds=12,
        eval_every=2,
        eval_node_sample=4,
        battery_fraction=0.1,
    )


@pytest.fixture
def micro_async(micro_preset):
    return async_variant(micro_preset)


SCENARIO = ScenarioSpec(
    name="pool-churn-skew",
    preset="micro",
    total_rounds=12,
    eval_every=2,
    churn=ChurnSpec(
        initially_absent=(2,),
        events=(
            ChurnEventSpec(round=4, node=2, action="join"),
            ChurnEventSpec(round=6, node=5, action="leave"),
        ),
    ),
    data=DataSpec(partition="dirichlet", alpha=0.5),
    algorithm=AlgorithmSpec(name="skiptrain"),
)

PLAIN_SCENARIO = ScenarioSpec(
    name="pool-plain",
    preset="micro",
    total_rounds=12,
    eval_every=2,
    algorithm=AlgorithmSpec(name="d-psgd"),
)

SPECS = {s.name: s for s in (SCENARIO, PLAIN_SCENARIO)}


def lookup_for(*presets):
    table = {p.name: p for p in presets}
    return table.__getitem__


def mixed_plan(micro_preset, micro_async):
    """Sync + async + scenario cells in one plan."""
    plan = build_plan(micro_preset, ("skiptrain", "d-psgd"), degrees=(3,),
                      seeds=(0, 1))
    plan += build_plan(micro_async, ("async-skiptrain",), degrees=(3,),
                       seeds=(0,), kind="async")
    plan += build_scenario_plan(SCENARIO, seeds=(0,), preset=micro_preset)
    return plan


def assert_trees_identical(plan, ref_dir, got_dir):
    for cell in plan:
        ref = artifact_path(ref_dir, cell).read_bytes()
        got = artifact_path(got_dir, cell).read_bytes()
        assert got == ref, f"artifact differs for {cell.cell_id}"
    ref_csv = write_summary_csv(aggregate_results(ref_dir)[0],
                                ref_dir / "summary.csv")
    got_csv = write_summary_csv(aggregate_results(got_dir)[0],
                                got_dir / "summary.csv")
    assert got_csv.read_bytes() == ref_csv.read_bytes()


class TestByteIdentity:
    def test_jobs4_identical_to_serial_across_kinds(
        self, micro_preset, micro_async, tmp_path
    ):
        """Sync, async, and scenario cells through 4 persistent workers
        produce the same bytes as a serial run — and every /dev/shm
        segment is gone afterwards."""
        plan = mixed_plan(micro_preset, micro_async)
        lookup = lookup_for(micro_preset, micro_async)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        run_sweep(plan, serial, preset_lookup=lookup,
                  scenario_lookup=SPECS.__getitem__)
        before = shm_segments()
        stats = run_sweep(plan, pooled, jobs=4, preset_lookup=lookup,
                          scenario_lookup=SPECS.__getitem__)
        assert shm_segments() - before == set()
        assert len(stats.ran) == len(plan) and not stats.skipped
        assert_trees_identical(plan, serial, pooled)

    def test_sharded_pool_union_identical_to_serial(
        self, micro_preset, tmp_path
    ):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0, 1))
        lookup = lookup_for(micro_preset)
        serial, split = tmp_path / "serial", tmp_path / "split"
        run_sweep(plan, serial, preset_lookup=lookup)
        run_sweep(plan, split, shard=(1, 2), jobs=2, preset_lookup=lookup)
        run_sweep(plan, split, shard=(2, 2), jobs=2, preset_lookup=lookup)
        assert_trees_identical(plan, serial, split)

    def test_skip_finished_rerun_through_pool(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), degrees=(3,),
                          seeds=(0, 1, 2))
        lookup = lookup_for(micro_preset)
        first = run_sweep(plan[:2], tmp_path, jobs=2, preset_lookup=lookup)
        assert len(first.ran) == 2
        again = run_sweep(plan, tmp_path, jobs=2, preset_lookup=lookup)
        assert len(again.skipped) == 2 and len(again.ran) == 1
        # only the pending cell's dataset was prepared on the rerun
        [leftover] = again.ran
        assert again.prepped == [("micro", leftover.seed, None, None)]

    def test_mid_cell_checkpoint_resume_through_pool(
        self, micro_preset, tmp_path
    ):
        """A cell killed mid-run inside a worker leaves its checkpoint;
        a pooled rerun resumes it into bytes identical to serial."""
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0,))
        lookup = lookup_for(micro_preset)
        serial, killed = tmp_path / "serial", tmp_path / "killed"
        run_sweep(plan, serial, preset_lookup=lookup, checkpoint_every=2)

        class Kill(Exception):
            pass

        def killer(engine, t, history, last_eval):
            if t == 9:  # past at least one eval-round checkpoint
                raise Kill

        with pytest.raises(PoolWorkerError) as err:
            run_sweep(plan, killed, jobs=2, preset_lookup=lookup,
                      checkpoint_every=2, round_hook=killer)
        assert "Kill" in str(err.value)
        ckpts = [c for c in plan if checkpoint_path(killed, c).is_file()]
        assert ckpts, "no mid-cell checkpoint left behind"
        stats = run_sweep(plan, killed, jobs=2, preset_lookup=lookup,
                          checkpoint_every=2)
        assert stats.resumed, "rerun did not resume from the checkpoint"
        assert_trees_identical(plan, serial, killed)


class TestQueueOrderProperty:
    def test_shuffled_dispatch_orders_byte_identical(
        self, micro_preset, micro_async, tmp_path
    ):
        """Property: whatever order cells are queued (and whatever order
        workers finish them), every artifact and the summary CSV are
        byte-identical."""
        plan = mixed_plan(micro_preset, micro_async)
        lookup = lookup_for(micro_preset, micro_async)
        serial = tmp_path / "serial"
        run_sweep(plan, serial, preset_lookup=lookup,
                  scenario_lookup=SPECS.__getitem__)
        for trial in range(2):
            shuffled = list(plan)
            random.Random(trial).shuffle(shuffled)
            out = tmp_path / f"shuffled{trial}"
            lookups = dict(preset_lookup=lookup,
                           scenario_lookup=SPECS.__getitem__)
            # run_sweep orders its pending cells; the two functions it
            # is made of take them in any order
            with SharedDatasetCache() as shared:
                tasks = [
                    (cell, cell_dataset(cell, shared, log=lambda msg: None,
                                        **lookups))
                    for cell in shuffled
                ]
                with PersistentPool(
                    3, lambda cell, data: run_cell_from_data(
                        cell, data, out, **lookups)
                ) as workers:
                    ran = list(workers.run(tasks))
            assert len(ran) == len(plan)
            assert_trees_identical(plan, serial, out)


class TestPrepCache:
    def test_each_dataset_prepped_exactly_once(self, micro_preset, tmp_path):
        """8 cells over 2 algorithms × 2 degrees × 2 seeds share 2
        datasets; a no-override scenario shares the plain cells'
        segment and a dirichlet-skew scenario gets its own."""
        preset = dataclasses.replace(micro_preset, degrees=(3, 4))
        plan = build_plan(preset, ("skiptrain", "d-psgd"), degrees=(3, 4),
                          seeds=(0, 1))
        plan += build_scenario_plan(PLAIN_SCENARIO, seeds=(0,), preset=preset)
        plan += build_scenario_plan(SCENARIO, seeds=(0,), preset=preset)
        assert len(plan) == 10
        stats = run_sweep(plan, tmp_path, jobs=4,
                          preset_lookup=lookup_for(preset),
                          scenario_lookup=SPECS.__getitem__)
        assert len(stats.ran) == 10
        assert set(stats.prepped) == {
            ("micro", 0, None, None),        # seed 0: 4 plain + pool-plain
            ("micro", 0, "dirichlet", 0.5),  # pool-churn-skew's data axis
            ("micro", 1, None, None),        # seed 1: 4 plain cells
        }
        assert len(stats.prepped) == 3  # exactly once each, no repeats

    def test_serial_sweep_preps_each_key_once_and_holds_one_dataset(
        self, micro_preset, tmp_path, monkeypatch
    ):
        """``jobs=1`` keys data exactly as the pool does: two
        no-override scenario cells and the plain cell of the same
        (preset, seed) train on one ``prepare_data`` result, and moving
        on to the next key drops it before its successor is built."""
        from repro.experiments import runner, sweep

        twin = dataclasses.replace(
            PLAIN_SCENARIO, name="pool-plain-twin",
            algorithm=AlgorithmSpec(name="skiptrain"),
        )
        specs = {**SPECS, twin.name: twin}
        plan = build_plan(micro_preset, ("d-psgd",), degrees=(3,),
                          seeds=(0, 1))
        plan += build_scenario_plan(PLAIN_SCENARIO, seeds=(0,),
                                    preset=micro_preset)
        plan += build_scenario_plan(twin, seeds=(0,), preset=micro_preset)
        built: list = []  # (seed, weakref) per prepare_data call
        real = runner.prepare_data

        def spy(preset, seed=0, **kwargs):
            gc.collect()
            assert [ref() for _, ref in built] == [None] * len(built), (
                "a dataset of an earlier key is still alive"
            )
            data = real(preset, seed=seed, **kwargs)
            built.append((seed, weakref.ref(data)))
            return data

        monkeypatch.setattr(runner, "prepare_data", spy)
        monkeypatch.setattr(sweep, "prepare_data", spy)
        stats = run_sweep(plan, tmp_path,
                          preset_lookup=lookup_for(micro_preset),
                          scenario_lookup=specs.__getitem__)
        assert len(stats.ran) == 4
        assert [seed for seed, _ in built] == [0, 1]
        assert stats.prepped == []  # nothing went to shared memory


class TestFailureAndTeardown:
    def test_worker_crash_surfaces_original_traceback(
        self, micro_preset, tmp_path
    ):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0, 1))

        def bomb(engine, t, history, last_eval):
            if t == 3:
                raise ValueError("pool-test-detonation")

        before = shm_segments()
        with pytest.raises(PoolWorkerError) as err:
            run_sweep(plan, tmp_path, jobs=2,
                      preset_lookup=lookup_for(micro_preset),
                      round_hook=bomb)
        # the worker's original traceback, not a pickling shadow of it
        assert "pool-test-detonation" in str(err.value)
        assert "ValueError" in str(err.value)
        assert "in bomb" in err.value.worker_traceback
        assert err.value.cell_id, "failing cell not identified"
        # clean shutdown: no segment leaked
        assert shm_segments() - before == set()

    def test_sweep_completes_after_a_crashed_run(self, micro_preset, tmp_path):
        """The failed sweep leaves a usable results dir: a rerun skips
        whatever finished before the crash and completes the rest."""
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0, 1))

        def bomb(engine, t, history, last_eval):
            if t == 3:
                raise ValueError("pool-test-detonation")

        with pytest.raises(PoolWorkerError):
            run_sweep(plan, tmp_path, jobs=2,
                      preset_lookup=lookup_for(micro_preset),
                      round_hook=bomb)
        stats = run_sweep(plan, tmp_path, jobs=2,
                          preset_lookup=lookup_for(micro_preset))
        assert len(stats.ran) + len(stats.skipped) == len(plan)
        for cell in plan:
            assert artifact_path(tmp_path, cell).is_file()

    def test_segments_unlinked_on_success(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), degrees=(3,),
                          seeds=(0, 1))
        before = shm_segments()
        run_sweep(plan, tmp_path, jobs=2,
                  preset_lookup=lookup_for(micro_preset))
        assert shm_segments() - before == set()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_segments_unlinked_on_keyboard_interrupt(
        self, micro_preset, tmp_path, jobs
    ):
        """A parent-side Ctrl-C mid-sweep (raised from the progress
        logger, i.e. between cell completions) still unlinks every
        segment on the way out — and, for every ``jobs``, leaves a
        results dir with no half-written checkpoint that a rerun
        completes."""
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0, 1))
        lookup = lookup_for(micro_preset)

        def interrupting_log(msg):
            if "] ran " in msg:
                raise KeyboardInterrupt

        before = shm_segments()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(plan, tmp_path, jobs=jobs, checkpoint_every=2,
                      preset_lookup=lookup, log=interrupting_log)
        assert shm_segments() - before == set()
        if jobs == 1:  # the cell had returned: engine closed, save done
            assert not list(checkpoint_dir(tmp_path).glob("*"))
        stats = run_sweep(plan, tmp_path, jobs=jobs, checkpoint_every=2,
                          preset_lookup=lookup)
        assert stats.skipped and len(stats.ran) + len(stats.skipped) == len(plan)
        assert not list(checkpoint_dir(tmp_path).glob("*"))

    def test_unknown_pool_backend_rejected(self, micro_preset, tmp_path):
        """There is one backend: ``pool=`` names nothing selectable, so
        the legacy ``"fork"`` (or anything else) is a ``TypeError``."""
        plan = build_plan(micro_preset, ("skiptrain",), degrees=(3,),
                          seeds=(0,))
        for backend in ("fork", "threads"):
            with pytest.raises(TypeError, match="pool"):
                run_sweep(plan, tmp_path, jobs=2, pool=backend,
                          preset_lookup=lookup_for(micro_preset))
        assert not artifact_path(tmp_path, plan[0]).exists()


class TestKilledWorkerLiveness:
    """Regression battery for the silent-death liveness bug: the old
    pool only noticed a hard-killed worker once *every* worker had
    exited, so one SIGKILL with siblings still alive hung ``run`` until
    the queue drained (or forever, with outstanding work). The pool
    hands out cells itself, so it knows which one each worker holds,
    and waits on every worker's process sentinel: the death is an
    event, raised at once."""

    @staticmethod
    def _cells(n):
        from repro.experiments.artifacts import PlanCell

        return [
            PlanCell(preset="micro", algorithm="d-psgd", degree=3,
                     seed=seed, total_rounds=1, kind="sync")
            for seed in range(n)
        ]

    @staticmethod
    def _kill_when_started(pid_file, deadline_s=10.0):
        import signal
        import time

        deadline = time.monotonic() + deadline_s
        while not pid_file.is_file():
            assert time.monotonic() < deadline, "victim cell never started"
            time.sleep(0.02)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)

    def test_sigkilled_worker_fails_fast_naming_the_cell(self, tmp_path):
        """SIGKILL one of two workers mid-cell: ``PoolWorkerError``
        names the lost cell and arrives at once (there is no poll
        period; the bound is generous for slow CI), not after the
        surviving worker drains the queue."""
        import time

        from repro.experiments.pool import PersistentPool

        cells = self._cells(4)
        victim_id = cells[0].cell_id

        def run_one(cell):
            (tmp_path / f"{cell.cell_id}.pid").write_text(str(os.getpid()))
            if cell.cell_id == victim_id:
                time.sleep(120)  # hold the cell until SIGKILLed
            return False

        with PersistentPool(2, run_one) as pool:
            for cell in cells:
                pool.submit((cell,))
            pool.close_intake()
            self._kill_when_started(tmp_path / f"{victim_id}.pid")
            started = time.monotonic()
            with pytest.raises(PoolWorkerError) as err:
                while pool.outstanding:
                    pool.next_result()
            elapsed = time.monotonic() - started
        assert err.value.cell_id == victim_id
        assert victim_id in str(err.value)
        assert "died without reporting" in str(err.value)
        assert elapsed < 1.0, (
            f"liveness detection took {elapsed:.1f}s — a death must "
            f"arrive as an event, not at a poll"
        )

    def test_revive_restores_capacity_after_a_kill(self, tmp_path):
        """The streaming supervisor path: after handling the error,
        ``revive()`` respawns the dead worker and later submissions
        complete normally — one murdered cell does not poison the
        pool."""
        import time

        from repro.experiments.pool import PersistentPool

        victim, survivor = self._cells(2)

        def run_one(cell):
            (tmp_path / f"{cell.cell_id}.pid").write_text(str(os.getpid()))
            if cell.cell_id == victim.cell_id:
                time.sleep(120)
            return False

        with PersistentPool(1, run_one) as pool:
            pool.submit((victim,))
            self._kill_when_started(tmp_path / f"{victim.cell_id}.pid")
            with pytest.raises(PoolWorkerError):
                while True:
                    pool.next_result()
            assert pool.busy == pool.outstanding == 0
            assert pool.revive() == 1
            pool.submit((survivor,))
            pool.close_intake()
            results = []
            while pool.outstanding:
                result = pool.next_result()
                if result is not None:
                    results.append(result)
        assert [cell_id for cell_id, _ in results] == [survivor.cell_id]


class TestPerWorkerChannels:
    """Each worker owns one pipe and the parent dispatches tasks, so a
    death can break no channel but the dead worker's own. The shared
    queues this replaced could not promise that: an idle worker blocks
    in ``task_queue.get()`` *holding the queue's reader lock*, and a
    worker mid-``put`` holds the result queue's writer lock — SIGKILL
    either and every sibling (and every revived worker) waits on the
    dead worker's lock forever."""

    _cells = staticmethod(TestKilledWorkerLiveness._cells)

    @staticmethod
    def _collect(pool, deadline_s):
        """Drain the pool; returns (results, errors). Bounded, so a
        wedged pool fails the test instead of hanging the suite."""
        import time

        results, errors = [], []
        deadline = time.monotonic() + deadline_s
        while pool.outstanding:
            assert time.monotonic() < deadline, (
                f"pool wedged with {pool.outstanding} cell(s) outstanding"
            )
            try:
                result = pool.next_result(timeout=0.1)
            except PoolWorkerError as exc:
                errors.append(exc)
                continue
            if result is not None:
                results.append(result)
        return results, errors

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_killing_idle_workers_does_not_wedge_the_pool(self, order):
        import multiprocessing as mp
        import signal

        from repro.experiments.pool import PersistentPool

        cells = self._cells(2)
        before = set(mp.active_children())
        with PersistentPool(2, lambda cell: False) as pool:
            workers = sorted(
                set(mp.active_children()) - before, key=lambda p: p.pid
            )
            assert len(workers) == 2
            for cell, index in zip(cells, order):
                os.kill(workers[index].pid, signal.SIGKILL)
                workers[index].join(5)
                assert pool.revive() == 1
                pool.submit((cell,))
                results, errors = self._collect(pool, deadline_s=2.0)
                assert results == [(cell.cell_id, False)]
                assert errors == []

    def test_worker_killed_mid_send_names_its_cell(self, tmp_path):
        """The victim blocks half-way through a 32 MiB progress message
        (nobody is reading yet) and is SIGKILLed there. The parent must
        read the torn message as that worker's death — naming its cell
        — while the sibling's result arrives intact."""
        import signal
        import time

        from repro.experiments.pool import PersistentPool

        victim, sibling = self._cells(2)

        def run_one(cell, report):
            if cell.cell_id == victim.cell_id:
                (tmp_path / "victim.pid").write_text(str(os.getpid()))
                report(b"x" * (32 << 20), 1)
                time.sleep(120)
            return False

        with PersistentPool(2, run_one, progress=True) as pool:
            pool.submit((victim,))
            pool.submit((sibling,))
            pid_file = tmp_path / "victim.pid"
            deadline = time.monotonic() + 10
            while not pid_file.is_file():
                assert time.monotonic() < deadline, "victim never started"
                time.sleep(0.02)
            time.sleep(0.3)  # let the send fill the pipe and block
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
            results, errors = self._collect(pool, deadline_s=5.0)
        assert results == [(sibling.cell_id, False)]
        assert [exc.cell_id for exc in errors] == [victim.cell_id]
        assert "died without reporting" in str(errors[0])

    def test_wake_interrupts_a_blocked_wait(self):
        """``wake()`` from another thread makes an untimed
        ``next_result`` return ``None`` — how the serve dispatcher
        learns of submissions and drains without polling."""
        import threading
        import time

        from repro.experiments.pool import PersistentPool

        with PersistentPool(1, lambda cell: False) as pool:
            timer = threading.Timer(0.2, pool.wake)
            timer.start()
            started = time.monotonic()
            assert pool.next_result() is None
            elapsed = time.monotonic() - started
            timer.join()
            assert 0.15 < elapsed < 2.0
            # a wake-up is consumed by the wait it interrupts
            assert pool.next_result(timeout=0.05) is None
            pool.wake()
            pool.wake()
            assert pool.next_result() is None
            assert pool.next_result(timeout=0.05) is None


class TestAutoJobs:
    """``jobs="auto"`` sizing: the scheduler affinity mask (what a
    cgroup-limited container may actually use) wins over
    ``os.cpu_count()`` (which reports the whole machine)."""

    def test_prefers_affinity_mask(self):
        from repro.experiments.sweep import resolve_auto_jobs

        count, source = resolve_auto_jobs()
        assert source == "sched_getaffinity"
        assert count == max(1, len(os.sched_getaffinity(0)))

    def test_falls_back_to_cpu_count(self, monkeypatch):
        from repro.experiments import sweep

        monkeypatch.delattr(os, "sched_getaffinity")
        count, source = sweep.resolve_auto_jobs()
        assert source == "cpu_count"
        assert count == max(1, os.cpu_count() or 1)

    def test_affinity_restricted_subprocess_sees_its_mask(self):
        """Pin a child to CPU 0 only: auto sizing must report 1 from
        the mask, regardless of how many CPUs the machine has."""
        import subprocess
        import sys

        import repro

        src_root = str(Path(repro.__file__).parents[1])
        code = (
            "import os; os.sched_setaffinity(0, {0}); "
            "from repro.experiments.sweep import resolve_auto_jobs; "
            "print(resolve_auto_jobs())"
        )
        env = dict(os.environ, PYTHONPATH=src_root)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert out == "(1, 'sched_getaffinity')"

    def test_run_sweep_records_jobs_source(
        self, micro_preset, tmp_path, monkeypatch
    ):
        from repro.experiments import sweep

        plan = build_plan(micro_preset, ("d-psgd",), degrees=(3,),
                          seeds=(0,))
        stats = run_sweep(plan, tmp_path / "explicit", jobs=1,
                          preset_lookup=lookup_for(micro_preset))
        assert stats.jobs_source == "explicit"
        monkeypatch.setattr(
            sweep, "resolve_auto_jobs", lambda: (2, "sched_getaffinity")
        )
        stats = run_sweep(plan, tmp_path / "auto", jobs="auto",
                          preset_lookup=lookup_for(micro_preset))
        assert stats.jobs_resolved == 2
        assert stats.jobs_source == "sched_getaffinity"


def test_os_cpu_note():
    """Not an assertion — documents that byte-identity tests above are
    scheduling-independent: they pass on 1 CPU (where workers simply
    time-slice) and on many."""
    assert os.cpu_count() >= 1
