"""Parallel-correctness battery for the persistent sweep pool
(:mod:`repro.experiments.pool`).

The contract under test: a ``jobs=N`` sweep through the persistent pool
produces an artifact tree byte-identical to ``jobs=1`` — across sync,
async, and scenario cells, under sharding, skip-finished reruns,
mid-cell checkpoints, and any dispatch/completion order — while the
workers prepare every dataset themselves (each key at most once per
worker, one dataset alive per worker, none ever in the parent), a
crashed worker — or a failing ``prepare_data`` — fails the sweep fast
with its original traceback naming the cell, and no worker process or
shared-memory segment outlives the sweep (success, worker failure, or
KeyboardInterrupt).
"""

import dataclasses
import gc
import multiprocessing as mp
import os
import random
import time
import weakref
from collections import Counter
from pathlib import Path

import oracles
import pytest

from repro.experiments import (
    PersistentPool,
    PoolWorkerError,
    aggregate_results,
    artifact_path,
    build_plan,
    cell_dataset,
    run_cell_from_data,
    run_sweep,
    write_summary_csv,
)
from repro.experiments import sweep
from repro.experiments.artifacts import checkpoint_dir, checkpoint_path
from repro.experiments.runner import prepare_data
from repro.experiments.sweep import DatasetCache, cell_data_coords
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


def mixed_plan(micro_preset):
    """Sync + async + scenario cells in one plan."""
    plan = build_plan(micro_preset, ("skiptrain", "d-psgd"), degrees=(3,),
                      seeds=(0, 1))
    plan += build_plan(micro_preset, ("async-skiptrain",), degrees=(3,),
                       seeds=(0,))
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
        self, micro_preset, tmp_path
    ):
        """Sync, async, and scenario cells through 4 persistent workers
        produce the same bytes as a serial run — and every /dev/shm
        segment is gone afterwards."""
        plan = mixed_plan(micro_preset)
        lookup = lookup_for(micro_preset)
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


def drain(pool):
    """Collect every outstanding result of a pool whose intake is
    closed."""
    results = []
    while pool.outstanding:
        result = pool.next_result()
        if result is not None:
            results.append(result)
    return results


class TestQueueOrderProperty:
    def test_shuffled_dispatch_orders_byte_identical(
        self, micro_preset, tmp_path
    ):
        """Property: whatever order cells are queued (and whatever order
        workers finish them), every artifact and the summary CSV are
        byte-identical — the streaming sweep on the plan as built and on
        a shuffled one, and the two functions it is made of fed by hand
        in shuffled order, all against ``jobs=1``."""
        plan = mixed_plan(micro_preset)
        lookup = lookup_for(micro_preset)
        lookups = dict(preset_lookup=lookup,
                       scenario_lookup=SPECS.__getitem__)
        serial = tmp_path / "serial"
        run_sweep(plan, serial, **lookups)
        streamed = tmp_path / "streamed"
        run_sweep(plan, streamed, jobs=2, **lookups)
        assert_trees_identical(plan, serial, streamed)
        for trial in range(2):
            shuffled = list(plan)
            random.Random(trial).shuffle(shuffled)
            swept = tmp_path / f"swept{trial}"
            stats = run_sweep(tuple(shuffled), swept, jobs=2, **lookups)
            assert len(stats.ran) == len(plan)
            assert_trees_identical(plan, serial, swept)
            # run_sweep orders its pending cells; the two functions it
            # is made of take them in any order
            out = tmp_path / f"shuffled{trial}"
            cache = DatasetCache()

            def run_one(cell):
                return run_cell_from_data(cell, cell_dataset(
                    cell, cache, log=lambda msg: None, **lookups), out,
                    **lookups)

            with PersistentPool(3, run_one) as workers:
                for cell in shuffled:
                    workers.submit(
                        (cell,), cell_data_coords(cell, **lookups)[0])
                workers.close_intake()
                ran = drain(workers)
            assert len(ran) == len(plan)
            assert_trees_identical(plan, serial, out)


class TestPrepCache:
    def test_each_dataset_prepped_at_most_once_per_worker(
        self, micro_preset, tmp_path
    ):
        """8 cells over 2 algorithms × 2 degrees × 2 seeds share 2
        datasets; a no-override scenario shares the plain cells' key
        and a dirichlet-skew scenario gets its own. Every key is
        prepared, none more often than it has cells or the pool has
        workers."""
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
        cells = {
            ("micro", 0, None, None): 5,        # seed 0: 4 plain + pool-plain
            ("micro", 0, "dirichlet", 0.5): 1,  # pool-churn-skew's data axis
            ("micro", 1, None, None): 4,        # seed 1: 4 plain cells
        }
        counts = Counter(stats.prepped)
        assert set(counts) == set(cells)
        for key, times in counts.items():
            assert times <= min(4, cells[key]), (key, times)

    def test_serial_sweep_preps_each_key_once_and_holds_one_dataset(
        self, micro_preset, tmp_path, monkeypatch
    ):
        """``jobs=1`` keys data exactly as the pool does: two
        no-override scenario cells and the plain cell of the same
        (preset, seed) train on one ``prepare_data`` result, and moving
        on to the next key drops it before its successor is built."""
        from repro.experiments import runner

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
        assert stats.prepped == [("micro", 0, None, None),
                                 ("micro", 1, None, None)]


def many_key_plan(preset, seeds=7):
    """``seeds`` distinct data keys, two cells each."""
    return build_plan(preset, ("skiptrain", "d-psgd"), degrees=(3,),
                      seeds=tuple(range(seeds)))


class TestResidency:
    """Datasets live in the processes that run cells: a sweep worker
    prepares on a miss and holds one dataset at a time, and the parent
    never prepares, copies or holds one."""

    def test_workers_hold_one_dataset_and_the_parent_none(
        self, micro_preset, tmp_path, monkeypatch
    ):
        """A pid spy on ``prepare_data``, inherited by the forked
        workers: every call runs in a worker, never in the parent, and
        finds no earlier dataset of its process still alive."""
        plan = many_key_plan(micro_preset)
        spool = tmp_path / "preps"
        spool.mkdir()
        built: list = []  # per process: weakrefs of what it prepared
        real = sweep.prepare_data

        def spy(preset, seed=0, **kwargs):
            gc.collect()
            alive = sum(ref() is not None for ref in built)
            with open(spool / str(os.getpid()), "a") as fh:
                fh.write(f"{seed} {alive}\n")
            data = real(preset, seed=seed, **kwargs)
            built.append(weakref.ref(data.train.x))
            return data

        monkeypatch.setattr(sweep, "prepare_data", spy)
        stats = run_sweep(plan, tmp_path / "out", jobs=2,
                          preset_lookup=lookup_for(micro_preset))
        assert len(stats.ran) == len(plan)
        calls = {
            int(path.name): [tuple(map(int, line.split()))
                             for line in path.read_text().splitlines()]
            for path in spool.iterdir()
        }
        assert os.getpid() not in calls
        assert len(calls) == 2  # both workers prepared
        rows = [row for worker in calls.values() for row in worker]
        assert {alive for _, alive in rows} == {0}
        assert sorted(seed for seed, _ in rows) == sorted(
            key[1] for key in stats.prepped)
        assert {key[1] for key in stats.prepped} == set(range(7))
        assert max(Counter(stats.prepped).values()) <= 2

    def test_the_parent_peak_stays_below_one_bench_dataset(self, tmp_path):
        """``tracemalloc`` in the parent across a pooled bench sweep:
        its peak stays below the bytes of one ``cifar10-bench`` dataset,
        so no dataset — prepared, copied or received — ever lands
        there."""
        import tracemalloc

        from repro.experiments import get_preset

        preset = get_preset("cifar10-bench")
        one = oracles.dataset_bytes(prepare_data(preset, seed=0))
        plan = build_plan(preset, ("d-psgd",), degrees=(3,), seeds=(0, 1),
                          total_rounds=2)
        # a warm-up sweep loads every module the measured one touches
        run_sweep(plan[:1], tmp_path / "warm", jobs=2)
        tracemalloc.start()
        try:
            stats = run_sweep(plan, tmp_path / "out", jobs=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stats.ran) == len(plan)
        assert peak < one, f"parent peak {peak} B >= one dataset {one} B"

    def test_prepped_lists_preparations_in_the_order_workers_report(
        self, micro_preset, tmp_path
    ):
        plan = many_key_plan(micro_preset)
        lines: list[str] = []
        stats = run_sweep(plan, tmp_path, jobs=2, log=lines.append,
                          preset_lookup=lookup_for(micro_preset))
        # the workers' prep lines reach the parent's log, one per entry
        assert [line for line in lines if line.startswith("prep")] == [
            f"prep micro seed={key[1]}" for key in stats.prepped
        ]
        assert {key[1] for key in stats.prepped} == set(range(7))
        assert max(Counter(stats.prepped).values()) <= 2

    def test_an_idle_worker_takes_its_key_then_an_unheld_one(self):
        """The pool's hand-out order: the two workers start on two
        different keys, and each runs a key's cells back to back,
        leaving it only when none is left, so no worker prepares a key
        twice."""
        from types import SimpleNamespace

        keys = ["a"] * 4 + ["b"] * 3 + ["c"] * 2 + ["d"]
        pool = PersistentPool(2, lambda cell: os.getpid())
        for at, key in enumerate(keys):
            pool.submit((SimpleNamespace(cell_id=f"{key}{at}"),), key)
        pool.close_intake()
        with pool:
            ran = drain(pool)
        assert sorted(cell_id for cell_id, _ in ran) == sorted(
            f"{key}{at}" for at, key in enumerate(keys))
        by_worker: dict = {}
        for cell_id, pid in ran:  # a worker reports in the order it ran
            by_worker.setdefault(pid, []).append(cell_id[0])
        assert len(by_worker) == 2
        firsts = sorted(run[0] for run in by_worker.values())
        assert firsts == ["a", "b"]
        for run in by_worker.values():
            blocks = [k for at, k in enumerate(run) if at == 0 or run[at - 1] != k]
            assert len(blocks) == len(set(blocks)), run

    def test_dataset_cache_holds_the_latest_key_and_releases_it_on_a_miss(
        self, micro_preset
    ):
        """One slot: a hit returns the held dataset, a miss drops it
        before the caller prepares, so the next key's preparation never
        runs beside it."""
        cache = DatasetCache()
        first = cache.keep(0, prepare_data(micro_preset, seed=0))
        assert cache.get(0) is first
        released = weakref.ref(first)
        del first
        assert cache.get(1) is None  # the miss: nothing is held now
        assert released() is None
        second = cache.keep(1, prepare_data(micro_preset, seed=1))
        assert cache.get(1) is second
        assert cache.get(0) is None  # a key that comes back is prepared again


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

    @pytest.mark.parametrize("failure", ["prepare_data", "log"])
    def test_producer_failure_leaves_a_worker_failures_state(
        self, micro_preset, tmp_path, monkeypatch, failure
    ):
        """Preparing a dataset fails — ``prepare_data`` raises inside
        the worker that needs the fourth key, or Ctrl-C lands in the
        parent's ``log`` callback as it relays that key's ``prep`` line.
        A raising ``prepare_data`` surfaces as :class:`PoolWorkerError`
        naming the cell, with the worker's traceback. Either way the
        state is a worker failure's: workers gone, no segment left,
        finished artifacts intact, and a rerun completes the rest into
        bytes identical to serial."""
        plan = many_key_plan(micro_preset, seeds=5)
        lookup = lookup_for(micro_preset)
        serial, broken = tmp_path / "serial", tmp_path / "broken"
        run_sweep(plan, serial, preset_lookup=lookup, checkpoint_every=2)
        real = sweep.prepare_data

        def failing_prepare(preset, seed=0, **kwargs):
            if failure == "prepare_data" and seed == 3:
                raise RuntimeError("producer-test-detonation")
            return real(preset, seed=seed, **kwargs)

        def log(msg):
            if failure == "log" and msg == "prep micro seed=3":
                raise KeyboardInterrupt

        monkeypatch.setattr(sweep, "prepare_data", failing_prepare)
        before = shm_segments()
        children = set(mp.active_children())
        raised = PoolWorkerError if failure == "prepare_data" else KeyboardInterrupt
        with pytest.raises(raised) as err:
            run_sweep(plan, broken, jobs=2, preset_lookup=lookup,
                      checkpoint_every=2, log=log)
        monkeypatch.undo()
        if failure == "prepare_data":
            assert err.value.cell_id in {c.cell_id for c in plan if c.seed == 3}
            assert "producer-test-detonation" in err.value.worker_traceback
            assert "in failing_prepare" in err.value.worker_traceback
        assert shm_segments() - before == set()
        assert set(mp.active_children()) - children == set()
        done = [c for c in plan if artifact_path(broken, c).is_file()]
        assert all(c.seed != 3 for c in done)
        for cell in done:
            assert (artifact_path(broken, cell).read_bytes()
                    == artifact_path(serial, cell).read_bytes())
        stats = run_sweep(plan, broken, jobs=2, preset_lookup=lookup,
                          checkpoint_every=2)
        assert stats.skipped == done
        assert shm_segments() - before == set()
        assert_trees_identical(plan, serial, broken)

    def test_sharded_partly_finished_checkpointed_sweep_resumes(
        self, micro_preset, tmp_path
    ):
        """Everything a rerun composes, through the pipeline at once: a
        shard of the plan killed with some cells finished and a mid-cell
        checkpoint on disk, rerun, then the other shard."""
        plan = many_key_plan(micro_preset, seeds=4)
        lookup = lookup_for(micro_preset)
        serial, split = tmp_path / "serial", tmp_path / "split"
        run_sweep(plan, serial, preset_lookup=lookup, checkpoint_every=2)
        mine = plan[0::2]
        rounds_seen = []  # each forked worker counts its own

        class Kill(Exception):
            pass

        def killer(engine, t, history, last_eval):
            rounds_seen.append(t)
            if len(rounds_seen) == micro_preset.total_rounds + 9:
                raise Kill  # round 9 of this worker's second cell

        with pytest.raises(PoolWorkerError) as err:
            run_sweep(plan, split, shard=(1, 2), jobs=2, preset_lookup=lookup,
                      checkpoint_every=2, round_hook=killer)
        victim = err.value.cell_id
        finished = [c for c in mine if artifact_path(split, c).is_file()]
        assert 2 <= len(finished) < len(mine)
        assert (checkpoint_dir(split) / f"{victim}.npz").is_file()
        again = run_sweep(plan, split, shard=(1, 2), jobs=2,
                          preset_lookup=lookup, checkpoint_every=2)
        assert again.skipped == finished
        assert len(again.ran) == len(mine) - len(finished)
        assert victim in [c.cell_id for c in again.resumed]
        other = run_sweep(plan, split, shard=(2, 2), jobs=2,
                          preset_lookup=lookup, checkpoint_every=2)
        assert len(other.ran) == len(plan) - len(mine) and not other.skipped
        assert not list(checkpoint_dir(split).glob("*"))
        assert_trees_identical(plan, serial, split)

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
                     seed=seed, total_rounds=1)
            for seed in range(n)
        ]

    @staticmethod
    def _kill_when_started(pid_file, deadline_s=10.0):
        import signal
        import time

        deadline = time.monotonic() + deadline_s
        # the worker creates the file before it writes the pid into it
        while not (pid_file.is_file() and pid_file.read_text()):
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
