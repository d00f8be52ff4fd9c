"""Sweep orchestrator tests: plan/sharding invariants, artifact
skip-on-rerun, crash/resume (between cells and mid-cell), and
aggregation determinism — the acceptance contract is that sharded,
interrupted, and uninterrupted executions of one plan produce
byte-identical raw artifacts and CSVs."""

import dataclasses
import json

import oracles
import pytest

from repro.experiments import (
    aggregate_results,
    artifact_path,
    build_plan,
    parse_shard,
    run_cell,
    run_sweep,
    shard_cells,
    write_summary_csv,
)
from repro.experiments.artifacts import (
    checkpoint_path,
    load_cell_artifact,
    load_cell_result,
)


@pytest.fixture
def micro_preset(tiny_preset):
    """The tiny preset tightened for orchestration tests: 12 rounds,
    eval every 2 (so checkpoints land early), sampled evaluation (so
    the eval rng stream is exercised by resume), and budgets that keep
    the constrained/greedy algorithms partially active."""
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
    """Async twin of the micro preset (12 expected activations per
    node, sampled evaluation so resume exercises the eval rng)."""
    from repro.experiments import async_variant

    return async_variant(micro_preset)


def lookup_for(preset):
    def lookup(name):
        assert name == preset.name
        return preset

    return lookup


class TestPlanAndSharding:
    def test_plan_is_deterministic_and_complete(self, micro_preset):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          degrees=(3,), seeds=(0, 1, 2))
        assert plan == build_plan(micro_preset, ("skiptrain", "d-psgd"),
                                  degrees=(3,), seeds=(0, 1, 2))
        assert len(plan) == 6
        assert len({c.cell_id for c in plan}) == 6
        assert all(c.total_rounds == micro_preset.total_rounds for c in plan)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_shard_union_equals_plan_and_disjoint(self, micro_preset, count):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd", "greedy"),
                          degrees=(3,), seeds=(0, 1))
        shards = [shard_cells(plan, i, count) for i in range(1, count + 1)]
        union = [c for s in shards for c in s]
        assert sorted(union) == sorted(plan)
        assert len(union) == len(plan)  # disjoint

    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/4", "5/4", "1", "a/b", "1/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_empty_plan_inputs_rejected(self, micro_preset):
        with pytest.raises(ValueError):
            build_plan(micro_preset, (), seeds=(0,))
        with pytest.raises(ValueError):
            build_plan(micro_preset, ("skiptrain",), seeds=())
        with pytest.raises(ValueError):
            build_plan(micro_preset, ("skiptrain",), seeds=(0,),
                       total_rounds=0)


class TestSweepExecution:
    def test_rerun_skips_completed_cells(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0, 1))
        stats = run_sweep(plan, tmp_path,
                          preset_lookup=lookup_for(micro_preset))
        assert len(stats.ran) == 2 and not stats.skipped
        again = run_sweep(plan, tmp_path,
                          preset_lookup=lookup_for(micro_preset))
        assert not again.ran and len(again.skipped) == 2

    def test_sharded_union_byte_identical_to_unsharded(
        self, micro_preset, tmp_path
    ):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          seeds=(0, 1))
        solo, split = tmp_path / "solo", tmp_path / "split"
        run_sweep(plan, solo, preset_lookup=lookup_for(micro_preset))
        run_sweep(plan, split, shard=(1, 2),
                  preset_lookup=lookup_for(micro_preset))
        run_sweep(plan, split, shard=(2, 2),
                  preset_lookup=lookup_for(micro_preset))
        for cell in plan:
            assert (artifact_path(solo, cell).read_bytes()
                    == artifact_path(split, cell).read_bytes())
        csv_solo = write_summary_csv(aggregate_results(solo)[0],
                                     solo / "summary.csv")
        csv_split = write_summary_csv(aggregate_results(split)[0],
                                      split / "summary.csv")
        assert csv_solo.read_bytes() == csv_split.read_bytes()

    def test_interrupt_between_cells_then_rerun_identical(
        self, micro_preset, tmp_path
    ):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          seeds=(0, 1))
        ref, broken = tmp_path / "ref", tmp_path / "broken"
        run_sweep(plan, ref, preset_lookup=lookup_for(micro_preset))
        # crash after two cells: only the first half of the plan ran
        run_sweep(plan[:2], broken, preset_lookup=lookup_for(micro_preset))
        resumed = run_sweep(plan, broken,
                            preset_lookup=lookup_for(micro_preset))
        assert len(resumed.skipped) == 2 and len(resumed.ran) == 2
        csv_ref = write_summary_csv(aggregate_results(ref)[0],
                                    ref / "summary.csv")
        csv_broken = write_summary_csv(aggregate_results(broken)[0],
                                       broken / "summary.csv")
        assert csv_ref.read_bytes() == csv_broken.read_bytes()

    @pytest.mark.parametrize(
        "algorithm", ["skiptrain-constrained", "greedy", "d-psgd"]
    )
    def test_mid_cell_kill_resumes_bit_identical(
        self, micro_preset, tmp_path, algorithm
    ):
        """Kill a cell partway (after a checkpoint), rerun, and the
        final artifact must equal an uninterrupted run's byte for byte
        — engine state, every rng stream, algorithm state (rng +
        budgets), and the partial history all survive the restart."""
        cell = build_plan(micro_preset, (algorithm,), seeds=(0,))[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(micro_preset, cell, ref, checkpoint_every=2)
        assert not checkpoint_path(ref, cell).exists()  # cleaned up

        class Kill(Exception):
            pass

        def killer(engine, t, history, last_eval):
            if t == 9:
                raise Kill

        with pytest.raises(Kill):
            run_cell(micro_preset, cell, killed, checkpoint_every=2,
                     round_hook=killer)
        assert checkpoint_path(killed, cell).is_file()
        assert not artifact_path(killed, cell).exists()

        _, resumed = run_cell(micro_preset, cell, killed,
                              checkpoint_every=2)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    def test_jobs_pool_byte_identical_to_serial(self, micro_preset, tmp_path):
        """--jobs N contract: the artifact directory (and the CSV built
        from it) is byte-identical to a --jobs 1 run of the same plan."""
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          seeds=(0, 1))
        solo, pooled = tmp_path / "solo", tmp_path / "pooled"
        run_sweep(plan, solo, preset_lookup=lookup_for(micro_preset))
        stats = run_sweep(plan, pooled, jobs=3,
                          preset_lookup=lookup_for(micro_preset))
        assert sorted(c.cell_id for c in stats.ran) == sorted(
            c.cell_id for c in plan
        )
        for cell in plan:
            assert (artifact_path(solo, cell).read_bytes()
                    == artifact_path(pooled, cell).read_bytes())
        csv_solo = write_summary_csv(aggregate_results(solo)[0],
                                     solo / "summary.csv")
        csv_pooled = write_summary_csv(aggregate_results(pooled)[0],
                                       pooled / "summary.csv")
        assert csv_solo.read_bytes() == csv_pooled.read_bytes()
        # a pooled rerun is a no-op, like the serial path
        again = run_sweep(plan, pooled, jobs=3,
                          preset_lookup=lookup_for(micro_preset))
        assert not again.ran and len(again.skipped) == len(plan)

    def test_jobs_composes_with_shard_and_checkpointing(
        self, micro_preset, tmp_path
    ):
        """Sharded pools with mid-cell checkpointing enabled still cover
        the plan exactly once, byte-identical to the serial run."""
        plan = build_plan(micro_preset, ("skiptrain", "greedy"),
                          seeds=(0, 1))
        ref, split = tmp_path / "ref", tmp_path / "split"
        run_sweep(plan, ref, preset_lookup=lookup_for(micro_preset))
        for index in (1, 2):
            run_sweep(plan, split, shard=(index, 2), jobs=2,
                      checkpoint_every=2,
                      preset_lookup=lookup_for(micro_preset))
        for cell in plan:
            assert not checkpoint_path(split, cell).exists()
            assert (artifact_path(ref, cell).read_bytes()
                    == artifact_path(split, cell).read_bytes())

    def test_jobs_validation(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0,))
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(plan, tmp_path, jobs=0,
                      preset_lookup=lookup_for(micro_preset))
        with pytest.raises(ValueError, match="auto"):
            run_sweep(plan, tmp_path, jobs="many",
                      preset_lookup=lookup_for(micro_preset))

    def test_jobs_auto_resolves_affinity(self, micro_preset, tmp_path,
                                         monkeypatch):
        """``jobs="auto"`` resolves via the scheduler affinity mask and
        records the resolved value; a single-CPU box falls back to a
        serial run."""
        import repro.experiments.sweep as sweep_mod

        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0, 1))
        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        stats = run_sweep(plan, tmp_path / "serial", jobs="auto",
                          preset_lookup=lookup_for(micro_preset))
        assert stats.jobs_resolved == 1
        assert stats.jobs_source == "sched_getaffinity"
        assert len(stats.ran) == 2
        # serial path: each key prepared once, in-process
        assert [key[1] for key in stats.prepped] == [0, 1]

        monkeypatch.setattr(sweep_mod.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        stats = run_sweep(plan, tmp_path / "pooled", jobs="auto",
                          preset_lookup=lookup_for(micro_preset))
        assert stats.jobs_resolved == 2
        assert len(stats.ran) == 2
        for cell in plan:
            assert (artifact_path(tmp_path / "serial", cell).read_bytes()
                    == artifact_path(tmp_path / "pooled", cell).read_bytes())

    def test_jobs_auto_without_fork_falls_back_to_serial(
        self, micro_preset, tmp_path, monkeypatch
    ):
        import repro.experiments.sweep as sweep_mod

        plan = build_plan(micro_preset, ("skiptrain",), seeds=(0,))
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sweep_mod.mp, "get_all_start_methods",
                            lambda: ["spawn"])
        stats = run_sweep(plan, tmp_path, jobs="auto",
                          preset_lookup=lookup_for(micro_preset))
        assert stats.jobs_resolved == 1
        assert len(stats.ran) == 1

    def test_vectorized_cell_results_match_serial(
        self, micro_preset, tmp_path
    ):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        serial, vector = tmp_path / "serial", tmp_path / "vector"
        oracles.run_cell(micro_preset, cell, serial)
        run_cell(micro_preset, cell, vector)
        a = load_cell_artifact(artifact_path(serial, cell))
        b = load_cell_artifact(artifact_path(vector, cell))
        assert a["engine"] == {"vectorized": False}
        assert b["engine"] == {"vectorized": True}
        a.pop("engine"), b.pop("engine")
        assert a == b  # bit-compatibility: every result field identical

    def test_cell_preset_mismatch_rejected(self, micro_preset, tmp_path):
        cell = build_plan(micro_preset, ("skiptrain",), seeds=(0,))[0]
        other = dataclasses.replace(micro_preset, name="other")
        with pytest.raises(ValueError, match="belongs to preset"):
            run_cell(other, cell, tmp_path)


class TestOneExecutor:
    """Sync and async, plain and scenario cells all go through the one
    checkpointed executor: killed past a checkpoint they resume into
    the uninterrupted run's bytes, and a finished cell leaves nothing
    under ``checkpoints/`` — not even the ``.tmp`` of a save that a
    kill interrupted."""

    CASES = {
        "sync-plain": ("sync", None, 9),
        "sync-scenario": ("sync", "skiptrain", 9),
        # events, off the evaluation cadence: any boundary resumes, and
        # the oracle's hook, which fires after every event, kills there
        "async-plain": ("async", None, 51),
        "async-scenario": ("async", "async-skiptrain", 51),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_kill_and_resume_leaves_only_the_artifact(
        self, micro_preset, micro_async, tmp_path, case
    ):
        from repro.scenarios import (
            AlgorithmSpec, ChurnEventSpec, ChurnSpec, ScenarioSpec,
        )
        from repro.scenarios.compile import build_scenario_plan

        kind, scenario_algorithm, kill_at = self.CASES[case]
        options = {}
        if scenario_algorithm:
            preset = micro_preset
            spec = ScenarioSpec(
                name=f"one-executor-{kind}", preset="micro",
                total_rounds=12, eval_every=2,
                churn=ChurnSpec(events=(
                    ChurnEventSpec(round=4, node=2, action="leave"),
                )),
                algorithm=AlgorithmSpec(name=scenario_algorithm),
            )
            [cell] = build_scenario_plan(spec, seeds=(0,), preset=preset)
            options["scenario_lookup"] = {spec.name: spec}.__getitem__
        elif kind == "async":
            preset = micro_async
            [cell] = build_plan(preset, ("async-skiptrain",), seeds=(0,),
                                kind="async")
        else:
            preset = micro_preset
            [cell] = build_plan(preset, ("skiptrain",), seeds=(0,))
        assert cell.kind == kind
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(preset, cell, ref, checkpoint_every=2, **options)

        class Kill(Exception):
            pass

        def killer(engine, at, history, last_eval):
            if at == kill_at:
                raise Kill

        kill_run = oracles.run_cell if kind == "async" else run_cell
        with pytest.raises(Kill):
            kill_run(preset, cell, killed, checkpoint_every=2,
                     round_hook=killer, **options)
        ckpt = checkpoint_path(killed, cell)
        assert ckpt.is_file() and not artifact_path(killed, cell).exists()
        # what a process killed inside its next save leaves behind; the
        # resume saves nothing, so no later os.replace consumes it
        ckpt.with_name(ckpt.name + ".tmp").write_bytes(b"torn")

        _, resumed = run_cell(preset, cell, killed, **options)
        assert resumed
        assert list(ckpt.parent.iterdir()) == []
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())


class TestArtifactsAndAggregation:
    @pytest.fixture
    def filled(self, micro_preset, tmp_path):
        plan = build_plan(micro_preset, ("skiptrain", "d-psgd"),
                          seeds=(0, 1))
        run_sweep(plan, tmp_path, preset_lookup=lookup_for(micro_preset))
        return plan, tmp_path

    def test_artifact_is_self_describing(self, filled):
        plan, results_dir = filled
        payload = load_cell_artifact(artifact_path(results_dir, plan[0]))
        assert payload["schema"] == "repro/cell-artifact/v1"
        assert payload["cell"] == {
            "preset": "micro", "algorithm": plan[0].algorithm,
            "degree": 3, "seed": 0, "total_rounds": 12, "kind": "sync",
            "scenario": "",
        }
        assert 0.0 <= payload["results"]["final_accuracy"] <= 1.0
        assert payload["history"]["records"]
        # strict JSON: NaN train losses are encoded as null
        json.dumps(payload, allow_nan=False)

    def test_aggregate_rows_and_gap_report(self, filled):
        plan, results_dir = filled
        rows, gaps = aggregate_results(results_dir)
        assert [(r.algorithm, r.seeds) for r in rows] == [
            ("d-psgd", (0, 1)), ("skiptrain", (0, 1)),
        ]
        assert not gaps
        # drop one seed of one algorithm: aggregation stays usable and
        # the gap is reported instead of hidden
        artifact_path(results_dir, plan[0]).unlink()
        rows, gaps = aggregate_results(results_dir)
        short = [r for r in rows if r.algorithm == plan[0].algorithm][0]
        assert short.n_seeds == 1
        assert list(gaps.values()) == [[plan[0].seed]]

    def test_missing_cell_names_the_command_that_makes_it(self, filled):
        """A paper output loads its exact planned cells: a missing
        default cell names the sweep that makes it, a missing cell with
        run settings (which no sweep flag spells) the output's own
        run."""
        plan, results_dir = filled
        assert load_cell_result(results_dir, plan[0]).cell == plan[0]
        greedy = dataclasses.replace(plan[0], algorithm="greedy")
        with pytest.raises(FileNotFoundError, match="repro sweep --preset "
                           "micro --algorithms greedy .* --rounds 12"):
            load_cell_result(results_dir, greedy)
        # another rounds value is another cell, never discovered
        with pytest.raises(FileNotFoundError):
            load_cell_result(results_dir,
                             dataclasses.replace(plan[0], total_rounds=6))
        with pytest.raises(FileNotFoundError,
                           match="without --from-artifacts"):
            load_cell_result(results_dir,
                             dataclasses.replace(plan[0], eval_every=1))

    def test_mixed_rounds_aggregation_fails_loudly(
        self, filled, micro_preset
    ):
        """A smoke sweep next to the full one must not silently enter
        the same mean twice or compare algorithms at different round
        counts: aggregation groups by ``total_rounds``."""
        plan, results_dir = filled
        run_cell(micro_preset,
                 dataclasses.replace(plan[0], total_rounds=6), results_dir)
        rows, _ = aggregate_results(results_dir)
        mine = [r for r in rows if r.algorithm == plan[0].algorithm]
        assert sorted((r.total_rounds, r.seeds) for r in mine) == [
            (6, (plan[0].seed,)), (12, (0, 1)),
        ]


def _record_case(record_cls):
    """A record with a distinct value in every field, and the stub
    result + cell :func:`write_cell_artifact` needs to write it."""
    from types import SimpleNamespace

    from repro.experiments import AsyncExperimentResult, ExperimentResult
    from repro.experiments.artifacts import PlanCell
    from repro.simulation import AsyncHistory, AsyncRecord, RunHistory

    values = {}
    for i, f in enumerate(dataclasses.fields(record_cls), start=1):
        values[f.name] = {"int": i, "float": i + 0.25, "bool": True}[f.type]
    if record_cls is AsyncRecord:
        def result(record):
            return AsyncExperimentResult(
                history=AsyncHistory("p", [record]), train_energy_wh=0.0,
                trace=SimpleNamespace(n_nodes=8))
        cell = PlanCell("micro-async", "async-d-psgd", 3, 0, 12, kind="async")
    else:
        def result(record):
            return ExperimentResult(
                history=RunHistory("a", [record]), trace=None,
                meter=SimpleNamespace(total_train_wh=0.0, total_comm_wh=0.0))
        cell = PlanCell("micro", "d-psgd", 3, 0, 12)
    return record_cls(**values), result, cell


def _records():
    from repro.simulation import AsyncRecord, RoundRecord

    return [RoundRecord, AsyncRecord]


@pytest.mark.parametrize("record_cls", _records())
class TestRecordCodec:
    """A record's JSON object (artifacts) and npz columns (checkpoints)
    both come from the dataclass fields, so a field added to the
    dataclass is in every form or in none."""

    def test_every_field_round_trips_in_field_order(self, record_cls):
        record, _, _ = _record_case(record_cls)
        names = [f.name for f in dataclasses.fields(record_cls)]
        obj = json.loads(json.dumps(record.to_json(), allow_nan=False))
        assert list(obj) == names
        assert record_cls.from_json(obj) == record
        columns = record_cls.to_columns([record, record])
        assert list(columns) == names
        assert record_cls.from_columns(columns) == [record, record]
        for got, want in zip(dataclasses.astuple(record_cls.from_json(obj)),
                             dataclasses.astuple(record)):
            assert type(got) is type(want)
        assert record_cls.from_columns(record_cls.to_columns([])) == []

    def test_nan_policy(self, record_cls, tmp_path):
        """NaN ↔ ``null`` exactly for a float field whose default is
        NaN (``train_loss``: nobody trained); a NaN in any other float
        field still fails the artifact write, and leaves no file."""
        import math

        from repro.experiments.artifacts import write_cell_artifact

        record, result, cell = _record_case(record_cls)
        for f in dataclasses.fields(record_cls):
            if f.type != "float":
                continue
            broken = dataclasses.replace(record, **{f.name: float("nan")})
            if f.name == "train_loss":
                assert broken.to_json()[f.name] is None
                back = record_cls.from_json(broken.to_json())
                assert math.isnan(back.train_loss)
                (col,) = record_cls.from_columns(record_cls.to_columns([broken]))
                assert math.isnan(col.train_loss)
                write_cell_artifact(tmp_path / "ok", cell, result(broken))
            else:
                assert math.isnan(broken.to_json()[f.name])
                with pytest.raises(ValueError):
                    write_cell_artifact(tmp_path / "bad", cell, result(broken))
        assert not (tmp_path / "bad").exists()

    def test_writer_refuses_a_result_of_the_other_kind(self, record_cls, tmp_path):
        from repro.experiments.artifacts import write_cell_artifact

        record, result, cell = _record_case(record_cls)
        other = "sync" if cell.kind == "async" else "async"
        with pytest.raises(ValueError, match=f"{cell.kind} run"):
            write_cell_artifact(tmp_path, dataclasses.replace(cell, kind=other),
                                result(record))
        assert not list(tmp_path.iterdir())


class TestAsyncOrchestration:
    """Async cells ride the same plan → raw artifact → CSV pipeline:
    resumable, shardable, pool-parallel, and mid-cell-kill safe, all
    byte-identical to an uninterrupted serial run."""

    ASYNC_ALGOS = ("async-skiptrain", "async-d-psgd",
                   "async-skiptrain-constrained")

    def test_async_plan_cells_are_marked_and_distinct(self, micro_async):
        plan = build_plan(micro_async, self.ASYNC_ALGOS, seeds=(0,),
                          kind="async")
        assert all(c.kind == "async" for c in plan)
        assert all(c.cell_id.endswith("__async") for c in plan)
        sync_twin = build_plan(micro_async, self.ASYNC_ALGOS, seeds=(0,))
        assert not set(c.cell_id for c in plan) & set(
            c.cell_id for c in sync_twin
        )

    def test_bad_kind_rejected(self, micro_async):
        with pytest.raises(ValueError, match="kind"):
            build_plan(micro_async, ("async-d-psgd",), seeds=(0,),
                       kind="quantum")

    def test_async_sweep_skip_shard_jobs_byte_identical(
        self, micro_async, tmp_path
    ):
        plan = build_plan(micro_async, ("async-skiptrain", "async-d-psgd"),
                          seeds=(0, 1), kind="async")
        solo, split, pooled = (tmp_path / d for d in ("solo", "split", "pooled"))
        run_sweep(plan, solo, preset_lookup=lookup_for(micro_async))
        for index in (1, 2):
            run_sweep(plan, split, shard=(index, 2),
                      preset_lookup=lookup_for(micro_async))
        run_sweep(plan, pooled, jobs=2, preset_lookup=lookup_for(micro_async))
        for cell in plan:
            ref = artifact_path(solo, cell).read_bytes()
            assert artifact_path(split, cell).read_bytes() == ref
            assert artifact_path(pooled, cell).read_bytes() == ref
        again = run_sweep(plan, solo, preset_lookup=lookup_for(micro_async))
        assert not again.ran and len(again.skipped) == len(plan)

    @pytest.mark.parametrize("algorithm", list(ASYNC_ALGOS))
    def test_async_mid_cell_kill_resumes_bit_identical(
        self, micro_async, tmp_path, algorithm
    ):
        """Kill an async cell at an arbitrary event (not aligned with
        the eval cadence), rerun, and the final artifact equals an
        uninterrupted run's byte for byte — event heap, counters,
        policy state, and every rng stream survive the restart. The
        oracle is killed (its hook fires after every event), the
        product resumes."""
        cell = build_plan(micro_async, (algorithm,), seeds=(0,),
                          kind="async")[0]
        ref, killed = tmp_path / "ref", tmp_path / "killed"
        run_cell(micro_async, cell, ref, checkpoint_every=2)
        assert not checkpoint_path(ref, cell).exists()

        class Kill(Exception):
            pass

        def killer(engine, event, history, last):
            if event == 51:
                raise Kill

        with pytest.raises(Kill):
            oracles.run_cell(micro_async, cell, killed, checkpoint_every=2,
                             round_hook=killer)
        assert checkpoint_path(killed, cell).is_file()
        assert not artifact_path(killed, cell).exists()

        _, resumed = run_cell(micro_async, cell, killed, checkpoint_every=2)
        assert resumed
        assert not checkpoint_path(killed, cell).exists()
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(ref, cell).read_bytes())

    def test_async_artifact_is_self_describing(self, micro_async, tmp_path):
        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        run_cell(micro_async, cell, tmp_path)
        payload = load_cell_artifact(artifact_path(tmp_path, cell))
        assert payload["schema"] == "repro/async-cell-artifact/v1"
        assert payload["cell"] == {
            "preset": "micro-async", "algorithm": "async-skiptrain",
            "degree": 3, "seed": 0, "total_rounds": 12, "kind": "async",
            "scenario": "",
        }
        records = payload["history"]["records"]
        assert records, "async artifact must carry time-keyed records"
        times = [r["time"] for r in records]
        assert times == sorted(times)
        assert set(records[0]) == {
            "time", "activations", "mean_accuracy", "std_accuracy",
            "consensus", "train_energy_wh",
        }
        assert 0.0 <= payload["results"]["final_accuracy"] <= 1.0
        assert payload["results"]["total_comm_wh"] == 0.0
        assert payload["engine"] == {
            "events": 12 * micro_async.n_nodes, "vectorized": True,
        }

    def test_async_cells_aggregate_alongside_sync(
        self, micro_preset, micro_async, tmp_path
    ):
        sync_plan = build_plan(micro_preset, ("skiptrain",), seeds=(0, 1))
        async_plan = build_plan(micro_async, ("async-skiptrain",),
                                seeds=(0, 1), kind="async")
        run_sweep(sync_plan, tmp_path, preset_lookup=lookup_for(micro_preset))
        run_sweep(async_plan, tmp_path, preset_lookup=lookup_for(micro_async))
        rows, gaps = aggregate_results(tmp_path)
        assert [(r.preset, r.algorithm, r.n_seeds) for r in rows] == [
            ("micro", "skiptrain", 2),
            ("micro-async", "async-skiptrain", 2),
        ]
        assert not gaps
        csv_path = write_summary_csv(rows, tmp_path / "summary.csv")
        from repro.experiments import read_summary_csv

        assert [r.algorithm for r in read_summary_csv(csv_path)] == [
            "skiptrain", "async-skiptrain",
        ]

    def test_async_eval_cadence_does_not_change_results(
        self, micro_async, tmp_path
    ):
        """Orchestration-level regression for the eval/event rng split:
        the same async cell run at a different evaluation cadence ends
        at the exact same final accuracy and energy (all-node
        evaluation: with node sampling, the final *measurement* draws a
        different node subset, but the trajectory itself — engine state
        and energy — is cadence-independent either way; the engine-level
        test pins the state)."""
        full_eval = dataclasses.replace(micro_async, eval_node_sample=None)
        dense = dataclasses.replace(full_eval, eval_every=1)
        cell = build_plan(full_eval, ("async-d-psgd",), seeds=(0,),
                          kind="async")[0]
        run_cell(full_eval, cell, tmp_path / "sparse")
        run_cell(dense, cell, tmp_path / "dense")
        a = load_cell_artifact(artifact_path(tmp_path / "sparse", cell))
        b = load_cell_artifact(artifact_path(tmp_path / "dense", cell))
        assert a["results"] == b["results"]
        assert len(b["history"]["records"]) > len(a["history"]["records"])

    def test_async_vectorized_cell_results_match_serial(
        self, micro_async, tmp_path
    ):
        """The async analogue of the sync bit-compatibility test: a
        product (disjoint-event-batched) async cell's artifact is
        identical to the oracle's up to the engine provenance flag."""
        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        serial, vector = tmp_path / "serial", tmp_path / "vector"
        oracles.run_cell(micro_async, cell, serial)
        run_cell(micro_async, cell, vector)
        a = load_cell_artifact(artifact_path(serial, cell))
        b = load_cell_artifact(artifact_path(vector, cell))
        assert a["engine"]["vectorized"] is False
        assert b["engine"]["vectorized"] is True
        assert a["engine"]["events"] == b["engine"]["events"]
        a.pop("engine"), b.pop("engine")
        assert a == b  # bit-compatibility: every result field identical

    def test_result_from_artifact_guards_async_schema(
        self, micro_async, tmp_path
    ):
        from repro.experiments import async_history_from_artifact
        from repro.experiments.artifacts import result_from_artifact

        cell = build_plan(micro_async, ("async-skiptrain",), seeds=(0,),
                          kind="async")[0]
        run_cell(micro_async, cell, tmp_path)
        payload = load_cell_artifact(artifact_path(tmp_path, cell))
        with pytest.raises(ValueError, match="async"):
            result_from_artifact(payload)
        history = async_history_from_artifact(payload)
        assert history.policy == "async-SkipTrain"
        assert history.final_accuracy() == payload["results"]["final_accuracy"]
