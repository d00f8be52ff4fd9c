"""Direct API coverage for folding mixed cell kinds — sync, async, and
scenario cells — into one ``summary.csv`` (previously only exercised
through the CLI smoke path).

The contract: one aggregation pass over a results directory containing
all three kinds produces one deterministic CSV where (preset,
algorithm, scenario, degree, rounds) groups never bleed into each
other, partial seed coverage is reported, and the CSV round-trips
through :func:`read_summary_csv` losslessly.
"""

import dataclasses

import pytest

from repro.experiments.artifacts import (
    SUMMARY_COLUMNS,
    aggregate_results,
    build_plan,
    read_summary_csv,
    write_summary_csv,
)
from repro.experiments.sweep import run_cell, run_sweep
from repro.scenarios import AlgorithmSpec, ChurnEventSpec, ChurnSpec, ScenarioSpec
from repro.scenarios.compile import build_scenario_plan


@pytest.fixture
def sync_preset(tiny_preset):
    return dataclasses.replace(tiny_preset, name="tiny", total_rounds=6,
                               eval_every=2, battery_fraction=0.1)


@pytest.fixture
def scenario_spec():
    return ScenarioSpec(
        name="mix-churn",
        preset="tiny",
        total_rounds=6,
        eval_every=2,
        churn=ChurnSpec(events=(ChurnEventSpec(3, 1, "leave"),)),
        algorithm=AlgorithmSpec(name="skiptrain"),
    )


@pytest.fixture
def mixed_results(sync_preset, scenario_spec, tmp_path):
    """A results directory holding one sync cell (2 seeds), one async
    cell (1 seed — a deliberate coverage gap), and one scenario cell."""
    res = tmp_path / "results"
    sync_cells = build_plan(sync_preset, ("skiptrain",), seeds=(0, 1))
    for cell in sync_cells:
        run_cell(sync_preset, cell, res)
    async_cells = build_plan(sync_preset, ("async-skiptrain",), seeds=(0,))
    for cell in async_cells:
        run_cell(sync_preset, cell, res)
    scn_cells = build_scenario_plan(scenario_spec, seeds=(0, 1),
                                    preset=sync_preset)
    for cell in scn_cells:
        run_cell(sync_preset, cell, res,
                 scenario_lookup=lambda name: scenario_spec)
    return res


class TestMixedAggregation:
    def test_three_kinds_fold_into_one_csv(self, mixed_results, tmp_path):
        rows, gaps = aggregate_results(mixed_results)
        assert len(rows) == 3
        by_key = {(r.preset, r.algorithm, r.scenario): r for r in rows}
        plain = by_key[("tiny", "skiptrain", "")]
        asynch = by_key[("tiny", "async-skiptrain", "")]
        scenario = by_key[("tiny", "skiptrain", "mix-churn")]
        assert plain.seeds == (0, 1)
        assert asynch.seeds == (0,)
        assert scenario.seeds == (0, 1)
        # the async engine meters no communication energy
        assert asynch.comm_wh_mean == 0.0
        assert plain.comm_wh_mean > 0.0

        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(SUMMARY_COLUMNS)
        assert "mix-churn" in text

    def test_scenario_group_never_merges_with_plain(self, mixed_results):
        """The scenario cell shares (preset, algorithm, degree, rounds)
        with the plain sync cells; only the scenario key keeps their
        means apart."""
        rows, _ = aggregate_results(mixed_results)
        plain = [r for r in rows if not r.scenario and r.algorithm == "skiptrain"]
        scn = [r for r in rows if r.scenario == "mix-churn"]
        assert len(plain) == 1 and len(scn) == 1
        assert (plain[0].preset, plain[0].algorithm, plain[0].degree,
                plain[0].total_rounds) == (
            scn[0].preset, scn[0].algorithm, scn[0].degree,
            scn[0].total_rounds,
        )
        # churn changes the trajectory, so the means must differ
        assert plain[0].final_accuracy_mean != scn[0].final_accuracy_mean

    def test_gaps_reported_per_group(self, mixed_results):
        _, gaps = aggregate_results(mixed_results)
        # seed union is {0, 1}; the async group only ran seed 0
        assert gaps == {
            ("tiny", "async-skiptrain", "", 3, 6): [1],
        }

    def test_csv_round_trips_losslessly(self, mixed_results, tmp_path):
        rows, _ = aggregate_results(mixed_results)
        out = tmp_path / "summary.csv"
        write_summary_csv(rows, out)
        assert read_summary_csv(out) == rows

    def test_aggregation_deterministic_in_execution_order(
        self, sync_preset, scenario_spec, tmp_path
    ):
        """Running the same cells in a different order produces a
        byte-identical CSV (sorted group keys, filename-ordered
        artifact listing)."""
        lookup = lambda name: scenario_spec
        a, b = tmp_path / "a", tmp_path / "b"
        plain = build_plan(sync_preset, ("skiptrain",), seeds=(0,))
        scn = build_scenario_plan(scenario_spec, seeds=(0,),
                                  preset=sync_preset)
        for cell in [*plain, *scn]:
            run_cell(sync_preset, cell, a, scenario_lookup=lookup)
        for cell in [*scn, *plain]:
            run_cell(sync_preset, cell, b, scenario_lookup=lookup)
        ra, _ = aggregate_results(a)
        rb, _ = aggregate_results(b)
        write_summary_csv(ra, a / "summary.csv")
        write_summary_csv(rb, b / "summary.csv")
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_rng_failures_killed_and_resumed_equal_straight(
        self, sync_preset, tmp_path
    ):
        """A scenario with ``independent`` failures, killed past a
        mid-cycle checkpoint and resumed, writes the uninterrupted
        cell's artifact bytes."""
        from repro.experiments.artifacts import artifact_path
        from repro.scenarios import FailureSpec

        spec = ScenarioSpec(
            name="rng-fail",
            preset="tiny",
            total_rounds=6,
            eval_every=2,
            failures=FailureSpec(kind="independent", p=0.2),
            algorithm=AlgorithmSpec(name="skiptrain"),
        )
        cell = build_scenario_plan(spec, seeds=(0,), preset=sync_preset)[0]
        lookup = {spec.name: spec}.__getitem__
        run_cell(sync_preset, cell, tmp_path / "straight",
                 scenario_lookup=lookup)

        class Kill(Exception):
            pass

        def killer(engine, at, history, last_eval):
            if at == 4:
                raise Kill

        killed = tmp_path / "killed"
        with pytest.raises(Kill):
            run_cell(sync_preset, cell, killed, checkpoint_every=3,
                     round_hook=killer, scenario_lookup=lookup)
        _, resumed = run_cell(sync_preset, cell, killed,
                              scenario_lookup=lookup)
        assert resumed
        assert (artifact_path(killed, cell).read_bytes()
                == artifact_path(tmp_path / "straight", cell).read_bytes())

    def test_run_sweep_handles_scenario_cells(
        self, sync_preset, scenario_spec, tmp_path
    ):
        """run_sweep mixes plain and scenario cells in one plan: skip
        semantics, stats, and artifacts all work; a rerun is a no-op."""
        lookup = lambda name: scenario_spec

        def preset_lookup(name):
            assert name == "tiny"
            return sync_preset

        plan = (*build_plan(sync_preset, ("skiptrain",), seeds=(0,)),
                *build_scenario_plan(scenario_spec, seeds=(0,),
                                     preset=sync_preset))
        stats = run_sweep(plan, tmp_path / "r", preset_lookup=preset_lookup,
                          scenario_lookup=lookup)
        assert len(stats.ran) == 2 and not stats.skipped
        again = run_sweep(plan, tmp_path / "r", preset_lookup=preset_lookup,
                          scenario_lookup=lookup)
        assert not again.ran and len(again.skipped) == 2
