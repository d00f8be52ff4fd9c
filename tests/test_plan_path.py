"""Every paper output renders from plan cells run through ``run_sweep``.

The contract: the artifact of each cell a paper output plans (Fig. 1,
Fig. 4, Tables 3 and 4, a 2×2 Fig. 3 grid, the convergence study)
carries the exact records and energy totals of a direct in-process run
of the same cell, ``execute_run(*build_run(...))``, and each output
renders exactly those numbers. Plus the codec of the per-cell run
settings (schedule, evaluation split, cadence) and the aggregation
rule that keeps cells with settings out of the baseline rows.

The run verbs (``repro run`` of either kind, ``scenario run``) are
one-cell plans on the same path: each verb's artifact is the one the
in-process run of its cell writes, and its stdout is that run's.
"""

import dataclasses
import json

import pytest

from repro.core import RoundSchedule
from repro.experiments import (
    PlanCell,
    aggregate_results,
    artifact_path,
    build_run,
    convergence_study,
    execute_run,
    figure1,
    figure4,
    grid_search,
    plan_artifacts,
    prepare,
    run_sweep,
    table3,
    table4,
    write_summary_csv,
)
from repro.experiments.artifacts import result_from_artifact

SEED, DEGREE = 0, 3


def _cell(preset, algorithm, **settings):
    return PlanCell(preset.name, algorithm, DEGREE, SEED,
                    preset.total_rounds, **settings)


def _plan(preset):
    """Each output's cells on the tiny preset."""
    fine = max(1, preset.eval_every // 4)
    return {
        "figure1": [_cell(preset, "d-psgd"), _cell(preset, "d-psgd-allreduce")],
        "figure4": [_cell(preset, "skiptrain", eval_every=1)],
        "table3": [_cell(preset, "skiptrain"), _cell(preset, "d-psgd")],
        "table4": [
            _cell(preset, "skiptrain-constrained"),
            _cell(preset, "greedy"),
            _cell(preset, "d-psgd", eval_every=fine),
        ],
        "grid": [
            _cell(preset, "skiptrain", schedule=(gt, gs), eval_on="validation")
            for gs in (1, 2) for gt in (1, 2)
        ],
        "convergence": [
            _cell(preset, name)
            for name in ("d-psgd", "skiptrain", "d-psgd-allreduce")
        ],
    }


def _numbers(history, meter):
    return {
        "records": [json.dumps(r.to_json()) for r in history.records],
        "final_accuracy": history.final_accuracy(),
        "train_wh": meter.total_train_wh,
        "comm_wh": meter.total_comm_wh,
    }


def _direct(cell, preset):
    """One cell run in process, its settings passed to ``build_run``."""
    prepared = prepare(preset, cell.degree, seed=cell.seed)
    engine, algo = build_run(
        prepared, cell.algorithm, total_rounds=cell.total_rounds,
        schedule=RoundSchedule(*cell.schedule) if cell.schedule else None,
        eval_on=cell.eval_on, eval_every=cell.eval_every or None,
        fair_points=not cell.eval_every,
    )
    result = execute_run(engine, algo, prepared.trace)
    return _numbers(result.history, result.meter)


def _records(history):
    return {"records": [json.dumps(r.to_json()) for r in history.records]}


def _rendered(output, preset, results_dir):
    """What the output function shows of each cell, by cell id."""
    cells = _plan(preset)[output]
    if output == "figure1":
        res = figure1(preset, results_dir, seed=SEED)
        shown = [_records(res.dpsgd), _records(res.allreduce)]
    elif output == "figure4":
        res = figure4(preset, results_dir, seed=SEED, window=preset.total_rounds)
        shown = [_records(res.history)]
    elif output == "table3":
        rows = table3(preset, results_dir, seed=SEED).rows
        shown = [
            {"final_accuracy": row.final_accuracy_mean, "train_wh": row.train_wh_mean}
            for row in (rows["skiptrain"][DEGREE], rows["d-psgd"][DEGREE])
        ]
    elif output == "table4":
        res = table4(preset, results_dir, seed=SEED)
        shown = [
            _numbers(r.history, r.meter)
            for r in (res.constrained[DEGREE], res.greedy[DEGREE],
                      res.dpsgd[DEGREE])
        ]
    elif output == "grid":
        res = grid_search(preset, results_dir, DEGREE, train_values=(1, 2),
                          sync_values=(1, 2), seed=SEED)
        shown = [
            {"final_accuracy": float(acc), "train_wh": float(wh)}
            for acc, wh in zip(res.accuracy.ravel(), res.energy_wh.ravel())
        ]
    else:
        res = convergence_study(preset, results_dir, seed=SEED)
        shown = [_records(res.histories[cell.algorithm]) for cell in cells]
    return dict(zip((cell.cell_id for cell in cells), shown))


OUTPUTS = ("figure1", "figure4", "table3", "table4", "grid", "convergence")


@pytest.mark.parametrize("output", OUTPUTS)
def test_plan_path_equals_direct_run(tiny_preset, tmp_path, output):
    cells = tuple(_plan(tiny_preset)[output])
    results = plan_artifacts(tiny_preset, cells, tmp_path)
    for cell, result in zip(cells, results):
        assert _numbers(result.history, result.meter) == (
            _direct(cell, tiny_preset)
        ), cell.cell_id


@pytest.mark.parametrize("output", OUTPUTS)
def test_output_renders_its_planned_cells(tiny_preset, tmp_path, output):
    shown = _rendered(output, tiny_preset, tmp_path)
    assert sorted(p.name for p in (tmp_path / "raw").iterdir()) == sorted(
        f"{cell_id}.json" for cell_id in shown
    )
    for cell in _plan(tiny_preset)[output]:
        direct = _direct(cell, tiny_preset)
        seen = shown[cell.cell_id]
        assert seen == {key: direct[key] for key in seen}, cell.cell_id


@pytest.mark.parametrize("eval_every, fair_points_only", [(0, True), (1, False)])
def test_cadence_encoding(tiny_preset, tmp_path, eval_every, fair_points_only):
    """``eval_every=0`` keeps the preset's cadence at SkipTrain's cycle
    ends; ``1`` evaluates after every round, train rounds included."""
    cell = _cell(tiny_preset, "skiptrain", eval_every=eval_every)
    (result,) = plan_artifacts(tiny_preset, (cell,), tmp_path)
    rounds = [r.round for r in result.history.records]
    schedule = tiny_preset.schedule_for_degree(DEGREE)
    if fair_points_only:
        assert rounds and all(schedule.is_cycle_end(t) for t in rounds)
    else:
        assert rounds == list(range(1, tiny_preset.total_rounds + 1))


class TestSettingsCodec:
    SETTINGS = [
        {"schedule": (1, 3)},
        {"eval_on": "validation"},
        {"eval_every": 2},
    ]

    def test_default_cell_keeps_its_id_and_header(self):
        cell = PlanCell("tiny", "skiptrain", 3, 0, 24)
        assert cell.cell_id == "tiny__skiptrain__deg3__seed0__r24"
        assert cell.settings == {}

    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: next(iter(s)))
    def test_round_trip_and_distinct_id(self, tiny_preset, tmp_path, setting):
        default = PlanCell(tiny_preset.name, "skiptrain", 3, 0, 4)
        cell = dataclasses.replace(default, **setting)
        assert cell.cell_id != default.cell_id
        run_sweep((default, cell), tmp_path,
                  preset_lookup=lambda name: tiny_preset)
        payload = json.loads(artifact_path(tmp_path, cell).read_text())
        block = payload["cell"]
        header = json.loads(artifact_path(tmp_path, default).read_text())["cell"]
        assert result_from_artifact(payload).cell == cell
        assert set(block) - set(header) == set(setting)
        assert set(header) == {
            "preset", "algorithm", "degree", "seed", "total_rounds", "kind",
            "scenario",
        }

    @pytest.mark.parametrize("bad", [
        {"schedule": (1,)}, {"eval_on": "train"}, {"eval_every": -1},
        {"scenario": "churn-ramp", "eval_every": 2},
        {"schedule": (0, 2)}, {"schedule": (1, -1)},
    ])
    def test_bad_settings_refused(self, bad):
        with pytest.raises(ValueError):
            PlanCell("tiny", "skiptrain", 3, 0, 4, **bad)


def test_outputs_share_one_results_dir(tiny_preset, tmp_path):
    """Table 3, Table 4 and grid cells in one directory: the default
    cells aggregate exactly as they do alone (no duplicate-seed error
    from the fine-cadence D-PSGD cell, no grid point in the SkipTrain
    row)."""
    plan = _plan(tiny_preset)
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    everything = tuple(plan["table3"] + plan["table4"] + plan["grid"])
    run_sweep(everything, shared, preset_lookup=lambda name: tiny_preset)
    defaults = tuple(cell for cell in everything if not cell.settings)
    run_sweep(defaults, alone, preset_lookup=lambda name: tiny_preset)
    csv = [
        write_summary_csv(aggregate_results(d)[0], d / "summary.csv").read_bytes()
        for d in (shared, alone)
    ]
    assert csv[0] == csv[1]
    assert b"d-psgd" in csv[0] and b"greedy" in csv[0]
    rendered = [
        table3(tiny_preset, d, seed=SEED, run=False).render()
        for d in (shared, alone)
    ]
    assert rendered[0] == rendered[1]


# --------------------------------------------------------------------------
# The run verbs: `repro run` (sync or async algorithm) and `repro scenario run`
# --------------------------------------------------------------------------


@pytest.fixture
def micro_verbs(tiny_preset, monkeypatch):
    """A tiny preset, and a sync and an async churn scenario over it,
    patched into the registries the CLI reads."""
    from repro.experiments.presets import PRESETS
    from repro.scenarios import (
        AlgorithmSpec,
        ChurnEventSpec,
        ChurnSpec,
        EnergySpec,
        ScenarioSpec,
    )
    from repro.scenarios.registry import _REGISTRY

    sync = dataclasses.replace(tiny_preset, name="micro-verbs",
                               total_rounds=8, eval_every=2)
    monkeypatch.setitem(PRESETS, sync.name, lambda: sync)
    churn = ChurnSpec(events=(ChurnEventSpec(3, 1, "leave"),))
    for spec in (
        ScenarioSpec(name="micro-verbs-churn", preset="micro-verbs",
                     total_rounds=8, eval_every=2, churn=churn,
                     algorithm=AlgorithmSpec(name="skiptrain")),
        ScenarioSpec(name="micro-verbs-async", preset="micro-verbs",
                     total_rounds=4, eval_every=2, churn=churn,
                     energy=EnergySpec(enforce_budgets=True),
                     algorithm=AlgorithmSpec(name="async-skiptrain")),
    ):
        monkeypatch.setitem(_REGISTRY, spec.name, lambda spec=spec: spec)
    return sync


def _direct_run(preset_name, algorithm, **options):
    """``(header, result)`` of one plain cell run in process."""
    from repro.experiments import get_preset

    preset = get_preset(preset_name)
    prepared = prepare(preset, DEGREE, seed=SEED)
    engine, algo = build_run(prepared, algorithm, **options)
    return (f"preset={preset.name} degree={DEGREE} algorithm={algorithm}",
            execute_run(engine, algo, prepared.trace))


def _direct_scenario(name, seed=None):
    """``(header, result)`` of one scenario compiled and run in process."""
    from repro.scenarios import get_scenario
    from repro.scenarios.compile import compile_run

    compiled = compile_run(get_scenario(name), seed=seed)
    spec = compiled.spec
    return (f"scenario={spec.name} preset={spec.preset} "
            f"algorithm={spec.algorithm.name} kind={compiled.kind} "
            f"seed={compiled.seed} rounds={compiled.total_rounds}",
            compiled.execute())


def _printed(header, result):
    """What a run verb prints of an in-process result: the header, one
    line per evaluation record, then the energy totals."""
    from repro.experiments import AsyncExperimentResult

    lines = [header]
    if isinstance(result, AsyncExperimentResult):
        lines += [
            f"t={r.time:8.2f} (event {r.activations:7d}): "
            f"accuracy {r.mean_accuracy * 100:6.2f}% "
            f"(±{r.std_accuracy * 100:5.2f}) "
            f"train energy {r.train_energy_wh:8.2f} Wh"
            for r in result.history.records
        ]
        lines.append(f"total training energy: {result.train_energy_wh:.2f} Wh")
    else:
        lines += [
            f"round {r.round:5d}: "
            f"accuracy {r.mean_accuracy * 100:6.2f}% "
            f"(±{r.std_accuracy * 100:5.2f}) "
            f"energy {r.cumulative_energy_wh:8.2f} Wh"
            for r in result.history.records
        ]
        lines.append(f"total training energy: {result.meter.total_train_wh:.2f} "
                     f"Wh, communication: {result.meter.total_comm_wh:.4f} Wh")
    return "\n".join(lines) + "\n"


#: verb case → (argv, the cell it runs, the same run in process)
VERBS = {
    "run-gamma": (
        ["run", "--preset", "micro-verbs", "--degree", "3",
         "--gamma-train", "2", "--gamma-sync", "1"],
        PlanCell("micro-verbs", "skiptrain", DEGREE, SEED, 8, schedule=(2, 1)),
        lambda: _direct_run("micro-verbs", "skiptrain",
                            schedule=RoundSchedule(2, 1)),
    ),
    "run-async": (
        ["run", "--algorithm", "async-skiptrain", "--preset", "micro-verbs",
         "--rounds", "4", "--eval-every", "2", "--gamma-train", "2",
         "--gamma-sync", "2"],
        PlanCell("micro-verbs", "async-skiptrain", DEGREE, SEED, 4,
                 schedule=(2, 2), eval_every=2),
        lambda: _direct_run("micro-verbs", "async-skiptrain",
                            schedule=RoundSchedule(2, 2), total_rounds=4,
                            eval_every=2),
    ),
    "scenario-sync": (
        ["scenario", "run", "micro-verbs-churn", "--seed", "1"],
        PlanCell("micro-verbs", "skiptrain", DEGREE, 1, 8,
                 scenario="micro-verbs-churn"),
        lambda: _direct_scenario("micro-verbs-churn", seed=1),
    ),
    "scenario-async": (
        ["scenario", "run", "micro-verbs-async"],
        PlanCell("micro-verbs", "async-skiptrain", DEGREE, SEED, 4,
                 scenario="micro-verbs-async"),
        lambda: _direct_scenario("micro-verbs-async"),
    ),
}


@pytest.mark.parametrize("verb", VERBS)
def test_run_verb_is_its_one_cell(micro_verbs, verb, tmp_path, monkeypatch,
                                  capsys):
    """Each run verb runs its one cell into ``results/`` and prints from
    the artifact: the artifact is the one the in-process run writes,
    byte for byte, and the stdout is the in-process run's, line for
    line. A rerun runs no cell and prints the same."""
    from repro.cli import main
    from repro.experiments.artifacts import write_cell_artifact

    monkeypatch.chdir(tmp_path)
    argv, cell, direct = VERBS[verb]
    header, result = direct()
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.out == _printed(header, result)
    assert f"ran {cell.cell_id}" in first.err
    written = write_cell_artifact(tmp_path / "direct", cell, result)
    assert artifact_path("results", cell).read_bytes() == written.read_bytes()
    assert main(argv) == 0
    second = capsys.readouterr()
    assert second.out == first.out and " ran " not in second.err


@pytest.mark.parametrize("algorithm", ["skiptrain", "async-skiptrain"],
                         ids=["run", "run-async"])
def test_default_run_cell_is_the_sweep_cell(micro_verbs, algorithm,
                                            tmp_path, monkeypatch, capsys):
    """A run verb at its defaults makes the cell ``repro sweep`` makes,
    with the same id and the same bytes, so the two share
    ``results/``."""
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "micro-verbs",
                 "--algorithm", algorithm]) == 0
    capsys.readouterr()
    argv = ["sweep", "--preset", "micro-verbs", "--algorithms", algorithm,
            "--degrees", "3", "--seeds", "0"]
    assert main([*argv, "--results-dir", "swept"]) == 0
    assert "ran 1" in capsys.readouterr().out
    (swept,) = (tmp_path / "swept" / "raw").iterdir()
    ran = tmp_path / "results" / "raw" / swept.name
    assert ran.read_bytes() == swept.read_bytes()
    assert main(argv) == 0  # into results/, where the run verb's cell is
    assert "skipped 1" in capsys.readouterr().out
