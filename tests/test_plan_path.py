"""Every paper output renders from plan cells run through ``run_sweep``.

The contract: the artifact of each cell a paper output plans (Fig. 1,
Fig. 4, Tables 3 and 4, a 2×2 Fig. 3 grid, the convergence study)
carries the exact records and energy totals of a direct in-process run
of the same cell, ``execute_run(*build_run(...))``, and each output
renders exactly those numbers. Plus the codec of the per-cell run
settings (schedule, evaluation split, cadence) and the aggregation
rule that keeps cells with settings out of the baseline rows.
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
        block = json.loads(artifact_path(tmp_path, cell).read_text())["cell"]
        header = json.loads(artifact_path(tmp_path, default).read_text())["cell"]
        assert PlanCell(**block) == cell
        assert set(block) - set(header) == set(setting)
        assert set(header) == {
            "preset", "algorithm", "degree", "seed", "total_rounds", "kind",
            "scenario",
        }

    @pytest.mark.parametrize("bad", [
        {"schedule": (1,)}, {"eval_on": "train"}, {"eval_every": -1},
        {"scenario": "churn-ramp", "eval_every": 2},
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
