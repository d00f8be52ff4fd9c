"""Sweep plans and on-disk experiment artifacts (raw JSON → CSV).

The orchestration layer follows the three-step shape of published
reproduction repos (T1 run → T2 aggregate → T3 render):

* A :class:`SweepPlan` deterministically enumerates (preset, algorithm,
  degree, seed) cells; :func:`shard_cells` splits the plan round-robin
  across ``N`` machines so ``--shard 1/N .. N/N`` together cover it
  exactly once.
* Each completed cell becomes one self-describing JSON artifact under
  ``<results>/raw/`` (atomic write: tmp file + ``os.replace``). A cell
  whose artifact already exists is skipped, so re-running a killed
  sweep resumes for free. The artifact's ``engine`` block keeps a
  ``vectorized`` stamp from the time a serial engine also wrote cells;
  the two are bit-compatible, so only that stamp can differ.
* :func:`aggregate_results` folds ``raw/*.json`` into mean±std rows per
  (preset, algorithm, degree) — tolerant of partial sweeps, with
  explicit per-group seed lists — and :func:`write_summary_csv` emits
  them as a deterministic ``summary.csv``.
* Every paper output renders from these artifacts: it plans its cells
  (:class:`PlanCell`, with per-cell run settings where the preset's
  protocol is not enough) and loads them with :func:`load_cell_result`
  or reads :func:`aggregate_results`' rows.

Everything here is deterministic: artifacts carry no timestamps, dict
order is fixed, floats are serialized via ``repr``. Sharded and
unsharded sweeps over the same plan therefore produce byte-identical
artifacts and CSVs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..analysis.aggregate import group_by, mean_std, missing_seeds
from ..simulation.async_engine import AsyncHistory, AsyncRecord
from ..simulation.metrics import RoundRecord, RunHistory
from ..topology.sparse import validate_regular_params
from .presets import ExperimentPreset
from .runner import AsyncExperimentResult, ExperimentResult

__all__ = [
    "ARTIFACT_SCHEMA",
    "ASYNC_ARTIFACT_SCHEMA",
    "SUMMARY_COLUMNS",
    "PlanCell",
    "build_plan",
    "parse_shard",
    "shard_cells",
    "raw_dir",
    "checkpoint_dir",
    "artifact_path",
    "checkpoint_path",
    "write_cell_artifact",
    "write_json_report",
    "load_cell_artifact",
    "list_cell_artifacts",
    "ArtifactMeter",
    "ArtifactResult",
    "result_from_artifact",
    "async_history_from_artifact",
    "load_cell_result",
    "SummaryRow",
    "aggregate_results",
    "write_summary_csv",
    "read_summary_csv",
]

ARTIFACT_SCHEMA = "repro/cell-artifact/v1"
ASYNC_ARTIFACT_SCHEMA = "repro/async-cell-artifact/v1"

#: Valid :attr:`PlanCell.kind` values and the schema each one emits.
_KIND_SCHEMAS = {"sync": ARTIFACT_SCHEMA, "async": ASYNC_ARTIFACT_SCHEMA}


# --------------------------------------------------------------------------
# Plan: deterministic cell enumeration and sharding
# --------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class PlanCell:
    """One executable sweep cell. ``cell_id`` names its artifact file,
    so two cells differing in any field never collide on disk.

    ``kind`` selects the execution backend: ``"sync"`` cells run the
    round-based :class:`~repro.simulation.engine.SimulationEngine`,
    ``"async"`` cells the event-driven
    :class:`~repro.simulation.async_engine.AsyncGossipEngine` — for
    async cells ``total_rounds`` means *expected activations per node*
    and the artifact's records are keyed by simulated time.

    ``scenario`` (empty for plain cells) references a registered
    :class:`~repro.scenarios.spec.ScenarioSpec` by name: the cell is
    then compiled through :func:`repro.scenarios.compile_run` with the
    cell's seed/rounds, its ``preset``/``algorithm``/``degree`` fields
    record the spec's resolved coordinates, and the name lands in the
    raw artifact header so a results directory is self-describing.

    Three run settings serve the paper outputs the preset's protocol
    cannot express: ``schedule`` pins (Γ_train, Γ_sync) (Fig. 3's grid),
    ``eval_on="validation"`` evaluates on the tuning split (§4.3), and
    ``eval_every`` is the cadence in rounds: ``0`` the preset's, only at
    the algorithm's fair points (SkipTrain's cycle ends), ``k > 0`` after
    every k-th round, fair point or not (Fig. 4: ``1``). A setting at its
    default appears neither in :attr:`cell_id` nor in the artifact's
    ``cell`` block, so a default cell keeps its id and its bytes.
    """

    preset: str
    algorithm: str
    degree: int
    seed: int
    total_rounds: int
    kind: str = "sync"
    scenario: str = ""
    schedule: tuple[int, ...] = ()
    eval_on: str = "test"
    eval_every: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_SCHEMAS:
            raise ValueError(
                f"kind must be one of {sorted(_KIND_SCHEMAS)}, "
                f"got {self.kind!r}"
            )
        if "__" in self.scenario or "/" in self.scenario:
            raise ValueError(
                f'scenario names may not contain "__" or "/", '
                f"got {self.scenario!r}"
            )
        # an artifact's cell block holds the schedule as a JSON list
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if self.schedule and len(self.schedule) != 2:
            raise ValueError(
                f"schedule must be (gamma_train, gamma_sync), "
                f"got {self.schedule!r}"
            )
        if self.eval_on not in ("test", "validation"):
            raise ValueError('eval_on must be "test" or "validation"')
        if self.eval_every < 0:
            raise ValueError("eval_every must be 0 (the preset's) or positive")
        if self.scenario and self.settings:
            raise ValueError("a scenario cell takes its run settings from its spec")

    @property
    def settings(self) -> dict:
        """The run settings off their defaults, as the artifact's
        ``cell`` block holds them."""
        defaults = {"schedule": (), "eval_on": "test", "eval_every": 0}
        return {name: list(value) if name == "schedule" else value
                for name, default in defaults.items()
                if (value := getattr(self, name)) != default}

    @property
    def cell_id(self) -> str:
        scn = f"__scn-{self.scenario}" if self.scenario else ""
        suffix = "" if self.kind == "sync" else f"__{self.kind}"
        sched = "__g{}-{}".format(*self.schedule) if self.schedule else ""
        val = "__val" if self.eval_on == "validation" else ""
        every = f"__every{self.eval_every}" if self.eval_every else ""
        return (
            f"{self.preset}__{self.algorithm}__deg{self.degree}"
            f"__seed{self.seed}__r{self.total_rounds}{sched}{val}{every}"
            f"{scn}{suffix}"
        )

    def units_per_round(self, n_nodes: int) -> int:
        """How many units of work one of the cell's ``total_rounds`` is:
        a round for sync cells, ``n_nodes`` events for async cells (one
        expected activation per node). Progress, ``checkpoint_every``
        and the async artifact's event count all scale by it."""
        return n_nodes if self.kind == "async" else 1


def build_plan(
    preset: ExperimentPreset,
    algorithms: Sequence[str],
    degrees: Sequence[int] | None = None,
    seeds: Sequence[int] = (0, 1, 2),
    total_rounds: int | None = None,
    kind: str = "sync",
) -> tuple[PlanCell, ...]:
    """Enumerate the plan's cells in deterministic order (degree-major,
    then seed, then algorithm — cells sharing a prepared dataset/graph
    stay adjacent, so the runner's preparation cache hits). ``kind``
    stamps every cell (``"sync"`` or ``"async"``). A degree no regular
    graph on the preset's nodes has is refused here, before any cell
    runs."""
    if not algorithms:
        raise ValueError("need at least one algorithm")
    if not seeds:
        raise ValueError("need at least one seed")
    degs = tuple(degrees) if degrees is not None else (preset.degrees[0],)
    if not degs:
        raise ValueError("need at least one degree")
    for degree in degs:
        validate_regular_params(preset.n_nodes, degree)
    rounds = total_rounds if total_rounds is not None else preset.total_rounds
    if rounds <= 0:
        raise ValueError("total_rounds must be positive")
    return tuple(
        PlanCell(
            preset=preset.name,
            algorithm=algorithm,
            degree=int(degree),
            seed=int(seed),
            total_rounds=int(rounds),
            kind=kind,
        )
        for degree in degs
        for seed in seeds
        for algorithm in algorithms
    )


def parse_shard(spec: str) -> tuple[int, int]:
    """Parse ``"I/N"`` (1-based) into ``(index, count)``."""
    try:
        index_s, count_s = spec.split("/")
        index, count = int(index_s), int(count_s)
    except ValueError:
        raise ValueError(f"shard spec must look like 2/4, got {spec!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must satisfy 1 <= I <= N, got {spec!r}")
    return index, count


def shard_cells(
    cells: Sequence[PlanCell], index: int, count: int
) -> tuple[PlanCell, ...]:
    """Shard ``index`` of ``count`` (1-based), round-robin so long and
    short presets spread evenly; shards are disjoint and their union in
    order ``1..N`` is exactly the plan."""
    if count < 1 or not 1 <= index <= count:
        raise ValueError("shard index must satisfy 1 <= I <= N")
    return tuple(cells[index - 1 :: count])


# --------------------------------------------------------------------------
# Raw artifacts: one self-describing JSON per completed cell
# --------------------------------------------------------------------------


def raw_dir(results_dir: str | os.PathLike) -> Path:
    return Path(results_dir) / "raw"


def checkpoint_dir(results_dir: str | os.PathLike) -> Path:
    return Path(results_dir) / "checkpoints"


def artifact_path(results_dir: str | os.PathLike, cell: PlanCell) -> Path:
    return raw_dir(results_dir) / f"{cell.cell_id}.json"


def checkpoint_path(results_dir: str | os.PathLike, cell: PlanCell) -> Path:
    return checkpoint_dir(results_dir) / f"{cell.cell_id}.npz"


def _cell_to_json(cell: PlanCell) -> dict:
    return {
        "preset": cell.preset,
        "algorithm": cell.algorithm,
        "degree": cell.degree,
        "seed": cell.seed,
        "total_rounds": cell.total_rounds,
        "kind": cell.kind,
        "scenario": cell.scenario,
        **cell.settings,
    }


def _atomic_write(
    path: str | os.PathLike, write: Callable[[Path], None]
) -> Path:
    """Create ``path`` (and its directory) by having ``write`` fill a
    tmp file beside it, then ``os.replace``: readers see the old file
    or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)
    return path


def _atomic_write_json(path: str | os.PathLike, payload: dict) -> Path:
    text = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    return _atomic_write(path, lambda tmp: tmp.write_text(text))


def write_json_report(path: str | os.PathLike, payload: dict) -> Path:
    """Atomically write a non-cell JSON report (loadgen reports, future
    schema-tagged summaries) with the same tmp+rename discipline and
    NaN policy as cell artifacts. This is the one sanctioned JSON file
    writer outside the cell codec — callers must put a ``"schema"``
    tag in ``payload`` themselves."""
    if "schema" not in payload:
        raise ValueError("report payload must carry a 'schema' tag")
    return _atomic_write_json(path, payload)


def write_cell_artifact(
    results_dir: str | os.PathLike,
    cell: PlanCell,
    result: ExperimentResult | AsyncExperimentResult,
    vectorized: bool = True,
) -> Path:
    """Atomically write ``<results>/raw/<cell_id>.json`` and return its
    path. The artifact is self-describing (schema tag + full cell
    coordinates) and deterministic (no timestamps, ``repr`` floats).

    Which of the two schemas it is follows from the result handed in.
    An async result's history records are keyed by simulated time
    instead of round index and its ``engine`` block carries the event
    budget; its ``results`` block has the same keys as a sync artifact
    (the async engine meters no communication energy, so
    ``total_comm_wh`` is 0.0), so :func:`aggregate_results` folds both
    through one code path. ``vectorized`` is the ``engine`` block's
    provenance stamp: ``True`` for the stacked engines, ``False`` only
    for the serial reference loops the test suite runs — the results
    and history blocks are bit-identical either way."""
    history = result.history
    if isinstance(result, AsyncExperimentResult):
        kind = "async"
        events = cell.total_rounds * cell.units_per_round(result.trace.n_nodes)
        engine = {"events": events, "vectorized": vectorized}
        train_wh, comm_wh = result.train_energy_wh, 0.0
        label = ("policy", result.history.policy)
    else:
        kind = "sync"
        engine = {"vectorized": vectorized}
        train_wh = result.meter.total_train_wh
        comm_wh = result.meter.total_comm_wh
        label = ("algorithm", result.history.algorithm)
    if kind != cell.kind:
        raise ValueError(
            f"cell {cell.cell_id} has kind {cell.kind!r} but was handed "
            f"the result of a {kind} run"
        )
    payload = {
        "schema": _KIND_SCHEMAS[kind],
        "cell": _cell_to_json(cell),
        "engine": engine,
        "results": {
            "final_accuracy": history.final_accuracy(),
            "best_accuracy": history.best_accuracy(),
            "total_train_wh": train_wh,
            "total_comm_wh": comm_wh,
        },
        "history": {
            label[0]: label[1],
            "records": [r.to_json() for r in history.records],
        },
    }
    return _atomic_write_json(artifact_path(results_dir, cell), payload)


def load_cell_artifact(path: str | os.PathLike) -> dict:
    """Read and validate one raw artifact (sync or async schema)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") not in (ARTIFACT_SCHEMA, ASYNC_ARTIFACT_SCHEMA):
        raise ValueError(
            f"{path}: unknown artifact schema {payload.get('schema')!r}"
        )
    return payload


def list_cell_artifacts(results_dir: str | os.PathLike) -> list[dict]:
    """All raw artifacts under ``results_dir``, in sorted filename order
    (deterministic regardless of completion order)."""
    directory = raw_dir(results_dir)
    if not directory.is_dir():
        return []
    return [
        load_cell_artifact(p) for p in sorted(directory.glob("*.json"))
    ]


@dataclass(frozen=True)
class ArtifactMeter:
    """Energy totals reloaded from an artifact — duck-types the slice
    of :class:`~repro.energy.accounting.EnergyMeter` the figure/table
    renderers consume."""

    total_train_wh: float
    total_comm_wh: float

    @property
    def total_wh(self) -> float:
        return self.total_train_wh + self.total_comm_wh


@dataclass(frozen=True)
class ArtifactResult:
    """History + energy totals reloaded from a raw artifact: what the
    paper outputs render from (the slice of
    :class:`~repro.experiments.runner.ExperimentResult` they read)."""

    cell: PlanCell
    history: RunHistory
    meter: ArtifactMeter


def result_from_artifact(payload: dict) -> ArtifactResult:
    """Rebuild the run's history and energy totals from one artifact."""
    if payload.get("schema") == ASYNC_ARTIFACT_SCHEMA:
        raise ValueError(
            "async artifacts carry time-keyed records; rebuild their "
            "history via async_history_from_artifact"
        )
    cell = PlanCell(**payload["cell"])
    history = RunHistory(
        algorithm=payload["history"]["algorithm"],
        records=[
            RoundRecord.from_json(r) for r in payload["history"]["records"]
        ],
    )
    meter = ArtifactMeter(
        total_train_wh=float(payload["results"]["total_train_wh"]),
        total_comm_wh=float(payload["results"]["total_comm_wh"]),
    )
    return ArtifactResult(cell=cell, history=history, meter=meter)


def async_history_from_artifact(payload: dict) -> AsyncHistory:
    """Rebuild an :class:`~repro.simulation.async_engine.AsyncHistory`
    from one async cell artifact."""
    if payload.get("schema") != ASYNC_ARTIFACT_SCHEMA:
        raise ValueError(
            f"not an async artifact (schema {payload.get('schema')!r})"
        )
    return AsyncHistory(
        policy=payload["history"]["policy"],
        records=[
            AsyncRecord.from_json(r) for r in payload["history"]["records"]
        ],
    )


def load_cell_result(
    results_dir: str | os.PathLike, cell: PlanCell
) -> ArtifactResult:
    """Load one cell's artifact, with a sweep-command hint on miss."""
    path = artifact_path(results_dir, cell)
    if not path.is_file():
        hint = (
            "run the paper output that plans it without --from-artifacts"
            if cell.settings else
            f"run: repro sweep --preset {cell.preset} --algorithms "
            f"{cell.algorithm} --degrees {cell.degree} --seeds {cell.seed} "
            f"--rounds {cell.total_rounds} --results-dir {results_dir}"
        )
        raise FileNotFoundError(f"no artifact for cell {cell.cell_id}; {hint}")
    return result_from_artifact(load_cell_artifact(path))


# --------------------------------------------------------------------------
# Aggregation: raw/*.json → summary.csv (mean ± std over seeds)
# --------------------------------------------------------------------------

SUMMARY_COLUMNS = (
    "preset",
    "algorithm",
    "scenario",
    "degree",
    "total_rounds",
    "n_seeds",
    "seeds",
    "final_accuracy_mean",
    "final_accuracy_std",
    "best_accuracy_mean",
    "best_accuracy_std",
    "train_wh_mean",
    "train_wh_std",
    "comm_wh_mean",
    "comm_wh_std",
)


@dataclass(frozen=True)
class SummaryRow:
    """One aggregated (preset, algorithm, scenario, degree) group.
    ``scenario`` is empty for plain cells — a scenario's cells never
    share a group with the plain cells of the same preset/algorithm,
    so churn/failure compositions cannot contaminate baseline means."""

    preset: str
    algorithm: str
    scenario: str
    degree: int
    total_rounds: int
    seeds: tuple[int, ...]
    final_accuracy_mean: float
    final_accuracy_std: float
    best_accuracy_mean: float
    best_accuracy_std: float
    train_wh_mean: float
    train_wh_std: float
    comm_wh_mean: float
    comm_wh_std: float

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)


def aggregate_results(
    results_dir: str | os.PathLike,
) -> tuple[list[SummaryRow], dict[tuple, list[int]]]:
    """Fold every raw artifact into mean±std summary rows.

    Returns ``(rows, gaps)`` where ``gaps`` maps group keys to seeds
    missing relative to the union over all groups — partial sweeps
    aggregate fine, but ragged seed coverage is reported rather than
    hidden. Rows are sorted by (preset, algorithm, degree, rounds), so
    the CSV is byte-identical however the shards were executed.

    A cell with run settings (:attr:`PlanCell.settings`) belongs to the
    paper output that planned it and never enters a row, so a grid
    point or a finer cadence cannot contaminate a baseline mean.
    """
    artifacts = [
        a for a in list_cell_artifacts(results_dir)
        if not PlanCell(**a["cell"]).settings
    ]
    groups = group_by(
        artifacts,
        key=lambda a: (
            a["cell"]["preset"],
            a["cell"]["algorithm"],
            a["cell"].get("scenario") or "",
            int(a["cell"]["degree"]),
            int(a["cell"]["total_rounds"]),
        ),
    )
    rows = []
    for key in sorted(groups):
        preset, algorithm, scenario, degree, rounds = key
        cells = sorted(groups[key], key=lambda a: int(a["cell"]["seed"]))
        seeds = tuple(int(a["cell"]["seed"]) for a in cells)
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds in group {key}: {seeds}")
        acc_m, acc_s = mean_std([a["results"]["final_accuracy"] for a in cells])
        best_m, best_s = mean_std([a["results"]["best_accuracy"] for a in cells])
        train_m, train_s = mean_std([a["results"]["total_train_wh"] for a in cells])
        comm_m, comm_s = mean_std([a["results"]["total_comm_wh"] for a in cells])
        rows.append(
            SummaryRow(
                preset=preset,
                algorithm=algorithm,
                scenario=scenario,
                degree=degree,
                total_rounds=rounds,
                seeds=seeds,
                final_accuracy_mean=acc_m,
                final_accuracy_std=acc_s,
                best_accuracy_mean=best_m,
                best_accuracy_std=best_s,
                train_wh_mean=train_m,
                train_wh_std=train_s,
                comm_wh_mean=comm_m,
                comm_wh_std=comm_s,
            )
        )
    gaps = missing_seeds({
        (r.preset, r.algorithm, r.scenario, r.degree, r.total_rounds): r.seeds
        for r in rows
    })
    return rows, gaps


def write_summary_csv(
    rows: Iterable[SummaryRow], path: str | os.PathLike
) -> Path:
    """Write aggregated rows as a deterministic CSV (``repr`` floats,
    ``\\n`` newlines, atomic replace)."""
    def write(tmp: Path) -> None:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SUMMARY_COLUMNS)
            for row in rows:
                writer.writerow(
                    [
                        row.preset,
                        row.algorithm,
                        row.scenario,
                        row.degree,
                        row.total_rounds,
                        row.n_seeds,
                        ";".join(str(s) for s in row.seeds),
                        repr(row.final_accuracy_mean),
                        repr(row.final_accuracy_std),
                        repr(row.best_accuracy_mean),
                        repr(row.best_accuracy_std),
                        repr(row.train_wh_mean),
                        repr(row.train_wh_std),
                        repr(row.comm_wh_mean),
                        repr(row.comm_wh_std),
                    ]
                )

    return _atomic_write(path, write)


def read_summary_csv(path: str | os.PathLike) -> list[SummaryRow]:
    """Parse a :func:`write_summary_csv` file back into rows (the
    renderers aggregate the raw artifacts themselves; this reads a CSV
    ``repro aggregate`` wrote, e.g. on another machine)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(SUMMARY_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        return [
            SummaryRow(
                preset=rec["preset"],
                algorithm=rec["algorithm"],
                scenario=rec["scenario"],
                degree=int(rec["degree"]),
                total_rounds=int(rec["total_rounds"]),
                seeds=tuple(
                    int(s) for s in rec["seeds"].split(";") if s
                ),
                final_accuracy_mean=float(rec["final_accuracy_mean"]),
                final_accuracy_std=float(rec["final_accuracy_std"]),
                best_accuracy_mean=float(rec["best_accuracy_mean"]),
                best_accuracy_std=float(rec["best_accuracy_std"]),
                train_wh_mean=float(rec["train_wh_mean"]),
                train_wh_std=float(rec["train_wh_std"]),
                comm_wh_mean=float(rec["comm_wh_mean"]),
                comm_wh_std=float(rec["comm_wh_std"]),
            )
            for rec in reader
        ]
