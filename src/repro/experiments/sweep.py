"""Sweep orchestration: one path from a plan cell to its raw artifact.

Single-seed comparisons can flip on noise; the paper itself reports
mean curves with std bands (Fig. 4). Every multi-seed number in this
repo comes out of one pipeline: a deterministic
:func:`~repro.experiments.artifacts.build_plan` (optionally one
``--shard I/N`` slice of it), executed cell by cell into one JSON
artifact per cell under ``<results>/raw/``, then folded to mean ± std
by :func:`~repro.experiments.artifacts.aggregate_results` (``repro
aggregate``, tolerant of partial sweeps).

There is one backend and one cell path, with three front doors:
``run_sweep(jobs=1)`` runs the shard's pending cells inline,
``run_sweep(jobs=N)`` ships them to the persistent fork workers of
:mod:`repro.experiments.pool`, and ``repro serve`` feeds the same pool
from its HTTP job queue. In all three the process that runs a cell
gets its dataset from :func:`cell_dataset`, against that process's own
:class:`DatasetCache` — one dataset, keyed by (preset, seed,
partition-override, α), degree-free, so consecutive cells a process
runs on the same data share one preparation — and executes it with
:func:`run_cell_from_data`, which binds the cell's topology onto that
data and hands over to :func:`run_cell`. Served ≡ swept ≡ serial holds
because it is the same function each time, not three that agree.

:func:`run_cell` wires the engine with
:func:`~repro.experiments.runner.build_run` (a scenario cell through
:func:`~repro.scenarios.compile.compile_run`, which calls it too) and
runs it through the checkpointed cell protocol (``_execute_cell``:
restore → run with hook → write artifact → drop checkpoint). Neither
asks which kind the cell is: the builder picks the engine from the
algorithm, both engines share one run contract and one hook, the
checkpoint pair and the artifact writer take either engine, and
whether work counts in rounds or events is the cell's own
:meth:`~repro.experiments.artifacts.PlanCell.units_per_round`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from ..core.schedule import RoundSchedule
from ..lanes import affinity_cpus
from ..simulation.checkpoint import load_run_checkpoint, save_run_checkpoint
from .artifacts import (
    ArtifactResult,
    PlanCell,
    artifact_path,
    checkpoint_path,
    load_cell_result,
    shard_cells,
    write_cell_artifact,
)
from .pool import PersistentPool
from .presets import ExperimentPreset, get_preset
from .runner import (
    AsyncExperimentResult,
    ExperimentResult,
    PreparedData,
    build_run,
    execute_run,
    prepare,
    prepare_data,
    prepared_from_data,
)

__all__ = [
    "DatasetCache",
    "SweepRunStats",
    "cell_data_coords",
    "cell_dataset",
    "plan_artifacts",
    "resolve_auto_jobs",
    "run_cell",
    "run_cell_from_data",
    "run_sweep",
]


@dataclass
class SweepRunStats:
    """What one :func:`run_sweep` invocation did with its shard.

    ``prepped`` records the data key of every ``prepare_data`` call the
    sweep's cells made, one entry per preparation, in the order the
    processes running them reported them. A key is prepared once per
    process that runs its cells: once for ``jobs=1``, at most
    ``min(jobs, its cells)`` times through the pool.

    ``jobs_resolved`` is the worker count the sweep actually ran with
    after resolving ``jobs="auto"`` (1 for a serial run — including the
    single-CPU fallback); ``jobs_source`` records where that count came
    from: ``"explicit"`` for a literal ``jobs=N``, else the
    :func:`resolve_auto_jobs` source (``"sched_getaffinity"`` or
    ``"cpu_count"``).
    """

    ran: list[PlanCell] = field(default_factory=list)
    skipped: list[PlanCell] = field(default_factory=list)
    resumed: list[PlanCell] = field(default_factory=list)
    prepped: list[tuple] = field(default_factory=list)
    jobs_resolved: int = 1
    jobs_source: str = "explicit"


def resolve_auto_jobs() -> tuple[int, str]:
    """Resolve ``jobs="auto"`` to ``(worker_count, source)``: one
    worker per CPU of :func:`~repro.lanes.affinity_cpus`, the probe
    the lane count reads too — the scheduler affinity
    mask, which respects cgroup cpusets where ``os.cpu_count()``
    over-subscribes the pool, else ``os.cpu_count()``.
    """
    return affinity_cpus()


def _scenario_spec(cell: PlanCell, scenario_lookup: Callable | None):
    """The cell's scenario spec; ``scenario_lookup`` overrides the
    registry (tests and the serve daemon's inline specs)."""
    from ..scenarios.registry import get_scenario

    lookup = scenario_lookup if scenario_lookup is not None else get_scenario
    return lookup(cell.scenario)


def _only_stacked(name: str, vectorized: bool) -> None:
    """Refuse ``vectorized=False``: there is no serial engine to pick."""
    if vectorized is not True:
        raise TypeError(
            f"{name}() got vectorized={vectorized!r}: every cell trains "
            f"stacked, so the keyword accepts only True"
        )


def run_cell(
    preset: ExperimentPreset,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    *,
    prepared=None,
    checkpoint_every: int = 0,
    vectorized: bool = True,
    round_hook: Callable | None = None,
    scenario_lookup: Callable | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> "tuple[ExperimentResult | AsyncExperimentResult, bool]":
    """Execute one plan cell and write its raw artifact.

    If a mid-run checkpoint for the cell exists (a previous process was
    killed partway), the engine, rng streams, algorithm state, and
    partial history are restored from it and the run continues from the
    checkpointed round — bit-identical to an uninterrupted run. With
    ``checkpoint_every > 0``, a fresh checkpoint is written at the
    first hook call at least that many rounds after the last one:
    every round of a sync cell and every event window of an async one
    resumes exactly. The checkpoint is deleted once the artifact is
    safely on disk.

    ``round_hook(engine, at, history, last_eval)`` is the engines'
    one hook, called after every round (sync) or event window (async)
    with the last evaluation point. For an async cell (its algorithm
    is an ``async-*`` name) ``at`` counts events and
    ``checkpoint_every`` stays in the cell's round-equivalent unit
    (expected activations per node — ``checkpoint_every × n`` events).

    A plain cell's run settings (:attr:`PlanCell.settings`: schedule,
    evaluation split and cadence) reach :func:`build_run` as its
    ``schedule``/``eval_on``/``eval_every``; a nonzero cadence also lifts
    the fair-point restriction (``fair_points=False``).

    Cells referencing a scenario (``cell.scenario``) are compiled via
    :func:`repro.scenarios.compile_run` — churn, failures, dynamic
    topology, energy and data-skew axes all active — and then ride the
    exact same checkpoint/resume/artifact path. ``scenario_lookup``
    overrides the registry lookup (tests inject specs the registry
    does not know).

    ``progress`` is a pure observability hook, called as
    ``progress(done, total)`` after every completed unit of work —
    rounds for synchronous cells, events for async cells (``total =
    total_rounds × n``) — so supervising processes (the serve daemon's
    rounds/sec and events/sec accounting) can meter execution without
    touching engine state. It must not mutate anything the engine
    reads; it runs after ``round_hook``.

    ``vectorized`` selects nothing: every cell trains stacked. The
    keyword survives, accepting only ``True``, because the frozen perf
    benchmark still spells it out; ``False`` is the ``TypeError`` an
    unknown keyword would be.

    Returns ``(result, resumed_from_checkpoint)``.
    """
    _only_stacked("run_cell", vectorized)
    if preset.name != cell.preset:
        raise ValueError(
            f"cell {cell.cell_id} belongs to preset {cell.preset!r}, "
            f"got {preset.name!r}"
        )
    if cell.scenario:
        compiled = _compile_scenario_cell(preset, cell, prepared,
                                          scenario_lookup=scenario_lookup)
        engine, algo = compiled.engine, compiled.algorithm
        prepared = compiled.prepared
    else:
        if prepared is None:
            prepared = prepare(preset, cell.degree, seed=cell.seed)
        engine, algo = build_run(
            prepared, cell.algorithm, total_rounds=cell.total_rounds,
            schedule=RoundSchedule(*cell.schedule) if cell.schedule else None,
            eval_on=cell.eval_on,
            eval_every=cell.eval_every or None,
            fair_points=not cell.eval_every,
        )
    return _execute_cell(
        engine, algo, cell, results_dir, prepared.trace,
        checkpoint_every=checkpoint_every,
        round_hook=round_hook, progress=progress,
    )


def _compile_scenario_cell(
    preset: ExperimentPreset,
    cell: PlanCell,
    prepared,
    *,
    scenario_lookup: Callable | None,
):
    """The ``cell.scenario`` half of :func:`run_cell`: compile the
    registered spec with the cell's seed/rounds into a wired engine.
    Compilation is deterministic, which is what lets a killed scenario
    cell rebuild its engine and resume byte-identically. ``prepared``
    skips data synthesis inside :func:`~repro.scenarios.compile.
    compile_run`; it must have been prepared against the spec-resolved
    base preset and degree (the degree drift guard below still fires if
    the registry moved)."""
    from ..scenarios.compile import compile_run

    spec = _scenario_spec(cell, scenario_lookup)
    if spec.preset != cell.preset or spec.algorithm.name != cell.algorithm:
        raise ValueError(
            f"cell {cell.cell_id} records preset/algorithm "
            f"{cell.preset!r}/{cell.algorithm!r} but scenario "
            f"{spec.name!r} resolves to {spec.preset!r}/"
            f"{spec.algorithm.name!r} — the registry changed since the "
            f"plan was built"
        )
    compiled = compile_run(
        spec,
        seed=cell.seed,
        total_rounds=cell.total_rounds,
        preset=preset,
        prepared=prepared,
    )
    if compiled.prepared.degree != cell.degree:
        raise ValueError(
            f"cell {cell.cell_id} records degree {cell.degree} but "
            f"scenario {spec.name!r} resolves to degree "
            f"{compiled.prepared.degree} — the registry changed since "
            f"the plan was built"
        )
    return compiled


def _execute_cell(
    engine,
    algo,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    trace,
    *,
    checkpoint_every: int,
    round_hook: Callable | None,
    progress: Callable[[int, int], None] | None,
) -> "tuple[ExperimentResult | AsyncExperimentResult, bool]":
    """Run a wired engine of either kind through the checkpointed cell
    protocol: restore any mid-run checkpoint, run with periodic
    checkpointing, write the artifact, drop the checkpoint. Nothing
    here asks which kind the cell is.

    A checkpoint is written on cadence alone: a sync run resumes
    exactly from any round and an async one from any event boundary.
    The async hook fires at evaluation boundaries, so its checkpoints
    land on those.
    """
    unit = cell.units_per_round(engine.n_nodes)
    total, interval = cell.total_rounds * unit, checkpoint_every * unit
    ckpt = checkpoint_path(results_dir, cell)
    start, history = 0, None
    resumed = ckpt.is_file()
    if resumed:
        start, history = load_run_checkpoint(engine, algo, ckpt)
    last_ckpt = start

    def hook(eng, at, hist, last_eval):
        nonlocal last_ckpt
        if checkpoint_every > 0 and at < total and at - last_ckpt >= interval:
            ckpt.parent.mkdir(parents=True, exist_ok=True)
            save_run_checkpoint(eng, algo, hist, at, ckpt)
            last_ckpt = at
        if round_hook is not None:
            round_hook(eng, at, hist, last_eval)
        if progress is not None:
            progress(at, total)

    result = execute_run(
        engine, algo, trace, start=start, history=history, hook=hook
    )
    write_cell_artifact(results_dir, cell, result)
    # the artifact is on disk: drop the checkpoint, and the temp file a
    # process killed mid-save left beside it
    ckpt.unlink(missing_ok=True)
    ckpt.with_name(ckpt.name + ".tmp").unlink(missing_ok=True)
    return result, resumed


def _cell_base(
    cell: PlanCell,
    preset_lookup: Callable[[str], ExperimentPreset],
    scenario_lookup: Callable | None,
):
    """``(scenario spec or None, base preset, degree)``: what a cell's
    data and topology are prepared against. Scenario cells resolve both
    through :func:`~repro.scenarios.compile.scenario_base`."""
    from ..scenarios.compile import scenario_base

    preset = preset_lookup(cell.preset)
    if not cell.scenario:
        return None, preset, cell.degree
    spec = _scenario_spec(cell, scenario_lookup)
    return (spec, *scenario_base(spec, preset))


def cell_data_coords(
    cell: PlanCell,
    *,
    preset_lookup: Callable[[str], ExperimentPreset],
    scenario_lookup: Callable | None = None,
) -> tuple[tuple, ExperimentPreset, str | None, float | None]:
    """``(data key, base preset, partition override, α)`` for one cell.

    Two cells with the same key train on the exact same dataset. The
    key is degree-free — topology, mixing and trace are cheap and
    re-derived per cell
    (:func:`~repro.experiments.runner.prepared_from_data`). Scenario
    cells take their override/α from the spec's data axis, so a
    scenario without a data override shares its dataset with the plain
    cells of the same (preset, seed).
    """
    spec, base, _ = _cell_base(cell, preset_lookup, scenario_lookup)
    override, alpha = (
        (spec.data.partition, spec.data.alpha) if spec else (None, None)
    )
    return (cell.preset, cell.seed, override, alpha), base, override, alpha


def cell_dataset(
    cell: PlanCell,
    cache: "DatasetCache",
    *,
    preset_lookup: Callable[[str], ExperimentPreset],
    scenario_lookup: Callable | None = None,
    log: Callable[[str], None],
) -> PreparedData:
    """The dataset ``cell`` trains on: ``cache``'s entry for the cell's
    :func:`cell_data_coords` key, built with
    :func:`~repro.experiments.runner.prepare_data` (announced by a
    ``prep`` line to ``log``) and kept in the cache on a miss. ``cache``
    is the :class:`DatasetCache` of the process running the cell."""
    key, base, override, alpha = cell_data_coords(
        cell, preset_lookup=preset_lookup, scenario_lookup=scenario_lookup
    )
    dataset = cache.get(key)
    if dataset is None:
        log(f"prep {cell.preset} seed={cell.seed}"
            + (f" data={override}" if override else ""))
        dataset = cache.keep(
            key,
            prepare_data(
                base,
                seed=cell.seed,
                partition_override=override,
                dirichlet_alpha=alpha,
            ),
        )
    return dataset


def run_cell_from_data(
    cell: PlanCell,
    dataset: PreparedData,
    results_dir: str | os.PathLike,
    *,
    preset_lookup: Callable[[str], ExperimentPreset],
    scenario_lookup: Callable | None = None,
    **run_options,
) -> bool:
    """The one worker body: bind ``dataset`` (from :func:`cell_dataset`)
    to the cell's base preset, derive the cell's topology from it, and
    ride :func:`run_cell` (``run_options`` are its keyword options).
    Returns whether the cell resumed from a mid-cell checkpoint.

    The serial loop calls this inline, the sweep pool and the serve
    daemon from inside their fork workers."""
    _, base, degree = _cell_base(cell, preset_lookup, scenario_lookup)
    # one dataset serves every cell of its key; the base preset (a
    # scenario's battery override) is the cell's own
    data = replace(dataset, preset=base)
    _, resumed = run_cell(
        preset_lookup(cell.preset),
        cell,
        results_dir,
        prepared=prepared_from_data(data, degree),
        scenario_lookup=scenario_lookup,
        **run_options,
    )
    return resumed


class DatasetCache:
    """The prepared dataset of one process that runs cells: the latest
    cell's, with its data key. A miss drops it *before* the caller
    prepares the next key, so two datasets are never alive together.

    Every process that runs cells owns one — the ``jobs=1`` loop, each
    sweep worker and each serve worker. A pool parent builds one before
    the fork and never fills it, so each worker starts from an empty
    copy of its own. A key that comes back after another one is
    prepared again."""

    def __init__(self) -> None:
        self._held: tuple[tuple, PreparedData] | None = None

    def get(self, key: tuple) -> PreparedData | None:
        """``key``'s dataset; on a miss, ``None`` once the held one is
        dropped."""
        if self._held is not None and self._held[0] == key:
            return self._held[1]
        self._held = None
        return None

    def keep(self, key: tuple, data: PreparedData) -> PreparedData:
        """Hold ``data`` as ``key``'s."""
        self._held = (key, data)
        return data


def run_sweep(
    cells: tuple[PlanCell, ...],
    results_dir: str | os.PathLike,
    *,
    shard: tuple[int, int] = (1, 1),
    checkpoint_every: int = 0,
    vectorized: bool = True,
    jobs: int | str = 1,
    pool: str = "persistent",
    preset_lookup: Callable[[str], ExperimentPreset] = get_preset,
    log: Callable[[str], None] | None = None,
    round_hook: Callable | None = None,
    scenario_lookup: Callable | None = None,
) -> SweepRunStats:
    """Execute shard ``I/N`` of a plan, artifact-by-artifact.

    Cells whose raw artifact already exists are skipped, so re-running
    after a crash (or over a directory another shard already filled)
    never redoes finished work. The pending cells are ordered by data
    key (:func:`cell_data_coords`), so cells sharing a dataset run back
    to back (execution order within a shard is free: artifacts are
    per-cell and deterministic), and each goes through
    :func:`cell_dataset` → :func:`run_cell_from_data` in the process
    that runs it, against that process's own :class:`DatasetCache`.

    ``jobs`` only selects where that call runs. ``jobs=1`` runs it
    inline: each key is prepared once, and one dataset is alive at a
    time. ``jobs > 1`` submits every pending cell with its data key to
    that many long-lived fork workers (:mod:`repro.experiments.pool`),
    which prepare on a miss and hold one dataset each; the pool hands
    an idle worker a cell of the key it holds first, so a key is
    prepared at most ``min(jobs, its cells)`` times. The parent
    computes keys and collects results; it never prepares, copies or
    holds a dataset. Worker log lines (``prep …``) reach ``log`` over
    the worker's pipe. A crashed worker fails the sweep fast with its
    original traceback — a ``prepare_data`` failure included, as a
    :class:`~repro.experiments.pool.PoolWorkerError` naming the cell —
    and Ctrl-C or a failure in ``log`` stops the workers on the way
    out. ``round_hook`` runs inside the workers. The artifact directory
    is byte-identical for every ``jobs`` — only wall-clock and
    completion order change — and sharding, skipping and mid-cell
    checkpointing compose unchanged (each cell owns its private
    checkpoint file). The pool requires the ``fork`` start method
    (Linux; presets and hooks need not be picklable) — elsewhere, run
    ``jobs=1`` per shard and split work with ``shard`` instead.

    ``jobs="auto"`` resolves the worker count via
    :func:`resolve_auto_jobs` — the scheduler affinity mask when the
    platform has one (it respects cgroup cpusets, where
    ``os.cpu_count()`` over-reports), else ``os.cpu_count()`` — falling
    back to a serial run on a single-CPU box (or when the fork start
    method is unavailable); the resolved value and its source are
    recorded in ``SweepRunStats.jobs_resolved`` / ``.jobs_source``.

    ``pool`` selects nothing: the persistent pool is the only backend.
    The keyword survives, accepting only ``"persistent"``, because the
    frozen perf benchmark still spells it out; anything else is the
    ``TypeError`` an unknown keyword would be. ``vectorized`` likewise
    accepts only ``True`` (see :func:`run_cell`).
    """
    _only_stacked("run_sweep", vectorized)
    if pool != "persistent":
        raise TypeError(
            f"run_sweep() got an unexpected backend pool={pool!r}: the "
            f"persistent pool is the only one"
        )
    jobs_source = "explicit"
    if jobs == "auto":
        jobs, jobs_source = resolve_auto_jobs()
        if jobs > 1 and "fork" not in mp.get_all_start_methods():
            jobs = 1
    elif not isinstance(jobs, int):
        raise ValueError(f'jobs must be a positive int or "auto", got {jobs!r}')
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if jobs > 1 and "fork" not in mp.get_all_start_methods():
        raise ValueError(
            "jobs > 1 requires the fork start method (unavailable on "
            "this platform); use jobs=1 and split work across machines "
            "with shard=I/N instead"
        )
    stats = SweepRunStats(jobs_resolved=jobs, jobs_source=jobs_source)
    say = log if log is not None else (lambda msg: None)
    lookups = dict(preset_lookup=preset_lookup, scenario_lookup=scenario_lookup)

    pending: list[PlanCell] = []
    for cell in shard_cells(cells, *shard):
        if artifact_path(results_dir, cell).is_file():
            stats.skipped.append(cell)
            say(f"skip {cell.cell_id} (artifact exists)")
        else:
            pending.append(cell)
    if not pending:
        return stats

    data_key = {
        cell.cell_id: cell_data_coords(cell, **lookups)[0] for cell in pending
    }

    def data_order(cell: PlanCell) -> tuple:
        preset, seed, override, alpha = data_key[cell.cell_id]
        return preset, seed, override or "", alpha or 0.0

    pending.sort(key=data_order)  # equal data keys adjacent

    cache = DatasetCache()  # the running process's own; empty at a fork

    def run_one(cell: PlanCell, log: Callable[[str], None]) -> bool:
        # no local outlives the call: the last cell of a key must not
        # keep its dataset alive under the next prep
        return run_cell_from_data(
            cell, cell_dataset(cell, cache, log=log, **lookups), results_dir,
            checkpoint_every=checkpoint_every, round_hook=round_hook,
            **lookups,
        )

    def relay(cell_id: str, line: str) -> None:
        """A log line of the cell ``cell_id``, from whichever process
        runs it."""
        if line.startswith("prep "):
            stats.prepped.append(data_key[cell_id])
        say(line)

    def finished(cell: PlanCell, resumed: bool) -> None:
        stats.ran.append(cell)
        say(f"[{len(stats.ran)}/{len(pending)}] ran {cell.cell_id}")
        if resumed:
            stats.resumed.append(cell)
            say(f"    resumed {cell.cell_id} from mid-cell checkpoint")

    if jobs == 1:
        for cell in pending:
            finished(cell, run_one(cell, partial(relay, cell.cell_id)))
        return stats
    by_id = {cell.cell_id: cell for cell in pending}
    workers = PersistentPool(min(jobs, len(pending)), run_one, on_log=relay)
    # queued before the fork, so the first hand-out sees every key
    for cell in pending:
        workers.submit((cell,), data_key[cell.cell_id])
    workers.close_intake()
    with workers:
        while workers.outstanding:
            result = workers.next_result()
            if result is not None:
                finished(by_id[result[0]], result[1])
    return stats


def plan_artifacts(
    preset: ExperimentPreset,
    cells: tuple[PlanCell, ...],
    results_dir: str | os.PathLike,
    *,
    run: bool = True,
    log: Callable[[str], None] | None = None,
) -> list[ArtifactResult]:
    """What every paper output renders from: the artifacts of
    ``cells`` (all of ``preset``) under ``results_dir``, in plan order.
    With ``run`` the missing cells run first, through
    :func:`run_sweep` with ``jobs=1`` (finished cells are skipped, a
    killed one resumes from its checkpoint); with ``run=False`` nothing
    runs, and a missing cell raises with the command that makes it."""
    if run:
        run_sweep(cells, results_dir, preset_lookup=lambda name: preset, log=log)
    return [load_cell_result(results_dir, cell) for cell in cells]
