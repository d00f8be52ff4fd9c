"""Multi-seed sweeps: in-memory comparison and the resumable, sharded
on-disk orchestrator.

Single-seed comparisons can flip on noise; the paper itself reports
mean curves with std bands (Fig. 4). Two execution styles live here:

* :func:`seed_sweep` / :func:`compare_algorithms` — the original
  in-memory path: repeat a cell over seeds, aggregate mean ± std,
  render a table. Everything is lost on a crash.
* :func:`run_sweep` / :func:`run_cell` — the production path: execute
  a deterministic :func:`~repro.experiments.artifacts.build_plan`
  (optionally one ``--shard I/N`` slice of it), write one JSON
  artifact per completed cell under ``<results>/raw/``, skip cells
  whose artifact already exists, and checkpoint long cells every
  ``checkpoint_every`` rounds via
  :func:`~repro.simulation.checkpoint.save_run_checkpoint` so a killed
  3000-round run resumes mid-cell instead of from round 0. With
  ``jobs=N`` the shard's cells additionally fan out to persistent fork
  workers fed from a shared-memory dataset cache
  (:mod:`repro.experiments.pool`; ``pool="fork"`` keeps the legacy
  per-group pool). Cells are independent, so the artifact set stays
  byte-identical to a serial run. Aggregation to CSV is a separate
  step (``repro aggregate``), tolerant of partial sweeps.

Both execution backends ride the same orchestration: ``kind="async"``
cells run on the event-driven gossip engine with identical
skip/shard/jobs/checkpoint semantics (see :func:`run_cell`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.schedule import RoundSchedule
from ..simulation.checkpoint import (
    load_async_run_checkpoint,
    load_run_checkpoint,
    save_async_run_checkpoint,
    save_run_checkpoint,
)
from .artifacts import (
    PlanCell,
    artifact_path,
    checkpoint_path,
    shard_cells,
    write_async_cell_artifact,
    write_cell_artifact,
)
from .presets import ExperimentPreset, get_preset
from .reporting import render_table
from .runner import (
    AsyncExperimentResult,
    ExperimentResult,
    async_eval_cadence,
    build_async_run,
    build_run,
    prepare,
    prepare_data,
    prepared_from_data,
    run_algorithm,
)

__all__ = [
    "SweepCell",
    "SweepResult",
    "seed_sweep",
    "compare_algorithms",
    "SweepRunStats",
    "cell_data_coords",
    "resolve_auto_jobs",
    "run_cell",
    "run_sweep",
    "sweep_result_from_artifacts",
]


@dataclass(frozen=True)
class SweepCell:
    """Aggregated outcome of one algorithm over seeds."""

    algorithm: str
    accuracies: tuple[float, ...]
    train_energies_wh: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.accuracies))

    @property
    def mean_energy_wh(self) -> float:
        return float(np.mean(self.train_energies_wh))

    @property
    def n_seeds(self) -> int:
        return len(self.accuracies)


@dataclass
class SweepResult:
    """All algorithms' aggregated cells for one preset/degree."""

    degree: int
    cells: dict[str, SweepCell]

    def render(self) -> str:
        rows = [
            [
                cell.algorithm,
                cell.mean_accuracy * 100,
                cell.std_accuracy * 100,
                cell.mean_energy_wh,
                cell.n_seeds,
            ]
            for cell in self.cells.values()
        ]
        return render_table(
            ["algorithm", "accuracy % (mean)", "± std", "energy Wh (mean)",
             "seeds"],
            rows,
            title=f"Seed sweep, {self.degree}-regular",
        )

    def significant_gap(self, a: str, b: str) -> bool:
        """Whether algorithm ``a``'s mean accuracy exceeds ``b``'s by
        more than one pooled standard deviation — a coarse but honest
        significance screen for small seed counts."""
        ca, cb = self.cells[a], self.cells[b]
        pooled = float(np.sqrt((ca.std_accuracy**2 + cb.std_accuracy**2) / 2))
        return ca.mean_accuracy - cb.mean_accuracy > pooled


def seed_sweep(
    preset: ExperimentPreset,
    algorithm: str,
    seeds: tuple[int, ...],
    degree: int | None = None,
    schedule: RoundSchedule | None = None,
) -> SweepCell:
    """Run one algorithm across seeds (data, partition, topology, and
    model init all re-drawn per seed)."""
    if not seeds:
        raise ValueError("need at least one seed")
    deg = degree if degree is not None else preset.degrees[0]
    accs, energies = [], []
    for seed in seeds:
        prepared = prepare(preset, deg, seed=seed)
        result = run_algorithm(prepared, algorithm, schedule=schedule)
        accs.append(result.history.final_accuracy())
        energies.append(result.meter.total_train_wh)
    return SweepCell(
        algorithm=algorithm,
        accuracies=tuple(accs),
        train_energies_wh=tuple(energies),
    )


def compare_algorithms(
    preset: ExperimentPreset,
    algorithms: tuple[str, ...],
    seeds: tuple[int, ...],
    degree: int | None = None,
) -> SweepResult:
    """Sweep several algorithms over the same seeds."""
    deg = degree if degree is not None else preset.degrees[0]
    cells = {
        name: seed_sweep(preset, name, seeds, degree=deg)
        for name in algorithms
    }
    return SweepResult(degree=deg, cells=cells)


# --------------------------------------------------------------------------
# Resumable on-disk orchestration (one JSON artifact per cell)
# --------------------------------------------------------------------------


@dataclass
class SweepRunStats:
    """What one :func:`run_sweep` invocation did with its shard.

    ``prepped`` records the data keys the persistent pool published to
    shared memory, in publication order — one entry per distinct
    (preset, seed, partition-override, α) dataset, however many cells
    shared it (empty for the serial and legacy fork backends). The
    parallel-correctness tests assert on it to prove each dataset is
    prepared exactly once per sweep.

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
    """Resolve ``jobs="auto"`` to ``(worker_count, source)``.

    Prefers the scheduler affinity mask — ``len(os.sched_getaffinity(
    0))`` — which reflects cgroup cpusets and ``taskset`` restrictions
    in containers, where ``os.cpu_count()`` reports the host's full
    core count and over-subscribes the pool. Falls back to
    ``os.cpu_count()`` on platforms without affinity support (macOS).
    """
    try:
        return max(1, len(os.sched_getaffinity(0))), "sched_getaffinity"
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1), "cpu_count"


def run_cell(
    preset: ExperimentPreset,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    *,
    prepared=None,
    checkpoint_every: int = 0,
    vectorized: bool = False,
    node_shards: int = 1,
    state_backend: str = "memory",
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
    first evaluation round at least that many rounds after the last
    one (checkpoints land on evaluation rounds because only those
    resume exactly; see :meth:`SimulationEngine.run`). The checkpoint
    is deleted once the artifact is safely on disk.

    ``kind="async"`` cells dispatch to the event-driven engine: the
    same skip/resume/checkpoint contract, with ``checkpoint_every``
    counted in the cell's round-equivalent unit (expected activations
    per node — ``checkpoint_every × n`` events) and the hook invoked as
    ``round_hook(engine, event, history, event)`` after every event.
    Async resume is exact from *any* event boundary.

    Cells referencing a scenario (``cell.scenario``) are compiled via
    :func:`repro.scenarios.compile_run` — churn, failures, dynamic
    topology, energy and data-skew axes all active — and then ride the
    exact same checkpoint/resume/artifact path. ``scenario_lookup``
    overrides the registry lookup (tests inject specs the registry
    does not know).

    ``node_shards > 1`` shards the cell's *node axis* across fork
    workers (synchronous cells only — the async engine trains one node
    per event, so there is no node loop to shard); artifacts and
    checkpoints stay byte-identical to an unsharded run. The
    ``state_backend`` selects where the ``(n, dim)`` state matrix lives
    (see :mod:`repro.simulation.state_store`) and likewise never
    changes any bit of the output.

    ``progress`` is a pure observability hook, called as
    ``progress(done, total)`` after every completed unit of work —
    rounds for synchronous cells, events for async cells (``total =
    total_rounds × n``) — so supervising processes (the serve daemon's
    rounds/sec and events/sec accounting) can meter execution without
    touching engine state. It must not mutate anything the engine
    reads; it runs after ``round_hook``.

    Returns ``(result, resumed_from_checkpoint)``.
    """
    if preset.name != cell.preset:
        raise ValueError(
            f"cell {cell.cell_id} belongs to preset {cell.preset!r}, "
            f"got {preset.name!r}"
        )
    if node_shards < 1:
        raise ValueError("node_shards must be >= 1")
    if node_shards > 1 and cell.kind == "async":
        raise ValueError(
            f"cell {cell.cell_id} is async: node sharding applies to "
            f"synchronous cells only (the event loop trains one node at "
            f"a time)"
        )
    if cell.scenario:
        return _run_scenario_cell(
            preset, cell, results_dir, prepared=prepared,
            checkpoint_every=checkpoint_every, vectorized=vectorized,
            node_shards=node_shards, state_backend=state_backend,
            round_hook=round_hook, scenario_lookup=scenario_lookup,
            progress=progress,
        )
    if prepared is None:
        prepared = prepare(preset, cell.degree, seed=cell.seed)
    if cell.kind == "async":
        engine, policy = build_async_run(
            prepared, cell.algorithm, activations_per_node=cell.total_rounds,
            vectorized=vectorized, state_backend=state_backend,
        )
        return _execute_async_cell(
            engine, policy, cell, results_dir, prepared.trace,
            eval_every_rounds=preset.eval_every,
            checkpoint_every=checkpoint_every, vectorized=vectorized,
            round_hook=round_hook, progress=progress,
        )
    engine, algo = build_run(
        prepared,
        cell.algorithm,
        total_rounds=cell.total_rounds,
        vectorized=vectorized,
        state_backend=state_backend,
    )
    return _execute_sync_cell(
        engine, algo, cell, results_dir, prepared.trace,
        checkpoint_every=checkpoint_every, vectorized=vectorized,
        node_shards=node_shards, round_hook=round_hook, progress=progress,
    )


def _run_scenario_cell(
    preset: ExperimentPreset,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    *,
    prepared=None,
    checkpoint_every: int,
    vectorized: bool,
    node_shards: int = 1,
    state_backend: str = "memory",
    round_hook: Callable | None,
    scenario_lookup: Callable | None,
    progress: Callable[[int, int], None] | None = None,
) -> "tuple[ExperimentResult | AsyncExperimentResult, bool]":
    """The ``cell.scenario`` execution path of :func:`run_cell`:
    compile the registered spec with the cell's seed/rounds, then run
    through the shared checkpointed execution helpers. Compilation is
    deterministic, which is what lets a killed scenario cell rebuild
    its engine and resume byte-identically. ``prepared`` skips data
    synthesis inside :func:`~repro.scenarios.compile.compile_run` —
    pool workers pass the shared-memory rebind, which must have been
    prepared against the spec-resolved base preset and degree (the
    degree drift guard below still fires if the registry moved)."""
    from ..scenarios.compile import compile_run
    from ..scenarios.registry import get_scenario

    lookup = scenario_lookup if scenario_lookup is not None else get_scenario
    spec = lookup(cell.scenario)
    if checkpoint_every > 0 and spec.failures.kind == "independent":
        # fail before any training, not rounds in at the first
        # checkpoint save (the rng-backed failure model cannot
        # round-trip through checkpoints)
        raise ValueError(
            f"scenario {spec.name!r} uses rng-backed "
            f'"independent" failures, which run checkpoints cannot '
            f"capture; drop checkpoint_every or switch the scenario to "
            f'a deterministic "window" failure model'
        )
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
        kind=cell.kind,
        seed=cell.seed,
        total_rounds=cell.total_rounds,
        preset=preset,
        prepared=prepared,
        vectorized=vectorized,
        state_backend=state_backend,
    )
    if compiled.prepared.degree != cell.degree:
        raise ValueError(
            f"cell {cell.cell_id} records degree {cell.degree} but "
            f"scenario {spec.name!r} resolves to degree "
            f"{compiled.prepared.degree} — the registry changed since "
            f"the plan was built"
        )
    if cell.kind == "async":
        return _execute_async_cell(
            compiled.engine, compiled.algorithm, cell, results_dir,
            compiled.prepared.trace, eval_every_rounds=compiled.eval_every,
            checkpoint_every=checkpoint_every, vectorized=vectorized,
            round_hook=round_hook, progress=progress,
        )
    return _execute_sync_cell(
        compiled.engine, compiled.algorithm, cell, results_dir,
        compiled.prepared.trace, checkpoint_every=checkpoint_every,
        vectorized=vectorized, node_shards=node_shards,
        round_hook=round_hook, progress=progress,
    )


def _execute_sync_cell(
    engine,
    algo,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    trace,
    *,
    checkpoint_every: int,
    vectorized: bool,
    node_shards: int = 1,
    round_hook: Callable | None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[ExperimentResult, bool]:
    """Run a wired sync engine through the checkpointed cell protocol:
    restore any mid-run checkpoint, run with periodic checkpointing at
    evaluation rounds, write the artifact, drop the checkpoint. With
    ``node_shards > 1`` a :class:`~repro.simulation.node_shard.
    NodeShardPool` fans the local-training stage out for the duration
    of the run; the engine (and its state backing, mmap or not) is
    always released on the way out, success or crash."""
    ckpt = checkpoint_path(results_dir, cell)
    start_round, history = 0, None
    resumed = ckpt.is_file()
    if resumed:
        start_round, history = load_run_checkpoint(engine, algo, ckpt)

    last_ckpt = {"round": start_round}

    def hook(eng, t, hist, last_eval):
        if (
            checkpoint_every > 0
            and t == last_eval  # evaluation rounds resume exactly
            and t < cell.total_rounds
            and t - last_ckpt["round"] >= checkpoint_every
        ):
            ckpt.parent.mkdir(parents=True, exist_ok=True)
            save_run_checkpoint(eng, algo, hist, t, ckpt)
            last_ckpt["round"] = t
        if round_hook is not None:
            round_hook(eng, t, hist, last_eval)
        if progress is not None:
            progress(t, cell.total_rounds)

    sharder = None
    try:
        if node_shards > 1:
            from ..simulation.node_shard import NodeShardPool

            sharder = NodeShardPool(engine, node_shards)
            engine.set_node_sharder(sharder)
        history = engine.run(
            algo, start_round=start_round, history=history, round_hook=hook
        )
        assert engine.meter is not None
        result = ExperimentResult(history=history, meter=engine.meter,
                                  trace=trace)
        write_cell_artifact(results_dir, cell, result, vectorized=vectorized)
        ckpt.unlink(missing_ok=True)
    finally:
        if sharder is not None:
            engine.set_node_sharder(None)
            sharder.close()
        engine.close()
    return result, resumed


def _execute_async_cell(
    engine,
    policy,
    cell: PlanCell,
    results_dir: str | os.PathLike,
    trace,
    *,
    eval_every_rounds: int,
    checkpoint_every: int,
    vectorized: bool = False,
    round_hook: Callable | None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[AsyncExperimentResult, bool]:
    """The ``kind="async"`` twin of :func:`_execute_sync_cell`. Any
    event boundary resumes exactly, so checkpoints need no alignment
    with evaluation events; under ``vectorized=True`` the hook only
    fires at evaluation boundaries, so checkpoints land on those (the
    sync engine's cadence) while resume stays boundary-free."""
    n = engine.n_nodes
    total_events = n * cell.total_rounds
    ckpt = checkpoint_path(results_dir, cell)
    start_event, history = 0, None
    resumed = ckpt.is_file()
    if resumed:
        start_event, history = load_async_run_checkpoint(engine, policy, ckpt)

    ckpt_interval = checkpoint_every * n  # round-equivalents → events
    last_ckpt = {"event": start_event}

    def hook(eng, event, hist):
        if (
            checkpoint_every > 0
            and event < total_events
            and event - last_ckpt["event"] >= ckpt_interval
        ):
            ckpt.parent.mkdir(parents=True, exist_ok=True)
            save_async_run_checkpoint(eng, policy, hist, event, ckpt)
            last_ckpt["event"] = event
        if round_hook is not None:
            round_hook(eng, event, hist, event)
        if progress is not None:
            progress(event, total_events)

    try:
        history = engine.run(
            policy,
            activations_per_node=cell.total_rounds,
            eval_every=async_eval_cadence(eval_every_rounds, n),
            start_event=start_event,
            history=history,
            event_hook=hook,
        )
        result = AsyncExperimentResult(
            history=history,
            train_energy_wh=engine.train_energy_wh,
            trace=trace,
        )
        write_async_cell_artifact(results_dir, cell, result,
                                  vectorized=vectorized)
        ckpt.unlink(missing_ok=True)
    finally:
        engine.close()
    return result, resumed


# Worker context for ``run_sweep(jobs=N)``. The pool uses the fork
# start method and workers only receive group *indices*, so presets,
# model factories, preset_lookup closures and round hooks never need to
# be picklable — the forked child inherits this module global.
_JOB_CTX: dict | None = None


def _run_cell_group(group_index: int) -> list[tuple[PlanCell, bool]]:
    """Execute one (preset, degree, seed) group of cells in a pool
    worker; returns ``(cell, resumed_from_checkpoint)`` pairs."""
    ctx = _JOB_CTX
    assert ctx is not None, "job worker forked without context"
    out: list[tuple[PlanCell, bool]] = []
    prepared = None
    for cell in ctx["groups"][group_index]:
        preset = ctx["preset_lookup"](cell.preset)
        if prepared is None and not cell.scenario:
            # one shared preparation per group (scenario cells prepare
            # inside compile_run — their data axis may differ)
            prepared = prepare(preset, cell.degree, seed=cell.seed)
        _, resumed = run_cell(
            preset,
            cell,
            ctx["results_dir"],
            prepared=prepared,
            checkpoint_every=ctx["checkpoint_every"],
            vectorized=ctx["vectorized"],
            state_backend=ctx["state_backend"],
            round_hook=ctx["round_hook"],
            scenario_lookup=ctx["scenario_lookup"],
        )
        out.append((cell, resumed))
    return out


def run_sweep(
    cells: tuple[PlanCell, ...],
    results_dir: str | os.PathLike,
    *,
    shard: tuple[int, int] = (1, 1),
    checkpoint_every: int = 0,
    vectorized: bool = False,
    node_shards: int = 1,
    state_backend: str = "memory",
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
    never redoes finished work. Preparation (data synthesis, partition,
    topology) is cached across consecutive cells sharing a (preset,
    degree, seed) coordinate; the shard's cells are regrouped by that
    coordinate before execution so the cache also hits under
    round-robin sharding (execution order within a shard is free —
    artifacts are per-cell and deterministic).

    ``jobs > 1`` fans the shard's pending cells out to a process pool
    selected by ``pool``:

    * ``"persistent"`` (default) — long-lived fork workers handed
      individual cells over per-worker pipes, with each distinct dataset
      prepared once in the parent and published to the workers via
      shared memory (see :mod:`repro.experiments.pool`). A crashed
      worker fails the sweep fast with its original traceback.
    * ``"fork"`` — the legacy per-(preset, degree, seed) group
      ``multiprocessing.Pool`` backend, kept as a fallback and as the
      conformance reference for the pool's correctness tests.

    Cells are independent and every artifact is deterministic, so
    either backend's artifact directory is byte-identical to a
    ``jobs=1`` run — only wall-clock and completion order change.
    Composes with sharding, skip-on-existing-artifact and mid-cell
    checkpointing unchanged (each cell owns its private checkpoint
    file). ``round_hook`` runs inside the worker processes when
    ``jobs > 1``. Both backends require the ``fork`` start method
    (Linux; presets and hooks need not be picklable) — elsewhere, run
    ``jobs=1`` per shard and split work with ``shard`` instead.

    ``jobs="auto"`` resolves the worker count via
    :func:`resolve_auto_jobs` — the scheduler affinity mask when the
    platform has one (it respects cgroup cpusets, where
    ``os.cpu_count()`` over-reports), else ``os.cpu_count()`` — falling
    back to a serial run on a single-CPU box (or when the fork start
    method is unavailable); the resolved value and its source are
    recorded in ``SweepRunStats.jobs_resolved`` / ``.jobs_source``.

    ``node_shards > 1`` parallelizes *within* each synchronous cell
    instead of across cells (fleet-scale presets have few, huge cells);
    it requires ``jobs=1`` — the two pool layers do not nest.
    ``state_backend`` selects the state-matrix backing for every cell
    (see :mod:`repro.simulation.state_store`); neither knob changes a
    byte of any artifact.
    """
    if node_shards < 1:
        raise ValueError("node_shards must be >= 1")
    jobs_source = "explicit"
    if jobs == "auto":
        jobs, jobs_source = resolve_auto_jobs()
        if jobs > 1 and "fork" not in mp.get_all_start_methods():
            jobs = 1
    elif not isinstance(jobs, int):
        raise ValueError(f'jobs must be a positive int or "auto", got {jobs!r}')
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if pool not in ("persistent", "fork"):
        raise ValueError(
            f'pool must be "persistent" or "fork", got {pool!r}'
        )
    if jobs > 1 and "fork" not in mp.get_all_start_methods():
        raise ValueError(
            "jobs > 1 requires the fork start method (unavailable on "
            "this platform); use jobs=1 and split work across machines "
            "with shard=I/N instead"
        )
    if node_shards > 1 and jobs > 1:
        raise ValueError(
            "node_shards > 1 requires jobs=1: node sharding parallelizes "
            "within cells and does not nest inside the cell-level pool"
        )
    index, count = shard
    selected = sorted(
        shard_cells(cells, index, count),
        key=lambda c: (c.preset, c.degree, c.seed),
    )
    stats = SweepRunStats(jobs_resolved=jobs, jobs_source=jobs_source)
    say = log if log is not None else (lambda msg: None)
    if jobs > 1:
        backend = (
            _run_sweep_persistent if pool == "persistent" else _run_sweep_jobs
        )
        return backend(
            selected, results_dir, stats, say,
            checkpoint_every=checkpoint_every, vectorized=vectorized,
            state_backend=state_backend, jobs=jobs,
            preset_lookup=preset_lookup, round_hook=round_hook,
            scenario_lookup=scenario_lookup,
        )
    prep_key, prep_val = None, None
    for pos, cell in enumerate(selected, 1):
        if artifact_path(results_dir, cell).is_file():
            stats.skipped.append(cell)
            say(f"[{pos}/{len(selected)}] skip {cell.cell_id} (artifact exists)")
            continue
        preset = preset_lookup(cell.preset)
        if cell.scenario:
            # scenario cells prepare inside compile_run (their data
            # axis may override the preset's partition)
            prep = None
        else:
            key = (cell.preset, cell.degree, cell.seed)
            if key != prep_key:
                prep_key, prep_val = key, prepare(preset, cell.degree,
                                                  seed=cell.seed)
            prep = prep_val
        say(f"[{pos}/{len(selected)}] run  {cell.cell_id}")
        _, resumed = run_cell(
            preset,
            cell,
            results_dir,
            prepared=prep,
            checkpoint_every=checkpoint_every,
            vectorized=vectorized,
            node_shards=node_shards,
            state_backend=state_backend,
            round_hook=round_hook,
            scenario_lookup=scenario_lookup,
        )
        stats.ran.append(cell)
        if resumed:
            stats.resumed.append(cell)
            say(f"    resumed {cell.cell_id} from mid-cell checkpoint")
    return stats


def _run_sweep_jobs(
    selected: list[PlanCell],
    results_dir: str | os.PathLike,
    stats: SweepRunStats,
    say: Callable[[str], None],
    *,
    checkpoint_every: int,
    vectorized: bool,
    state_backend: str = "memory",
    jobs: int,
    preset_lookup: Callable[[str], ExperimentPreset],
    round_hook: Callable | None,
    scenario_lookup: Callable | None,
) -> SweepRunStats:
    """The ``jobs > 1`` execution path: pending cells grouped by
    preparation coordinate, one pool task per group."""
    global _JOB_CTX
    pending: list[PlanCell] = []
    for cell in selected:
        if artifact_path(results_dir, cell).is_file():
            stats.skipped.append(cell)
            say(f"skip {cell.cell_id} (artifact exists)")
        else:
            pending.append(cell)
    if not pending:
        return stats
    groups: dict[tuple, list[PlanCell]] = {}
    for cell in pending:
        groups.setdefault(
            (cell.preset, cell.degree, cell.seed, cell.scenario), []
        ).append(cell)
    group_list = [groups[key] for key in sorted(groups)]
    if _JOB_CTX is not None:
        raise RuntimeError("run_sweep(jobs>1) does not nest")
    _JOB_CTX = {
        "groups": group_list,
        "results_dir": results_dir,
        "checkpoint_every": checkpoint_every,
        "vectorized": vectorized,
        "state_backend": state_backend,
        "preset_lookup": preset_lookup,
        "round_hook": round_hook,
        "scenario_lookup": scenario_lookup,
    }
    done = 0
    try:
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=min(jobs, len(group_list))) as pool:
            for results in pool.imap_unordered(_run_cell_group,
                                               range(len(group_list))):
                for cell, resumed in results:
                    done += 1
                    say(f"[{done}/{len(pending)}] ran  {cell.cell_id}")
                    stats.ran.append(cell)
                    if resumed:
                        stats.resumed.append(cell)
                        say(f"    resumed {cell.cell_id} from mid-cell "
                            f"checkpoint")
    finally:
        _JOB_CTX = None
    return stats


def cell_data_coords(
    cell: PlanCell,
    *,
    preset_lookup: Callable[[str], ExperimentPreset],
    scenario_lookup: Callable | None = None,
) -> tuple[tuple, ExperimentPreset, str | None, float | None]:
    """``(data key, base preset, partition override, α)`` for one cell.

    The shared-memory publication coordinate of the persistent pool:
    two cells with the same key bind the exact same published dataset
    segment. Scenario cells resolve their base preset and data-axis
    override through :func:`~repro.scenarios.compile.scenario_base`;
    plain cells key on (preset, seed) alone. The serve daemon uses the
    same helper, which is what keeps a served cell's prepared data —
    and therefore its artifact bytes — identical to its batch twin.
    """
    from ..scenarios.compile import scenario_base
    from ..scenarios.registry import get_scenario

    lookup = scenario_lookup if scenario_lookup is not None else get_scenario
    if cell.scenario:
        spec = lookup(cell.scenario)
        base, _ = scenario_base(spec, preset_lookup(cell.preset))
        key = (cell.preset, cell.seed, spec.data.partition, spec.data.alpha)
        return key, base, spec.data.partition, spec.data.alpha
    return (cell.preset, cell.seed, None, None), preset_lookup(cell.preset), None, None


def _run_sweep_persistent(
    selected: list[PlanCell],
    results_dir: str | os.PathLike,
    stats: SweepRunStats,
    say: Callable[[str], None],
    *,
    checkpoint_every: int,
    vectorized: bool,
    state_backend: str = "memory",
    jobs: int,
    preset_lookup: Callable[[str], ExperimentPreset],
    round_hook: Callable | None,
    scenario_lookup: Callable | None,
) -> SweepRunStats:
    """The default ``jobs > 1`` path: every distinct dataset prepared
    once in the parent and published to shared memory, pending cells
    streamed one-by-one through persistent fork workers.

    The data key is (preset, seed, partition-override, α) — degree-free,
    because topology/mixing/trace are cheap and re-derived per cell in
    the workers (:func:`~repro.experiments.runner.prepared_from_data`).
    Scenario cells resolve their override/α from the spec's data axis
    and their base preset via
    :func:`~repro.scenarios.compile.scenario_base`, so a scenario
    without a data override shares its segment with the plain cells of
    the same (preset, seed).
    """
    from ..scenarios.compile import scenario_base
    from ..scenarios.registry import get_scenario
    from .pool import PersistentPool, SharedDatasetCache, bind_data

    lookup = scenario_lookup if scenario_lookup is not None else get_scenario
    pending: list[PlanCell] = []
    for cell in selected:
        if artifact_path(results_dir, cell).is_file():
            stats.skipped.append(cell)
            say(f"skip {cell.cell_id} (artifact exists)")
        else:
            pending.append(cell)
    if not pending:
        return stats

    def data_coords(cell: PlanCell) -> tuple[tuple, ExperimentPreset, str | None, float | None]:
        return cell_data_coords(
            cell, preset_lookup=preset_lookup, scenario_lookup=lookup
        )

    def run_one(cell, meta):
        # runs inside a forked worker: rebind the shared dataset, derive
        # the cell's topology locally, then ride the normal cell path
        preset = preset_lookup(cell.preset)
        if cell.scenario:
            base, degree = scenario_base(lookup(cell.scenario), preset)
        else:
            base, degree = preset, cell.degree
        prepared = prepared_from_data(bind_data(meta, base), degree)
        _, resumed = run_cell(
            preset,
            cell,
            results_dir,
            prepared=prepared,
            checkpoint_every=checkpoint_every,
            vectorized=vectorized,
            state_backend=state_backend,
            round_hook=round_hook,
            scenario_lookup=scenario_lookup,
        )
        return resumed

    by_id = {cell.cell_id: cell for cell in pending}
    done = 0
    with SharedDatasetCache() as shared:
        tasks = []
        for cell in pending:
            key, base, override, alpha = data_coords(cell)
            meta = shared.get(key)
            if meta is None:
                say(f"prep {cell.preset} seed={cell.seed}"
                    + (f" data={override}" if override else ""))
                meta = shared.publish(
                    key,
                    prepare_data(
                        base,
                        seed=cell.seed,
                        partition_override=override,
                        dirichlet_alpha=alpha,
                    ),
                )
                stats.prepped.append(key)
            tasks.append((cell, meta))
        with PersistentPool(min(jobs, len(pending)), run_one) as workers:
            for cell_id, resumed in workers.run(tasks):
                cell = by_id[cell_id]
                done += 1
                say(f"[{done}/{len(pending)}] ran  {cell.cell_id}")
                stats.ran.append(cell)
                if resumed:
                    stats.resumed.append(cell)
                    say(f"    resumed {cell.cell_id} from mid-cell "
                        f"checkpoint")
    return stats


def sweep_result_from_artifacts(
    results_dir: str | os.PathLike,
    preset_name: str,
    degree: int,
    total_rounds: int | None = None,
) -> SweepResult:
    """Rebuild a :class:`SweepResult` (the mean±std comparison table)
    from raw artifacts instead of recomputation. With ``total_rounds=
    None`` the rounds value is discovered from the artifacts; a mix of
    rounds values is ambiguous (the same seed would enter one mean at
    two training lengths) and fails loudly."""
    from .artifacts import list_cell_artifacts

    cells: dict[str, SweepCell] = {}
    matching = [
        a
        for a in list_cell_artifacts(results_dir)
        if a["cell"]["preset"] == preset_name
        and int(a["cell"]["degree"]) == degree
        # scenario cells (churn/failure compositions) never enter the
        # plain preset comparison table
        and not a["cell"].get("scenario")
    ]
    rounds_present = sorted({int(a["cell"]["total_rounds"]) for a in matching})
    if total_rounds is None and len(rounds_present) > 1:
        raise ValueError(
            f"artifacts for preset {preset_name!r} degree {degree} mix "
            f"total_rounds {rounds_present}; pass an explicit total_rounds"
        )
    artifacts = [
        a
        for a in matching
        if total_rounds is None
        or int(a["cell"]["total_rounds"]) == total_rounds
    ]
    by_algorithm: dict[str, list[dict]] = {}
    for artifact in artifacts:
        by_algorithm.setdefault(artifact["cell"]["algorithm"], []).append(artifact)
    for name in sorted(by_algorithm):
        group = sorted(by_algorithm[name], key=lambda a: int(a["cell"]["seed"]))
        cells[name] = SweepCell(
            algorithm=name,
            accuracies=tuple(a["results"]["final_accuracy"] for a in group),
            train_energies_wh=tuple(a["results"]["total_train_wh"] for a in group),
        )
    if not cells:
        raise FileNotFoundError(
            f"no artifacts for preset {preset_name!r} degree {degree} "
            f"under {results_dir}"
        )
    return SweepResult(degree=degree, cells=cells)
