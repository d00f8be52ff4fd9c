"""High-level experiment runner: preset + algorithm name → RunHistory.

This is the one place that wires data synthesis, partitioning,
topology, energy traces, engine and algorithm together, so every
figure/table reproduction, example, and sweep cell goes through the
same code path. :func:`build_run` exposes the wired-but-not-yet-run
(engine, algorithm) pair so the sweep orchestrator can restore a
mid-cell checkpoint before running; ``vectorized=True`` selects the
batched multi-node engine (bit-compatible with serial for plain SGD,
so artifacts are identical whichever engine produced them).

:func:`build_async_run` / :func:`run_async_algorithm` are the
event-driven twins: the same :class:`PreparedExperiment` (identical
data, partition, and regular graph), wired into an
:class:`~repro.simulation.async_engine.AsyncGossipEngine` plus an async
policy. Construction is deterministic in ``prepared`` and the
overrides, which is what lets the sweep orchestrator rebuild a killed
async cell and restore its checkpoint into it.

:func:`execute_run` is the one step from a wired pair of either kind to
its result — the only place that knows the two engines' ``run``
spellings — so ``run_algorithm``, ``run_async_algorithm``, a compiled
scenario and a checkpointed sweep cell all run an engine the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.base import Algorithm
from ..core.dpsgd import DPSGD, AllReduceDPSGD
from ..core.greedy import Greedy
from ..core.schedule import RoundSchedule
from ..core.skiptrain import SkipTrain, SkipTrainConstrained
from ..data.dataset import ArrayDataset
from ..data.partition import (
    dirichlet_partition,
    iid_partition,
    shard_partition,
    writer_partition,
)
from ..data.synthetic import make_classification_images, synthetic_femnist
from ..energy.accounting import EnergyMeter
from ..energy.traces import EnergyTrace, build_trace
from ..simulation.async_engine import (
    AsyncDPSGD,
    AsyncGossipEngine,
    AsyncHistory,
    AsyncPolicy,
    AsyncSkipTrain,
    AsyncSkipTrainConstrained,
)
from ..simulation.builder import build_nodes
from ..simulation.engine import EngineConfig, SimulationEngine
from ..simulation.failures import FailureModel
from ..simulation.metrics import RunHistory
from ..simulation.rng import RngFactory
from ..topology.mixing import metropolis_hastings_weights
from ..topology.sparse import NeighborList, neighbor_lists, regular_neighbors
from .presets import ExperimentPreset

__all__ = [
    "ExperimentResult",
    "AsyncExperimentResult",
    "PreparedData",
    "PreparedExperiment",
    "ASYNC_ALGORITHMS",
    "prepare",
    "prepare_data",
    "prepared_from_data",
    "build_run",
    "run_algorithm",
    "build_async_run",
    "run_async_algorithm",
    "execute_run",
]

#: Algorithm names that run on the asynchronous gossip engine.
ASYNC_ALGORITHMS = (
    "async-d-psgd",
    "async-skiptrain",
    "async-skiptrain-constrained",
)


def async_eval_cadence(eval_every_rounds: int, n_nodes: int) -> int:
    """Async evaluation cadence in *events* from a round-equivalent
    ``eval_every``: one expected activation per node ≈ one round, so
    the cadence scales by ``n``. The single home of this formula —
    ``repro async-run`` and the sweep orchestrator must agree on it,
    or the same cell would evaluate at different simulated times."""
    return max(1, eval_every_rounds * n_nodes)


@dataclass
class ExperimentResult:
    """Run history plus the energy meter that produced its energy axis."""

    history: RunHistory
    meter: EnergyMeter
    trace: EnergyTrace

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy()

    @property
    def total_train_energy_wh(self) -> float:
        return self.meter.total_train_wh


@dataclass
class PreparedData:
    """The degree-independent half of a prepared cell: synthesized
    datasets plus the sample→node partition.

    Everything here depends only on (preset, seed, partition override,
    Dirichlet α) — never on the topology degree — so one
    :class:`PreparedData` can back every degree of a sweep group. The
    persistent sweep pool exploits exactly this: the parent process
    synthesizes each distinct data key once, publishes the arrays via
    shared memory, and the workers rebind them zero-copy (see
    :mod:`repro.experiments.pool`).
    """

    preset: ExperimentPreset
    seed: int
    train: ArrayDataset
    test: ArrayDataset
    validation: ArrayDataset
    partition: list[np.ndarray]


@dataclass
class PreparedExperiment:
    """Dataset + partition + topology, reusable across algorithms so
    baseline comparisons see identical data and graphs.

    Following the paper's protocol (§4.2), the held-out data is split
    50/50 into a *validation* set (used to tune Γ_train/Γ_sync in the
    grid search) and a disjoint *test* set (used everywhere else).
    """

    preset: ExperimentPreset
    degree: int
    seed: int
    train: ArrayDataset
    test: ArrayDataset
    validation: ArrayDataset
    partition: list[np.ndarray]
    topology: NeighborList
    mixing: "object"  # scipy sparse matrix
    trace: EnergyTrace


def prepare_data(
    preset: ExperimentPreset,
    seed: int = 0,
    partition_override: str | None = None,
    dirichlet_alpha: float | None = None,
) -> PreparedData:
    """Synthesize and partition the dataset for one (preset, seed) cell
    group — the expensive, degree-independent half of :func:`prepare`.

    ``partition_override`` replaces the preset's non-IID structure with
    ``"iid"`` (uniform control) or ``"dirichlet"`` (Dirichlet(α) label
    skew, ``dirichlet_alpha`` required) — the data-skew axis of
    scenario specs. The dataset synthesis is untouched; only the
    sample→node assignment changes, drawn from the same ``"partition"``
    rng stream."""
    if partition_override not in (None, "iid", "dirichlet"):
        raise ValueError(
            f'partition_override must be None, "iid" or "dirichlet", '
            f"got {partition_override!r}"
        )
    if partition_override == "dirichlet" and (
        dirichlet_alpha is None or dirichlet_alpha <= 0
    ):
        raise ValueError("dirichlet partition override needs alpha > 0")

    rngs = RngFactory(seed)
    spec = preset.spec

    if preset.partition == "shard":
        train, protos = make_classification_images(
            spec, preset.num_train, rngs.stream("data")
        )
        heldout, _ = make_classification_images(
            spec, preset.num_test, rngs.stream("test"), prototypes=protos
        )
        tags = None
    elif preset.partition == "writer":
        if preset.num_writers is None:
            raise ValueError("writer partition requires num_writers")
        train, heldout, tags = synthetic_femnist(
            preset.num_train,
            preset.num_test,
            preset.num_writers,
            rngs.stream("data"),
            spec=spec,
        )
    else:
        raise ValueError(f"unknown partition kind {preset.partition!r}")

    if partition_override == "iid":
        parts = iid_partition(
            len(train), preset.n_nodes, rng=rngs.stream("partition")
        )
    elif partition_override == "dirichlet":
        parts = dirichlet_partition(
            train.y, preset.n_nodes, dirichlet_alpha,
            rng=rngs.stream("partition"),
        )
    elif preset.partition == "shard":
        parts = shard_partition(
            train.y, preset.n_nodes, rng=rngs.stream("partition")
        )
    else:
        assert tags is not None
        parts = writer_partition(tags, preset.n_nodes)

    # §4.2: validation = 50 % of the held-out samples, disjoint from test
    validation, test = heldout.split(0.5, rngs.stream("val-split"))

    return PreparedData(
        preset=preset,
        seed=seed,
        train=train,
        test=test,
        validation=validation,
        partition=parts,
    )


def prepared_from_data(
    data: PreparedData, degree: int
) -> PreparedExperiment:
    """Bind a degree onto prepared data: derive the regular graph, its
    Metropolis–Hastings mixing matrix, and the energy trace.

    Cheap relative to :func:`prepare_data` and deterministic in
    ``(data, degree)``, so pool workers re-derive it per cell from the
    shared-memory datasets instead of shipping sparse matrices around.
    """
    preset = data.preset
    graph = regular_neighbors(preset.n_nodes, degree, seed=data.seed)
    mixing = metropolis_hastings_weights(graph)
    trace = build_trace(
        preset.n_nodes, preset.workload, preset.battery_fraction, degree=degree
    )
    return PreparedExperiment(
        preset=preset,
        degree=degree,
        seed=data.seed,
        train=data.train,
        test=data.test,
        validation=data.validation,
        partition=data.partition,
        topology=graph,
        mixing=mixing,
        trace=trace,
    )


def prepare(
    preset: ExperimentPreset,
    degree: int,
    seed: int = 0,
    total_rounds: int | None = None,
    partition_override: str | None = None,
    dirichlet_alpha: float | None = None,
) -> PreparedExperiment:
    """Synthesize data, partition it and build the topology/trace for
    one (preset, degree, seed) cell.

    Composes :func:`prepare_data` (degree-independent synthesis +
    partition) with :func:`prepared_from_data` (topology/trace binding);
    the split exists so the sweep pool can share the expensive half
    across degrees without changing any bytes of the result."""
    data = prepare_data(
        preset,
        seed=seed,
        partition_override=partition_override,
        dirichlet_alpha=dirichlet_alpha,
    )
    return prepared_from_data(data, degree)


def _make_algorithm(
    name: str,
    prepared: PreparedExperiment,
    schedule: RoundSchedule | None,
    total_rounds: int,
    rngs: RngFactory,
) -> Algorithm:
    n = prepared.preset.n_nodes
    if schedule is None:
        schedule = prepared.preset.schedule_for_degree(prepared.degree)
    key = name.lower()
    if key == "d-psgd":
        return DPSGD(n)
    if key == "d-psgd-allreduce":
        return AllReduceDPSGD(n)
    if key == "skiptrain":
        return SkipTrain(n, schedule)
    if key == "skiptrain-constrained":
        return SkipTrainConstrained(
            n,
            schedule,
            budgets=prepared.trace.budget_rounds,
            total_rounds=total_rounds,
            rng=rngs.stream("participation"),
        )
    if key == "greedy":
        return Greedy(n, budgets=prepared.trace.budget_rounds)
    raise KeyError(f"unknown algorithm {name!r}")


def _wire_model_nodes(prepared: PreparedExperiment, rngs: RngFactory):
    """The wiring both engines share: the model drawn from the
    ``"model"`` stream and one node (with its own batch stream) per
    partition cell. The single home of this plumbing — sync and async
    cells of one prepared experiment start from bit-identical models
    and data loaders."""
    preset = prepared.preset
    model = preset.model_factory(rngs.stream("model"))
    nodes = build_nodes(
        prepared.train, prepared.partition, preset.batch_size, rngs
    )
    return model, nodes


def build_run(
    prepared: PreparedExperiment,
    algorithm: str | Algorithm,
    schedule: RoundSchedule | None = None,
    total_rounds: int | None = None,
    eval_every: int | None = None,
    eval_on: str = "test",
    vectorized: bool = False,
    mixing=None,
    failure_model: "FailureModel | None" = None,
    churn=None,
    state_backend: str = "memory",
) -> tuple[SimulationEngine, Algorithm]:
    """Wire the (engine, algorithm) pair for one cell without running.

    Construction is deterministic in ``prepared`` and the overrides:
    two calls yield engines whose runs are bit-identical. The sweep
    orchestrator relies on this to rebuild a killed cell's engine and
    restore a mid-run checkpoint into it. ``vectorized`` selects the
    stacked training and evaluation path (bit-identical to the serial
    one, so artifacts never depend on the choice).

    The scenario axes ride through here: ``mixing`` overrides the
    prepared static matrix with a per-round provider (dynamic
    topologies, churn/failure-masked subgraphs), ``failure_model``
    injects transient outages, and ``churn`` a
    :class:`~repro.scenarios.churn.ChurnSchedule` — all three default
    off, leaving non-scenario cells byte-identical to before.
    """
    if eval_on not in ("test", "validation"):
        raise ValueError('eval_on must be "test" or "validation"')
    preset = prepared.preset
    rngs = RngFactory(prepared.seed)
    rounds = total_rounds if total_rounds is not None else preset.total_rounds
    cfg = EngineConfig(
        local_steps=preset.local_steps,
        learning_rate=preset.learning_rate,
        total_rounds=rounds,
        eval_every=eval_every if eval_every is not None else preset.eval_every,
        eval_node_sample=preset.eval_node_sample,
        vectorized=vectorized,
        state_backend=state_backend,
    )
    model, nodes = _wire_model_nodes(prepared, rngs)
    meter = EnergyMeter(prepared.trace)
    engine = SimulationEngine(
        model,
        nodes,
        mixing if mixing is not None else prepared.mixing,
        cfg,
        prepared.test if eval_on == "test" else prepared.validation,
        meter=meter,
        eval_rng=rngs.stream("eval"),
        failure_model=failure_model,
        churn=churn,
    )
    if isinstance(algorithm, str):
        algo = _make_algorithm(algorithm, prepared, schedule, rounds, rngs)
    else:
        algo = algorithm
    return engine, algo


def run_algorithm(
    prepared: PreparedExperiment,
    algorithm: str | Algorithm,
    schedule: RoundSchedule | None = None,
    total_rounds: int | None = None,
    eval_every: int | None = None,
    eval_on: str = "test",
    vectorized: bool = False,
) -> ExperimentResult:
    """Run one algorithm on a prepared experiment cell.

    ``schedule``/``total_rounds``/``eval_every`` override the preset
    (the grid search varies the schedule; Fig. 4 shortens the eval
    cadence). ``eval_on`` selects the evaluation split: ``"test"`` for
    result experiments, ``"validation"`` for hyperparameter tuning
    (the paper's grid search uses the validation set, §4.2–4.3).
    ``vectorized`` runs local training and evaluation on the batched
    multi-node path (bit-identical to the serial one).
    """
    engine, algo = build_run(
        prepared,
        algorithm,
        schedule=schedule,
        total_rounds=total_rounds,
        eval_every=eval_every,
        eval_on=eval_on,
        vectorized=vectorized,
    )
    return execute_run(engine, algo, prepared.trace)


# --------------------------------------------------------------------------
# Asynchronous gossip cells
# --------------------------------------------------------------------------


@dataclass
class AsyncExperimentResult:
    """Async run history plus its training-energy total and trace."""

    history: AsyncHistory
    train_energy_wh: float
    trace: EnergyTrace

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy()


def _make_async_policy(
    name: str,
    prepared: PreparedExperiment,
    schedule: RoundSchedule | None,
    activations_per_node: int,
    rngs: RngFactory,
) -> AsyncPolicy:
    if schedule is None:
        schedule = prepared.preset.schedule_for_degree(prepared.degree)
    key = name.lower()
    if key == "async-d-psgd":
        return AsyncDPSGD()
    if key == "async-skiptrain":
        return AsyncSkipTrain(schedule)
    if key == "async-skiptrain-constrained":
        return AsyncSkipTrainConstrained(
            schedule,
            budgets=prepared.trace.budget_rounds,
            expected_activations=activations_per_node,
            rng=rngs.stream("participation"),
        )
    raise KeyError(
        f"unknown async algorithm {name!r}; available: {ASYNC_ALGORITHMS}"
    )


def build_async_run(
    prepared: PreparedExperiment,
    algorithm: str | AsyncPolicy,
    schedule: RoundSchedule | None = None,
    activations_per_node: int | None = None,
    eval_on: str = "test",
    failure_model: "FailureModel | None" = None,
    enforce_budgets: bool = False,
    churn=None,
    vectorized: bool = False,
    state_backend: str = "memory",
) -> tuple[AsyncGossipEngine, AsyncPolicy]:
    """Wire the (engine, policy) pair for one async cell without
    running it.

    The cell shares the prepared experiment's dataset, partition, and
    the very ``prepared.topology`` the synchronous mixing matrix was
    derived from, expressed as per-node neighbor arrays.
    Construction is deterministic in ``prepared`` and the overrides;
    two calls yield engines whose runs are bit-identical, which the
    sweep orchestrator relies on to restore mid-run checkpoints.
    ``activations_per_node`` defaults to the preset's ``total_rounds``
    (one expected activation ≈ one round at unit clock rate).
    ``vectorized`` selects disjoint event batching — bit-identical to
    the serial event loop (see
    :mod:`repro.simulation.event_batch`).
    """
    if eval_on not in ("test", "validation"):
        raise ValueError('eval_on must be "test" or "validation"')
    preset = prepared.preset
    rngs = RngFactory(prepared.seed)
    activations = (
        activations_per_node
        if activations_per_node is not None
        else preset.total_rounds
    )
    if activations <= 0:
        raise ValueError("activations_per_node must be positive")
    model, nodes = _wire_model_nodes(prepared, rngs)
    engine = AsyncGossipEngine(
        model,
        nodes,
        neighbor_lists(prepared.topology),
        prepared.test if eval_on == "test" else prepared.validation,
        local_steps=preset.local_steps,
        learning_rate=preset.learning_rate,
        rng=rngs.stream("events"),
        trace=prepared.trace,
        eval_node_sample=preset.eval_node_sample,
        eval_rng=rngs.stream("async-eval"),
        failure_model=failure_model,
        enforce_budgets=enforce_budgets,
        churn=churn,
        vectorized=vectorized,
        state_backend=state_backend,
    )
    if isinstance(algorithm, str):
        policy = _make_async_policy(
            algorithm, prepared, schedule, activations, rngs
        )
    else:
        policy = algorithm
    return engine, policy


def run_async_algorithm(
    prepared: PreparedExperiment,
    algorithm: str | AsyncPolicy,
    schedule: RoundSchedule | None = None,
    activations_per_node: int | None = None,
    eval_every: int | None = None,
    eval_on: str = "test",
    failure_model: "FailureModel | None" = None,
    enforce_budgets: bool = False,
    vectorized: bool = False,
) -> AsyncExperimentResult:
    """Run one async gossip policy on a prepared experiment cell.

    ``eval_every`` is in the preset's round-equivalent units (expected
    activations per node); it is scaled by ``n`` into an event cadence,
    so async histories carry about as many records as a sync run of the
    same preset. Defaults to the preset's ``eval_every``.
    ``vectorized`` batches disjoint events through the stacked kernels
    (results bit-identical to the serial event loop).
    """
    engine, policy = build_async_run(
        prepared,
        algorithm,
        schedule=schedule,
        activations_per_node=activations_per_node,
        eval_on=eval_on,
        failure_model=failure_model,
        enforce_budgets=enforce_budgets,
        vectorized=vectorized,
    )
    preset = prepared.preset
    return execute_run(
        engine,
        policy,
        prepared.trace,
        total_rounds=(
            activations_per_node
            if activations_per_node is not None
            else preset.total_rounds
        ),
        eval_every=eval_every if eval_every is not None else preset.eval_every,
    )


def execute_run(
    engine: SimulationEngine | AsyncGossipEngine,
    algorithm: Any,
    trace: EnergyTrace,
    *,
    total_rounds: int | None = None,
    eval_every: int | None = None,
    start: int = 0,
    history: Any = None,
    hook: Callable | None = None,
) -> ExperimentResult | AsyncExperimentResult:
    """Run a wired (engine, algorithm) pair of either kind to its
    result: an :class:`~repro.core.base.Algorithm` and a
    :class:`RunHistory` go with a sync engine, an :class:`AsyncPolicy`
    and an :class:`AsyncHistory` with an async one.

    A sync engine carries its horizon and evaluation cadence in its
    config (:func:`build_run` wired them), so ``total_rounds`` and
    ``eval_every`` are the async engine's: expected activations per
    node, and the cadence in that same round-equivalent unit, scaled
    here by :func:`async_eval_cadence` into events. ``start`` and
    ``history`` continue a run restored from a checkpoint — completed
    rounds for a sync engine, completed events for an async one.
    ``hook`` is the engine's own: ``hook(engine, t, history,
    last_eval)`` after every sync round, ``hook(engine, event,
    history)`` after every async event (per batch window when
    vectorized).
    """
    if isinstance(engine, AsyncGossipEngine):
        if total_rounds is None or eval_every is None:
            raise ValueError(
                "an async run needs total_rounds (activations per node) "
                "and eval_every"
            )
        history = engine.run(
            algorithm,
            activations_per_node=total_rounds,
            eval_every=async_eval_cadence(eval_every, engine.n_nodes),
            start_event=start,
            history=history,
            event_hook=hook,
        )
        return AsyncExperimentResult(
            history=history, train_energy_wh=engine.train_energy_wh, trace=trace
        )
    history = engine.run(
        algorithm, start_round=start, history=history, round_hook=hook
    )
    assert engine.meter is not None
    return ExperimentResult(history=history, meter=engine.meter, trace=trace)
