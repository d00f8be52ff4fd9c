"""High-level experiment runner: preset + algorithm name → RunHistory.

This is the one place that wires data synthesis, partitioning,
topology, energy traces, engine and algorithm together, so every
sweep cell (and so every paper output and run verb) and every example
goes through the same code path. :func:`build_run` exposes the
wired-but-not-yet-run (engine, algorithm) pair so the sweep
orchestrator can restore a mid-cell checkpoint before running.
``repro run`` and ``scenario run`` are one-cell plans:
they run their cell into ``results/`` through the sweep and print from
its artifact. ``fairness_study`` and ``scenario trace`` run a wired
pair in process, because they read the final state matrix, which no
artifact carries.

The algorithm's kind picks the engine class, in :func:`build_run` and
nowhere else: a sync algorithm gets a
:class:`~repro.simulation.engine.SimulationEngine`, an async policy its
subclass :class:`~repro.simulation.async_engine.AsyncGossipEngine`,
built by one call over the same :class:`PreparedExperiment` (identical
data, partition and mixing matrix). Both engines hold their horizon and
share one run contract, ``run(algorithm, *, start, history, hook)``,
so :func:`execute_run` is run-then-wrap and a compiled scenario and a
checkpointed sweep cell run either kind the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..algorithm_names import algorithm_kind, algorithms_of_kind
from ..core.base import Algorithm
from ..core.dpsgd import DPSGD, AllReduceDPSGD
from ..core.greedy import Greedy
from ..core.schedule import RoundSchedule
from ..core.skiptrain import SkipTrain, SkipTrainConstrained
from ..data.dataset import ArrayDataset
from ..data.partition import (
    Partition,
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
from ..topology.sparse import Csr, NeighborList, regular_neighbors
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
    "execute_run",
]

#: Algorithm names that run on the asynchronous gossip engine.
ASYNC_ALGORITHMS = tuple(algorithms_of_kind("async"))


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
class AsyncExperimentResult:
    """Async run history plus its training-energy total and trace."""

    history: AsyncHistory
    train_energy_wh: float
    trace: EnergyTrace

    @property
    def final_accuracy(self) -> float:
        return self.history.final_accuracy()


@dataclass
class PreparedData:
    """The degree-independent half of a prepared cell: synthesized
    datasets plus the sample→node partition.

    Everything here depends only on (preset, seed, partition override,
    Dirichlet α) — never on the topology degree — so one
    :class:`PreparedData` can back every degree of a sweep group. The
    sweep exploits exactly this: each process that runs cells holds the
    one it prepared last, by data key, and reuses it across consecutive
    cells of that key (see :class:`~repro.experiments.sweep.
    DatasetCache`).
    """

    preset: ExperimentPreset
    seed: int
    train: ArrayDataset
    test: ArrayDataset
    validation: ArrayDataset
    partition: Partition


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
    partition: Partition
    topology: NeighborList
    mixing: Csr
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
    ``(data, degree)``, so the process running a cell re-derives it
    per cell from its kept dataset.
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


#: algorithm name → factory ``(n, schedule, budgets, total, rngs)``:
#: ``total`` is the horizon (rounds, or expected activations per node
#: for the async policies) and ``rngs`` the cell's stream factory, whose
#: ``"participation"`` stream only the constrained variants draw. One
#: entry per name of :data:`~repro.algorithm_names.ALGORITHM_KINDS`.
_FACTORIES: dict[str, Callable[..., Algorithm | AsyncPolicy]] = {
    "d-psgd": lambda n, schedule, budgets, total, rngs: DPSGD(n),
    "d-psgd-allreduce": lambda n, schedule, budgets, total, rngs: (
        AllReduceDPSGD(n)
    ),
    "skiptrain": lambda n, schedule, budgets, total, rngs: (
        SkipTrain(n, schedule)
    ),
    "skiptrain-constrained": lambda n, schedule, budgets, total, rngs: (
        SkipTrainConstrained(
            n, schedule, budgets=budgets, total_rounds=total,
            rng=rngs.stream("participation"),
        )
    ),
    "greedy": lambda n, schedule, budgets, total, rngs: (
        Greedy(n, budgets=budgets)
    ),
    "async-d-psgd": lambda n, schedule, budgets, total, rngs: AsyncDPSGD(),
    "async-skiptrain": lambda n, schedule, budgets, total, rngs: (
        AsyncSkipTrain(schedule)
    ),
    "async-skiptrain-constrained": lambda n, schedule, budgets, total, rngs: (
        AsyncSkipTrainConstrained(
            schedule, budgets=budgets, expected_activations=total,
            rng=rngs.stream("participation"),
        )
    ),
}


def _make_algorithm(
    name: str,
    prepared: PreparedExperiment,
    schedule: RoundSchedule | None,
    total: int,
    rngs: RngFactory,
) -> Algorithm | AsyncPolicy:
    if schedule is None:
        schedule = prepared.preset.schedule_for_degree(prepared.degree)
    return _FACTORIES[name](
        prepared.preset.n_nodes, schedule, prepared.trace.budget_rounds,
        total, rngs,
    )


def build_run(
    prepared: PreparedExperiment,
    algorithm: str | Algorithm | AsyncPolicy,
    schedule: RoundSchedule | None = None,
    total_rounds: int | None = None,
    eval_every: int | None = None,
    eval_on: str = "test",
    fair_points: bool = True,
    mixing=None,
    failure_model: "FailureModel | None" = None,
    churn=None,
    enforce_budgets: bool = False,
) -> tuple[SimulationEngine | AsyncGossipEngine, Algorithm | AsyncPolicy]:
    """Wire the (engine, algorithm) pair for one cell without running.

    The algorithm picks the engine: a name by its kind in
    :data:`~repro.algorithm_names.ALGORITHM_KINDS` (``KeyError`` for an
    unknown one), an instance by its type (an :class:`AsyncPolicy` or an
    :class:`~repro.core.base.Algorithm`). ``total_rounds`` and
    ``eval_every`` (both default to the preset's) are the horizon and
    the evaluation cadence in rounds; an async engine reads them as
    expected activations per node and evaluates every ``eval_every × n``
    events. A sync engine evaluates only at the algorithm's fair points
    (SkipTrain's cycle ends) unless ``fair_points=False``; the async
    engine has none. Both engines hold their horizon, so the pair runs
    with ``engine.run(algorithm)``.

    Construction is deterministic in ``prepared`` and the overrides:
    two calls yield engines whose runs are bit-identical. The sweep
    orchestrator relies on this to rebuild a killed cell's engine and
    restore a mid-run checkpoint into it.

    The scenario axes ride through here: ``failure_model`` injects
    transient outages and ``churn`` a
    :class:`~repro.scenarios.churn.ChurnSchedule`. ``mixing`` is a
    per-round provider in place of the prepared static matrix (a
    dynamic topology): the sync engine gossips through it, the async
    engine draws partners from its rows. Either engine masks the
    round's matrix to the nodes churn and failures leave eligible, so
    no axis needs a mixing of its own.
    ``enforce_budgets`` is the async engine's battery gate; on a sync
    algorithm it raises ``ValueError``. All default off, leaving
    non-scenario cells byte-identical.
    """
    if eval_on not in ("test", "validation"):
        raise ValueError('eval_on must be "test" or "validation"')
    if isinstance(algorithm, str):
        kind = algorithm_kind(algorithm)
    else:
        kind = "async" if isinstance(algorithm, AsyncPolicy) else "sync"
    if kind == "sync" and enforce_budgets:
        raise ValueError("enforce_budgets is the async engine's battery gate")
    preset = prepared.preset
    rngs = RngFactory(prepared.seed)
    total = total_rounds if total_rounds is not None else preset.total_rounds
    every = eval_every if eval_every is not None else preset.eval_every
    test_set = prepared.test if eval_on == "test" else prepared.validation
    # both kinds draw the model and every node's batch stream alike, so
    # sync and async cells of one prepared experiment start from
    # bit-identical models and data loaders
    model = preset.model_factory(rngs.stream("model"))
    nodes = build_nodes(
        prepared.train, prepared.partition, preset.batch_size, rngs
    )
    # what differs by kind: the energy axis (a meter, or the async
    # engine's event-order sum over the trace), the streams, the gate
    if kind == "sync":
        engine_cls, own = SimulationEngine, {
            "meter": EnergyMeter(prepared.trace),
            "eval_rng": rngs.stream("eval"),
        }
    else:
        engine_cls, own = AsyncGossipEngine, {
            "rng": rngs.stream("events"),
            "trace": prepared.trace,
            "eval_rng": rngs.stream("async-eval"),
            "enforce_budgets": enforce_budgets,
        }
    engine: SimulationEngine = engine_cls(
        model,
        nodes,
        mixing if mixing is not None else prepared.mixing,
        EngineConfig(
            local_steps=preset.local_steps,
            learning_rate=preset.learning_rate,
            total_rounds=total,
            eval_every=every,
            eval_node_sample=preset.eval_node_sample,
            fair_points=fair_points,
        ),
        test_set,
        failure_model=failure_model,
        churn=churn,
        **own,
    )
    if isinstance(algorithm, str):
        algorithm = _make_algorithm(algorithm, prepared, schedule, total, rngs)
    return engine, algorithm


#: engine type → the result it runs to: what differs by kind, as data
_RESULT_OF: dict[type, Callable[..., ExperimentResult | AsyncExperimentResult]] = {
    SimulationEngine: lambda engine, history, trace: ExperimentResult(
        history=history, meter=engine.meter, trace=trace
    ),
    AsyncGossipEngine: lambda engine, history, trace: AsyncExperimentResult(
        history=history, train_energy_wh=engine.train_energy_wh, trace=trace
    ),
}


def execute_run(
    engine: SimulationEngine | AsyncGossipEngine,
    algorithm: Algorithm | AsyncPolicy,
    trace: EnergyTrace,
    *,
    start: int = 0,
    history: RunHistory | AsyncHistory | None = None,
    hook: Callable | None = None,
) -> ExperimentResult | AsyncExperimentResult:
    """Run a wired pair of either kind through the one run contract,
    ``engine.run(algorithm, start=, history=, hook=)``, and wrap its
    history: an :class:`ExperimentResult` for a sync engine, an
    :class:`AsyncExperimentResult` for an async one. ``start`` and
    ``history`` continue a run restored from a checkpoint."""
    history = engine.run(algorithm, start=start, history=history, hook=hook)
    return _RESULT_OF[type(engine)](engine, history, trace)
