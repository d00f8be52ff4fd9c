"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` into a wired,
runnable (engine, algorithm) pair.

This is the single place scenario axes meet the execution stack: the
spec's topology/churn/failure/energy/data/algorithm blocks are resolved
against the named preset and wired through
:func:`repro.experiments.runner.build_run` — the same plumbing every
non-scenario cell uses, so a scenario with all axes at their defaults
is *byte-identical* to the plain preset cell. The builder picks the
engine from the algorithm's kind, so compilation has one path for
both.

Compilation is deterministic in ``(spec, seed, total_rounds)``: the
sweep orchestrator rebuilds a killed scenario cell by re-compiling and
restoring the mid-run checkpoint into the fresh engine, and the
resumed run is bit-for-bit equal to an uninterrupted one.

Composition rules enforced here (fail at compile time, not rounds into
a run):

* dynamic topologies are sync-only — the async engine selects partners
  from fixed neighbor lists, so ``kind="async"`` with a
  ``dynamic-*`` topology raises :class:`ValueError`;
* churn requires membership-aware mixing (sync) — compilation wires a
  masked provider over the scenario graph so departed nodes never
  enter the gossip GEMM;
* ``enforce_budgets`` is the async engine's battery gate (validated by
  the spec itself);
* churn cannot compose with exact all-reduce (the consensus average
  has no subgraph analogue for absent members).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from ..core.schedule import RoundSchedule
from ..experiments.presets import ExperimentPreset, get_preset
from ..experiments.runner import (
    AsyncExperimentResult,
    ExperimentResult,
    PreparedExperiment,
    build_run,
    execute_run,
    prepare,
)
from ..simulation.failures import (
    CrashWindow,
    FailureModel,
    IndependentCrashes,
    masked_mixing,
)
from ..simulation.rng import RngFactory
from ..topology.dynamic import (
    PeriodicRewiring,
    RandomRegularEachRound,
    RegularGraphEachRound,
)
from ..topology.sparse import NeighborList
from .churn import ChurnSchedule
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    import scipy.sparse as sp

    from ..core.base import Algorithm
    from ..experiments.artifacts import PlanCell
    from ..simulation.async_engine import AsyncGossipEngine, AsyncPolicy
    from ..simulation.engine import SimulationEngine

    class DynamicGraph(Protocol):
        """A ``t -> NeighborList`` generator that knows its node count
        (:class:`~repro.topology.dynamic.RegularGraphEachRound` shape)."""

        n_nodes: int

        def __call__(self, t: int) -> NeighborList: ...

__all__ = [
    "CompiledRun",
    "compile_run",
    "scenario_base",
    "validate_composition",
    "run_scenario",
    "build_scenario_plan",
    "scenario_trace",
    "scenario_mixing_provider",
]

TRACE_SCHEMA = "repro/scenario-trace/v1"


def validate_composition(spec: ScenarioSpec, kind: str = "auto") -> str:
    """The compile-time composition rules that need no preset lookup:
    kind consistency, async × dynamic topology, churn × all-reduce.
    Returns the resolved kind. :func:`compile_run` calls this first; the CLI calls it up
    front so an invalid registered scenario fails with a clean error
    before any cell starts."""
    if kind not in ("auto", "sync", "async"):
        raise ValueError(f'kind must be "auto", "sync" or "async", got {kind!r}')
    resolved_kind = spec.kind
    if kind != "auto" and kind != resolved_kind:
        raise ValueError(
            f"scenario {spec.name!r} compiles to kind {resolved_kind!r} "
            f"(algorithm {spec.algorithm.name!r}), got kind={kind!r}"
        )
    if resolved_kind == "async" and spec.topology.is_dynamic:
        raise ValueError(
            f"scenario {spec.name!r}: dynamic topologies are not "
            f"wired into AsyncGossipEngine partner selection; use a "
            f'static "regular" topology for async scenarios'
        )
    if spec.churn.active and spec.algorithm.name.lower().endswith("allreduce"):
        raise ValueError(
            f"scenario {spec.name!r}: exact all-reduce averages every "
            f"node's state and has no membership-masked analogue; churn "
            f"composes with gossip algorithms only"
        )
    return resolved_kind


def scenario_base(
    spec: ScenarioSpec, preset: ExperimentPreset | None = None
) -> tuple[ExperimentPreset, int]:
    """Resolve the execution-base preset and topology degree for one
    scenario: the named (or injected) preset with the spec's
    battery-fraction override applied, and the spec's degree falling
    back to the preset's first.

    The single home of this resolution — :func:`compile_run` and the
    sweep pool's parent-side dataset prep must agree on it, or a pooled
    scenario cell would be prepared against a different base than the
    one compilation wires (and the byte-identity contract would break).
    """
    base = preset if preset is not None else get_preset(spec.preset)
    if spec.energy.battery_fraction is not None:
        base = dataclasses.replace(
            base, battery_fraction=spec.energy.battery_fraction
        )
    degree = (
        spec.topology.degree
        if spec.topology.degree is not None
        else base.degrees[0]
    )
    return base, int(degree)


def scenario_mixing_provider(
    graph: "NeighborList | DynamicGraph",
    churn: ChurnSchedule | None = None,
    failure_model: FailureModel | None = None,
    cache_size: int = 64,
) -> Callable[[int], sp.csr_matrix]:
    """Per-round mixing provider over the eligible (member ∧ alive)
    subgraph of ``graph``.

    ``graph`` is a fixed :class:`~repro.topology.sparse.NeighborList`
    or a callable ``t → NeighborList`` (a
    :class:`~repro.topology.dynamic.RegularGraphEachRound`).
    Static graphs memoize by eligibility mask (masked weights repeat
    across rounds with the same membership); dynamic graphs memoize by
    round. Both memos are bounded to ``cache_size`` entries with
    oldest-entry eviction — an rng-backed failure model draws a fresh
    mask nearly every round, and a million-round run must not grow one
    cached matrix per round forever (the
    :class:`~repro.simulation.failures.IndependentCrashes` memo bound
    exists for the same reason).
    """
    if churn is None and failure_model is None:
        raise ValueError(
            "scenario_mixing_provider needs a churn schedule or failure "
            "model; without either, use the static mixing matrix directly"
        )
    if cache_size <= 0:
        raise ValueError("cache_size must be positive")
    n = graph.n_nodes
    all_on = np.ones(n, dtype=bool)

    def eligible(t: int) -> np.ndarray:
        mask = all_on
        if churn is not None:
            mask = mask & churn.present(t)
        if failure_model is not None:
            mask = mask & failure_model.alive(t)
        return mask

    if isinstance(graph, NeighborList):
        static_graph = graph
        cache: dict[bytes, sp.csr_matrix] = {}

        def provider(t: int) -> sp.csr_matrix:
            mask = eligible(t)
            if mask.tobytes() not in cache and len(cache) >= cache_size:
                cache.pop(next(iter(cache)))  # oldest insertion
            return masked_mixing(static_graph, mask, cache)

        return provider

    dyn_graph = graph
    lru: dict[int, sp.csr_matrix] = {}

    def dyn_provider(t: int) -> sp.csr_matrix:
        if t not in lru:
            if len(lru) >= cache_size:
                lru.pop(min(lru))
            lru[t] = masked_mixing(dyn_graph(t), eligible(t))
        return lru[t]

    return dyn_provider


def _build_failure_model(
    spec: ScenarioSpec, n_nodes: int, seed: int
) -> FailureModel | None:
    f = spec.failures
    if not f.active:
        return None
    if f.kind == "window":
        if any(i >= n_nodes for i in f.nodes):
            raise ValueError(
                f"failure nodes {sorted(f.nodes)} out of range for "
                f"{n_nodes} nodes"
            )
        return CrashWindow(n_nodes, list(f.nodes), f.start, f.end)
    # rng-backed churn: its own named stream off the cell seed, so the
    # crash pattern never perturbs event/batch/eval randomness
    return IndependentCrashes(
        n_nodes, f.p, rng=RngFactory(seed).stream("failures")
    )


@dataclass
class CompiledRun:
    """A scenario wired into a concrete engine, ready to execute.

    ``total_rounds`` is the resolved horizon (expected activations per
    node for async scenarios), which the engine holds along with the
    resolved evaluation cadence. ``execute()`` runs to completion and
    returns the same result type the plain runner produces, so every
    downstream consumer (artifacts, figures, aggregation) is oblivious
    to whether a scenario produced the run.
    """

    spec: ScenarioSpec
    kind: str
    preset: ExperimentPreset
    prepared: PreparedExperiment
    engine: "SimulationEngine | AsyncGossipEngine"
    algorithm: "Algorithm | AsyncPolicy"
    seed: int
    total_rounds: int
    churn: ChurnSchedule | None
    failure_model: FailureModel | None

    def execute(
        self, round_hook: Callable | None = None
    ) -> "ExperimentResult | AsyncExperimentResult":
        return execute_run(
            self.engine, self.algorithm, self.prepared.trace, hook=round_hook
        )


def compile_run(
    spec: ScenarioSpec,
    kind: str = "auto",
    *,
    seed: int | None = None,
    total_rounds: int | None = None,
    preset: ExperimentPreset | None = None,
    prepared: PreparedExperiment | None = None,
    eval_on: str = "test",
) -> CompiledRun:
    """Resolve and wire one scenario into a runnable cell.

    ``kind`` is normally ``"auto"`` (derived from the algorithm name);
    passing ``"sync"``/``"async"`` explicitly asserts the expectation
    and fails loudly on mismatch. ``seed``/``total_rounds`` override
    the spec's defaults (the sweep orchestrator passes the cell's).
    ``preset`` injects a preset object directly (tests); ``prepared``
    skips data synthesis when the caller already holds the cell's
    prepared experiment.
    """
    resolved_kind = validate_composition(spec, kind)
    base, degree = scenario_base(spec, preset)
    n = base.n_nodes
    run_seed = seed if seed is not None else spec.seed
    rounds = (
        total_rounds
        if total_rounds is not None
        else (spec.total_rounds or base.total_rounds)
    )
    eval_every = spec.eval_every if spec.eval_every is not None else base.eval_every

    churn = spec.churn.build(n)
    failure_model = _build_failure_model(spec, n, run_seed)

    if prepared is None:
        prepared = prepare(
            base,
            degree,
            seed=run_seed,
            partition_override=spec.data.partition,
            dirichlet_alpha=spec.data.alpha,
        )

    schedule = None
    if spec.algorithm.gamma_train is not None:
        schedule = RoundSchedule(
            spec.algorithm.gamma_train, spec.algorithm.gamma_sync
        )

    engine, algo = build_run(
        prepared,
        spec.algorithm.name,
        schedule=schedule,
        total_rounds=rounds,
        eval_every=eval_every,
        eval_on=eval_on,
        mixing=_scenario_mixing(spec, prepared, churn, failure_model),
        failure_model=failure_model,
        enforce_budgets=spec.energy.enforce_budgets,
        churn=churn,
    )
    return CompiledRun(
        spec=spec,
        kind=resolved_kind,
        preset=base,
        prepared=prepared,
        engine=engine,
        algorithm=algo,
        seed=run_seed,
        total_rounds=rounds,
        churn=churn,
        failure_model=failure_model,
    )


def _scenario_mixing(
    spec: ScenarioSpec,
    prepared: PreparedExperiment,
    churn: ChurnSchedule | None,
    failure_model: FailureModel | None,
) -> Callable[[int], sp.csr_matrix] | None:
    """The scenario's ``mixing`` for :func:`build_run`: ``None``
    (prepared static matrix), a plain dynamic provider, or a
    churn/failure-masked provider over the scenario graph — for a
    static scenario the very ``prepared.topology`` the unmasked matrix
    came from, for a dynamic one graphs of the same (n, degree, seed).
    Always ``None`` for an async scenario: that engine gossips over
    ``prepared.topology``'s neighbor lists and masks partners per
    event itself."""
    if spec.kind == "async":
        return None
    topo = spec.topology
    masked = churn is not None or failure_model is not None
    if not topo.is_dynamic:
        if not masked:
            return None  # the prepared static MH matrix
        return scenario_mixing_provider(prepared.topology, churn, failure_model)
    n, degree, seed = prepared.preset.n_nodes, prepared.degree, prepared.seed
    period = topo.period if topo.kind == "dynamic-periodic" else 1
    if not masked:
        if period == 1:
            return RandomRegularEachRound(n, degree, seed=seed)
        return PeriodicRewiring(n, degree, period, seed=seed)
    return scenario_mixing_provider(
        RegularGraphEachRound(n, degree, seed=seed, period=period),
        churn,
        failure_model,
    )


def run_scenario(
    spec: ScenarioSpec | str,
    *,
    seed: int | None = None,
    total_rounds: int | None = None,
    preset: ExperimentPreset | None = None,
) -> "ExperimentResult | AsyncExperimentResult":
    """Compile and execute one scenario (by spec or registered name)."""
    if isinstance(spec, str):
        from .registry import get_scenario

        spec = get_scenario(spec)
    return compile_run(
        spec,
        seed=seed,
        total_rounds=total_rounds,
        preset=preset,
    ).execute()


def build_scenario_plan(
    spec: ScenarioSpec,
    seeds: tuple[int, ...] = (0, 1, 2),
    total_rounds: int | None = None,
    preset: ExperimentPreset | None = None,
) -> "tuple[PlanCell, ...]":
    """Enumerate one scenario's sweep cells (one per seed). The cells
    carry the scenario's name, and their preset/algorithm/degree
    coordinates are resolved from the spec so artifacts group naturally
    next to non-scenario cells — without ever sharing a summary group
    (aggregation keys include the scenario name)."""
    from ..experiments.artifacts import PlanCell

    if not seeds:
        raise ValueError("need at least one seed")
    base, degree = scenario_base(spec, preset)
    rounds = (
        total_rounds
        if total_rounds is not None
        else (spec.total_rounds or base.total_rounds)
    )
    if rounds <= 0:
        raise ValueError("total_rounds must be positive")
    return tuple(
        PlanCell(
            preset=spec.preset,
            algorithm=spec.algorithm.name,
            degree=int(degree),
            seed=int(s),
            total_rounds=int(rounds),
            kind=spec.kind,
            scenario=spec.name,
        )
        for s in seeds
    )


def scenario_trace(
    spec: ScenarioSpec | str,
    *,
    seed: int | None = None,
    total_rounds: int | None = None,
    preset: ExperimentPreset | None = None,
) -> dict:
    """Run one scenario and distill it into a tiny regression trace:
    the final state matrix's SHA-256 plus the evaluation curve. The
    golden-trace tests commit these for named scenarios and recompute
    them, so a refactor cannot silently change a trajectory. JSON
    floats round-trip exactly (shortest-repr), so comparing a reloaded
    trace against a recomputed one is an exact check."""
    if isinstance(spec, str):
        from .registry import get_scenario

        spec = get_scenario(spec)
    compiled = compile_run(
        spec, seed=seed, total_rounds=total_rounds, preset=preset
    )
    result = compiled.execute()
    state = np.ascontiguousarray(compiled.engine.state)
    if compiled.kind == "sync":
        curve = [
            {
                "round": r.round,
                "mean_accuracy": r.mean_accuracy,
                "consensus": r.consensus,
            }
            for r in result.history.records
        ]
    else:
        curve = [
            {
                "time": r.time,
                "activations": r.activations,
                "mean_accuracy": r.mean_accuracy,
                "consensus": r.consensus,
            }
            for r in result.history.records
        ]
    return {
        "schema": TRACE_SCHEMA,
        "scenario": spec.name,
        "kind": compiled.kind,
        "seed": compiled.seed,
        "total_rounds": compiled.total_rounds,
        "final_accuracy": result.final_accuracy,
        "state_sha256": hashlib.sha256(state.tobytes()).hexdigest(),
        "curve": curve,
    }
