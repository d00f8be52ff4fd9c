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

How the axes compose (every combination runs; none is refused):

* churn and failures need no mixing of their own — compilation hands
  the engine the scenario's static matrix or its dynamic provider, and
  the engine masks each round's matrix to the eligible nodes, so
  departed and dead nodes never enter the gossip product (sync) or a
  partner draw (async); dynamic topologies reach both engines the same
  way;
* exact all-reduce averages the round's eligible rows only, so it
  composes with churn and failures the same way;
* ``enforce_budgets`` is the async engine's battery gate (validated by
  the spec itself);
* every failure model and churn schedule is a pure function of the
  round index, so every composition checkpoints and resumes exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

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
from ..simulation.failures import CrashWindow, FailureModel, IndependentCrashes
from ..topology.dynamic import RandomRegularEachRound
from .churn import ChurnSchedule
from .spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.base import Algorithm
    from ..experiments.artifacts import PlanCell
    from ..simulation.async_engine import AsyncGossipEngine, AsyncPolicy
    from ..simulation.engine import SimulationEngine

__all__ = [
    "CompiledRun",
    "compile_run",
    "scenario_base",
    "build_scenario_plan",
    "scenario_trace",
]

TRACE_SCHEMA = "repro/scenario-trace/v1"


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
    # its own named streams off the cell seed, so the crash pattern
    # never perturbs event/batch/eval randomness
    return IndependentCrashes(n_nodes, f.p, seed)


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
    preset: ExperimentPreset
    prepared: PreparedExperiment
    engine: "SimulationEngine | AsyncGossipEngine"
    algorithm: "Algorithm | AsyncPolicy"
    seed: int
    total_rounds: int
    churn: ChurnSchedule | None
    failure_model: FailureModel | None

    @property
    def kind(self) -> str:
        """``"sync"`` or ``"async"``, decided by the spec's algorithm."""
        return self.spec.kind

    def execute(
        self, round_hook: Callable | None = None
    ) -> "ExperimentResult | AsyncExperimentResult":
        return execute_run(
            self.engine, self.algorithm, self.prepared.trace, hook=round_hook
        )


def compile_run(
    spec: ScenarioSpec,
    *,
    seed: int | None = None,
    total_rounds: int | None = None,
    preset: ExperimentPreset | None = None,
    prepared: PreparedExperiment | None = None,
    eval_on: str = "test",
) -> CompiledRun:
    """Resolve and wire one scenario into a runnable cell; the spec's
    algorithm decides the engine. ``seed``/``total_rounds`` override
    the spec's defaults (the sweep orchestrator passes the cell's).
    ``preset`` injects a preset object directly (tests); ``prepared``
    skips data synthesis when the caller already holds the cell's
    prepared experiment.
    """
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
        mixing=_scenario_mixing(spec, prepared),
        failure_model=failure_model,
        enforce_budgets=spec.energy.enforce_budgets,
        churn=churn,
    )
    return CompiledRun(
        spec=spec,
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
    spec: ScenarioSpec, prepared: PreparedExperiment
) -> RandomRegularEachRound | None:
    """The scenario's ``mixing`` for :func:`build_run`: ``None`` (the
    prepared static matrix) or, for a dynamic topology, graphs of the
    same (n, degree, seed) rewired every round or every ``period``.
    Churn and failures change nothing here: the engine masks the
    round's matrix itself, and the async engine draws partners from
    its rows."""
    topo = spec.topology
    if not topo.is_dynamic:
        return None
    period = topo.period if topo.kind == "dynamic-periodic" else 1
    return RandomRegularEachRound(
        prepared.preset.n_nodes, prepared.degree, seed=prepared.seed,
        period=period,
    )


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
