"""Declarative scenario specifications.

A :class:`ScenarioSpec` composes every experiment axis the simulator
supports — topology (static or dynamic), node churn, failures, energy
constraints, data skew, and the algorithm/policy — into one validated,
JSON-serializable object. Scenarios make a workload a *data* change
instead of a code change: the sweep orchestrator, the CLI, and the
conformance tests all consume the same object, and a spec committed as
JSON is a complete, reproducible description of a run (given a seed).

The dict codec is strict both ways: unknown keys are rejected on
``from_dict`` (a typo'd axis must not silently disable itself) and
``to_dict`` round-trips exactly (``from_dict(spec.to_dict()) == spec``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..algorithm_names import algorithm_kind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .churn import ChurnSchedule

__all__ = [
    "TopologySpec",
    "ChurnEventSpec",
    "ChurnSpec",
    "FailureSpec",
    "EnergySpec",
    "DataSpec",
    "AlgorithmSpec",
    "ScenarioSpec",
]

#: Topology kinds: a fixed random regular graph, a fresh random regular
#: graph every round, or one rewired every ``period`` rounds.
TOPOLOGY_KINDS = ("regular", "dynamic-random", "dynamic-periodic")
FAILURE_KINDS = ("none", "window", "independent")
PARTITION_KINDS = (None, "iid", "dirichlet")


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in {where} "
            f"(allowed: {sorted(allowed)})"
        )


@dataclass(frozen=True)
class TopologySpec:
    """The communication graph. ``degree=None`` uses the preset's first
    degree. ``period`` applies to ``dynamic-periodic`` only."""

    kind: str = "regular"
    degree: int | None = None
    period: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"topology kind must be one of {TOPOLOGY_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.degree is not None and self.degree <= 0:
            raise ValueError("topology degree must be positive")
        if self.kind == "dynamic-periodic":
            if self.period is None or self.period <= 0:
                raise ValueError(
                    "dynamic-periodic topology requires a positive period"
                )
        elif self.period is not None:
            raise ValueError(
                f"period only applies to dynamic-periodic topologies, "
                f"not {self.kind!r}"
            )

    @property
    def is_dynamic(self) -> bool:
        return self.kind != "regular"


@dataclass(frozen=True)
class ChurnEventSpec:
    """One scheduled membership change (1-based round)."""

    round: int
    node: int
    action: str  # "join" | "leave"

    def __post_init__(self) -> None:
        if self.round < 1:
            raise ValueError("churn event round must be >= 1")
        if self.node < 0:
            raise ValueError("churn event node must be non-negative")
        if self.action not in ("join", "leave"):
            raise ValueError(
                f'churn action must be "join" or "leave", got {self.action!r}'
            )


@dataclass(frozen=True)
class ChurnSpec:
    """Scheduled node joins/leaves (see
    :class:`repro.scenarios.churn.ChurnSchedule` for the semantics —
    joiners hand off state from their alive neighbors' mean)."""

    events: tuple[ChurnEventSpec, ...] = ()
    initially_absent: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(
            self, "initially_absent", tuple(self.initially_absent)
        )

    @property
    def active(self) -> bool:
        return bool(self.events) or bool(self.initially_absent)

    def build(self, n_nodes: int) -> ChurnSchedule | None:
        """Materialize the validated :class:`ChurnSchedule` (or ``None``
        when the spec declares no churn)."""
        from .churn import ChurnSchedule

        if not self.active:
            return None
        return ChurnSchedule(
            n_nodes,
            [(e.round, e.node, e.action) for e in self.events],
            initially_absent=self.initially_absent,
        )


@dataclass(frozen=True)
class FailureSpec:
    """Transient-outage model: ``window`` freezes ``nodes`` during
    rounds ``[start, end]``; ``independent`` crashes each node with
    probability ``p`` per round, drawn from the cell seed's
    ``"failures"`` stream of that round. Both are pure functions of the
    round index, so either checkpoints and resumes exactly."""

    kind: str = "none"
    nodes: tuple[int, ...] = ()
    start: int = 1
    end: int = 1
    p: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"failure kind must be one of {FAILURE_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "window":
            if not self.nodes:
                raise ValueError("window failures need at least one node")
            if self.start < 1 or self.end < self.start:
                raise ValueError("window failures need 1 <= start <= end")
        if self.kind == "independent" and not 0.0 < self.p < 1.0:
            raise ValueError("independent failures need 0 < p < 1")

    @property
    def active(self) -> bool:
        return self.kind != "none"


@dataclass(frozen=True)
class EnergySpec:
    """Energy axis overrides. ``battery_fraction`` replaces the
    preset's battery share (changing every node's τᵢ budget);
    ``enforce_budgets`` turns on the async engine's battery-depletion
    gate (async scenarios only)."""

    battery_fraction: float | None = None
    enforce_budgets: bool = False

    def __post_init__(self) -> None:
        if self.battery_fraction is not None and not (
            0.0 < self.battery_fraction <= 1.0
        ):
            raise ValueError("battery_fraction must be in (0, 1]")


@dataclass(frozen=True)
class DataSpec:
    """Data-partition skew override: ``None`` keeps the preset's
    partition (shard or writer), ``"iid"`` is the uniform control, and
    ``"dirichlet"`` applies Dirichlet(α) label skew."""

    partition: str | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.partition not in PARTITION_KINDS:
            raise ValueError(
                f"data partition must be one of {PARTITION_KINDS}, "
                f"got {self.partition!r}"
            )
        if self.partition == "dirichlet":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("dirichlet partition needs alpha > 0")
        elif self.alpha is not None:
            raise ValueError("alpha only applies to dirichlet partitions")


@dataclass(frozen=True)
class AlgorithmSpec:
    """The training algorithm or async policy, by a name of
    :data:`~repro.algorithm_names.ALGORITHM_KINDS` (which also decides
    the scenario's kind); optional (Γ_train, Γ_sync) schedule
    override."""

    name: str = "skiptrain"
    gamma_train: int | None = None
    gamma_sync: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("algorithm name must be non-empty")
        try:
            algorithm_kind(self.name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        if (self.gamma_train is None) != (self.gamma_sync is None):
            raise ValueError(
                "gamma_train and gamma_sync must be set together"
            )
        if self.gamma_train is not None and (
            self.gamma_train < 0 or self.gamma_sync < 0
        ):
            raise ValueError("gamma values must be non-negative")

    @property
    def is_async(self) -> bool:
        return algorithm_kind(self.name) == "async"


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully declarative experiment scenario.

    ``preset`` names the base configuration (dataset scale, model,
    training hyperparameters); every other field composes an axis on
    top of it. ``seed`` and ``total_rounds`` are defaults the sweep
    orchestrator overrides per cell (``total_rounds=None`` falls back
    to the preset's; for async algorithms it means expected activations
    per node). ``eval_every=None`` likewise uses the preset's cadence.
    """

    name: str
    preset: str = "cifar10-bench"
    seed: int = 0
    total_rounds: int | None = None
    eval_every: int | None = None
    topology: TopologySpec = field(default_factory=TopologySpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    failures: FailureSpec = field(default_factory=FailureSpec)
    energy: EnergySpec = field(default_factory=EnergySpec)
    data: DataSpec = field(default_factory=DataSpec)
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if "__" in self.name or "/" in self.name:
            raise ValueError(
                'scenario names may not contain "__" or "/" (they embed '
                "into artifact cell ids and paths)"
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.total_rounds is not None and self.total_rounds <= 0:
            raise ValueError("total_rounds must be positive when given")
        if self.eval_every is not None and self.eval_every <= 0:
            raise ValueError("eval_every must be positive when given")
        if self.energy.enforce_budgets and not self.algorithm.is_async:
            raise ValueError(
                "enforce_budgets is the async engine's battery gate; "
                "sync scenarios constrain energy through the "
                "skiptrain-constrained/greedy algorithms"
            )

    @property
    def kind(self) -> str:
        """Execution backend implied by the algorithm name."""
        return "async" if self.algorithm.is_async else "sync"

    # -- codec ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; tuples become lists)."""
        return {
            "name": self.name,
            "preset": self.preset,
            "seed": self.seed,
            "total_rounds": self.total_rounds,
            "eval_every": self.eval_every,
            "topology": {
                "kind": self.topology.kind,
                "degree": self.topology.degree,
                "period": self.topology.period,
            },
            "churn": {
                "events": [
                    {"round": e.round, "node": e.node, "action": e.action}
                    for e in self.churn.events
                ],
                "initially_absent": list(self.churn.initially_absent),
            },
            "failures": {
                "kind": self.failures.kind,
                "nodes": list(self.failures.nodes),
                "start": self.failures.start,
                "end": self.failures.end,
                "p": self.failures.p,
            },
            "energy": {
                "battery_fraction": self.energy.battery_fraction,
                "enforce_budgets": self.energy.enforce_budgets,
            },
            "data": {
                "partition": self.data.partition,
                "alpha": self.data.alpha,
            },
            "algorithm": {
                "name": self.algorithm.name,
                "gamma_train": self.algorithm.gamma_train,
                "gamma_sync": self.algorithm.gamma_sync,
            },
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict`: unknown keys anywhere in
        the tree are rejected; missing sub-objects take their defaults."""
        if not isinstance(obj, dict):
            raise ValueError(f"scenario spec must be a dict, got {type(obj)}")
        _require_keys(
            obj,
            {
                "name", "preset", "seed", "total_rounds", "eval_every",
                "topology", "churn", "failures", "energy", "data",
                "algorithm", "description",
            },
            "scenario spec",
        )
        if "name" not in obj:
            raise ValueError("scenario spec requires a name")

        topo = dict(obj.get("topology") or {})
        _require_keys(topo, {"kind", "degree", "period"}, "topology")
        churn_obj = dict(obj.get("churn") or {})
        _require_keys(churn_obj, {"events", "initially_absent"}, "churn")
        events = []
        for ev in churn_obj.get("events") or ():
            ev = dict(ev)
            _require_keys(ev, {"round", "node", "action"}, "churn event")
            events.append(ChurnEventSpec(**ev))
        failures = dict(obj.get("failures") or {})
        _require_keys(
            failures, {"kind", "nodes", "start", "end", "p"}, "failures"
        )
        if "nodes" in failures:
            failures["nodes"] = tuple(failures["nodes"])
        energy = dict(obj.get("energy") or {})
        _require_keys(
            energy, {"battery_fraction", "enforce_budgets"}, "energy"
        )
        data = dict(obj.get("data") or {})
        _require_keys(data, {"partition", "alpha"}, "data")
        algorithm = dict(obj.get("algorithm") or {})
        _require_keys(
            algorithm, {"name", "gamma_train", "gamma_sync"}, "algorithm"
        )
        return cls(
            name=obj["name"],
            preset=obj.get("preset", "cifar10-bench"),
            seed=int(obj.get("seed", 0)),
            total_rounds=obj.get("total_rounds"),
            eval_every=obj.get("eval_every"),
            topology=TopologySpec(**topo),
            churn=ChurnSpec(
                events=tuple(events),
                initially_absent=tuple(
                    churn_obj.get("initially_absent") or ()
                ),
            ),
            failures=FailureSpec(**failures),
            energy=EnergySpec(**energy),
            data=DataSpec(**data),
            algorithm=AlgorithmSpec(**algorithm),
            description=obj.get("description", ""),
        )

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with fields replaced (dataclasses.replace re-running
        validation)."""
        return dataclasses.replace(self, **changes)
