"""Declarative scenarios: named, validated compositions of topology,
churn, failures, energy, data skew and algorithm.

Import layering: this package sits *above* :mod:`repro.experiments`
(compilation wires scenarios into the runner), while the engines in
:mod:`repro.simulation` only ever see the plain
:class:`~repro.scenarios.churn.ChurnSchedule` duck type. The compile
layer is therefore loaded lazily — ``repro.scenarios.spec``/``churn``/
``registry`` stay importable from anywhere without dragging the full
experiments stack in.
"""

from __future__ import annotations

from .churn import ChurnSchedule, apply_join_handoff
from .registry import available_scenarios, get_scenario, register_scenario
from .spec import (
    AlgorithmSpec,
    ChurnEventSpec,
    ChurnSpec,
    DataSpec,
    EnergySpec,
    FailureSpec,
    ScenarioSpec,
    TopologySpec,
)

__all__ = [
    "ScenarioSpec",
    "TopologySpec",
    "ChurnEventSpec",
    "ChurnSpec",
    "FailureSpec",
    "EnergySpec",
    "DataSpec",
    "AlgorithmSpec",
    "ChurnSchedule",
    "apply_join_handoff",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    # lazily loaded from .compile (heavy: pulls in the experiments stack)
    "CompiledRun",
    "compile_run",
    "build_scenario_plan",
    "scenario_trace",
]

_LAZY = {
    "CompiledRun",
    "compile_run",
    "build_scenario_plan",
    "scenario_trace",
}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from . import compile as _compile

        return getattr(_compile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Built-in scenario definitions register themselves on import. This
# pulls in repro.experiments.presets (names only, no engine wiring).
from . import builtin as _builtin  # noqa: E402,F401
