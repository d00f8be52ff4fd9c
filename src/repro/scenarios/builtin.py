"""Built-in scenario definitions.

Two families are registered at import time:

* **The preset zoo as scenarios** — every experiment preset is exposed
  as a scenario of the same name (default algorithm: ``skiptrain``, or
  ``async-skiptrain`` for the ``-async`` presets), so the scenario
  surface covers everything the preset surface did without breaking any
  preset name.
* **Churn scenarios** — named compositions of churn, failures, and
  battery constraints used by the golden-trace regression tests
  (``tests/test_scenarios_golden.py``), the conformance suite and the
  pinned artifact digests (``tests/test_artifact_digests.py``). They
  run at bench scale with short horizons, so recomputing a golden trace
  takes seconds.
"""

from __future__ import annotations

from ..experiments.presets import PRESETS
from .registry import register_scenario
from .spec import (
    AlgorithmSpec,
    ChurnEventSpec,
    ChurnSpec,
    EnergySpec,
    FailureSpec,
    ScenarioSpec,
)

__all__ = ["churn_ramp", "churn_crash", "churn_async"]


def _preset_scenario(preset_name: str) -> ScenarioSpec:
    algorithm = (
        "async-skiptrain" if preset_name.endswith("-async") else "skiptrain"
    )
    return ScenarioSpec(
        name=preset_name,
        preset=preset_name,
        algorithm=AlgorithmSpec(name=algorithm),
        description=(
            f"the {preset_name!r} preset as a scenario (default "
            f"algorithm {algorithm})"
        ),
    )


def _register_preset_zoo() -> None:
    for preset_name in PRESETS:
        register_scenario(preset_name)(
            # bind the loop variable per factory
            lambda name=preset_name: _preset_scenario(name)
        )


@register_scenario("churn-ramp")
def churn_ramp() -> ScenarioSpec:
    """Membership ramp-up: four nodes enroll mid-run, each handed the
    mean of its alive neighbors' models on arrival."""
    return ScenarioSpec(
        name="churn-ramp",
        preset="cifar10-bench",
        total_rounds=24,
        eval_every=6,
        churn=ChurnSpec(
            initially_absent=(3, 11, 19, 27),
            events=(
                ChurnEventSpec(round=6, node=3, action="join"),
                ChurnEventSpec(round=10, node=11, action="join"),
                ChurnEventSpec(round=14, node=19, action="join"),
                ChurnEventSpec(round=18, node=27, action="join"),
            ),
        ),
        algorithm=AlgorithmSpec(name="skiptrain"),
        description="staggered joins with neighbor-mean state handoff",
    )


@register_scenario("churn-crash")
def churn_crash() -> ScenarioSpec:
    """Churn composed with transient failures: two nodes leave for
    good, one departs and re-enrolls (fresh handoff on return), while a
    crash window takes two others down mid-run."""
    return ScenarioSpec(
        name="churn-crash",
        preset="cifar10-bench",
        total_rounds=24,
        eval_every=6,
        churn=ChurnSpec(
            events=(
                ChurnEventSpec(round=8, node=1, action="leave"),
                ChurnEventSpec(round=8, node=2, action="leave"),
                ChurnEventSpec(round=10, node=17, action="leave"),
                ChurnEventSpec(round=16, node=17, action="join"),
            ),
        ),
        failures=FailureSpec(kind="window", nodes=(4, 5), start=10, end=14),
        algorithm=AlgorithmSpec(name="d-psgd"),
        description="leaves + a re-enrollment under a crash window",
    )


@register_scenario("churn-async")
def churn_async() -> ScenarioSpec:
    """The async composition whose golden trace and artifact digest the
    tier-1 tests pin (``tests/test_scenarios_golden.py``,
    ``tests/test_artifact_digests.py``): event-driven gossip with joins,
    a departure, a crash window, and the engine's battery-depletion gate
    all active at once."""
    return ScenarioSpec(
        name="churn-async",
        preset="cifar10-bench-async",
        total_rounds=24,
        eval_every=6,
        churn=ChurnSpec(
            initially_absent=(7, 23),
            events=(
                ChurnEventSpec(round=6, node=7, action="join"),
                ChurnEventSpec(round=9, node=12, action="leave"),
                ChurnEventSpec(round=12, node=23, action="join"),
            ),
        ),
        failures=FailureSpec(kind="window", nodes=(2, 3), start=8, end=13),
        energy=EnergySpec(enforce_budgets=True),
        algorithm=AlgorithmSpec(name="async-skiptrain"),
        description="async gossip under churn, failures and battery gates",
    )


_register_preset_zoo()
