"""Name → scenario-factory registry. (Algorithm names have no
registry: :mod:`repro.algorithm_names` is their one table.)

Factories, not instances, are registered so every lookup returns a
fresh, immutable spec; ``register`` rejects duplicate names so two
modules cannot silently shadow each other's scenarios."""

from __future__ import annotations

from typing import Callable

from .spec import ScenarioSpec

__all__ = [
    "register_scenario",
    "get_scenario",
    "available_scenarios",
]

_REGISTRY: dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(
    name: str,
) -> Callable[[Callable[[], ScenarioSpec]], Callable[[], ScenarioSpec]]:
    """Decorator registering a zero-arg scenario factory under ``name``.
    The factory's spec must carry the same name it is registered under
    (checked lazily at first lookup)."""

    def deco(factory: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[key] = factory
        return factory

    return deco


def get_scenario(name: str) -> ScenarioSpec:
    """Instantiate a registered scenario by name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    spec = _REGISTRY[key]()
    if spec.name.lower() != key:
        raise ValueError(
            f"scenario registered as {name!r} carries spec name "
            f"{spec.name!r}; registry and spec names must match"
        )
    return spec


def available_scenarios() -> list[str]:
    """Sorted registered scenario names."""
    return sorted(_REGISTRY)
