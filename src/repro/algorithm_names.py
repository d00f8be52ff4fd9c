"""The algorithm names the runner knows, and which engine runs each.

This is the one table of algorithm names. The CLI's ``choices``, the
sweep's and the serve daemon's request checks,
:class:`~repro.scenarios.spec.AlgorithmSpec` and the runner's factory
table all read it, so a name is known, and its kind decided, in one
place. Names are exact: ``"Async-D-PSGD"`` is not ``"async-d-psgd"``.

The module imports nothing: ``repro.cli`` builds its parser from it
before numpy is loaded.
"""

from __future__ import annotations

__all__ = ["ALGORITHM_KINDS", "algorithm_kind", "algorithms_of_kind"]

#: algorithm name → the engine that runs it: ``"sync"`` (the round
#: engine) or ``"async"`` (the event-driven gossip engine)
ALGORITHM_KINDS: dict[str, str] = {
    "d-psgd": "sync",
    "d-psgd-allreduce": "sync",
    "skiptrain": "sync",
    "skiptrain-constrained": "sync",
    "greedy": "sync",
    "async-d-psgd": "async",
    "async-skiptrain": "async",
    "async-skiptrain-constrained": "async",
}


def algorithm_kind(name: str) -> str:
    """``"sync"`` or ``"async"``, the kind of engine ``name`` runs on;
    ``KeyError`` for a name not in :data:`ALGORITHM_KINDS`."""
    try:
        return ALGORITHM_KINDS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_KINDS)}"
        ) from None


def algorithms_of_kind(kind: str) -> list[str]:
    """The names of one kind, in table order."""
    return [name for name, k in ALGORITHM_KINDS.items() if k == kind]
