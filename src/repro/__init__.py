"""repro — reproduction of *Energy-Aware Decentralized Learning with
Intermittent Model Training* (SkipTrain, IPDPS 2024).

Subpackages
-----------
``repro.core``
    The paper's contribution: round schedules, training probabilities,
    and the D-PSGD / SkipTrain / SkipTrain-constrained / Greedy family.
``repro.nn``
    From-scratch NumPy neural-network engine (PyTorch substitute).
``repro.data``
    Synthetic CIFAR-10/FEMNIST stand-ins, non-IID partitioners.
``repro.topology``
    Communication graphs and Metropolis–Hastings mixing matrices.
``repro.energy``
    Smartphone device profiles, energy traces, accounting (Eq. 2–3).
``repro.simulation``
    Synchronous round engine and asynchronous gossip engine, both
    training stacked blocks of nodes.
``repro.experiments``
    Per-figure/table experiment runners and reporting.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "1.0.0"

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import analysis, core, data, energy, nn, simulation, topology

__all__ = [
    "analysis",
    "core",
    "data",
    "energy",
    "nn",
    "simulation",
    "topology",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on first attribute access (PEP 562), so
    ``repro check`` and ``repro --help`` start without numpy and
    ``import repro`` costs only what the caller goes on to use."""
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
