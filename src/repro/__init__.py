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
    Synchronous round engine (serial, vectorized, node-sharded) and
    asynchronous gossip engine.
``repro.experiments``
    Per-figure/table experiment runners and reporting.
"""

__version__ = "1.0.0"

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
