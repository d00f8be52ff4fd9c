"""Reproducible random-number streams.

Every stochastic component of a simulation (data synthesis, partition,
model init, per-node batch sampling, per-node training coin flips)
draws from an independent child stream of one root seed, so whole
experiments are reproducible bit-for-bit and per-node randomness is
uncorrelated (Philox-based spawning, the NumPy-recommended pattern for
parallel streams).
"""

from __future__ import annotations

import numpy as np
# numpy imports its random package lazily; every cell draws from it
import numpy.random  # noqa: F401

__all__ = ["RngFactory", "generator_state", "restore_generator"]


class RngFactory:
    """Named, reproducible generator streams from one root seed.

    ``factory.stream("data")`` always returns the same stream for the
    same root seed, and ``factory.node_stream("train", i)`` gives node
    ``i`` its own independent stream — identical call orders yield
    identical experiments regardless of node scheduling.
    """

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def stream(self, label: str) -> np.random.Generator:
        """Independent generator for the component named ``label``."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(_label_key(label),))
        return np.random.Generator(np.random.Philox(ss))

    def node_stream(self, label: str, node_id: int) -> np.random.Generator:
        """Independent generator for component ``label`` of node ``node_id``."""
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        ss = np.random.SeedSequence(
            self.seed, spawn_key=(_label_key(label), node_id)
        )
        return np.random.Generator(np.random.Philox(ss))


def generator_state(gen: np.random.Generator) -> dict:
    """JSON-serializable snapshot of a generator's bit-stream position.

    Checkpoint/resume needs mid-run RNG streams to continue exactly
    where they stopped; ``bit_generator.state`` captures that but holds
    NumPy arrays/scalars, so this deep-converts to plain Python types.
    """

    def convert(value: object) -> object:
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.integer):
            return int(value)
        return value

    return convert(gen.bit_generator.state)  # type: ignore[return-value]


def restore_generator(state: dict) -> np.random.Generator:
    """Rebuild a generator from a :func:`generator_state` snapshot.

    The snapshot names its own bit-generator class, so any NumPy bit
    generator round-trips (the factory uses Philox)."""
    name = state.get("bit_generator")
    if not isinstance(name, str) or not hasattr(np.random, name):
        raise ValueError(f"unknown bit generator {name!r} in rng state")
    bit_gen = getattr(np.random, name)()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def _label_key(label: str) -> int:
    """Stable 63-bit key for a stream label (Python's ``hash`` is salted
    per process, so fold the bytes explicitly)."""
    h = 1469598103934665603  # FNV-1a offset basis
    for b in label.encode():
        h = ((h ^ b) * 1099511628211) % (1 << 63)
    return h
