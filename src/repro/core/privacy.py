"""Local noise injection for privacy (Muffliato-style, related work §6).

Muffliato (Cyffers et al. 2022) alternates gossip rounds with local
Gaussian noise injection: each node adds noise to the model it shares,
and the subsequent mixing rounds *average the noise away* while the
privacy benefit is pinned to what any single neighbor observed. The
mechanism composes naturally with SkipTrain — the sync rounds SkipTrain
inserts for energy reasons double as the noise-amplification rounds
Muffliato needs.

This module provides the noise mechanism plus a helper quantifying how
much injected noise survives k mixing rounds (the amplification
effect), used by tests and the privacy ablation.
"""

from __future__ import annotations

import numpy as np

from ..topology.sparse import Csr

__all__ = ["GaussianMechanism", "noise_after_mixing"]


class GaussianMechanism:
    """Adds centered Gaussian noise to every vector a node shares.

    ``sigma`` is the per-coordinate standard deviation. The mechanism
    keeps a running count of queries for budget accounting.
    """

    def __init__(self, sigma: float, rng: np.random.Generator) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self.rng = rng
        self.queries = 0

    def privatize(self, vec: np.ndarray) -> np.ndarray:
        """Return a noisy copy of ``vec`` (the original is untouched)."""
        self.queries += 1
        if self.sigma == 0.0:
            return vec.copy()
        return vec + self.rng.normal(scale=self.sigma, size=vec.shape)

    def privatize_state(self, state: np.ndarray) -> np.ndarray:
        """Noisy copy of a full ``(n, dim)`` state matrix (one query per
        node: each row is what that node shares)."""
        self.queries += state.shape[0]
        if self.sigma == 0.0:
            return state.copy()
        return state + self.rng.normal(scale=self.sigma, size=state.shape)


def noise_after_mixing(
    w: Csr, k: int, sigma: float, rng: np.random.Generator,
    dim: int = 64, trials: int = 16,
) -> float:
    """Empirical residual noise magnitude after ``k`` mixing rounds.

    Injects iid N(0, σ²) at every node, applies ``W^k``, and returns the
    mean per-coordinate std of the result. For a doubly-stochastic W
    this decays toward σ/√n — the gossip averaging that lets Muffliato
    spend less privacy budget per useful update. SkipTrain's sync
    batches provide exactly these extra mixing rounds for free.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = w.shape[0]
    out = []
    for _ in range(trials):
        noise = rng.normal(scale=sigma, size=(n, dim))
        for _ in range(k):
            noise = w @ noise
        out.append(noise.std())
    return float(np.mean(out))
