"""Ablation bench: the aggregation step's implementation and weights.

DESIGN.md §5 calls out two design choices in the mixing step:

1. sparse vs dense matmul for ``X ← WX`` — a real microbenchmark
   (multiple timed rounds), since this is the engine's only non-training
   hot spot;
2. Metropolis–Hastings vs uniform-neighbor weights — MH remains doubly
   stochastic on irregular graphs where uniform weights silently break
   the conservation law D-PSGD's convergence relies on.
"""

import numpy as np
import pytest

from repro.topology import (
    erdos_renyi_graph,
    is_doubly_stochastic,
    metropolis_hastings_weights,
    regular_neighbors,
    uniform_neighbor_weights,
)

N_NODES = 256
DIM = 2048


@pytest.fixture(scope="module")
def state():
    return np.random.default_rng(0).normal(size=(N_NODES, DIM))


@pytest.fixture(scope="module")
def mixing_sparse():
    return metropolis_hastings_weights(regular_neighbors(N_NODES, 6, seed=0))


def test_mixing_sparse_matmul(benchmark, state, mixing_sparse):
    """Paper-scale sparse mixing step (256 nodes, 6-regular)."""
    out = benchmark(lambda: mixing_sparse @ state)
    np.testing.assert_allclose(out.mean(axis=0), state.mean(axis=0), atol=1e-9)


def test_mixing_dense_matmul(benchmark, state, mixing_sparse):
    """Same product with a densified matrix — the baseline the sparse
    path is compared against in the benchmark report."""
    dense = mixing_sparse.toarray()
    out = benchmark(lambda: dense @ state)
    np.testing.assert_allclose(out.mean(axis=0), state.mean(axis=0), atol=1e-9)


def test_mixing_weights_ablation(benchmark):
    """MH vs uniform weights on an irregular graph: only MH preserves
    the global average (double stochasticity)."""

    def compute():
        g = erdos_renyi_graph(64, seed=3)
        mh = metropolis_hastings_weights(g)
        uni = uniform_neighbor_weights(g)
        x = np.random.default_rng(1).normal(size=(64, 32))
        drift_mh = np.abs((mh @ x).mean(axis=0) - x.mean(axis=0)).max()
        drift_uni = np.abs((uni @ x).mean(axis=0) - x.mean(axis=0)).max()
        return mh, uni, drift_mh, drift_uni

    mh, uni, drift_mh, drift_uni = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    print(f"\nmean-drift per step — MH: {drift_mh:.2e}, uniform: {drift_uni:.2e}")
    assert is_doubly_stochastic(mh)
    assert not is_doubly_stochastic(uni)
    assert drift_mh < 1e-12
    assert drift_uni > 1e-6
