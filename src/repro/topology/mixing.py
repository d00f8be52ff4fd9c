"""Mixing matrices and their spectral properties.

The aggregation step of D-PSGD/SkipTrain is ``X ← W X`` where ``W`` is
symmetric and doubly stochastic. The paper (Eq. in §2.2) builds ``W``
with Metropolis–Hastings weights from the topology; this module also
provides uniform-neighbor weights for the ablation bench and spectral
diagnostics (spectral gap, mixing-time estimate) used in tests.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .sparse import NeighborList, validate_topology

__all__ = [
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
    "is_doubly_stochastic",
    "is_symmetric",
    "spectral_gap",
    "mixing_time_estimate",
    "consensus_contraction",
]


def metropolis_hastings_weights(graph: NeighborList) -> sp.csr_matrix:
    """Metropolis–Hastings mixing matrix of a topology.

    ``W[i, j] = 1 / (max(deg(i), deg(j)) + 1)`` for edges, diagonal set
    so rows sum to one. The result is symmetric and doubly stochastic
    for any undirected graph, which is the convergence condition of
    D-PSGD (Lian et al. 2017).

    The weights are computed per-edge from the degree arrays — O(E)
    work and memory, no n×n intermediate — and are a pure function of
    the edge set: the sorted-CSR structure is canonical, and every value
    is one IEEE-754 expression of two degrees.
    """
    validate_topology(graph)
    n = graph.n_nodes
    deg = graph.degrees.astype(np.float64)
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    cols = graph.indices
    vals = 1.0 / (np.maximum(deg[rows], deg[cols]) + 1.0)
    w_off = sp.csr_matrix((vals, cols, graph.indptr), shape=(n, n))
    diag = 1.0 - np.asarray(w_off.sum(axis=1)).ravel()
    w = w_off + sp.diags(diag, format="csr")
    return w.tocsr()


def uniform_neighbor_weights(graph: NeighborList) -> sp.csr_matrix:
    """Row-stochastic uniform averaging over the closed neighborhood:
    ``W[i, j] = 1/(deg(i)+1)`` for j in N(i) ∪ {i}.

    Symmetric and doubly stochastic only on regular graphs — the
    ablation bench contrasts it with Metropolis–Hastings on irregular
    topologies. Per-edge O(E) construction.
    """
    validate_topology(graph)
    n = graph.n_nodes
    self_ids = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(self_ids, graph.degrees), self_ids])
    cols = np.concatenate([graph.indices, self_ids])
    wrow = 1.0 / (graph.degrees + 1.0)
    return sp.csr_matrix(
        (wrow[rows], (rows, cols)), shape=(n, n), dtype=np.float64
    )


def is_symmetric(w: sp.spmatrix, tol: float = 1e-12) -> bool:
    """Check ``W == W.T`` within ``tol``."""
    diff = (w - w.T).tocoo()
    return bool(diff.nnz == 0 or np.abs(diff.data).max() <= tol)


def is_doubly_stochastic(w: sp.spmatrix, tol: float = 1e-10) -> bool:
    """Check rows and columns sum to one and entries are non-negative."""
    w = w.tocsr()
    if w.nnz and w.data.min() < -tol:
        return False
    rows = np.asarray(w.sum(axis=1)).ravel()
    cols = np.asarray(w.sum(axis=0)).ravel()
    return bool(
        np.allclose(rows, 1.0, atol=tol) and np.allclose(cols, 1.0, atol=tol)
    )


def spectral_gap(w: sp.spmatrix) -> float:
    """``1 - |λ₂|`` of a symmetric doubly-stochastic ``W``.

    Larger gap = faster consensus; the paper's intuition that denser
    topologies need fewer sync rounds is exactly gap monotonicity.
    """
    n = w.shape[0]
    if n == 1:
        return 1.0
    if n <= 64:
        eig = np.linalg.eigvalsh(w.toarray())  # repro: allow[no-dense-topology] -- exact dense eigensolve, diagnostic-only and capped at n<=64
        lam2 = np.sort(np.abs(eig))[-2]
    else:
        # no cell reaches this branch: Lanczos (and scipy.linalg) load here
        import scipy.sparse.linalg as spla

        # |λ₂| via the two extreme eigenvalues of the symmetric matrix
        vals = spla.eigsh(w.tocsc().astype(np.float64), k=2, which="LA",
                          return_eigenvectors=False)
        lam_max2 = np.sort(vals)[0]  # second largest (λ₁ = 1)
        lam_min = spla.eigsh(w.tocsc().astype(np.float64), k=1, which="SA",
                             return_eigenvectors=False)[0]
        lam2 = max(abs(lam_max2), abs(lam_min))
    return float(1.0 - min(abs(lam2), 1.0))


def mixing_time_estimate(w: sp.spmatrix, eps: float = 1e-2) -> float:
    """Rounds needed to contract consensus error by ``eps``:
    ``log(1/eps) / log(1/|λ₂|)``. Returns ``inf`` for a zero gap and
    1.0 for an exact averaging matrix."""
    gap = spectral_gap(w)
    if gap <= 0.0:
        return float("inf")
    if gap >= 1.0:
        return 1.0
    lam2 = 1.0 - gap
    # at least one round: a single multiplication is the floor
    return float(max(1.0, np.log(1.0 / eps) / np.log(1.0 / lam2)))


def consensus_contraction(w: sp.spmatrix, x: np.ndarray) -> float:
    """Empirical one-step contraction factor of the disagreement norm:
    ``‖Wx − x̄‖ / ‖x − x̄‖`` for state matrix ``x`` of shape (n, d).

    Tests use this to confirm ``contraction ≤ |λ₂|`` as theory demands.
    """
    xbar = x.mean(axis=0, keepdims=True)
    before = np.linalg.norm(x - xbar)
    if before == 0.0:
        return 0.0
    after = np.linalg.norm(w @ x - xbar)
    return float(after / before)
