"""Mixing matrices and their spectral properties.

The aggregation step of D-PSGD/SkipTrain is ``X ← W X`` where ``W`` is
symmetric and doubly stochastic. The paper (Eq. in §2.2) builds ``W``
with Metropolis–Hastings weights from the topology; this module also
provides uniform-neighbor weights for the ablation bench and spectral
diagnostics (spectral gap, mixing-time estimate) used in tests.
"""

from __future__ import annotations

import numpy as np

from .sparse import Csr, NeighborList, validate_topology

__all__ = [
    "metropolis_hastings_weights",
    "masked_mixing",
    "uniform_neighbor_weights",
    "is_doubly_stochastic",
    "is_symmetric",
    "spectral_gap",
    "mixing_time_estimate",
    "consensus_contraction",
]


def metropolis_hastings_weights(graph: NeighborList) -> Csr:
    """Metropolis–Hastings mixing matrix of a topology.

    ``W[i, j] = 1 / (max(deg(i), deg(j)) + 1)`` for edges, diagonal set
    so rows sum to one. The result is symmetric and doubly stochastic
    for any undirected graph, which is the convergence condition of
    D-PSGD (Lian et al. 2017). It is :func:`masked_mixing` with every
    node alive.
    """
    validate_topology(graph)
    return masked_mixing(graph, np.ones(graph.n_nodes, dtype=bool))


def masked_mixing(graph: NeighborList, alive: np.ndarray) -> Csr:
    """Mixing matrix with dead nodes isolated: Metropolis–Hastings weights
    over the subgraph the alive set induces, and an identity row, which
    freezes its state, for each dead node. Always symmetric and doubly
    stochastic.

    O(E) work from the masked CSR arrays, each weight one IEEE-754
    expression of two degrees. A row's sum goes through ``np.add.reduceat``,
    as scipy's ``sum(axis=1)`` takes it, so the diagonal is the bytes
    ``1 - w_off.sum(axis=1)`` gives.
    """
    alive = np.asarray(alive, dtype=bool)
    n = graph.n_nodes
    if alive.shape != (n,):
        raise ValueError("alive mask size mismatch")
    rows = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    cols = graph.indices
    keep = alive[rows] & alive[cols]
    rows, cols = rows[keep], cols[keep]
    subdeg = np.bincount(rows, minlength=n)
    vals = 1.0 / (np.maximum(subdeg[rows], subdeg[cols]) + 1.0)
    sums, full = np.zeros(n), subdeg > 0
    if vals.size:
        sums[full] = np.add.reduceat(vals, (np.cumsum(subdeg) - subdeg)[full])
    return _with_diagonal(rows, cols, vals, 1.0 - sums)


def uniform_neighbor_weights(graph: NeighborList) -> Csr:
    """Row-stochastic uniform averaging over the closed neighborhood:
    ``W[i, j] = 1/(deg(i)+1)`` for j in N(i) ∪ {i}.

    Symmetric and doubly stochastic only on regular graphs — the
    ablation bench contrasts it with Metropolis–Hastings on irregular
    topologies. Per-edge O(E) construction.
    """
    validate_topology(graph)
    rows = np.repeat(np.arange(graph.n_nodes, dtype=np.int64), graph.degrees)
    wrow = 1.0 / (graph.degrees + 1.0)
    return _with_diagonal(rows, graph.indices, wrow[rows], wrow)


def _with_diagonal(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   diag: np.ndarray) -> Csr:
    """Sorted off-diagonal entries with each row's diagonal slotted in: an
    entry moves up by the diagonals of earlier rows, and its own if left of it."""
    n = diag.size
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n) + 1, out=indptr[1:])
    at = np.arange(rows.size) + rows + (cols > rows)
    slot = indptr[:-1] + np.bincount(rows[cols < rows], minlength=n)
    indices, data = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    indices[at], data[at] = cols, vals
    indices[slot], data[slot] = np.arange(n), diag
    return Csr(indptr, indices, data, (n, n))


def is_symmetric(w: Csr, tol: float = 1e-12) -> bool:
    """Check ``W == W.T`` within ``tol``: both sides' entries are summed
    onto the union of their positions and compared there."""
    n, rows = w.shape[1], w.row_ids()
    keys, at = np.unique(np.concatenate([rows * n + w.indices, w.indices * n + rows]),
                         return_inverse=True)
    diff = np.zeros(keys.size)
    np.add.at(diff, at, np.concatenate([w.data, -w.data]))
    return bool(w.shape[0] == n and (diff.size == 0 or np.abs(diff).max() <= tol))


def is_doubly_stochastic(w: Csr, tol: float = 1e-10) -> bool:
    """Check rows and columns sum to one and entries are non-negative."""
    if w.nnz and w.data.min() < -tol:
        return False
    rows = np.bincount(w.row_ids(), weights=w.data, minlength=w.shape[0])
    cols = np.bincount(w.indices, weights=w.data, minlength=w.shape[1])
    return bool(np.allclose(rows, 1.0, atol=tol) and np.allclose(cols, 1.0, atol=tol))


def spectral_gap(w: Csr) -> float:
    """``1 - |λ₂|`` of a symmetric doubly-stochastic ``W``.

    Larger gap = faster consensus; the paper's intuition that denser
    topologies need fewer sync rounds is exactly gap monotonicity. Both
    eigensolvers read a symmetric matrix, so a non-symmetric ``W`` is
    refused rather than given a wrong gap.
    """
    if not is_symmetric(w):
        raise ValueError("spectral_gap needs a symmetric W (got a non-symmetric one)")
    n = w.shape[0]
    if n == 1:
        return 1.0
    if n <= 64:
        eig = np.linalg.eigvalsh(w.toarray())  # repro: allow[no-dense-topology] -- exact dense eigensolve, diagnostic-only and capped at n<=64
        lam2 = np.sort(np.abs(eig))[-2]
    else:
        # no cell reaches this branch: scipy (and its Lanczos) load here
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        a = sp.csr_matrix((w.data, w.indices, w.indptr), shape=w.shape).tocsc()
        # |λ₂| via the two extreme eigenvalues of the symmetric matrix
        vals = spla.eigsh(a, k=2, which="LA", return_eigenvectors=False)
        lam_max2 = np.sort(vals)[0]  # second largest (λ₁ = 1)
        lam_min = spla.eigsh(a, k=1, which="SA", return_eigenvectors=False)[0]
        lam2 = max(abs(lam_max2), abs(lam_min))
    return float(1.0 - min(abs(lam2), 1.0))


def mixing_time_estimate(w: Csr, eps: float = 1e-2) -> float:
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


def consensus_contraction(w: Csr, x: np.ndarray) -> float:
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
