"""Clean: sparse-native topology math, dense only under a capped
suppression, and densification outside the scoped packages is ignored
(this tree's ``reporting`` sibling exercises that)."""

import numpy as np


def mh_weights(indptr, indices, degrees):
    import scipy.sparse as sp

    n = degrees.size
    deg = degrees.astype(np.float64)
    rows = np.repeat(np.arange(n), degrees)
    vals = 1.0 / (np.maximum(deg[rows], deg[indices]) + 1.0)
    return sp.csr_matrix((vals, indices, indptr), shape=(n, n))


def exact_gap(w):
    if w.shape[0] > 64:
        raise ValueError("exact eigensolve is capped at n<=64")
    dense = w.toarray()  # repro: allow[no-dense-topology] -- capped at n<=64 above
    return np.linalg.eigvalsh(dense)
