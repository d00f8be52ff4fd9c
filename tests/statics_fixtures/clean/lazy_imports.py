"""Clean: the heavy packages, scipy.sparse among them, appear only under
TYPE_CHECKING and inside the functions that use them; numpy is every
cell's and stays at module level."""

from __future__ import annotations

import typing
from typing import TYPE_CHECKING

import numpy as np

from .sparse import linalg  # a relative module named like a heavy one

if TYPE_CHECKING:
    import networkx as nx
    import scipy.sparse as sp

if typing.TYPE_CHECKING:
    from scipy.stats import rv_continuous


def small_world(n: int) -> "nx.Graph":
    import networkx as nx

    return nx.connected_watts_strogatz_graph(n, 4, 0.3)


class Diagnostics:
    def gap(self, w: sp.spmatrix) -> float:
        from scipy.sparse.linalg import eigsh

        return float(np.sort(eigsh(w, k=2, return_eigenvectors=False))[0])
