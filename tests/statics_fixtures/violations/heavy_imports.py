"""Seeded violations: packages no cell executes, imported where every
process pays for them."""

from typing import TYPE_CHECKING

import networkx as nx  # expect: heavy-import
import numpy as np
import scipy.sparse as sp  # expect: heavy-import
import scipy.sparse.linalg  # expect: heavy-import
from scipy import sparse, stats  # expect: heavy-import
from scipy.linalg import eigh  # expect: heavy-import

if TYPE_CHECKING:
    import matplotlib.pyplot as plt
else:
    import matplotlib  # expect: heavy-import

try:
    from networkx.algorithms import bipartite  # expect: heavy-import
except ImportError:
    bipartite = None


class Plotter:
    from matplotlib import cm  # expect: heavy-import


def gap(w):
    import scipy.sparse.linalg as spla

    return spla.eigsh(w, k=2)
