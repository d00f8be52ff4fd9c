"""``repro.topology`` — communication graphs and mixing matrices."""

from .dynamic import RandomRegularEachRound
from .graphs import (
    barbell_graph,
    erdos_renyi_graph,
    fully_connected_graph,
    small_world_graph,
    star_graph,
)
from .mixing import (
    consensus_contraction,
    is_doubly_stochastic,
    is_symmetric,
    metropolis_hastings_weights,
    mixing_time_estimate,
    spectral_gap,
    uniform_neighbor_weights,
)
from .sparse import (
    Csr,
    NeighborList,
    adjacency_matrix,
    as_neighbor_list,
    csr_connected,
    neighbor_lists,
    regular_neighbors,
    ring_neighbors,
    torus_neighbors,
    validate_topology,
)

__all__ = [
    "Csr",
    "NeighborList",
    "as_neighbor_list",
    "csr_connected",
    "ring_neighbors",
    "torus_neighbors",
    "regular_neighbors",
    "fully_connected_graph",
    "erdos_renyi_graph",
    "star_graph",
    "small_world_graph",
    "barbell_graph",
    "RandomRegularEachRound",
    "adjacency_matrix",
    "neighbor_lists",
    "validate_topology",
    "metropolis_hastings_weights",
    "uniform_neighbor_weights",
    "is_doubly_stochastic",
    "is_symmetric",
    "spectral_gap",
    "mixing_time_estimate",
    "consensus_contraction",
]
