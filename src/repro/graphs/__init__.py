"""Graph index substrates: kNN, NSW (GANNS-style), HNSW layer 0, NSG and
CAGRA fixed-out-degree — one builder per family."""

from .base import GraphIndex
from .build_batched import occlusion_prune_mask
from .cagra import build_cagra
from .dynamic import DynamicGraph
from .hnsw import build_hnsw
from .knn import exact_knn_graph, exact_knn_matrix, nn_descent_matrix
from .nsg import build_nsg
from .nsw import build_nsw
from .utils import GraphStats, graph_stats, medoid, reachable_fraction

__all__ = [
    "GraphIndex",
    "build_cagra",
    "occlusion_prune_mask",
    "DynamicGraph",
    "build_hnsw",
    "exact_knn_graph",
    "exact_knn_matrix",
    "nn_descent_matrix",
    "build_nsg",
    "build_nsw",
    "GraphStats",
    "graph_stats",
    "medoid",
    "reachable_fraction",
]
