"""Graph index substrates: kNN, NSW (GANNS-style), CAGRA fixed-out-degree."""

from .base import GraphIndex
from .build_batched import occlusion_prune_mask
from .cagra import build_cagra
from .dynamic import DynamicGraph
from .gpu_build import BuildEstimate, estimate_build_time
from .hnsw import HNSWIndex, build_hnsw
from .knn import exact_knn_graph, exact_knn_matrix, nn_descent_graph, nn_descent_matrix
from .nsg import build_nsg
from .nsw import build_nsw, build_nsw_fast
from .utils import GraphStats, graph_stats, medoid, reachable_fraction

__all__ = [
    "GraphIndex",
    "build_cagra",
    "occlusion_prune_mask",
    "DynamicGraph",
    "BuildEstimate",
    "estimate_build_time",
    "HNSWIndex",
    "build_hnsw",
    "exact_knn_graph",
    "exact_knn_matrix",
    "nn_descent_graph",
    "nn_descent_matrix",
    "build_nsg",
    "build_nsw",
    "build_nsw_fast",
    "GraphStats",
    "graph_stats",
    "medoid",
    "reachable_fraction",
]
