"""Graph index substrates: kNN, NSW (GANNS-style), HNSW layer 0, NSG and
CAGRA fixed-out-degree — one builder per family."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("GraphIndex",),
    ".build_batched": ("occlusion_prune_mask",),
    ".cagra": ("build_cagra",),
    ".dynamic": ("DynamicGraph",),
    ".hnsw": ("build_hnsw",),
    ".knn": ("exact_knn_graph", "exact_knn_matrix"),
    ".nsg": ("build_nsg",),
    ".nsw": ("build_nsw",),
    ".utils": ("GraphStats", "graph_stats", "medoid", "reachable_fraction"),
})
