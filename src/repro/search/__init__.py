"""Search: the lockstep batch engine, its distance substrates, and the
IVF scan baselines.  The scalar reference searchers the engine is held
to live with the tests (``tests/reference``)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batched": (
        "BatchedVisited",
        "BatchResults",
        "BeamConfig",
        "LockstepEngine",
        "SearchResult",
        "batched_multi_cta_search",
        "per_cta_capacity",
        "query_entries",
        "seeds_per_cta",
    ),
    ".ivf": ("IVFFlatIndex", "IVFPQIndex", "kmeans"),
    ".precision": (
        "DEFAULT_RERANK_MULT",
        "PRECISIONS",
        "CodecInfo",
        "Int8Codec",
        "PQCodec",
        "ProductQuantizer",
        "ScalarQuantizer",
        "default_pq_m",
        "exact_rerank",
        "make_codec",
    ),
    ".topk": ("heap_merge", "merge_sorted_lists", "merge_topk_batch", "select_topk"),
})
