"""Search: the lockstep batch engine, its distance substrates, and the
IVF scan baselines.  The scalar reference searchers the engine is held
to live with the tests (``tests/reference``)."""

from .batched import (
    BatchedVisited,
    BatchResults,
    BeamConfig,
    LockstepEngine,
    SearchResult,
    batched_intra_cta_search,
    batched_multi_cta_search,
    make_entries,
    per_cta_capacity,
)
from .ivf import IVFFlatIndex, IVFPQIndex, kmeans
from .precision import (
    DEFAULT_RERANK_MULT,
    PRECISIONS,
    CodecInfo,
    Int8Codec,
    PQCodec,
    ProductQuantizer,
    ScalarQuantizer,
    default_pq_m,
    exact_rerank,
    make_codec,
)
from .topk import heap_merge, merge_sorted_lists, merge_topk_batch, select_topk

__all__ = [
    "BatchedVisited",
    "BatchResults",
    "BeamConfig",
    "LockstepEngine",
    "SearchResult",
    "batched_intra_cta_search",
    "batched_multi_cta_search",
    "make_entries",
    "per_cta_capacity",
    "IVFFlatIndex",
    "IVFPQIndex",
    "kmeans",
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
    "heap_merge",
    "merge_sorted_lists",
    "merge_topk_batch",
    "select_topk",
]
