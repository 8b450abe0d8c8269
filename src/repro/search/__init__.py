"""Search kernels: greedy/beam-extend intra-CTA, multi-CTA (scalar oracle
and the vectorized lockstep batch engine), IVF baseline."""

from .batched import (
    BatchedVisited,
    BatchResults,
    LockstepEngine,
    batched_intra_cta_search,
    batched_multi_cta_search,
)
from .beam_extend import beam_extend_search, default_beam_config, greedy_extend_search
from .bruteforce import FlatIndex
from .candidates import CandidateList
from .filtered import FilterStats, filtered_search
from .greedy import ef_search, greedy_search
from .intra_cta import BeamConfig, CTASearcher, SearchResult, intra_cta_search
from .ivf import IVFFlatIndex, kmeans
from .multi_cta import make_entries, multi_cta_search, per_cta_capacity
from .precision import (
    DEFAULT_RERANK_MULT,
    PRECISIONS,
    CodecInfo,
    Int8Codec,
    PQCodec,
    default_pq_m,
    exact_rerank,
    make_codec,
)
from .quantization import IVFPQIndex, ProductQuantizer, ScalarQuantizer
from .topk import heap_merge, merge_sorted_lists, merge_topk_batch, select_topk
from .visited import VisitedBitmap

__all__ = [
    "BatchedVisited",
    "BatchResults",
    "LockstepEngine",
    "batched_intra_cta_search",
    "batched_multi_cta_search",
    "beam_extend_search",
    "default_beam_config",
    "greedy_extend_search",
    "FlatIndex",
    "CandidateList",
    "FilterStats",
    "filtered_search",
    "ef_search",
    "greedy_search",
    "BeamConfig",
    "CTASearcher",
    "SearchResult",
    "intra_cta_search",
    "IVFFlatIndex",
    "kmeans",
    "make_entries",
    "multi_cta_search",
    "per_cta_capacity",
    "DEFAULT_RERANK_MULT",
    "PRECISIONS",
    "CodecInfo",
    "Int8Codec",
    "PQCodec",
    "default_pq_m",
    "exact_rerank",
    "make_codec",
    "IVFPQIndex",
    "ProductQuantizer",
    "ScalarQuantizer",
    "heap_merge",
    "merge_sorted_lists",
    "merge_topk_batch",
    "select_topk",
    "VisitedBitmap",
]
