"""Scalar reference search: the oracles the serving engine is checked against.

Production search runs on one engine, the lockstep
:class:`~repro.search.batched.LockstepEngine`.  This package holds the
one-step-per-Python-iteration code it replaced, kept so tests can hold the
engine to it bit for bit:

* :func:`intra_cta_search` / :class:`CTASearcher` — one CTA (greedy or
  beam extend), with the exact re-rank epilogue of quantized traversal
  (:func:`rerank_into_trace`);
* :func:`multi_cta_search` — ``T`` CTAs round-robin over one shared
  :class:`VisitedBitmap`, merged host-side;
* :class:`CandidateList` — the sorted shared-memory candidate list;
* :func:`greedy_search` / :func:`ef_search` — independent Algorithm 1 and
  HNSW-style implementations on plain Python lists.

It lives with the tests: tests and the perf scripts under
``benchmarks/perf`` import it as ``tests.reference``, and no module under
``src/repro`` may import ``tests`` (``tests/test_import_boundary.py``).
"""

from .candidates import CandidateList
from .greedy import ef_search, greedy_search
from .intra_cta import CTASearcher, intra_cta_search, rerank_into_trace, rerank_step_record
from .multi_cta import multi_cta_search
from .visited import VisitedBitmap

__all__ = [
    "CandidateList",
    "ef_search",
    "greedy_search",
    "CTASearcher",
    "intra_cta_search",
    "rerank_into_trace",
    "rerank_step_record",
    "multi_cta_search",
    "VisitedBitmap",
]
