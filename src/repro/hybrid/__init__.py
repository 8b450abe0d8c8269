"""Memory-bounded CPU–GPU hybrid serving tier (PilotANN-style).

Serve corpora larger than device memory: traverse a sampled,
dimension-reduced *pilot* subgraph on the GPU, ship the surviving
candidates over PCIe, and refine on host full-precision vectors with a
bounded graph walk.  See docs/performance.md §"Hybrid CPU–GPU tier".
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".pilot": ("PilotIndex", "build_pilot", "size_pilot"),
    ".refine": ("RefineResult", "bounded_refine"),
    ".system": ("HybridSystem",),
})
