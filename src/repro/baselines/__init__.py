"""Comparator systems: CAGRA, GANNS, and IVF (FAISS-GPU style)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".cagra_system": ("CAGRASystem",),
    ".ganns_system": ("GANNSSystem",),
    ".ivf_system": ("IVFSystem",),
})
